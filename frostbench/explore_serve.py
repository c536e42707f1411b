"""explore-serve: two keep-alive HTTP clients exploring results.

One repetition (one fresh process) sets up two users' projects on a
:class:`~repro.server.api.FrostApi` with a file store, serves it with
:class:`~repro.server.http.FrostHttpServer` on loopback in this process,
and runs a closed loop of two keep-alive clients from a client process
(:mod:`frostbench.explore_client`).  Each client works on its own copy
of the corpus: metrics tables, diagrams, error categories, threshold
timelines, set intersections, and graph neighbors/explain queries on
its own stream's match graph, with a stream-batch POST every few
requests that invalidates the cached graph payloads.  The mix follows
the paper's exploration views; it is an assumption, not a recorded
trace.

Each client replays its own seeded schedule of the same set of views,
on its own copy, so both ask for the same work and every seed loads the
server alike.  The clients take turns, one request in flight at a time:
with two requests in flight, the server's threads contend for the
interpreter lock, and how their hand-offs fall moved the median latency
by a third between runs of the same code.  The clients share no
dataset, stream or cached result, so which requests compute and which
hit the serving cache does not depend on their order, and every
response can be compared byte for byte with a single-threaded
in-process replay (:func:`replay`).

The experiments are the pipeline's scored candidates (every scored
pair, as Frost diagrams need), closure-stable submissions from
``synthesize_experiment`` at several precision/recall levels, and one
low-precision submission whose false positives chain into one large
component: timeline requests on it enumerate every closure pair.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import subprocess
import sys
import time
from urllib.parse import parse_qsl, urlencode, urlparse

from frostbench.common import BATCH_CONFIG, STREAM_CONFIG, LayerClock, peak_rss_mb

CLIENTS = 2
GOLD = "gold"
# name -> (precision, recall) of the closure-stable submissions
LEVELS = {
    "synth-high": (0.95, 0.9),
    "synth-mid": (0.85, 0.7),
    "synth-recall": (0.7, 0.95),
}
EXPERIMENTS = ("scored", *LEVELS, "chained")
# Further closure-stable submissions that only the N-Metrics viewer
# compares, as a benchmark with many submitted runs has.
SUBMISSIONS = {
    f"run-p{round(100 * precision)}-r{round(100 * recall)}": (precision, recall)
    for precision in (0.6, 0.8, 0.99) for recall in (0.5, 0.8)
}
# Metric selections of the N-Metrics viewer: none (all metrics), each
# metric alone, and each pair of neighbours in the registry's order.
METRIC_NAMES = (
    "accuracy", "balanced_accuracy", "bookmaker_informedness", "f1", "f_star",
    "false_negative_rate", "false_positive_rate", "fowlkes_mallows",
    "jaccard_index", "markedness", "matthews_correlation",
    "negative_predictive_value", "pairs_completeness", "pairs_quality",
    "precision", "prevalence", "recall", "reduction_ratio", "specificity",
)
METRIC_SELECTIONS = (
    {},
    *({"metrics": name} for name in METRIC_NAMES),
    *({"metrics": f"{first},{second}"} for first, second in zip(METRIC_NAMES, METRIC_NAMES[1:])),
)
# Share of GET requests that repeat an earlier one still in the cache.
REPEAT_SHARE = 0.1
# The layer a first-time request of each kind is attributed to.
LAYER_OF = {
    "metrics": "metrics.table_s",
    "diagram": "core.diagram_s",
    "categorize": "exploration.categorize_s",
    "timeline": "core.timeline_s",
    "chained-timeline": "core.timeline_s",
    "intersection": "exploration.intersection_s",
    "neighbors": "graph.query_s",
    "explain": "graph.query_s",
    "post": "streaming.batch_post_s",
}
LAYERS = (
    "metrics.table_s", "core.diagram_s", "core.timeline_s",
    "exploration.categorize_s", "exploration.intersection_s",
    "graph.load_s", "graph.query_s", "streaming.batch_post_s", "serving.hit_s",
)


def _rows(records) -> list[dict]:
    return [{"id": record.record_id, **record.values} for record in records]


def _chained(dataset, gold, seed: int, length: int):
    """A low-precision submission: false positives chained over records."""
    from repro.core.experiment import Experiment, Match
    from repro.core.pairs import make_pair
    from repro.datagen.synthesize import synthesize_experiment

    base = synthesize_experiment(
        dataset, gold, precision=0.9, recall=0.8, seed=seed, name="chained",
    )
    # Chain records that are alone in the submission, so the chained
    # component has exactly ``length`` records on every seed.
    clustered = {
        record for cluster in base.clustering().nontrivial_clusters()
        for record in cluster
    }
    free = [record for record in dataset.record_ids if record not in clustered]
    members = random.Random(f"chain-{seed}").sample(free, length)
    rng = random.Random(f"chain-scores-{seed}")
    chain = [
        Match(pair=make_pair(first, second), score=round(rng.uniform(0.3, 0.7), 6))
        for first, second in zip(members, members[1:])
    ]
    return Experiment([*base.matches, *chain], name="chained", solution="chained")


class State:
    """One freshly set-up server state: platform, store, API and plans."""

    def __init__(self, seed: int, sizes: dict, workdir: str, name: str) -> None:
        from repro.core.clustering import Clustering
        from repro.core.experiment import GoldStandard
        from repro.core.platform import FrostPlatform
        from repro.core.records import Dataset, Record
        from repro.datagen import make_person_benchmark
        from repro.datagen.synthesize import synthesize_experiment
        from repro.server.api import FrostApi
        from repro.storage.database import FrostStore
        from repro.streaming import build_pipeline_and_index

        self.store = FrostStore(os.path.join(workdir, f"{name}.db"))
        self.platform = FrostPlatform()
        self.api = FrostApi(self.platform, store=self.store)
        pipeline, _ = build_pipeline_and_index(BATCH_CONFIG)
        self.plans = []
        self.largest_components: dict[str, int] = {}
        bench = make_person_benchmark(sizes["explore_records"], seed=seed)
        for client in range(CLIENTS):
            # Each client explores its own copy of the corpus: the same
            # records under client-specific ids, so both clients ask for
            # the same amount of work while sharing no cached result.
            prefix = f"c{client}-"
            dataset = Dataset(
                (
                    Record(record_id=prefix + record.record_id, values=record.values)
                    for record in bench.dataset
                ),
                name=f"persons-{client}",
                attributes=bench.dataset.attributes,
            )
            gold = GoldStandard(
                clustering=Clustering(
                    [prefix + member for member in cluster]
                    for cluster in bench.gold.clustering.clusters
                ),
                name=GOLD,
            )
            self.platform.add_dataset(dataset)
            self.platform.add_gold(dataset.name, gold)
            scored = pipeline.scored_experiment(dataset)
            scored.name = "scored"
            experiments = [scored]
            levels = {**LEVELS, **SUBMISSIONS}
            for index, (level, (precision, recall)) in enumerate(levels.items()):
                experiments.append(synthesize_experiment(
                    dataset, gold, precision, recall,
                    seed=seed * 100 + index, name=level,
                ))
            experiments.append(
                _chained(dataset, gold, seed, sizes["explore_chain"])
            )
            for experiment in experiments:
                self.platform.add_experiment(dataset.name, experiment)
            for experiment in experiments:
                if experiment.name in EXPERIMENTS:
                    self.largest_components[experiment.name] = max(
                        experiment.clustering().cluster_sizes(), default=1
                    )

            stream = f"stream-{client}"
            records = list(dataset)
            initial = len(records) // 2
            self.call("POST", "/streams", {
                "name": stream, "config": {**STREAM_CONFIG, "graph": True},
            })
            self.call("POST", f"/streams/{stream}/batches", {
                "records": _rows(records[:initial]), "job_id": f"{stream}-initial",
            })
            self.plans.append(_plan(
                seed, client, sizes, dataset.name, stream, records, initial, gold,
            ))

    def call(self, method: str, url: str, body: object = None) -> object:
        """Dispatch one request URL through ``FrostApi.handle``."""
        parsed = urlparse(url)
        return self.api.handle(
            parsed.path, dict(parse_qsl(parsed.query)), method=method, body=body
        )


def _views(share: float, rng) -> dict[str, list[dict]]:
    """The fresh GET queries of one client, per kind, in request order.

    The same queries (on each client's own data) for every client and
    seed, so every seed asks for the same work; ``share`` keeps a prefix
    of each list for small scales.
    """
    others = [name for name in EXPERIMENTS if name != "chained"]
    views = {
        # The N-Metrics viewer over all submissions, the view users
        # revisit most: every selection costs the same, and these
        # requests hold the median.
        "metrics": [
            {"gold": GOLD, "exps": ",".join((*EXPERIMENTS, *SUBMISSIONS)), **selection}
            for selection in METRIC_SELECTIONS
        ],
        "diagram": [{"exp": name, "gold": GOLD, "n": 100} for name in EXPERIMENTS],
        "categorize": [
            {"exp": name, "gold": GOLD} for name in EXPERIMENTS
        ] + [{"exp": "scored", "gold": GOLD, "limit": 200}],
        "timeline": [
            {"exp": name, "gold": GOLD, "high": 0.9, "low": 0.5} for name in others
        ],
        # Every range spans all chain scores (0.3-0.7), so each request
        # enumerates the whole chained component's closure pairs.
        "chained-timeline": [
            {"exp": "chained", "gold": GOLD, "high": high, "low": low}
            for high in (0.95, 0.9) for low in (0.25, 0.2, 0.15, 0.1, 0.05, 0.02, 0.0)
        ],
        "intersection": [
            {"include": "gold", "exclude": "scored"},
            {"include": "synth-mid,synth-recall"},
            {"include": "chained", "exclude": "synth-high"},
        ],
        "neighbors": [None] * 4,
        "explain": [None] * 3,
    }
    for queries in views.values():
        rng.shuffle(queries)
        del queries[max(1, round(len(queries) * share)):]
    return views


def _plan(seed, client, sizes, dataset_name, stream, records, ingested, gold):
    """One client's request sequence: a list of request dicts.

    The client's seeded schedule orders a fixed set of views (see
    :func:`_views`), inserts repeats of requests still cached, picks the
    records graph queries start from, and POSTs the next stream batch
    every ``explore_post_every`` requests.
    """
    schedule = random.Random(f"explore-{seed}-{client}")
    records_rng = random.Random(f"explore-records-{seed}-{client}")
    views = _views(sizes["explore_share"], schedule)
    kinds = [kind for kind, queries in views.items() for _ in queries]
    schedule.shuffle(kinds)
    for _ in range(round(len(kinds) * REPEAT_SHARE / (1 - REPEAT_SHARE))):
        kinds.insert(schedule.randrange(3, len(kinds) + 1), "repeat")

    dataset_path = f"/datasets/{dataset_name}"
    graph_path = f"/graph/{stream}"
    route = {"chained-timeline": "timeline"}
    cluster_of = gold.clustering.cluster_of
    post_every = sizes["explore_post_every"]

    plan: list[dict] = []
    cached: list[dict] = []  # earlier GETs a repeat is certain to find cached
    for kind in kinds:
        if plan and len(plan) % post_every == 0 and ingested < len(records):
            batch = records[ingested : ingested + sizes["explore_post_records"]]
            ingested += len(batch)
            plan.append({
                "kind": "post", "method": "POST",
                "url": f"/streams/{stream}/batches",
                "body": {"records": _rows(batch), "job_id": f"{stream}-{len(plan)}"},
                "graph": None,
            })
            cached = [request for request in cached if request["graph"] is None]
        if kind == "repeat":
            if not cached:
                continue
            request = dict(cached[schedule.randrange(len(cached))], repeat=True)
        elif kind == "neighbors":
            views[kind].pop()
            record = records[records_rng.randrange(ingested)].record_id
            query = {"record": record, "k": 2}
            request = {"kind": kind, "url": f"{graph_path}/neighbors?{urlencode(query)}"}
        elif kind == "explain":  # a record and one of its true duplicates
            views[kind].pop()
            first = records[records_rng.randrange(ingested)].record_id
            known = {record.record_id for record in records[:ingested]}
            partners = [r for r in cluster_of(first) if r != first and r in known]
            second = (
                records_rng.choice(partners) if partners
                else records[records_rng.randrange(ingested)].record_id
            )
            query = {"from": first, "to": second}
            request = {"kind": kind, "url": f"{graph_path}/explain?{urlencode(query)}"}
        else:
            query = views[kind].pop()
            request = {
                "kind": kind,
                "url": f"{dataset_path}/{route.get(kind, kind)}?{urlencode(query)}",
            }
        request.setdefault("method", "GET")
        request.setdefault("body", None)
        request.setdefault(
            "graph", stream if kind in ("neighbors", "explain") else None
        )
        plan.append(request)
        cached.append(request)
    return plan


def _digest(body: bytes) -> str:
    """The digest a client records for a response body."""
    return hashlib.sha256(body).hexdigest()


def _run_clients(port: int, plans: list[list[dict]]) -> tuple[float, list[list]]:
    """Run the clients' plans from a client process; returns the loop's
    wall time and each client's ``[latency_ms, status, body digest]`` rows."""
    client = subprocess.Popen(
        [sys.executable, "-m", "frostbench.explore_client", str(port)],
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        client.stdin.write(json.dumps(plans) + "\n")
        client.stdin.flush()
        if client.stdout.readline().strip() != "ready":
            raise RuntimeError("the HTTP clients failed to connect")
        started = time.perf_counter()
        client.stdin.write("go\n")
        client.stdin.flush()
        results = json.loads(client.stdout.readline())
        work_s = time.perf_counter() - started
    finally:
        client.stdin.close()
        if client.wait(timeout=60) != 0:
            raise RuntimeError("the HTTP client process exited with an error")
    return work_s, results


def measure(seed: int, sizes: dict, workdir: str) -> dict:
    """Serve one fresh state over HTTP to two closed-loop clients taking turns."""
    started = time.perf_counter()
    from repro.server.http import FrostHttpServer

    state = State(seed, sizes, workdir, "serve")
    server = FrostHttpServer(state.api, port=0)
    server.start()
    setup_s = time.perf_counter() - started
    try:
        work_s, results = _run_clients(server.port, state.plans)
        connection = http.client.HTTPConnection("127.0.0.1", server.port)
        connection.request("GET", "/stats")
        stats = json.loads(connection.getresponse().read())["serving"]
        connection.close()
    finally:
        server.stop()
        state.store.close()

    requests = [entry for client in results for entry in client]
    return {
        "setup_s": setup_s,
        "rss_mb": peak_rss_mb(),
        "work_s": work_s,
        "units": len(requests),
        "ops_ms": [latency for latency, _, _ in requests],
        "ops": sum(len(plan) for plan in state.plans),
        "responses": [
            [[status, body] for _, status, body in client] for client in results
        ],
        "latencies_ms": [[latency for latency, _, _ in client] for client in results],
        "stats": {
            "requests": stats["requests"],
            "computations": stats["computations"],
        },
        "largest_components": state.largest_components,
    }


def replay(seed: int, sizes: dict, workdir: str, traced: bool) -> dict:
    """Replay both clients' sequences single-threaded through ``FrostApi.handle``.

    Runs against a cold serving layer in a fresh process.  With
    ``traced``, each request's time goes to the layer of its kind when
    it computes, and to ``serving.hit_s`` when it is served from cache;
    the first graph request after each graph write is preceded by a
    trivial path query (``from`` = ``to``), so the graph rehydration it
    triggers is timed as ``graph.load_s``.
    """
    from repro.server.api import ApiError

    state = State(seed, sizes, workdir, "replay")
    clock = LayerClock()
    responses = []
    first_time = []
    loaded_graphs: set[str] = set()
    started = time.perf_counter()
    for plan in state.plans:
        client_responses = []
        for request in plan:
            graph = request["graph"]
            if traced and graph is not None and graph not in loaded_graphs:
                query = dict(parse_qsl(urlparse(request["url"]).query))
                probe_id = query.get("record") or query.get("from")
                clock.call(
                    "graph.load_s", state.call, "GET",
                    f"/graph/{graph}/path?{urlencode({'from': probe_id, 'to': probe_id})}",
                )
                loaded_graphs.add(graph)
            computations = state.api.serving.computations
            request_started = time.perf_counter()
            try:
                payload = state.call(request["method"], request["url"], request["body"])
                status = 200
            except ApiError as error:
                payload = {"error": error.message, "status": error.status}
                status = error.status
            body = json.dumps(payload).encode("utf-8")
            elapsed = time.perf_counter() - request_started
            computed = state.api.serving.computations > computations
            kind = request["kind"]
            if kind == "post":
                loaded_graphs.discard(request["url"].split("/")[2])
            if traced:
                clock.add(
                    LAYER_OF[kind] if computed or kind == "post" else "serving.hit_s",
                    elapsed,
                )
            first_time.append(computed if kind != "post" else None)
            client_responses.append([status, _digest(body)])
        responses.append(client_responses)
    wall = time.perf_counter() - started
    state.store.close()
    gets = [flag for flag in first_time if flag is not None]
    return {
        "responses": responses,
        "first_time": first_time,
        "first_time_share": sum(gets) / len(gets),
        "wall_s": wall,
        "work_s": wall,
        "traced_wall_s": wall,
        "unattributed_s": wall - clock.attributed(),
        "layers": {layer: clock.inclusive[layer] for layer in LAYERS},
    }
