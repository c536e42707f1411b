"""Helpers shared by the benchmark's workloads (child-process side).

Nothing here imports :mod:`repro`: the workload modules import it inside
their set-up phase, so that the import counts as set-up time.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from collections import defaultdict

# Input sizes per scale.  "default" is what the benchmark measures;
# "smoke" is a tiny configuration that exercises every code path and
# output check in a few seconds (see frostbench/smoke.py).
SCALES = {
    "default": {
        "batch_records": 10_000,
        "batch_reruns": 17,
        "stream_records": 10_000,
        "stream_batches": 100,
        "explore_records": 2_000,
        "explore_share": 1.0,
        "explore_post_every": 16,
        "explore_post_records": 30,
        "explore_chain": 150,
    },
    "smoke": {
        "batch_records": 600,
        "batch_reruns": 3,
        "stream_records": 600,
        "stream_batches": 10,
        "explore_records": 300,
        "explore_share": 0.3,
        "explore_post_every": 6,
        "explore_post_records": 5,
        "explore_chain": 40,
    },
}

# The batch-match pipeline (also scores explore-serve's scored
# experiments): zip-prefix blocking, Jaro-Winkler on names and street,
# Levenshtein on phone.
BATCH_CONFIG = {
    "key": {"kind": "prefix", "attribute": "zip", "length": 3},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "street": "jaro_winkler",
        "phone": "levenshtein",
    },
    "threshold": 0.75,
}

# The stream-ingest session: same blocking, repeating values (names,
# city, birth year), disk-backed delta blocking and a match graph.
STREAM_CONFIG = {
    "key": {"kind": "prefix", "attribute": "zip", "length": 3},
    "similarities": {
        "first_name": "jaro_winkler",
        "last_name": "jaro_winkler",
        "city": "jaro_winkler",
        "birth_year": "exact",
    },
    "threshold": 0.8,
    "blocking_storage": "disk",
}


# Attributes compared by either matching workload (value-sharing metrics).
ATTRIBUTES = ("first_name", "last_name", "street", "phone", "city", "birth_year")


def digest(document: object) -> str:
    """SHA-256 over the canonical JSON encoding of ``document``."""
    encoded = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class LayerClock:
    """Wall-time accounting for the calls the benchmark makes into layers.

    :meth:`wrap` returns a timed version of a callable; :meth:`attach`
    replaces a method on an instance the benchmark built.  Nested timed
    calls are subtracted from their caller, so each layer has an
    inclusive and a self time.  Layers named in ``containers`` only
    group other layers: their self time counts as unattributed.
    Single-threaded use only.
    """

    def __init__(self, containers: tuple[str, ...] = ()) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.containers = frozenset(containers)
        self._children: list[float] = []

    def wrap(self, name: str, function):
        def timed(*args, **kwargs):
            self._children.append(0.0)
            started = time.perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - started
                children = self._children.pop()
                self.inclusive[name] += elapsed
                self.self_time[name] += elapsed - children
                if self._children:
                    self._children[-1] += elapsed

        return timed

    def add(self, name: str, seconds: float) -> None:
        """Count ``seconds`` measured by the caller (no nested layers) to ``name``."""
        self.inclusive[name] += seconds
        self.self_time[name] += seconds

    def call(self, name: str, function, *args, **kwargs):
        """Call ``function`` once, timed under ``name``."""
        return self.wrap(name, function)(*args, **kwargs)

    def attach(self, instance: object, method: str, name: str) -> None:
        """Time every call of ``instance.method`` under ``name``."""
        setattr(instance, method, self.wrap(name, getattr(instance, method)))

    def attributed(self) -> float:
        """Seconds spent in the self time of non-container layers."""
        return sum(
            seconds
            for name, seconds in self.self_time.items()
            if name not in self.containers
        )


def value_sharing(prepared, pairs, similarities) -> dict[str, float]:
    """Distinct value pairs per compared pair, for each compared attribute.

    A low ratio means the comparison kernels' memo of distinct value
    pairs does most of the work; a ratio near 1 means every pair is new.
    Attributes this workload does not compare read 0.
    """
    sharing = {}
    for attribute in ATTRIBUTES:
        if attribute not in similarities or not pairs:
            sharing[f"matching.value_sharing.{attribute}"] = 0.0
            continue
        distinct = {
            (prepared[first].value(attribute), prepared[second].value(attribute))
            for first, second in pairs
        }
        sharing[f"matching.value_sharing.{attribute}"] = len(distinct) / len(pairs)
    return sharing
