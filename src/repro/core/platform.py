"""The Frost platform facade.

One object that holds datasets, gold standards, and experiments, and
exposes the platform's evaluations: the N-Metrics viewer, metric/metric
diagrams, set-based comparisons, profiling decision matrices, and the
soft-KPI decision matrix.  This is the programmatic equivalent of
Snowman's benchmark screens (Figure 4) and also backs the REST-style
API of :mod:`repro.server`.
"""

from __future__ import annotations

import threading
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.confusion import ConfusionMatrix
from repro.core.diagrams import DiagramPoint, compute_diagram_optimized
from repro.core.experiment import Experiment, GoldStandard
from repro.core.notify import ListenerSet
from repro.core.records import Dataset

__all__ = ["FrostPlatform", "BenchmarkEntry"]


@dataclass
class BenchmarkEntry:
    """One dataset with its gold standards and experiments."""

    dataset: Dataset
    golds: dict[str, GoldStandard] = field(default_factory=dict)
    experiments: dict[str, Experiment] = field(default_factory=dict)


class FrostPlatform:
    """Registry + evaluation entry points of the benchmark platform.

    >>> platform = FrostPlatform()
    >>> platform.add_dataset(dataset)          # doctest: +SKIP
    >>> platform.add_gold(dataset.name, gold)  # doctest: +SKIP
    >>> platform.metrics_table(dataset.name, gold.name)  # doctest: +SKIP
    """

    def __init__(self) -> None:
        self._entries: dict[str, BenchmarkEntry] = {}
        self._listeners = ListenerSet()
        # Guards registry *mutation* and dict-iterating reads (the
        # sorted name listings): the threaded HTTP server reads while
        # engine workers register pipeline results, and a dict that
        # grows mid-iteration raises RuntimeError.  Plain key lookups
        # are atomic under the GIL and stay lock-free.
        self._registry_lock = threading.RLock()
        # Exploration state computed once per artifact: confusion
        # matrices and timelines, keyed per dataset by (kind, experiment,
        # gold[, checkpoint interval]).  Registered artifacts are never
        # replaced today, so entries cannot go stale.  A registry write
        # to a dataset still drops its entries (see _notify): the memo
        # then follows the same invalidation signal as the serving
        # cache, so a later replace or delete path stays correct without
        # touching it.  The price is that registering an artifact
        # recomputes that dataset's matrices and timelines on next use.
        self._memo_lock = threading.Lock()
        self._memo: dict[str, dict[tuple, object]] = {}

    # -- registry -------------------------------------------------------------------

    def subscribe(self, listener) -> None:
        """Call ``listener(dataset_name)`` after every registry write.

        This is how read-through caches above the platform (the serving
        layer's :class:`~repro.serving.cache.MetricResultCache`) stay
        correct: *any* write path — direct Python calls, the HTTP API,
        or the engine registering a pipeline result — notifies every
        subscriber, which invalidates the dataset's cached payloads.

        Bound-method listeners are held through weak references
        (:class:`~repro.core.notify.ListenerSet`), so an abandoned
        subscriber (a dropped serving layer) detaches itself instead of
        being pinned by the platform forever.
        """
        self._listeners.subscribe(listener)

    def _notify(self, dataset_name: str) -> None:
        with self._memo_lock:
            self._memo.pop(dataset_name, None)
        self._listeners.notify(dataset_name)

    def _memoized(self, dataset_name: str, key: tuple, compute):
        """``compute()`` once per ``key`` until ``dataset_name`` changes.

        Concurrent first calls may both compute; every caller gets the
        value stored first.
        """
        with self._memo_lock:
            memo = self._memo.get(dataset_name, {})
            if key in memo:
                return memo[key]
        value = compute()
        with self._memo_lock:
            return self._memo.setdefault(dataset_name, {}).setdefault(key, value)

    def add_dataset(self, dataset: Dataset) -> None:
        """Register a dataset under its name."""
        with self._registry_lock:
            if dataset.name in self._entries:
                raise ValueError(
                    f"dataset {dataset.name!r} is already registered"
                )
            self._entries[dataset.name] = BenchmarkEntry(dataset=dataset)
        self._notify(dataset.name)

    def add_gold(self, dataset_name: str, gold: GoldStandard) -> None:
        """Register a gold standard for a dataset."""
        with self._registry_lock:
            entry = self._entry(dataset_name)
            if gold.name in entry.golds:
                raise ValueError(
                    f"gold {gold.name!r} already registered for "
                    f"{dataset_name!r}"
                )
            entry.golds[gold.name] = gold
        self._notify(dataset_name)

    def add_experiment(self, dataset_name: str, experiment: Experiment) -> None:
        """Register an experiment (a matching result) for a dataset."""
        with self._registry_lock:
            entry = self._entry(dataset_name)
            if experiment.name in entry.experiments:
                raise ValueError(
                    f"experiment {experiment.name!r} already registered for "
                    f"{dataset_name!r}"
                )
            entry.experiments[experiment.name] = experiment
        self._notify(dataset_name)

    def dataset_names(self) -> list[str]:
        """Names of all registered datasets, sorted."""
        with self._registry_lock:
            return sorted(self._entries)

    def dataset(self, name: str) -> Dataset:
        """The registered dataset named ``name``."""
        return self._entry(name).dataset

    def gold(self, dataset_name: str, gold_name: str) -> GoldStandard:
        """A registered gold standard of a dataset."""
        entry = self._entry(dataset_name)
        try:
            return entry.golds[gold_name]
        except KeyError:
            known = ", ".join(sorted(entry.golds)) or "(none)"
            raise KeyError(
                f"no gold {gold_name!r} for {dataset_name!r}; known: {known}"
            ) from None

    def experiment(self, dataset_name: str, experiment_name: str) -> Experiment:
        """A registered experiment of a dataset."""
        entry = self._entry(dataset_name)
        try:
            return entry.experiments[experiment_name]
        except KeyError:
            known = ", ".join(sorted(entry.experiments)) or "(none)"
            raise KeyError(
                f"no experiment {experiment_name!r} for {dataset_name!r}; "
                f"known: {known}"
            ) from None

    def experiment_names(self, dataset_name: str) -> list[str]:
        """Names of a dataset's experiments, sorted."""
        with self._registry_lock:
            return sorted(self._entry(dataset_name).experiments)

    def gold_names(self, dataset_name: str) -> list[str]:
        """Names of a dataset's gold standards, sorted."""
        with self._registry_lock:
            return sorted(self._entry(dataset_name).golds)

    def _entry(self, dataset_name: str) -> BenchmarkEntry:
        try:
            return self._entries[dataset_name]
        except KeyError:
            known = ", ".join(sorted(self._entries)) or "(none)"
            raise KeyError(
                f"no dataset named {dataset_name!r}; known: {known}"
            ) from None

    # -- evaluations -----------------------------------------------------------------

    def confusion(
        self, dataset_name: str, experiment_name: str, gold_name: str
    ) -> ConfusionMatrix:
        """Pair-level confusion matrix of one experiment vs one gold.

        Computed once per (experiment, gold) and kept until the next
        registry write to the dataset.
        """
        entry = self._entry(dataset_name)
        experiment = self.experiment(dataset_name, experiment_name)
        gold = self.gold(dataset_name, gold_name)
        return self._memoized(
            dataset_name,
            ("confusion", experiment_name, gold_name),
            lambda: ConfusionMatrix.from_clusterings(
                experiment.clustering(),
                gold.clustering,
                entry.dataset.total_pairs(),
            ),
        )

    def metrics_table(
        self,
        dataset_name: str,
        gold_name: str,
        experiment_names: Sequence[str] | None = None,
        metric_names: Sequence[str] | None = None,
    ) -> dict[str, dict[str, float]]:
        """The N-Metrics viewer (§5.4): metrics for several experiments.

        Returns ``{experiment name: {metric name: value}}``.
        """
        from repro.metrics.registry import default_registry

        registry = default_registry()
        names = (
            list(experiment_names)
            if experiment_names is not None
            else self.experiment_names(dataset_name)
        )
        table: dict[str, dict[str, float]] = {}
        for experiment_name in names:
            matrix = self.confusion(dataset_name, experiment_name, gold_name)
            table[experiment_name] = registry.evaluate(matrix, metric_names)
        return table

    def diagram(
        self,
        dataset_name: str,
        experiment_name: str,
        gold_name: str,
        samples: int = 100,
    ) -> list[DiagramPoint]:
        """Metric/metric diagram data via the optimized algorithm."""
        return compute_diagram_optimized(
            self.dataset(dataset_name),
            self.experiment(dataset_name, experiment_name),
            self.gold(dataset_name, gold_name),
            samples=samples,
        )

    def profile(self, dataset_name: str):
        """Profiling metrics of a registered dataset (§3.1.3).

        Uses the first registered gold standard (if any) for the
        positive-ratio dimension.
        """
        from repro.profiling import profile_dataset

        entry = self._entry(dataset_name)
        gold = next(iter(entry.golds.values()), None)
        return profile_dataset(entry.dataset, gold)

    def timeline(
        self,
        dataset_name: str,
        experiment_name: str,
        gold_name: str,
        checkpoint_every: int | None = None,
    ):
        """A :class:`~repro.core.timeline.DiagramTimeline` over
        registered artifacts (threshold exploration with cheap rewinds).

        One shared timeline per (experiment, gold, checkpoint interval),
        kept until the next registry write to the dataset.
        """
        from repro.core.timeline import DiagramTimeline

        dataset = self.dataset(dataset_name)
        experiment = self.experiment(dataset_name, experiment_name)
        gold = self.gold(dataset_name, gold_name)
        return self._memoized(
            dataset_name,
            ("timeline", experiment_name, gold_name, checkpoint_every),
            lambda: DiagramTimeline(
                dataset, experiment, gold, checkpoint_every=checkpoint_every
            ),
        )

    def compare_sets(
        self,
        dataset_name: str,
        inputs: Mapping[str, str] | Sequence[str],
    ):
        """A :class:`~repro.exploration.setops.SetComparison` over named
        experiments and/or golds of one dataset.

        ``inputs`` is either a list of experiment/gold names or a
        mapping ``{display name: registered name}``.
        """
        from repro.exploration.setops import SetComparison

        entry = self._entry(dataset_name)

        def resolve(name: str):
            if name in entry.experiments:
                return entry.experiments[name]
            if name in entry.golds:
                return entry.golds[name]
            known = ", ".join(sorted([*entry.experiments, *entry.golds]))
            raise KeyError(f"no experiment or gold named {name!r}; known: {known}")

        if isinstance(inputs, Mapping):
            resolved = {display: resolve(name) for display, name in inputs.items()}
        else:
            resolved = {name: resolve(name) for name in inputs}
        return SetComparison(entry.dataset, resolved)
