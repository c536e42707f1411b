"""Threshold-based decision models (pipeline step 4, §1.2).

The simplest decision model family: a weighted linear combination of
attribute similarities compared against a threshold.  Draisbach and
Naumann showed that the optimal threshold depends on dataset size [22],
which Frost's metric/metric diagrams help locate (§4.5.1).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.matching.attribute_matching import SimilarityMatrix, SimilarityVector

__all__ = ["WeightedAverageModel", "best_threshold"]


class WeightedAverageModel:
    """Weighted mean of attribute similarities as the match score.

    Missing comparisons are excluded from the weighted mean (their
    weight is redistributed), or — with ``missing_penalty`` — counted
    as that fixed similarity, letting studies control how a solution
    reacts to sparsity (cf. Appendix C).
    """

    def __init__(
        self,
        weights: Mapping[str, float],
        missing_penalty: float | None = None,
    ) -> None:
        if not weights:
            raise ValueError("model needs at least one attribute weight")
        if any(weight < 0 for weight in weights.values()):
            raise ValueError("attribute weights must be non-negative")
        if sum(weights.values()) == 0:
            raise ValueError("at least one attribute weight must be positive")
        self.weights = dict(weights)
        self.missing_penalty = missing_penalty

    def __call__(self, vector: SimilarityVector) -> float:
        return self.score(vector)

    def score(self, vector: SimilarityVector) -> float:
        """The weighted mean of the vector's attribute similarities."""
        total = 0.0
        total_weight = 0.0
        for attribute, weight in self.weights.items():
            value = vector.values.get(attribute)
            if value is None:
                if self.missing_penalty is None:
                    continue
                value = self.missing_penalty
            total += weight * value
            total_weight += weight
        if total_weight == 0.0:
            return 0.0
        return total / total_weight

    def score_matrix(self, matrix: SimilarityMatrix) -> np.ndarray:
        """:meth:`score` of every row of ``matrix``, bit for bit.

        Runs :meth:`score`'s loop once per weight over whole columns:
        the same additions in the same order, masked where a value is
        missing, so each row gets the very same double.  Only exact for
        ``int``/``float`` weights and penalty (see
        :func:`repro.matching.pipeline.decision_plan`).
        """
        rows = len(matrix)
        column_of = {name: j for j, name in enumerate(matrix.attributes)}
        missing = np.full(rows, np.nan)
        total = np.zeros(rows)
        total_weight = np.zeros(rows)
        for attribute, weight in self.weights.items():
            column = column_of.get(attribute)
            values = missing if column is None else matrix.scores[:, column]
            present = ~np.isnan(values)
            if self.missing_penalty is None:
                total = np.where(present, total + weight * values, total)
                total_weight = np.where(
                    present, total_weight + weight, total_weight
                )
            else:
                total = total + np.where(
                    present, weight * values, weight * self.missing_penalty
                )
                total_weight = total_weight + weight
        scores = np.zeros(rows)
        np.divide(total, total_weight, out=scores, where=total_weight != 0.0)
        return scores


def best_threshold(
    points,
    metric,
) -> tuple[float, float]:
    """The sampled threshold maximizing ``metric`` on a diagram.

    Parameters
    ----------
    points:
        ``DiagramPoint`` sequence from :mod:`repro.core.diagrams`.
    metric:
        Pair metric over confusion matrices, e.g.
        :func:`repro.metrics.pairwise.f1_score`.

    Returns
    -------
    (threshold, metric value) of the best sampled data point.  Ties go
    to the higher (more conservative) threshold.
    """
    if not points:
        raise ValueError("no diagram points given")
    best = max(points, key=lambda point: (metric(point.matrix), point.threshold))
    return best.threshold, metric(best.matrix)
