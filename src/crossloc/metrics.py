"""Pose-error statistics: per-sample decomposition and recall summaries.

Localization error splits into longitudinal (along the driving direction)
and lateral (across it) components, orientation error is reported in
degrees wrapped to [0, 180], and summaries report mean/median per error
kind plus recall percentages at distance and angle thresholds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, require_real
from .geometry import SimilarityTransform2D, wrap_angle

__all__ = [
    "ErrorSample",
    "Summary",
    "pose_errors",
    "summarize",
    "DEFAULT_LOC_THRESHOLDS",
    "DEFAULT_ORI_THRESHOLDS",
]

DEFAULT_LOC_THRESHOLDS = (1.0, 5.0)  # meters
DEFAULT_ORI_THRESHOLDS = (1.0, 5.0)  # degrees

ERROR_KINDS = ("loc", "ori", "lateral", "longitudinal")


@dataclass(frozen=True)
class ErrorSample:
    """One estimate's error decomposition (meters / degrees)."""

    loc_error: float
    ori_error: float  # degrees, in [0, 180]
    lateral: float
    longitudinal: float

    def __post_init__(self):
        for name in ("loc_error", "lateral", "longitudinal"):
            require_real(name, getattr(self, name), 0)
        require_real("ori_error", self.ori_error, 0, 180, ends="[]")


@dataclass(frozen=True)
class Summary:
    """Mean/median per error kind and recall percentages per threshold."""

    means: dict  # kind -> value
    medians: dict  # kind -> value
    recalls: dict  # label (e.g. "R@1m") -> percentage in [0, 100]
    count: int

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "means": dict(self.means),
            "medians": dict(self.medians),
            "recalls": dict(self.recalls),
        }


def pose_errors(
    est: SimilarityTransform2D, gt: SimilarityTransform2D, heading: float
) -> ErrorSample:
    """Decompose the error of an estimated planar pose against ground truth.

    ``heading`` is the driving direction in the ground-truth frame
    (radians); the translation error projects onto that direction
    (longitudinal) and its left-normal (lateral).
    """
    delta = np.asarray(est.t, dtype=float) - np.asarray(gt.t, dtype=float)
    loc = float(np.linalg.norm(delta))
    ori = abs(math.degrees(wrap_angle(est.theta - gt.theta)))
    forward = np.array([math.cos(heading), math.sin(heading)])
    left = np.array([-math.sin(heading), math.cos(heading)])
    return ErrorSample(
        loc_error=loc,
        ori_error=ori,
        lateral=abs(float(delta @ left)),
        longitudinal=abs(float(delta @ forward)),
    )


def _sample_value(sample: ErrorSample, kind: str) -> float:
    return {
        "loc": sample.loc_error,
        "ori": sample.ori_error,
        "lateral": sample.lateral,
        "longitudinal": sample.longitudinal,
    }[kind]


def summarize(
    samples,
    loc_thresholds=DEFAULT_LOC_THRESHOLDS,
    ori_thresholds=DEFAULT_ORI_THRESHOLDS,
) -> Summary:
    """Means, midpoint medians, and recall percentages over error samples.

    Recall at a distance threshold counts samples with loc_error <= t;
    at an angle threshold, ori_error <= t degrees.  Percentages are exact
    fractions times 100, so they are monotone in the threshold.
    """
    samples = list(samples)
    if not samples:
        raise EmptyInput("summarize() needs at least one sample")
    columns = {
        kind: np.array([_sample_value(s, kind) for s in samples])
        for kind in ERROR_KINDS
    }
    means = {kind: float(col.mean()) for kind, col in columns.items()}
    medians = {kind: float(np.median(col)) for kind, col in columns.items()}
    recalls = {}
    for t in loc_thresholds:
        recalls[f"R@{t:g}m"] = float(100.0 * (columns["loc"] <= t).mean())
    for t in ori_thresholds:
        recalls[f"R@{t:g}deg"] = float(100.0 * (columns["ori"] <= t).mean())
    return Summary(means=means, medians=medians, recalls=recalls, count=len(samples))
