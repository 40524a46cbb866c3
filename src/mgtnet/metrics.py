"""Pose error metrics: MPJPE, Procrustes-aligned MPJPE, PCK, and AUC.

Operates on plain numpy arrays of joint coordinates; a single pose is
(N, 3) and a batch is (S, N, 3).  Nothing here is differentiated, so the
implementations favor clarity over tape compatibility.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "AlignmentError",
    "mpjpe",
    "procrustes_align",
    "pa_mpjpe",
    "pck",
    "auc",
    "MetricRow",
    "MetricReport",
    "metric_report",
    "DEFAULT_PCK_THRESHOLD",
    "DEFAULT_AUC_GRID",
]

DEFAULT_PCK_THRESHOLD = 150.0
DEFAULT_AUC_GRID = tuple(float(t) for t in range(0, 151, 5))

_DEGENERATE_EPS = 1e-12


class AlignmentError(ValueError):
    """Similarity alignment is undefined for the given poses."""


def _as_pose_batch(arr) -> np.ndarray:
    a = np.asarray(arr, dtype=np.float64)
    if a.ndim == 2:
        a = a[None]
    if a.ndim != 3 or a.shape[-1] != 3:
        raise ValueError(f"expected poses of shape (N, 3) or (S, N, 3), got {np.shape(arr)}")
    return a


def _paired(pred, gt) -> tuple[np.ndarray, np.ndarray]:
    p, g = _as_pose_batch(pred), _as_pose_batch(gt)
    if p.shape != g.shape:
        raise ValueError(f"prediction shape {p.shape} does not match target shape {g.shape}")
    return p, g


def _pose_errors(p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Per-pose mean joint distance of (S, N, 3) batches: shape (S,)."""
    return np.linalg.norm(p - g, axis=-1).mean(axis=-1)


def mpjpe(pred, gt) -> float:
    """Mean Euclidean distance per joint, averaged over joints, then over poses."""
    return float(_pose_errors(*_paired(pred, gt)).mean())


def procrustes_align(pred, gt, allow_reflection: bool = False) -> np.ndarray:
    """Best similarity transform of ``pred`` onto ``gt``: argmin ||gt - (s R pred + t)||.

    Takes one (N, 3) pose pair or a batch of (S, N, 3) and aligns each pose
    on its own.  Solved in closed form via the SVD of the centered
    cross-covariance (Umeyama, 1991), one batched SVD for all poses.  By
    default R is constrained to a proper rotation (det +1), enforced by
    flipping the smallest singular direction; ``allow_reflection`` lifts the
    constraint.  Raises ``AlignmentError`` when any pose has no centered
    variance, since scale and rotation are then undefined.
    """
    single = np.ndim(pred) == 2
    p, g = _paired(pred, gt)
    mu_p = p.mean(axis=1, keepdims=True)
    mu_g = g.mean(axis=1, keepdims=True)
    pc = p - mu_p
    gc = g - mu_g
    var_p = (pc * pc).sum(axis=(1, 2))
    var_g = (gc * gc).sum(axis=(1, 2))
    for name, var in (("target", var_g), ("predicted", var_p)):
        if (var <= _DEGENERATE_EPS).any():
            k = int(np.argmax(var <= _DEGENERATE_EPS))
            raise AlignmentError(f"{name} pose {k} is degenerate: all joints coincide")
    u, s, vt = np.linalg.svd(gc.transpose(0, 2, 1) @ pc)
    flips = np.ones_like(s)
    if not allow_reflection:
        flips[np.linalg.det(u @ vt) < 0, -1] = -1.0
    rotation = (u * flips[:, None, :]) @ vt
    scale = (s * flips).sum(axis=1) / var_p
    if (scale <= 0).any():
        raise AlignmentError("optimal scale is not positive; poses are degenerate")
    scale = scale[:, None, None]
    translation = mu_g - scale * (rotation @ mu_p.transpose(0, 2, 1)).transpose(0, 2, 1)
    aligned = scale * (p @ rotation.transpose(0, 2, 1)) + translation
    return aligned[0] if single else aligned


def pa_mpjpe(pred, gt, allow_reflection: bool = False) -> float:
    """MPJPE after per-pose Procrustes alignment of pred onto gt."""
    p, g = _paired(pred, gt)
    return float(_pose_errors(procrustes_align(p, g, allow_reflection=allow_reflection), g).mean())


def pck(pred, gt, threshold: float = DEFAULT_PCK_THRESHOLD) -> float:
    """Fraction of joints with error <= threshold (inclusive)."""
    if threshold < 0:
        raise ValueError(f"threshold must be nonnegative, got {threshold}")
    p, g = _paired(pred, gt)
    errors = np.linalg.norm(p - g, axis=-1)
    return float((errors <= threshold).mean())


def auc(pred, gt, thresholds=None) -> float:
    """Mean PCK over an increasing threshold grid (default 0..150 step 5), counted as ``pck``."""
    grid = np.asarray(DEFAULT_AUC_GRID if thresholds is None else thresholds, dtype=np.float64)
    if grid.size == 0 or not grid[0] >= 0 or not (np.diff(grid) > 0).all():
        raise ValueError(f"threshold grid must be nonempty, nonnegative and increasing: {grid}")
    p, g = _paired(pred, gt)
    errors = np.sort(np.linalg.norm(p - g, axis=-1), axis=None)
    return float(np.mean(np.searchsorted(errors, grid, side="right") / errors.size))


@dataclass(frozen=True)
class MetricRow:
    """Aggregated metrics for one action (or 'all')."""

    action: str
    mpjpe: float
    pa_mpjpe: float
    pck: float
    auc: float
    n: int


@dataclass(frozen=True)
class MetricReport:
    """Per-action rows plus an overall row, renderable as CSV or a table."""

    rows: tuple[MetricRow, ...]
    overall: MetricRow

    def to_csv(self) -> str:
        lines = ["action,mpjpe,pa_mpjpe,pck,auc,n"]
        for row in (*self.rows, self.overall):
            lines.append(
                f"{row.action},{row.mpjpe!r},{row.pa_mpjpe!r},{row.pck!r},{row.auc!r},{row.n}"
            )
        return "\n".join(lines) + "\n"

    def table(self) -> str:
        header = ("action", "mpjpe", "pa_mpjpe", "pck", "auc", "n")
        cells = [header]
        for row in (*self.rows, self.overall):
            cells.append(
                (
                    row.action,
                    f"{row.mpjpe:.4f}",
                    f"{row.pa_mpjpe:.4f}",
                    f"{row.pck:.4f}",
                    f"{row.auc:.4f}",
                    str(row.n),
                )
            )
        widths = [max(len(r[c]) for r in cells) for c in range(len(header))]
        lines = []
        for i, row in enumerate(cells):
            lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
            if i == 0:
                lines.append("  ".join("-" * w for w in widths))
        return "\n".join(lines) + "\n"


def metric_report(
    preds,
    gts,
    actions,
    threshold: float = DEFAULT_PCK_THRESHOLD,
    thresholds=None,
) -> MetricReport:
    """Group per-sample poses by action label and aggregate all four metrics."""
    preds = np.asarray(preds, dtype=np.float64)
    gts = np.asarray(gts, dtype=np.float64)
    actions = np.asarray(actions, dtype=str)
    if not (len(preds) == len(gts) == len(actions)):
        raise ValueError("preds, gts, and actions must have equal lengths")
    if not len(actions):
        raise ValueError("metric report needs at least one sample")

    def build(label: str, idx) -> MetricRow:
        p, g = preds[idx], gts[idx]
        return MetricRow(
            action=label,
            mpjpe=mpjpe(p, g),
            pa_mpjpe=pa_mpjpe(p, g),
            pck=pck(p, g, threshold),
            auc=auc(p, g, thresholds),
            n=len(p),
        )

    labels, groups = np.unique(actions, return_inverse=True)
    rows = tuple(build(str(a), np.flatnonzero(groups == i)) for i, a in enumerate(labels))
    return MetricReport(rows, build("all", slice(None)))
