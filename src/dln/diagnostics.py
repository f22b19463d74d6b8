"""Post-hoc metrics over training logs: subspace alignment and drift,
sequential-fit detection, and held-out error for real ratings data. The
recovery error is logged by :class:`dln.trainer.Recorder` itself, and so are the two held-out
metrics below, of the hold-out mask :func:`dln.data.split_ratings` returns.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .errors import ContractViolationError
from .linalg import Matrix

if TYPE_CHECKING:  # the trainer's recorder calls this module
    from .trainer import TrajectoryLog


# fitted: (sigma_i - sigma*_i)^2 <= (C_VAL_REL * sigma*_i)^2, alignments >= 1 - C_VEC
C_VAL_REL = 1e-3
C_VEC = 1e-3


@dataclass
class SpectralTrajectory:
    """Per tracked iterate: singular values, per-component alignments and drift."""

    ts: np.ndarray            # (n,)
    svals: np.ndarray         # (n, k)
    left_align: np.ndarray    # (n, r), absolute inner products
    right_align: np.ndarray   # (n, r)
    drift: np.ndarray         # (n - 1,), subspace_distance of U[:, :r], ts[j] to ts[j + 1]


def alignment(log: TrajectoryLog, U_star: Matrix, V_star: Matrix, r: int) -> SpectralTrajectory:
    """Alignment of the logged singular vectors with the target's, and their drift.

    Uses the triplets the records carry (training with ``track_spectral >
    0``); absolute inner products kill the sign ambiguity of singular vectors.
    The t = 0 record is left out: both inits start with all end-to-end singular
    values equal, so its singular vectors are an arbitrary basis.
    """
    tracked = [(rec.t, rec.spectrum) for rec in log.records
               if rec.spectrum is not None and rec.t > 0]
    if not tracked:
        raise ContractViolationError("log has no tracked spectrum; train with track_spectral > 0")
    if U_star.shape[1] < r or V_star.shape[1] < r:
        raise ContractViolationError("target factors carry fewer than r columns")
    if min(f.s.size for _, f in tracked) < r:
        raise ContractViolationError("records track fewer than r components")
    la = [[abs(float(f.U[:, i] @ U_star[:, i])) for i in range(r)] for _, f in tracked]
    ra = [[abs(float(f.V[:, i] @ V_star[:, i])) for i in range(r)] for _, f in tracked]
    return SpectralTrajectory(
        ts=np.array([t for t, _ in tracked], dtype=np.int64),
        svals=np.vstack([f.s for _, f in tracked]),
        left_align=np.array(la),
        right_align=np.array(ra),
        drift=np.array([subspace_distance(a.U, b.U, r)
                        for (_, a), (_, b) in zip(tracked, tracked[1:])]),
    )


def subspace_distance(U_a: Matrix, U_b: Matrix, r: int) -> float:
    """r - ||U_a^T U_b||_F^2 over the leading r columns; 0 iff equal spans."""
    for name, U in (("first", U_a), ("second", U_b)):
        if U.shape[1] < r:
            raise ContractViolationError(f"{name} basis has fewer than {r} columns")
        g = U[:, :r].T @ U[:, :r]
        if np.linalg.norm(g - np.eye(r)) > 1e-8:
            raise ContractViolationError(f"{name} basis is not orthonormal")
    val = r - float(np.sum((U_a[:, :r].T @ U_b[:, :r]) ** 2))
    return max(val, 0.0)


def detect_incremental(st: SpectralTrajectory, sigma_star: np.ndarray) -> list[int | None]:
    """Fit time t_i of each of the r aligned components: the first logged
    iterate after which the value and alignment conditions (``C_VAL_REL``,
    ``C_VEC``) hold at every later logged iterate.

    Components that never settle come back as None.
    """
    r = st.left_align.shape[1]
    sigma_star = np.asarray(sigma_star, dtype=np.float64).ravel()
    if sigma_star.size < r or st.svals.shape[1] < r:
        raise ContractViolationError("trajectory or targets cover fewer than r components")
    out: list[int | None] = []
    for i in range(r):
        ok = (
            ((st.svals[:, i] - sigma_star[i]) ** 2 <= (C_VAL_REL * sigma_star[i]) ** 2)
            & (st.left_align[:, i] >= 1.0 - C_VEC)
            & (st.right_align[:, i] >= 1.0 - C_VEC)
        )
        k = settled_from(ok)
        out.append(None if k is None else int(st.ts[k]))
    return out


def settled_from(ok: np.ndarray) -> int | None:
    """First index after which ``ok`` holds at every later sample, or None
    when it fails at the last one."""
    bad = np.flatnonzero(~np.asarray(ok, dtype=bool))
    first = int(bad[-1]) + 1 if bad.size else 0
    return None if first == len(ok) else first


def holdout_rmse(res: np.ndarray) -> float:
    """Root mean squared error of a held-out residual, prediction minus value."""
    return float(np.sqrt(np.mean(res**2)))


def holdout_relative_error(res: np.ndarray, values: np.ndarray) -> float:
    """Relative l2 error of a held-out residual against its values (distinct
    from the RMSE)."""
    denom = float(np.linalg.norm(values))
    if denom == 0.0:
        raise ContractViolationError("held-out values are all zero")
    return float(np.linalg.norm(res)) / denom


def offdiagonal_leakage(W: Matrix, U: Matrix, V: Matrix) -> float:
    """How far W is from a diagonal form in the (U, V) frame.

    Returns the larger of the off-diagonal mass of U^T W V and the residual
    of W outside the span of the frame; exactly diagonal dynamics keep both
    at roundoff level.
    """
    C = U.T @ W @ V
    off = C - np.diag(np.diag(C))
    outside = W - U @ C @ V.T
    return max(float(np.linalg.norm(off)), float(np.linalg.norm(outside)))


def write_diagnostics_csv(
    path: str | Path,
    experiment: str,
    seed: int,
    rows: list[tuple[int, str, int | None, float]],
) -> None:
    """Tidy metric rows keyed by (experiment, seed, t, metric, component)."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["experiment", "seed", "t", "metric", "component", "value"])
        for t, metric, component, value in rows:
            w.writerow(
                [experiment, seed, t, metric, "" if component is None else component, repr(value)]
            )


def spectral_rows(st: SpectralTrajectory) -> list[tuple[int, str, int | None, float]]:
    """Flatten a spectral trajectory into tidy rows: each tracked iterate's
    singular values and its left and right alignments, then the subspace drift
    of each tracked iterate after the first."""
    rows: list[tuple[int, str, int | None, float]] = []
    r = st.left_align.shape[1]
    for n, t in enumerate(st.ts):
        for i in range(st.svals.shape[1]):
            rows.append((int(t), "sval", i + 1, float(st.svals[n, i])))
        for i in range(r):
            rows.append((int(t), "left_align", i + 1, float(st.left_align[n, i])))
            rows.append((int(t), "right_align", i + 1, float(st.right_align[n, i])))
    rows += [(int(t), "subspace_distance", None, float(v)) for t, v in zip(st.ts[1:], st.drift)]
    return rows
