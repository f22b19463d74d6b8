"""Two-factor alternating least squares baseline for matrix completion.

ALS is a two-layer :class:`~dln.models.DLN` started from the mask's surrogate,
which the init builds when it reads it and holds no longer. Each half
sweep solves exact row-wise (or column-wise) least squares over the observed
entries with a tiny Tikhonov damping, so the train loss never increases across
half sweeps. Rows or columns with no observations keep their current values.

Rows are grouped by observation count, and columns the same way. A group of c
rows with w entries each gathers the other factor into one c x w x r_hat stack
H and forms its normal equations with two batched ``np.matmul`` calls and one
batched ``np.linalg.solve``. No row is padded, so each slice of a stack keeps
the row's own w x r_hat shape and numpy hands it to BLAS as a product of its
own; BLAS sums the same terms in the same order as for the row alone, and the
sweeps are bit for bit those of one damped solve per row.
"""

from __future__ import annotations

import functools
import time
from typing import Callable

import numpy as np

from .errors import ContractViolationError, DivergenceError
from .linalg import Matrix, truncated_svd
from .models import DLN
from .operators import CompletionMask
from .trainer import Recorder, TrajectoryLog, descend

DAMPING = 1e-10


def _grouped(indices: np.ndarray, other: np.ndarray, values: np.ndarray, n: int):
    """Observed entries of each index 0..n-1, grouped by observation count.

    Returns ``(pos, vals)``: one ``(ids, positions)`` pair and one values
    array per distinct nonzero count w, where ``ids`` holds the c indices with
    w entries and ``positions`` and values are c x w, each row in entry order.
    """
    order = np.argsort(indices, kind="stable")
    oth, val = other[order], values[order]
    counts = np.bincount(indices, minlength=n)
    starts = np.cumsum(counts) - counts
    pos, vals = [], []
    for w in np.unique(counts[counts > 0]):
        ids = np.flatnonzero(counts == w)
        take = starts[ids][:, None] + np.arange(w)
        pos.append((ids, oth[take]))
        vals.append(val[take])
    return pos, vals


def altmin_init(surrogate: Matrix | Callable[[], Matrix], r_hat: int) -> DLN:
    """The chain [sqrt(s) V^T, U sqrt(s)] of the surrogate's leading triplets;
    the surrogate, or a function that builds it, goes to
    :func:`~dln.linalg.truncated_svd` as it is."""
    f = truncated_svd(surrogate, r_hat)
    root = np.sqrt(f.s)
    return DLN([(f.V * root).T.copy(), f.U * root])


def _damped_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every stacked system (gram[i] + DAMPING I) x = rhs[i] in one call."""
    gram += DAMPING * np.eye(gram.shape[-1])
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def _solve_group(F: Matrix, positions: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Damped least squares of each row of ``values`` against the rows of F
    it observes: one r_hat vector per row of ``positions``."""
    H = F[positions]
    Ht = H.transpose(0, 2, 1)
    rhs = np.matmul(Ht, values[..., None])[..., 0]
    return _damped_solve(np.matmul(Ht, H), rhs)


def half_sweep_left(model: DLN, row_pos, row_vals) -> None:
    """Re-solve every observed row of the last layer against the first (in place)."""
    R, L = model.layers
    for (ids, positions), values in zip(row_pos, row_vals):
        L[ids] = _solve_group(R.T, positions, values)


def half_sweep_right(model: DLN, col_pos, col_vals) -> None:
    """Re-solve every observed column of the first layer against the last (in place)."""
    R, L = model.layers
    for (ids, positions), values in zip(col_pos, col_vals):
        R[:, ids] = _solve_group(L, positions, values).T


def altmin_complete(
    mask: CompletionMask,
    y: np.ndarray,
    r_hat: int,
    iters: int,
    probe: Matrix | None = None,
    holdout: tuple[CompletionMask, np.ndarray] | None = None,
) -> tuple[DLN, TrajectoryLog]:
    """Alternating minimization from :func:`altmin_init` of the mask's
    surrogate; one logged iterate per full sweep, with the chain's r_hat
    singular values. The init is handed a builder of the surrogate, so the
    init timer covers its builds and no copy outlives the init.

    Runs in the gradient trainers' loop (:func:`~dln.trainer.descend`) and
    logs through their :class:`Recorder`, so baseline and network runs share
    the trajectory schema, the held-out metrics of ``holdout`` (a mask and its
    values, as :func:`~dln.data.split_ratings` returns them), the clock and the
    divergence guard: a sweep that leaves a loss that is not finite or exceeds
    ``LOSS_CAP``, or meets a singular damped system, raises
    :class:`DivergenceError`.
    """
    if iters < 1:
        raise ContractViolationError("need at least one sweep")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != mask.m:
        raise ContractViolationError("measurement length does not match mask")
    t0 = time.perf_counter()
    model = altmin_init(functools.partial(mask.surrogate, y), r_hat)
    init_s = time.perf_counter() - t0
    row_pos, row_vals = _grouped(mask.rows, mask.cols, y, mask.shape[0])
    col_pos, col_vals = _grouped(mask.cols, mask.rows, y, mask.shape[1])

    def sweep(t: int) -> None:
        try:
            half_sweep_left(model, row_pos, row_vals)
            half_sweep_right(model, col_pos, col_vals)
        except np.linalg.LinAlgError:
            # the factors outgrew the damping and a system is exactly singular
            raise DivergenceError(t, float("nan")) from None

    # the sweeps update both layers in place
    record = Recorder(model.layers, mask, y, r_hat, probe, holdout=holdout)
    record.log.svd_init_s = init_s
    return model, descend(record, sweep, iters, 1)
