"""Two-factor alternating least squares baseline for matrix completion.

Each half sweep solves exact row-wise (or column-wise) least squares over the
observed entries with a tiny Tikhonov damping, so the train loss never
increases across half sweeps. Rows or columns with no observations keep their
current factor values. The per-row normal equations are stacked and solved in
one batched ``np.linalg.solve`` call, bit for bit one solve per row.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError
from .linalg import Matrix, make_rng, truncated_svd
from .operators import CompletionMask
from .trainer import Recorder, TrajectoryLog

DAMPING = 1e-10


@dataclass
class AltMinModel:
    Lf: Matrix  # d_out x r_hat
    Rf: Matrix  # r_hat x d_in

    def estimate(self) -> Matrix:
        return self.Lf @ self.Rf


def _grouped(indices: np.ndarray, other: np.ndarray, values: np.ndarray, n: int):
    """Per-index observed positions and values, as two lists of arrays."""
    order = np.argsort(indices, kind="stable")
    idx, oth, val = indices[order], other[order], values[order]
    bounds = np.searchsorted(idx, np.arange(n + 1))
    pos = [oth[bounds[i]:bounds[i + 1]] for i in range(n)]
    vals = [val[bounds[i]:bounds[i + 1]] for i in range(n)]
    return pos, vals


def altmin_init(
    mask: CompletionMask,
    y: np.ndarray,
    r_hat: int,
    seed: int,
    surrogate: Matrix | None = None,
) -> AltMinModel:
    """Factors from the surrogate's leading triplets, split as U sqrt(s) and
    sqrt(s) V^T; falls back to scaled Gaussian factors without a surrogate."""
    d_out, d_in = mask.shape
    if not 1 <= r_hat <= min(mask.shape):
        raise ContractViolationError(f"r_hat {r_hat} out of range 1..{min(mask.shape)}")
    if surrogate is not None:
        f = truncated_svd(surrogate, r_hat)
        root = np.sqrt(f.s)
        return AltMinModel(Lf=f.U * root, Rf=(f.V * root).T.copy())
    rng = make_rng(seed)
    scale = 1.0 / np.sqrt(r_hat)
    return AltMinModel(
        Lf=scale * rng.standard_normal((d_out, r_hat)),
        Rf=scale * rng.standard_normal((r_hat, d_in)),
    )


def _damped_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve every stacked system (gram[i] + DAMPING I) x = rhs[i] in one call."""
    gram += DAMPING * np.eye(gram.shape[-1])
    return np.linalg.solve(gram, rhs[..., None])[..., 0]


def half_sweep_left(model: AltMinModel, row_pos, row_vals) -> None:
    """Re-solve every row of Lf against the current Rf (in place)."""
    rows = [i for i, cols in enumerate(row_pos) if cols.size]
    r_hat = model.Lf.shape[1]
    gram, rhs = np.empty((len(rows), r_hat, r_hat)), np.empty((len(rows), r_hat))
    for k, i in enumerate(rows):
        G = model.Rf[:, row_pos[i]]
        np.matmul(G, G.T, out=gram[k])
        np.matmul(G, row_vals[i], out=rhs[k])
    model.Lf[rows] = _damped_solve(gram, rhs)


def half_sweep_right(model: AltMinModel, col_pos, col_vals) -> None:
    """Re-solve every column of Rf against the current Lf (in place)."""
    cols = [j for j, rows in enumerate(col_pos) if rows.size]
    r_hat = model.Lf.shape[1]
    gram, rhs = np.empty((len(cols), r_hat, r_hat)), np.empty((len(cols), r_hat))
    for k, j in enumerate(cols):
        H = model.Lf[col_pos[j], :]
        np.matmul(H.T, H, out=gram[k])
        np.matmul(H.T, col_vals[j], out=rhs[k])
    model.Rf[:, cols] = _damped_solve(gram, rhs).T


def altmin_complete(
    mask: CompletionMask,
    y: np.ndarray,
    r_hat: int,
    iters: int,
    seed: int,
    surrogate: Matrix | None = None,
    probe: Matrix | None = None,
    top_k: int = 10,
    extra_metrics=None,
) -> tuple[AltMinModel, TrajectoryLog]:
    """Alternating minimization; one logged iterate per full sweep.

    Logs through the gradient trainers' :class:`Recorder`, so baseline and
    network runs share the trajectory schema and the divergence guard: a
    sweep that leaves a non-finite loss raises :class:`DivergenceError`.
    """
    if iters < 1:
        raise ContractViolationError("need at least one sweep")
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != mask.m:
        raise ContractViolationError("measurement length does not match mask")
    t0 = time.perf_counter()
    model = altmin_init(mask, y, r_hat, seed, surrogate)
    init_s = time.perf_counter() - t0
    row_pos, row_vals = _grouped(mask.rows, mask.cols, y, mask.shape[0])
    col_pos, col_vals = _grouped(mask.cols, mask.rows, y, mask.shape[1])

    # the chain (Rf, Lf) multiplies to Lf @ Rf; the sweeps update both in place
    record = Recorder([model.Rf, model.Lf], mask, y, top_k, probe,
                      extra_metrics=extra_metrics)
    record.log.svd_init_s = init_s

    record(0, 0.0)
    train_time = 0.0
    for sweep in range(1, iters + 1):
        t0 = time.perf_counter()
        half_sweep_left(model, row_pos, row_vals)
        half_sweep_right(model, col_pos, col_vals)
        train_time += time.perf_counter() - t0
        record(sweep, train_time)
    return model, record.log
