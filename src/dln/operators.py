"""Linear sensing operators, their adjoints, and spectral-init surrogates.

Three variants: full observation (identity map), dense Gaussian sensing
matrices, and an entrywise completion mask. Each maps a target-shaped matrix
to a measurement vector of length ``m``, provides the adjoint scatter back to
matrix space, and builds the surrogate matrix whose leading singular vectors
seed the compressed network's outer layers.

Surrogate normalization is deliberately case by case: the identity variant
returns the back-projection exactly (no 1/m), Gaussian sensing averages by
1/m, and the completion variant averages by 1/|mask|. The training loss is
always the unnormalized residual; any measurement-count normalization is the
caller's business (fold it into the step size).

``adjoint(y, out=None)`` allocates its result unless ``out`` is given; then it
writes into ``out`` and returns it. ``out`` must be a C-contiguous float64
array of ``op.shape`` that is zero wherever the operator does not write (the
completion mask writes only its observed entries). An array returned by an
earlier ``adjoint`` call of the same operator meets that contract, so a
training loop can keep one buffer for every step.

``head_gradients(L, R, y, work)`` is the last step of a layer chain's
gradient: for the end-to-end product W = L @ R it returns the loss
0.5 * |apply(W) - y|^2, delta @ R.T and L.T @ delta, where delta =
adjoint(apply(W) - y). ``work`` is a two-slot list of buffers the operator
fills on the first call and reuses after (the same list for every step of one
chain). Identity and Gaussian sensing form W and delta in full. The
completion mask walks W in row blocks small enough to stay in cache and never
forms either at full size, unless one block would cover all of W or the inner
width of L @ R is a block's height or more.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Union

import numpy as np

from .errors import ContractViolationError
from .linalg import Matrix

Measurement = np.ndarray


def _check_target(shape: tuple[int, int], M: Matrix) -> None:
    if M.ndim != 2 or M.shape != shape:
        raise ContractViolationError(f"expected a {shape[0]}x{shape[1]} matrix, got {M.shape}")


def _check_measurement(m: int, y: Measurement) -> np.ndarray:
    y = np.asarray(y, dtype=np.float64).ravel()
    if y.size != m:
        raise ContractViolationError(f"expected {m} measurements, got {y.size}")
    return y


def _check_out(shape: tuple[int, int], out: Matrix) -> None:
    if out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ContractViolationError(
            f"adjoint output must be a C-contiguous float64 {shape[0]}x{shape[1]} array"
        )


# a completion head's row block and delta block together take about this much
_BLOCK_BYTES = 1 << 20


def _dense_head(op, L: Matrix, R: Matrix, y: Measurement,
                work: list) -> tuple[float, Matrix, Matrix]:
    """``head_gradients`` through the full product: W in ``work[0]``, delta in
    ``work[1]``."""
    W = work[0] = np.matmul(L, R, out=work[0])
    res = op.apply(W) - y
    delta = work[1] = op.adjoint(res, out=work[1])
    return 0.5 * float(res @ res), delta @ R.T, L.T @ delta


@dataclass(frozen=True)
class Identity:
    """Full observation of a d x d matrix; measurements are vec(M) row-major."""

    d: int

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d, self.d)

    @property
    def m(self) -> int:
        return self.d * self.d

    def apply(self, M: Matrix) -> Measurement:
        _check_target(self.shape, M)
        return M.ravel().copy()

    def adjoint(self, y: Measurement, out: Matrix | None = None) -> Matrix:
        y = _check_measurement(self.m, y).reshape(self.d, self.d)
        if out is None:
            return y.copy()
        _check_out(self.shape, out)
        np.copyto(out, y)
        return out

    def surrogate(self, y: Measurement) -> Matrix:
        # full observation: the back-projection is the target itself, so no
        # 1/m averaging is applied here
        return self.adjoint(y)

    head_gradients = _dense_head


# operators with array fields compare and hash by identity (eq=False): numpy
# arrays have no single truth value for the generated field-wise __eq__
@dataclass(frozen=True, eq=False)
class GaussianSensing:
    """m dense d x d sensing matrices; y_i = <A_i, M> = trace(A_i^T M)."""

    matrices: np.ndarray  # (m, d, d)

    def __post_init__(self):
        a = np.asarray(self.matrices, dtype=np.float64)
        if a.ndim != 3 or a.shape[1] != a.shape[2]:
            raise ContractViolationError(
                f"sensing matrices must be (m, d, d), got {a.shape}"
            )
        object.__setattr__(self, "matrices", a)

    @property
    def d(self) -> int:
        return self.matrices.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.d, self.d)

    @property
    def m(self) -> int:
        return self.matrices.shape[0]

    def apply(self, M: Matrix) -> Measurement:
        _check_target(self.shape, M)
        return self.matrices.reshape(self.m, -1) @ M.ravel()

    def adjoint(self, y: Measurement, out: Matrix | None = None) -> Matrix:
        y = _check_measurement(self.m, y)
        a = self.matrices.reshape(self.m, -1)
        if out is None:
            return (y @ a).reshape(self.d, self.d)
        _check_out(self.shape, out)
        np.matmul(y, a, out=out.reshape(-1))
        return out

    def surrogate(self, y: Measurement) -> Matrix:
        return self.adjoint(y) / self.m

    head_gradients = _dense_head


@dataclass(frozen=True, eq=False)
class CompletionMask:
    """Observed index set of a rows x cols matrix, stored sorted row-major.

    Measurement order is fixed: entries are read in row-major order over the
    sorted index set. ``flat`` holds the same entries as row-major flat
    indices ``rows * n_cols + cols``; apply and adjoint gather and scatter
    through it.
    """

    rows: np.ndarray
    cols: np.ndarray
    n_rows: int
    n_cols: int = field(default=0)
    flat: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n_cols = self.n_cols or self.n_rows
        rows = np.asarray(self.rows, dtype=np.int64).ravel()
        cols = np.asarray(self.cols, dtype=np.int64).ravel()
        if rows.size != cols.size:
            raise ContractViolationError("row and column index lists differ in length")
        if rows.size == 0:
            raise ContractViolationError("empty observation set")
        if rows.min() < 0 or rows.max() >= self.n_rows or cols.min() < 0 or cols.max() >= n_cols:
            raise ContractViolationError("mask indices out of range")
        order = np.lexsort((cols, rows))
        rows, cols = rows[order], cols[order]
        flat = rows * n_cols + cols
        if np.any(np.diff(flat) == 0):
            raise ContractViolationError("duplicate indices in mask")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "flat", flat)

    @classmethod
    def from_pairs(cls, pairs, d: int, n_cols: int | None = None) -> "CompletionMask":
        pairs = list(pairs)
        if not pairs:
            raise ContractViolationError("empty observation set")
        r = np.array([p[0] for p in pairs], dtype=np.int64)
        c = np.array([p[1] for p in pairs], dtype=np.int64)
        return cls(r, c, d, n_cols or d)

    @property
    def d(self) -> int:
        return self.n_rows

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def m(self) -> int:
        return self.rows.size

    def apply(self, M: Matrix) -> Measurement:
        _check_target(self.shape, M)
        return M.take(self.flat).astype(np.float64, copy=False)

    def adjoint(self, y: Measurement, out: Matrix | None = None) -> Matrix:
        y = _check_measurement(self.m, y)
        if out is None:
            out = np.zeros(self.shape)
        else:
            _check_out(self.shape, out)
        out.reshape(-1)[self.flat] = y
        return out

    def surrogate(self, y: Measurement) -> Matrix:
        return self.adjoint(y) / self.m

    def head_gradients(self, L: Matrix, R: Matrix, y: Measurement,
                       work: list) -> tuple[float, Matrix, Matrix]:
        """Row-blocked head: ``work`` holds a b x n_cols product block and a
        delta block that is zero between calls.

        For each block B of b rows it forms L[B] @ R, gathers the block's
        observed entries into the residual, scatters them into the delta
        block, writes delta_B @ R.T into the gradient's rows B, adds
        L[B].T @ delta_B to L.T @ delta and zeroes the scattered entries
        again. BLAS can round an entry of a row block's product differently
        from the same entry of the full product, and L.T @ delta sums the
        blocks in order, so the loss and both products may differ from the
        dense head's in the last bits.
        """
        d_out, k = L.shape
        if d_out != self.n_rows or R.shape != (k, self.n_cols):
            raise ContractViolationError(
                f"head {L.shape} @ {R.shape} does not give a {self.n_rows}x{self.n_cols} matrix"
            )
        b = max(1, _BLOCK_BYTES // (16 * self.n_cols))
        # one block covers W, or the k x n_cols accumulator rewritten for every
        # block would cost more than the blocks save (a wide chain)
        if d_out <= b or k >= b:
            return _dense_head(self, L, R, y, work)
        y = _check_measurement(self.m, y)
        if work[0] is None:
            work[0] = np.empty((b, self.n_cols))
            work[1] = np.zeros((b, self.n_cols))
        block, delta = work
        # a block's flat indices address the buffers' leading rows
        block_flat, delta_flat = block.reshape(-1), delta.reshape(-1)
        starts = np.searchsorted(self.rows, np.arange(0, d_out + b, b).clip(max=d_out))
        res = np.empty(self.m)
        grad = np.empty((d_out, k))
        lt_delta = np.zeros((k, self.n_cols))
        for i, r0 in enumerate(range(0, d_out, b)):
            r1, s0, s1 = min(r0 + b, d_out), starts[i], starts[i + 1]
            idx = self.flat[s0:s1] - r0 * self.n_cols
            np.matmul(L[r0:r1], R, out=block[:r1 - r0])
            res_b = np.subtract(block_flat[idx], y[s0:s1], out=res[s0:s1])
            delta_flat[idx] = res_b
            np.matmul(delta[:r1 - r0], R.T, out=grad[r0:r1])
            lt_delta += np.matmul(L[r0:r1].T, delta[:r1 - r0], out=block[:k])
            delta_flat[idx] = 0.0
        return 0.5 * float(res @ res), grad, lt_delta

    def save_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col"])
            for r, c in zip(self.rows, self.cols):
                w.writerow([int(r), int(c)])

    @classmethod
    def load_csv(cls, path: str | Path, d: int, n_cols: int | None = None) -> "CompletionMask":
        with open(path, newline="") as fh:
            rdr = csv.reader(fh)
            header = next(rdr)
            if header != ["row", "col"]:
                raise ContractViolationError(f"{path}: unexpected mask header {header}")
            pairs = [(int(r), int(c)) for r, c in rdr]
        return cls.from_pairs(pairs, d, n_cols)


SensingOperator = Union[Identity, GaussianSensing, CompletionMask]
