"""Linear sensing operators, their adjoints, and spectral-init surrogates.

Three variants: full observation (identity map), dense Gaussian sensing
matrices, and an entrywise completion mask. Each maps a target-shaped matrix
to a measurement vector of length ``m``, provides the adjoint scatter back to
matrix space, and builds the surrogate matrix whose leading singular vectors
seed the compressed network's outer layers. A result may be a view of its
input (the identity's maps are reshapes), so callers do not write into one.

Surrogate normalization is deliberately case by case: the identity variant
returns the back-projection exactly (no 1/m), Gaussian sensing averages by
1/m, and the completion variant averages by 1/|mask|. The training loss is
always the unnormalized residual; any measurement-count normalization is the
caller's business (fold it into the step size).

``head_gradients(L, R, y)`` is the last step of a layer chain's gradient: for
the end-to-end product W = L @ R it returns the loss 0.5 * |apply(W) - y|^2,
delta @ R.T and L.T @ delta, where delta = adjoint(apply(W) - y). Identity
and Gaussian sensing form W and delta in full; the completion mask walks W in
row blocks (:meth:`CompletionMask.head_gradients`).
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


# a completion head's row block and delta block together take about this much
_BLOCK_BYTES = 1 << 20


def _dense_head(op, L: Matrix, R: Matrix, y: Measurement) -> tuple[float, Matrix, Matrix]:
    """``head_gradients`` through the full product W = L @ R and the full delta."""
    res = op.apply(L @ R) - y
    delta = op.adjoint(res)
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
        return M.ravel()

    def adjoint(self, y: Measurement) -> Matrix:
        return _check_measurement(self.m, y).reshape(self.d, self.d)

    def surrogate(self, y: Measurement) -> Matrix:
        # full observation: the back-projection is the target itself, so no
        # 1/m averaging is applied here
        return self.adjoint(y)

    head_gradients = _dense_head


# operators with array fields compare and hash by identity (eq=False): numpy
# arrays have no single truth value for the generated field-wise __eq__
@dataclass(frozen=True, eq=False)
class GaussianSensing:
    """m dense d x d sensing matrices; y_i = <A_i, M> = trace(A_i^T M).

    ``apply`` and ``adjoint`` compute in the dtype of the stored matrices.
    Float32 matrices, as :func:`dln.data.gen_gaussian_ops` draws them, stay
    float32, which halves the bytes each call streams; any other array is
    stored as float64. Both return float64. On float32 matrices the input is
    rounded to float32 and each result entry is an n-term float32 dot
    product, so with u = 2^-24 and gamma_k = k u / (1 - k u) (Higham,
    "Accuracy and Stability of Numerical Algorithms", ch. 3)

        |apply(M) - A w|       <= gamma_{n+1} |A| |w|,     n = d^2, w = vec(M)
        |adjoint(y) - A^T y|   <= gamma_{m+1} |A|^T |y|

    entrywise, where A is the m x d^2 matrix of the stored entries, exact in
    float64. On float64 matrices both maps are float64 dot products. An
    input beyond the dtype's range gives inf or nan without a warning; the
    trainers' divergence guard reports it.
    """

    matrices: np.ndarray  # (m, d, d)

    def __post_init__(self):
        a = np.asarray(self.matrices)
        if a.dtype != np.float32:
            a = np.asarray(a, dtype=np.float64)
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
        a = self.matrices.reshape(self.m, -1)
        with np.errstate(over="ignore", invalid="ignore"):
            out = a @ M.ravel().astype(a.dtype, copy=False)
        return out.astype(np.float64, copy=False)

    def adjoint(self, y: Measurement) -> Matrix:
        a = self.matrices.reshape(self.m, -1)
        y = _check_measurement(self.m, y)
        with np.errstate(over="ignore", invalid="ignore"):
            out = y.astype(a.dtype, copy=False) @ a
        return out.astype(np.float64, copy=False).reshape(self.d, self.d)

    def surrogate(self, y: Measurement) -> Matrix:
        out = self.adjoint(y)
        out /= self.m
        return out

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
        flat = rows * n_cols + cols
        # np.lexsort((cols, rows))'s order; a stable sort is fast on sorted input
        order = np.argsort(flat, kind="stable")
        rows, cols, flat = rows[order], cols[order], flat[order]
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
    def shape(self) -> tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def m(self) -> int:
        return self.rows.size

    def apply(self, M: Matrix) -> Measurement:
        _check_target(self.shape, M)
        return M.take(self.flat).astype(np.float64, copy=False)

    def adjoint(self, y: Measurement) -> Matrix:
        y = _check_measurement(self.m, y)
        out = np.zeros(self.shape)
        out.reshape(-1)[self.flat] = y
        return out

    def surrogate(self, y: Measurement) -> Matrix:
        out = self.adjoint(y)
        out /= self.m
        return out

    def head_gradients(self, L: Matrix, R: Matrix,
                       y: Measurement) -> tuple[float, Matrix, Matrix]:
        """Row-blocked head: each call allocates a b x n_cols product block and
        a zeroed delta block, b rows chosen so the two take about
        ``_BLOCK_BYTES`` together; no d_out x n_cols matrix is formed.

        For each block B of b rows it forms L[B] @ R, gathers the block's
        observed entries into the residual, scatters them into the delta
        block, writes delta_B @ R.T into the gradient's rows B, adds
        L[B].T @ delta_B to L.T @ delta and zeroes the scattered entries
        again, so the delta block is zero when the next block starts. BLAS
        can round an entry of a row block's product differently from the
        same entry of the full product, and L.T @ delta sums the blocks in
        order, so the loss and both products may differ from the dense
        head's in the last bits. When one block covers W, or k >= b (a wide
        chain, whose k x n_cols accumulator rewritten for every block costs
        more than the blocks save), the dense head runs instead.
        """
        d_out, k = L.shape
        if d_out != self.n_rows or R.shape != (k, self.n_cols):
            raise ContractViolationError(
                f"head {L.shape} @ {R.shape} does not give a {self.n_rows}x{self.n_cols} matrix"
            )
        b = max(1, _BLOCK_BYTES // (16 * self.n_cols))
        if d_out <= b or k >= b:
            return _dense_head(self, L, R, y)
        y = _check_measurement(self.m, y)
        block, delta = np.empty((b, self.n_cols)), np.zeros((b, self.n_cols))
        # a block's flat indices address the blocks' leading rows
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
        """``csv.writer``'s bytes: a ``row,col`` header and one line per entry."""
        pairs = np.column_stack((self.rows, self.cols))
        with open(path, "w", newline="") as fh:
            fh.write("row,col\r\n")
            # 4096 lines per format call: few Python ints are alive at once
            for block in np.split(pairs, range(4096, self.m, 4096)):
                fh.write(("%d,%d\r\n" * len(block)) % tuple(block.ravel().tolist()))

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
