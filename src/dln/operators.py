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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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
    flat: np.ndarray = field(init=False, repr=False, compare=False)

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
        out.put(self.flat, y)
        return out

    def surrogate(self, y: Measurement) -> Matrix:
        return self.adjoint(y) / self.m

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
