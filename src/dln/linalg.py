"""Dense linear algebra kernels used throughout the package.

Matrices are plain ``numpy.float64`` arrays in row-major (C) order; there is
no wrapper class. Every routine here is a pure function and is deterministic
for a fixed input, which the training loop and the experiment logs rely on
for bit-reproducible runs.

Randomness comes from numpy's Philox counter-based bit generator. Streams are
split by seeding ``SeedSequence(entropy=seed, spawn_key=(tags...))``, so a
(seed, tag) pair names an independent stream; see :func:`make_rng`.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ContractViolationError, NumericalError

Matrix = np.ndarray

_BIN_MAGIC = b"DLNM"


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Named random stream: Philox generator for (seed, *stream tags)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=tuple(int(s) for s in stream))
    return np.random.Generator(np.random.Philox(ss))


def as_matrix(data) -> Matrix:
    """``data`` as a finite float64 row-major 2-D matrix; else ContractViolationError."""
    a = np.array(data, dtype=np.float64, order="C")
    if a.ndim != 2:
        raise ContractViolationError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ContractViolationError("matrix entries must be finite")
    return a


@dataclass(frozen=True)
class SvdResult:
    """Compact SVD: ``U @ diag(s) @ V.T`` reconstructs the input.

    U is m x k and V is n x k with orthonormal columns, s is descending and
    nonnegative. Columns are sign-normalized (largest-magnitude entry of each
    U column is positive, V flipped jointly) so results are deterministic.
    """

    U: Matrix
    s: np.ndarray
    V: Matrix

    def reconstruct(self) -> Matrix:
        return (self.U * self.s) @ self.V.T

    def truncate(self, k: int) -> "SvdResult":
        if not 1 <= k <= self.s.size:
            raise ContractViolationError(f"truncation rank {k} out of range 1..{self.s.size}")
        return SvdResult(
            np.ascontiguousarray(self.U[:, :k]),
            self.s[:k].copy(),
            np.ascontiguousarray(self.V[:, :k]),
        )


def _normalize_signs(U: Matrix, V: Matrix) -> tuple[Matrix, Matrix]:
    # flip each (u_j, v_j) pair so the largest-|.| entry of u_j is positive;
    # argmax takes the first occurrence, which fixes ties deterministically
    idx = np.argmax(np.abs(U), axis=0)
    signs = np.sign(U[idx, np.arange(U.shape[1])])
    signs[signs == 0.0] = 1.0
    return U * signs, V * signs


def svd(a: Matrix) -> SvdResult:
    """Deterministic compact SVD with the package sign convention."""
    if a.ndim != 2:
        raise ContractViolationError("svd expects a 2-D matrix")
    try:
        U, s, Vt = np.linalg.svd(a, full_matrices=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure is rare
        raise NumericalError(f"SVD failed to converge: {exc}") from exc
    U, V = _normalize_signs(U, Vt.T)
    return SvdResult(np.ascontiguousarray(U), s, np.ascontiguousarray(V))


def truncated_svd(a: Matrix | Callable[[], Matrix], k: int) -> SvdResult:
    """Leading k singular triplets, same ordering and signs as :func:`svd`.

    For k < min(a.shape) the triplets come from the eigendecomposition of the
    smaller Gram matrix when :func:`gram_bound` certifies it; otherwise, and
    always for k = min(a.shape), from the full SVD, bit for bit
    ``svd(a).truncate(k)``.

    ``a`` may also be a function of no arguments that returns the matrix, such
    as ``functools.partial(op.surrogate, y)``. The Gram route then builds the
    matrix for the Gram product and lets it go before ``eigh``, keeps only the
    top k eigenvectors, and builds the matrix again for the other side's
    vectors; the full-SVD fallback builds it again too. A builder must return
    the same matrix every call.
    """
    build = a if callable(a) else lambda: a
    m = build()
    shape = m.shape
    if not 1 <= k <= min(shape):
        raise ContractViolationError(
            f"truncation rank {k} out of range 1..{min(shape)}"
        )
    if k == min(shape):
        return svd(m).truncate(k)
    # eigh of the smaller Gram matrix A A^T (A = m or m^T); its top-k vectors
    # Q are one side's singular vectors, A^T Q / s the other's
    wide = shape[0] <= shape[1]
    gram = m @ m.T if wide else m.T @ m
    del m
    top = _top_eigenpairs(gram, k)
    del gram
    if top is None or not gram_bound(top[0], k, shape) <= GRAM_TOLERANCE:
        return svd(build()).truncate(k)
    lam, near = top
    s = np.sqrt(lam[:k])
    m = build()
    far = ((m.T if wide else m) @ near) / s
    U, V = _normalize_signs(near, far) if wide else _normalize_signs(far, near)
    return SvdResult(np.ascontiguousarray(U), s, np.ascontiguousarray(V))


def _top_eigenpairs(gram: Matrix, k: int) -> tuple[np.ndarray, Matrix] | None:
    # every eigenvalue, descending, and a copy of the top k eigenvectors, so the
    # full eigenvector matrix is let go on return; None when LAPACK fails
    try:
        lam, Q = np.linalg.eigh(gram)
    except np.linalg.LinAlgError:  # pragma: no cover - LAPACK failure is rare
        return None
    return lam[::-1], Q[:, :-k - 1:-1].copy()


# largest certified bound (:func:`gram_bound`) at which truncated_svd keeps the
# Gram route's triplets
GRAM_TOLERANCE = 1e-6


def gram_bound(lam: np.ndarray, k: int, shape: tuple[int, int]) -> float:
    """A-posteriori Davis–Kahan bound ``err / (gap - err)`` on the angle
    between the top-k eigenspace of a Gram matrix with descending eigenvalues
    ``lam`` and that of the exact Gram matrix of a ``shape`` input; inf when
    lam_k <= 0 or the gap lam_k - lam_{k+1} does not exceed the rounding
    error err = eps * max(shape) * trace. The same figure bounds the relative
    error of the recovered singular values.
    """
    err = np.finfo(np.float64).eps * max(shape) * float(np.sum(lam))
    gap = float(lam[k - 1] - lam[k])
    if not (lam[k - 1] > 0 and gap > err):
        return np.inf
    return err / (gap - err)


def chain_product(layers: list[Matrix]) -> Matrix:
    """End-to-end product of a layer chain (``layers[0]`` is applied first),
    multiplied in a fixed left-to-right order."""
    prod = layers[0]
    for w in layers[1:]:
        prod = w @ prod
    return prod


def chain_svd(
    layers: list[Matrix],
    top_k: int | None = None,
    compute_uv: bool = False,
    product: Matrix | None = None,
) -> np.ndarray | SvdResult:
    """Leading singular values of a layer chain's product, or with
    ``compute_uv`` its leading triplets, n = min(top_k, d_out, d_in) of them.

    When the narrowest interior width k is below min(d_out, d_in), the product
    has rank at most k and is never decomposed whole. The chain splits there
    into a left factor A (d_out x k) and a right factor B (k x d_in); thin QR
    gives A = Q1 R1 and B^T = Q2 R2, and the SVD of the k x k core R1 R2^T
    gives the values, with U = Q1 U_core and V = Q2 V_core. Values past k are
    exact zeros. Triplets past k have no factored form; asking for them, or a
    chain with no narrow width, takes the full SVD of the product (``product``
    when the caller has it already), bit for bit what :func:`svd` and
    ``np.linalg.svd`` return.
    """
    d_out, d_in = layers[-1].shape[0], layers[0].shape[1]
    n = min(d_out, d_in) if top_k is None else min(top_k, d_out, d_in)
    if n < 1:
        raise ContractViolationError(f"top_k must be >= 1, got {top_k}")
    widths = [w.shape[1] for w in layers[1:]]
    k = min(widths, default=min(d_out, d_in))
    if k >= min(d_out, d_in) or (compute_uv and n > k):
        W = chain_product(layers) if product is None else product
        if compute_uv:
            return svd(W).truncate(n)
        return np.linalg.svd(W, compute_uv=False)[:n]
    j = widths.index(k) + 1
    q1, r1 = np.linalg.qr(chain_product(layers[j:]))
    q2, r2 = np.linalg.qr(chain_product(layers[:j]).T)
    core = r1 @ r2.T
    if not compute_uv:
        s = np.zeros(n)
        s[:min(n, k)] = np.linalg.svd(core, compute_uv=False)[:n]
        return s
    f = svd(core)
    U, V = _normalize_signs(q1 @ f.U[:, :n], q2 @ f.V[:, :n])
    return SvdResult(U, f.s[:n].copy(), V)


def sample_semi_orthogonal(rows: int, cols: int, rng: np.random.Generator) -> Matrix:
    """Haar-distributed semi-orthogonal matrix (orthonormal rows or columns).

    QR of an i.i.d. standard normal matrix with the R-diagonal sign
    correction, which makes the distribution exactly Haar.
    """
    if rows < 1 or cols < 1:
        raise ContractViolationError("need rows, cols >= 1")
    if rows >= cols:
        z = rng.standard_normal((rows, cols))
        q, r = np.linalg.qr(z)
        d = np.sign(np.diag(r))
        d[d == 0.0] = 1.0
        return q * d
    return sample_semi_orthogonal(cols, rows, rng).T.copy()


def save_matrix_bin(path: str | Path, a: Matrix) -> None:
    """Binary format: magic "DLNM", u64 rows, u64 cols, little-endian f64 row-major."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ContractViolationError("can only serialize 2-D matrices")
    with open(path, "wb") as fh:
        fh.write(_BIN_MAGIC)
        fh.write(struct.pack("<QQ", a.shape[0], a.shape[1]))
        fh.write(a.astype("<f8").tobytes(order="C"))


def load_matrix_bin(path: str | Path) -> Matrix:
    raw = Path(path).read_bytes()
    if raw[:4] != _BIN_MAGIC:
        raise ContractViolationError(f"{path}: bad magic bytes, not a matrix file")
    if len(raw) < 20:
        raise ContractViolationError(f"{path}: truncated header")
    rows, cols = struct.unpack("<QQ", raw[4:20])
    expected = 20 + rows * cols * 8
    if len(raw) != expected:
        raise ContractViolationError(
            f"{path}: payload size {len(raw)} != expected {expected} for {rows}x{cols}"
        )
    a = np.frombuffer(raw[20:], dtype="<f8").reshape(rows, cols)
    return as_matrix(a)
