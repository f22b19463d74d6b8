"""Problem generators (synthetic low-rank targets, masks, sensing operators)
and the MovieLens 100K ratings loader.

Every generator is seeded through named Philox streams, so a (seed, stream)
pair fully determines the draw; see ``linalg.make_rng``.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ContractViolationError, ParseError, ResourceBudgetError
from .linalg import Matrix, make_rng, sample_semi_orthogonal
from .operators import CompletionMask, GaussianSensing

# hard cap on the largest array a problem asks for, refused before it is
# allocated: the sensing operator, and the largest dense matrix the models form
ARRAY_BUDGET_BYTES = 4 * 2**30
# gen_gaussian_ops draws its float64 normals this many bytes at a time
_DRAW_CHUNK_BYTES = 1 << 20


@dataclass(frozen=True)
class SyntheticSpec:
    """Low-rank target description: d x d, rank r, spectrum profile.

    The spectrum is either ``sigma_values`` (explicit list, kept descending)
    or r i.i.d. draws from Uniform[sigma_range], sorted descending.
    """

    d: int
    r: int
    seed: int
    sigma_range: tuple[float, float] = (1.0, 3.0)
    sigma_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.r <= self.d:
            raise ContractViolationError(f"rank {self.r} out of range 1..{self.d}")
        if self.sigma_values is not None:
            if len(self.sigma_values) != self.r:
                raise ContractViolationError("explicit spectrum length must equal r")
            if any(s <= 0 for s in self.sigma_values):
                raise ContractViolationError("singular values must be positive")
        else:
            lo, hi = self.sigma_range
            if not 0 < lo <= hi:
                raise ContractViolationError("need 0 < sigma_range[0] <= sigma_range[1]")


def gen_lowrank(spec: SyntheticSpec) -> tuple[Matrix, Matrix, np.ndarray, Matrix]:
    """Target M* = U* diag(sigma*) V*^T with Haar factors.

    Returns (M*, U*, sigma*, V*) so diagnostics can compare against the
    ground-truth spectrum and subspaces.
    """
    rng = make_rng(spec.seed, 0)
    U = sample_semi_orthogonal(spec.d, spec.r, rng)
    V = sample_semi_orthogonal(spec.d, spec.r, rng)
    if spec.sigma_values is not None:
        s = np.sort(np.asarray(spec.sigma_values, dtype=np.float64))[::-1].copy()
    else:
        lo, hi = spec.sigma_range
        s = np.sort(rng.uniform(lo, hi, size=spec.r))[::-1].copy()
    M = (U * s) @ V.T
    return M, U, s, V


def gen_mcar_mask(d: int, p: float, seed: int) -> CompletionMask:
    """Each entry of a d x d matrix observed independently with probability p."""
    if not 0 < p <= 1:
        raise ContractViolationError("need p in (0, 1]")
    rng = make_rng(seed, 1)
    keep = rng.random((d, d)) < p
    rows, cols = np.nonzero(keep)
    if rows.size == 0:
        raise ContractViolationError(
            f"mask draw came up empty for d={d}, p={p}; use another seed"
        )
    return CompletionMask(rows, cols, d, d)


def dense_bytes(d_out: int, d_in: int) -> int:
    """Bytes of a dense d_out x d_in float64 matrix. :data:`ARRAY_BUDGET_BYTES`
    caps the largest one the models form: the end-to-end product, or the wide
    net's max(d_out, d_in)-square layers."""
    return 8 * d_out * d_in


def gaussian_ops_bytes(d: int, m: int) -> int:
    """Bytes of the operator :func:`gen_gaussian_ops` stores: m d x d float32
    matrices; :data:`ARRAY_BUDGET_BYTES` caps this count."""
    return m * d * d * np.dtype(np.float32).itemsize


def gen_gaussian_ops(d: int, m: int, seed: int) -> GaussianSensing:
    """m dense d x d sensing matrices with i.i.d. standard normal entries,
    stored in float32, so :class:`GaussianSensing` computes in float32.

    The entries are bit for bit ``make_rng(seed, 1).standard_normal((m, d,
    d)).astype(np.float32)``: the float64 normals are drawn in order, a chunk
    of ``_DRAW_CHUNK_BYTES`` at a time, and each chunk is rounded into the
    operator, so the full float64 draw is never held.
    """
    if m < 1:
        raise ContractViolationError("need m >= 1")
    need = gaussian_ops_bytes(d, m)
    if need > ARRAY_BUDGET_BYTES:
        raise ResourceBudgetError(
            f"sensing operator needs {need} bytes > budget {ARRAY_BUDGET_BYTES}"
        )
    rng = make_rng(seed, 1)
    out = np.empty((m, d, d), dtype=np.float32)
    flat, step = out.reshape(-1), _DRAW_CHUNK_BYTES // 8
    for start in range(0, flat.size, step):
        flat[start:start + step] = rng.standard_normal(min(step, flat.size - start))
    return GaussianSensing(out)


@dataclass
class RatingsDataset:
    users: np.ndarray       # 0-based
    items: np.ndarray       # 0-based
    ratings: np.ndarray
    timestamps: np.ndarray
    n_users: int
    n_items: int

    def __len__(self) -> int:
        return self.users.size


def load_movielens(path: str | Path) -> RatingsDataset:
    """Parse a `u.data`-format file: tab-separated user, item, rating, timestamp.

    IDs are 1-based in the file and mapped to 0-based indices. The file spans
    a (largest user id) x (largest item id) matrix: 943 x 1682 for the
    canonical 100K file of 100000 lines. A file whose ids span a matrix
    beyond :data:`ARRAY_BUDGET_BYTES` (:func:`dense_bytes`) is refused.

    numpy's C reader parses the file from an open handle, so the text is never
    held whole, and the ranges are checked on whole columns. When either
    refuses the file, the line scanner reads its text to raise the error with
    its line number. The result, whose four columns are views of one table,
    always comes from the C reader.
    """
    try:
        with open(path) as fh, warnings.catch_warnings():
            # an empty file only warns, and so does a field such as 1.0 read
            # as an integer by the numpy versions that still accept it
            warnings.simplefilter("error")
            table = np.loadtxt(fh, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
    except (ValueError, Warning):  # a decoding error too; the scanner reports it
        table = None
    if table is None or table.shape[1] != 4 or not (
            np.all(table[:, :3] >= 1) and np.all(table[:, 2] <= 5)):
        try:
            text = Path(path).read_text()
        except UnicodeDecodeError as exc:
            raise ParseError(f"cannot decode the ratings file: {exc}") from None
        _scan_movielens(text)
        # Python's int() reads some fields the C reader does not, such as 1_000
        raise ParseError("fields must be plain decimal integers")
    n_users, n_items = _spanned_shape(int(table[:, 0].max()), int(table[:, 1].max()))
    table[:, :2] -= 1
    _reject_duplicates(table[:, 0], table[:, 1], n_items)
    ratings = table.view(np.float64)[:, 2]  # cast in its own column: no second table
    ratings[:] = table[:, 2]
    return RatingsDataset(table[:, 0], table[:, 1], ratings, table[:, 3], n_users, n_items)


def _spanned_shape(max_user: int, max_item: int) -> tuple[int, int]:
    """The matrix the largest 1-based ids span, within the array budget."""
    need = dense_bytes(max_user, max_item)
    if need > ARRAY_BUDGET_BYTES:
        raise ParseError(f"ids span a {max_user}x{max_item} ratings matrix: {need} bytes "
                         f"> budget {ARRAY_BUDGET_BYTES}")
    return max_user, max_item


def _reject_duplicates(users: np.ndarray, items: np.ndarray, n_items: int) -> None:
    keys = users * n_items + items
    keys.sort()  # in place: np.unique's counts would hold several more key arrays
    same = keys[1:] == keys[:-1]
    if same.any():
        dup = int(keys[np.argmax(same)])
        raise ParseError(
            f"duplicate (user, item) pair ({dup // n_items + 1}, {dup % n_items + 1})"
        )


def _scan_movielens(text: str) -> RatingsDataset:
    """Line-by-line reader of a `u.data` text: the reference for
    :func:`load_movielens`, which calls it only to report a refused file."""
    users, items, ratings, stamps = [], [], [], []
    for line_no, line in enumerate(io.StringIO(text), start=1):
        line = line.rstrip("\n")
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ParseError(f"expected 4 tab-separated fields, got {len(parts)}", line_no)
        try:
            u, i, r, ts = int(parts[0]), int(parts[1]), int(parts[2]), int(parts[3])
        except ValueError as exc:
            raise ParseError(f"non-integer field: {exc}", line_no) from exc
        if u < 1:
            raise ParseError(f"user id {u} is below 1", line_no)
        if i < 1:
            raise ParseError(f"item id {i} is below 1", line_no)
        if not 1 <= r <= 5:
            raise ParseError(f"rating {r} outside 1..5", line_no)
        if not -2**63 <= ts < 2**63:
            raise ParseError(f"timestamp {ts} outside the 64-bit range", line_no)
        users.append(u - 1)
        items.append(i - 1)
        ratings.append(float(r))
        stamps.append(ts)
    if not users:
        raise ParseError("empty ratings file")
    n_users, n_items = _spanned_shape(max(users) + 1, max(items) + 1)
    users_a = np.array(users, dtype=np.int64)
    items_a = np.array(items, dtype=np.int64)
    _reject_duplicates(users_a, items_a, n_items)
    return RatingsDataset(
        users=users_a,
        items=items_a,
        ratings=np.array(ratings),
        timestamps=np.array(stamps, dtype=np.int64),
        n_users=n_users,
        n_items=n_items,
    )


def gen_ratings_standin(
    path: str | Path,
    n_users: int = 200,
    n_items: int = 350,
    n_ratings: int = 12000,
    rank: int = 14,
    seed: int = 0,
    noise: float = 0.5,
) -> None:
    """Write a synthetic ratings file in the tab-separated `u.data` layout.

    An approximately low-rank ratings table (integer 1..5, noisy) sampled at
    random (user, item) pairs of an n_users x n_items grid. Lets the full
    ratings pipeline run where the real dataset is not available;
    :func:`load_movielens` reads the file at the shape its ids span, which is
    the grid's unless its last row or column draws no rating.
    """
    rng = make_rng(seed, 5)
    gu = rng.standard_normal((n_users, rank)) / np.sqrt(rank)
    gv = rng.standard_normal((n_items, rank)) / np.sqrt(rank)
    scores = 3.5 + 1.4 * (gu @ gv.T) + noise * rng.standard_normal((n_users, n_items))
    table = np.clip(np.rint(scores), 1, 5).astype(int)
    if n_ratings > n_users * n_items:
        raise ContractViolationError("more ratings than cells")
    flat = rng.choice(n_users * n_items, size=n_ratings, replace=False)
    flat.sort()
    lines = []
    for k, f in enumerate(flat):
        u, i = divmod(int(f), n_items)
        lines.append(f"{u + 1}\t{i + 1}\t{table[u, i]}\t{874000000 + k}")
    Path(path).write_text("\n".join(lines) + "\n")


def split_ratings(
    ds: RatingsDataset, train_frac: float, seed: int
) -> tuple[CompletionMask, np.ndarray, tuple[CompletionMask, np.ndarray]]:
    """Uniform split without replacement; train count is floor(frac * n).

    Returns the train mask with its measurement vector and the hold-out as a
    (mask, values) pair of the same form; each mask is sorted row-major and
    its values follow that order. The recorder takes the pair as its
    ``holdout`` (:class:`dln.trainer.Recorder`).
    """
    if not 0 < train_frac < 1:
        raise ContractViolationError("need train_frac in (0, 1)")
    n = len(ds)
    n_train = int(np.floor(train_frac * n))
    if n_train < 1 or n_train >= n:
        raise ContractViolationError("split leaves an empty train or test set")
    perm = make_rng(seed, 4).permutation(n)

    def entries(idx: np.ndarray) -> tuple[CompletionMask, np.ndarray]:
        # measurement order must follow the mask's sorted row-major layout; the
        # pairs are distinct, so sorting their flat indices gives that order
        order = idx[np.argsort(ds.users[idx] * ds.n_items + ds.items[idx])]
        mask = CompletionMask(ds.users[order], ds.items[order], ds.n_users, ds.n_items)
        return mask, ds.ratings[order]

    return *entries(perm[:n_train]), entries(perm[n_train:])
