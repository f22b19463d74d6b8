import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dln.errors import ContractViolationError
from dln.linalg import make_rng, truncated_svd
from dln.operators import CompletionMask, GaussianSensing, Identity
from dln.data import SyntheticSpec, gen_gaussian_ops, gen_lowrank, gen_mcar_mask


class TestIdentity:
    def test_apply_vectorizes(self):
        op = Identity(2)
        assert np.array_equal(op.apply(np.array([[1.0, 2.0], [3.0, 4.0]])), [1, 2, 3, 4])

    def test_adjoint_roundtrip(self, rng):
        op = Identity(3)
        m = rng.standard_normal((3, 3))
        assert np.array_equal(op.adjoint(op.apply(m)), m)

    def test_surrogate_is_exact_target(self, rng):
        # full observation back-projects to the target itself, no averaging
        op = Identity(4)
        m = rng.standard_normal((4, 4))
        assert np.array_equal(op.surrogate(op.apply(m)), m)

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolationError):
            Identity(3).apply(np.ones((2, 2)))


class TestGaussianSensing:
    def test_trace_inner_product(self):
        op = GaussianSensing(np.eye(2)[None, :, :])
        y = op.apply(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert y.shape == (1,) and y[0] == pytest.approx(5.0)

    def test_adjoint_scalar_matrix(self):
        a1 = np.array([[[1.0, 0.0], [0.0, 0.0]]])
        op = GaussianSensing(a1)
        assert np.array_equal(op.adjoint([3.0]), [[3.0, 0.0], [0.0, 0.0]])

    def test_surrogate_hand_case(self):
        # single sensing matrix I/sqrt(2): y = t/sqrt(2), back-projection t/2 * I
        op = GaussianSensing((np.eye(2) / np.sqrt(2.0))[None, :, :])
        m = np.array([[1.0, 5.0], [0.0, 2.0]])
        y = op.apply(m)
        assert y[0] == pytest.approx(3.0 / np.sqrt(2.0))
        assert np.allclose(op.surrogate(y), 1.5 * np.eye(2))

    def test_measurement_length_check(self):
        op = GaussianSensing(np.zeros((2, 3, 3)))
        with pytest.raises(ContractViolationError):
            op.adjoint([1.0])

    def test_non_square_rejected(self):
        with pytest.raises(ContractViolationError):
            GaussianSensing(np.zeros((2, 3, 4)))


class TestCompletionMask:
    def test_apply_order(self):
        mask = CompletionMask.from_pairs([(1, 1), (0, 0)], 2)
        y = mask.apply(np.array([[1.0, 2.0], [3.0, 4.0]]))
        assert np.array_equal(y, [1.0, 4.0])  # row-major over the sorted set

    def test_adjoint_scatter(self):
        mask = CompletionMask.from_pairs([(0, 1)], 2)
        assert np.array_equal(mask.adjoint([7.0]), [[0.0, 7.0], [0.0, 0.0]])

    def test_surrogate_single_entry(self):
        mask = CompletionMask.from_pairs([(0, 0)], 2)
        m = np.array([[2.0, 0.0], [0.0, 0.0]])
        assert np.array_equal(mask.surrogate(mask.apply(m)), m)

    def test_duplicates_rejected(self):
        with pytest.raises(ContractViolationError):
            CompletionMask.from_pairs([(0, 0), (0, 0)], 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolationError):
            CompletionMask.from_pairs([(0, 2)], 2)

    def test_apply_adjoint_is_identity_on_measurements(self, rng):
        mask = CompletionMask.from_pairs([(0, 1), (2, 0), (1, 1)], 3)
        y = rng.standard_normal(3)
        assert np.array_equal(mask.apply(mask.adjoint(y)), y)

    def test_adjoint_apply_is_idempotent_projection(self, rng):
        mask = CompletionMask.from_pairs([(0, 1), (2, 2)], 3)
        m = rng.standard_normal((3, 3))
        proj = mask.adjoint(mask.apply(m))
        assert np.array_equal(mask.adjoint(mask.apply(proj)), proj)

    def test_csv_roundtrip(self, tmp_path):
        mask = CompletionMask.from_pairs([(2, 1), (0, 0), (1, 2)], 3)
        path = tmp_path / "mask.csv"
        mask.save_csv(path)
        back = CompletionMask.load_csv(path, 3)
        assert np.array_equal(back.rows, mask.rows)
        assert np.array_equal(back.cols, mask.cols)

    def test_rectangular(self):
        mask = CompletionMask.from_pairs([(0, 4)], 2, n_cols=5)
        assert mask.shape == (2, 5)
        assert mask.adjoint([1.0]).shape == (2, 5)


def test_array_operators_compare_by_identity_and_hash(rng):
    # equal-valued masks or sensing operators are distinct objects; == must
    # not fall through to numpy's ambiguous element-wise truth value
    a = rng.standard_normal((3, 4, 4))
    pairs = [(0, 0), (1, 2), (3, 1)]
    for make in (lambda: CompletionMask.from_pairs(pairs, 4), lambda: GaussianSensing(a)):
        first, second = make(), make()
        assert first == first and first != second
        assert len({first, second, first}) == 2


def _operators_for_adjoint_check(rng):
    d = 5
    yield Identity(d), d
    yield GaussianSensing(rng.standard_normal((7, d, d))), d
    yield CompletionMask.from_pairs([(0, 0), (1, 3), (4, 2), (3, 3)], d), d


def test_adjoint_identity_per_variant(rng):
    # <A(M), y> == <M, A*(y)> for every operator variant
    for op, d in _operators_for_adjoint_check(rng):
        m = rng.standard_normal((d, d))
        y = rng.standard_normal(op.m)
        lhs = float(op.apply(m) @ y)
        rhs = float(np.sum(m * op.adjoint(y)))
        assert lhs == pytest.approx(rhs, rel=1e-10)


def test_identity_methods_roundtrip(rng):
    op = Identity(3)
    m = rng.standard_normal((3, 3))
    y = op.apply(m)
    assert np.array_equal(op.adjoint(y), m)
    assert np.array_equal(op.surrogate(y), m)


@pytest.mark.parametrize("seed", range(5))
def test_averaged_surrogates_divide_the_adjoint_in_place(seed):
    # the in-place division keeps the bits of adjoint(y) / m
    rng = make_rng(seed)
    d = int(rng.integers(2, 30))
    ops = [GaussianSensing(rng.standard_normal((int(rng.integers(1, 50)), d, d))),
           gen_mcar_mask(d, float(rng.uniform(0.1, 1.0)), seed)]
    for op in ops:
        y = rng.standard_normal(op.m) * 10.0 ** rng.integers(-3, 4)
        assert same_bits(op.surrogate(y), op.adjoint(y) / op.m)


def test_gaussian_surrogate_concentration():
    # sensing back-projection points its top subspace close to the target's
    d, r, m = 60, 3, 4000
    M, U, s, V = gen_lowrank(SyntheticSpec(d=d, r=r, seed=11))
    op = gen_gaussian_ops(d, m, seed=11)
    surr = op.surrogate(op.apply(M))
    f = truncated_svd(surr, r)
    cosines = np.linalg.svd(f.U.T @ U, compute_uv=False)
    max_angle = np.degrees(np.arccos(np.clip(cosines.min(), -1, 1)))
    assert max_angle < 30.0


def _gamma(n, u):
    """Higham's gamma_n = n u / (1 - n u), the relative bound of an n-term dot product."""
    return n * u / (1 - n * u)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    m=st.integers(1, 80),
    scale=st.integers(-6, 6),
)
def test_float32_sensing_within_its_rounding_bound(seed, d, m, scale):
    # the generator's float32 operator against the float64 maps on the same
    # entries, upcast: each result entry is within gamma_{n+1} |A| |w| (one
    # rounding of the input, n terms), plus the reference's own gamma_n
    op = gen_gaussian_ops(d, m, seed)
    assert op.matrices.dtype == np.float32
    ref = GaussianSensing(op.matrices.astype(np.float64))
    a = np.abs(ref.matrices.reshape(m, -1))
    u32, u64 = 2.0**-24, 2.0**-53
    rng = make_rng(seed, 7)
    M = rng.standard_normal((d, d)) * 10.0**scale
    got = op.apply(M)
    assert got.dtype == np.float64
    n = d * d
    bound = (_gamma(n + 1, u32) + _gamma(n, u64)) * (a @ np.abs(M.ravel()))
    assert np.all(np.abs(got - ref.apply(M)) <= bound)
    y = rng.standard_normal(m) * 10.0**scale
    got = op.adjoint(y)
    assert got.dtype == np.float64 and got.shape == (d, d)
    bound = (_gamma(m + 1, u32) + _gamma(m, u64)) * (np.abs(y) @ a)
    assert np.all(np.abs(got.ravel() - ref.adjoint(y).ravel()) <= bound)


@pytest.mark.parametrize("dtype", [np.float64, np.int64])
def test_sensing_from_other_arrays_keeps_float64_bits(rng, dtype):
    # only float32 matrices take the float32 path; any other array is stored
    # and computed in float64
    a = (rng.standard_normal((9, 4, 4)) * 10).astype(dtype)
    op = GaussianSensing(a)
    a64 = a.astype(np.float64).reshape(9, -1)
    assert op.matrices.dtype == np.float64
    M = rng.standard_normal((4, 4))
    y = rng.standard_normal(9)
    assert same_bits(op.apply(M), a64 @ M.ravel())
    assert same_bits(op.adjoint(y), (y @ a64).reshape(4, 4))


def test_float32_sensing_overflow_is_silent_inf(recwarn):
    # a float32 input cast past the dtype's range becomes inf or nan, with
    # no warning; the trainers' divergence guard reports it
    op = gen_gaussian_ops(3, 5, 0)
    M = np.full((3, 3), 1e300)
    assert not np.all(np.isfinite(op.apply(M)))
    assert not np.all(np.isfinite(op.adjoint(np.full(5, 1e300))))
    assert len(recwarn) == 0


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_mask(rng, n_rows, n_cols):
    """A mask of random density with at least one entry, given unsorted."""
    keep = rng.random((n_rows, n_cols)) < rng.uniform(0.05, 1.0)
    keep[int(rng.integers(n_rows)), int(rng.integers(n_cols))] = True
    rows, cols = np.nonzero(keep)
    perm = rng.permutation(rows.size)
    return CompletionMask(rows[perm], cols[perm], n_rows, n_cols)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_rows=st.integers(1, 9),
    n_cols=st.integers(1, 9),
    square=st.booleans(),
    order=st.sampled_from("CF"),
)
def test_mask_flat_indices_match_fancy_index_reference(seed, n_rows, n_cols, square, order):
    # apply and adjoint go through flat row-major indices; the reference is
    # the 2-D fancy indexing over (rows, cols) they replace
    rng = make_rng(seed)
    if square:
        n_cols = n_rows
    mask = random_mask(rng, n_rows, n_cols)
    M = np.asarray(rng.standard_normal((n_rows, n_cols)), order=order)
    assert same_bits(mask.apply(M), M[mask.rows, mask.cols].astype(np.float64))
    y = rng.standard_normal(mask.m)
    ref = np.zeros(mask.shape)
    ref[mask.rows, mask.cols] = y
    assert same_bits(mask.adjoint(y), ref)
    assert same_bits(mask.adjoint(np.asarray(y[:, None], order=order)), ref)


def _lexsorted_mask(rows, cols, n_rows, n_cols):
    """Reference for the mask's entry order and checks: ``np.lexsort``."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    if rows.min() < 0 or rows.max() >= n_rows or cols.min() < 0 or cols.max() >= n_cols:
        return "mask indices out of range"
    order = np.lexsort((cols, rows))
    rows, cols = rows[order], cols[order]
    if np.any(np.diff(rows * n_cols + cols) == 0):
        return "duplicate indices in mask"
    return rows, cols


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n_rows=st.integers(1, 6),
    n_cols=st.integers(1, 6),
    pairs=st.lists(st.tuples(st.integers(-1, 6), st.integers(-1, 6)), min_size=1, max_size=30),
    presorted=st.booleans(),
)
def test_mask_order_and_checks_match_lexsort(n_rows, n_cols, pairs, presorted):
    # the stable argsort of flat indices gives lexsort's permutation, and a
    # duplicate or out-of-range entry raises the same error
    if presorted:
        pairs = sorted(pairs)
    rows, cols = np.array(pairs).T
    ref = _lexsorted_mask(rows, cols, n_rows, n_cols)
    if isinstance(ref, str):
        with pytest.raises(ContractViolationError, match=ref):
            CompletionMask(rows, cols, n_rows, n_cols)
        return
    mask = CompletionMask(rows, cols, n_rows, n_cols)
    assert np.array_equal(mask.rows, ref[0]) and np.array_equal(mask.cols, ref[1])
    assert np.array_equal(mask.flat, ref[0] * n_cols + ref[1])
