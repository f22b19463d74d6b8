import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dln.errors import ContractViolationError
from dln.linalg import make_rng, truncated_svd
from dln.operators import CompletionMask, GaussianSensing, Identity
from dln.data import SyntheticSpec, gen_gaussian_ops, gen_lowrank


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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def random_mask(rng, n_rows, n_cols):
    """A mask of random density with at least one entry, given unsorted."""
    keep = rng.random((n_rows, n_cols)) < rng.uniform(0.05, 1.0)
    keep[int(rng.integers(n_rows)), int(rng.integers(n_cols))] = True
    rows, cols = np.nonzero(keep)
    perm = rng.permutation(rows.size)
    return CompletionMask(rows[perm], cols[perm], n_rows, n_cols)


def random_operator(rng, kind, d):
    if kind == "identity":
        return Identity(d)
    if kind == "gaussian":
        return GaussianSensing(rng.standard_normal((int(rng.integers(1, 9)), d, d)))
    return random_mask(rng, d, int(rng.integers(1, 9)))


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


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["identity", "gaussian", "mask"]),
    d=st.integers(1, 7),
)
def test_adjoint_into_reused_buffer_matches_fresh(seed, kind, d):
    rng = make_rng(seed)
    op = random_operator(rng, kind, d)
    out = op.adjoint(rng.standard_normal(op.m))
    for _ in range(3):
        y = rng.standard_normal(op.m)
        assert op.adjoint(y, out=out) is out
        assert same_bits(out, op.adjoint(y))


@pytest.mark.parametrize("op", [
    Identity(3),
    GaussianSensing(np.ones((2, 3, 3))),
    CompletionMask.from_pairs([(0, 1), (2, 3)], 3, n_cols=4),
], ids=["identity", "gaussian", "mask"])
def test_adjoint_rejects_unusable_buffer(op):
    y = np.ones(op.m)
    rows, cols = op.shape
    for bad in (np.zeros((rows + 1, cols)), np.zeros(op.shape, dtype=np.float32),
                np.zeros(op.shape, order="F")):
        with pytest.raises(ContractViolationError):
            op.adjoint(y, out=bad)
