import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dln.errors import ContractViolationError
from dln.linalg import (
    GRAM_TOLERANCE,
    as_matrix,
    chain_product,
    chain_svd,
    gram_bound,
    load_matrix_bin,
    make_rng,
    sample_semi_orthogonal,
    save_matrix_bin,
    svd,
    truncated_svd,
)


class TestMatmul:
    # a two-layer chain [b, a] is the plain matrix product a @ b
    def test_identity(self):
        m = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(chain_product([m, np.eye(2)]), m)

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert np.array_equal(chain_product([b, a]), np.array([[2.0, 1.0], [4.0, 3.0]]))

    def test_ones_inner_product(self):
        a = np.ones((1, 3))
        b = np.ones((3, 1))
        assert np.array_equal(chain_product([b, a]), np.array([[3.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            chain_product([np.ones((2, 3)), np.ones((2, 3))])


class TestAsMatrix:
    def test_rejects_nan(self):
        with pytest.raises(ContractViolationError):
            as_matrix([[1.0, np.nan]])

    def test_rejects_inf(self):
        with pytest.raises(ContractViolationError):
            as_matrix([[np.inf, 0.0]])

    def test_rejects_flat_sequence(self):
        with pytest.raises(ContractViolationError):
            as_matrix([1.0, 2.0, 3.0, 4.0])


class TestSvd:
    def test_diagonal(self):
        f = svd(np.diag([3.0, 1.0]))
        assert np.allclose(f.s, [3.0, 1.0])
        assert np.allclose(f.U, np.eye(2))
        assert np.allclose(f.V, np.eye(2))

    def test_nilpotent(self):
        f = svd(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert np.allclose(f.s, [2.0, 0.0])
        assert np.allclose(f.U[:, 0], [1.0, 0.0])
        assert np.allclose(f.V[:, 0], [0.0, 1.0])

    def test_reconstruction_seeded(self, rng):
        a = rng.standard_normal((20, 20))
        f = svd(a)
        rel = np.linalg.norm(f.reconstruct() - a) / np.linalg.norm(a)
        assert rel <= 1e-8

    def test_orthonormality(self, rng):
        for rows, cols in [(7, 7), (10, 4), (4, 10), (300, 300)]:
            a = rng.standard_normal((rows, cols))
            f = svd(a)
            k = min(rows, cols)
            assert np.linalg.norm(f.U.T @ f.U - np.eye(k)) <= 1e-10
            assert np.linalg.norm(f.V.T @ f.V - np.eye(k)) <= 1e-10
            assert np.all(np.diff(f.s) <= 0) and np.all(f.s >= 0)
            rel = np.linalg.norm(f.reconstruct() - a) / np.linalg.norm(a)
            assert rel <= 1e-8

    def test_sign_convention(self, rng):
        f = svd(rng.standard_normal((8, 8)))
        idx = np.argmax(np.abs(f.U), axis=0)
        assert np.all(f.U[idx, np.arange(8)] > 0)

    def test_deterministic(self, rng):
        a = rng.standard_normal((12, 9))
        f1, f2 = svd(a), svd(a.copy())
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.s, f2.s)
        assert np.array_equal(f1.V, f2.V)


class TestTruncatedSvd:
    def test_diagonal_top2(self):
        f = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(f.s, [3.0, 2.0])
        assert f.U.shape == (3, 2)

    def test_rank_one_reconstruction(self, rng):
        u = rng.standard_normal((9, 1))
        v = rng.standard_normal((6, 1))
        a = u @ v.T
        f = truncated_svd(a, 1)
        assert np.linalg.norm(f.reconstruct() - a) <= 1e-10 * np.linalg.norm(a)

    def test_full_truncation_equals_svd(self, rng):
        a = rng.standard_normal((5, 8))
        full, trunc = svd(a), truncated_svd(a, 5)
        assert np.array_equal(full.U, trunc.U)
        assert np.array_equal(full.s, trunc.s)

    def test_out_of_range(self):
        with pytest.raises(ContractViolationError):
            truncated_svd(np.eye(3), 4)
        with pytest.raises(ContractViolationError):
            truncated_svd(np.eye(3), 0)


def _with_spectrum(seed, m, n, s):
    # m x n matrix with singular values s (len(s) <= min(m, n)), Haar vectors
    rng = make_rng(seed)
    U = sample_semi_orthogonal(m, len(s), rng)
    V = sample_semi_orthogonal(n, len(s), rng)
    return (U * np.asarray(s)) @ V.T


def _sin_theta(A, B):
    # sine of the largest principal angle between span(A) and orthonormal B
    return np.linalg.norm(A - B @ (B.T @ A), 2)


def _assert_full_svd_route(a, k):
    f, g = svd(a).truncate(k), truncated_svd(a, k)
    assert np.array_equal(g.U, f.U)
    assert np.array_equal(g.s, f.s)
    assert np.array_equal(g.V, f.V)


_shapes = st.tuples(st.integers(2, 30), st.integers(2, 30), st.integers(0, 2**32 - 1))


class TestTruncatedSvdRoutes:
    """The Gram route against the full SVD it replaces, wide and tall."""

    @settings(max_examples=60, deadline=None)
    @given(_shapes, st.data())
    def test_gapped_input_agrees_within_bound(self, shape, data):
        m, n, seed = shape
        k = data.draw(st.integers(1, min(m, n) - 1))
        rng = make_rng(seed, 1)
        s = np.concatenate([np.sort(rng.uniform(1.0, 4.0, k))[::-1],
                            np.sort(rng.uniform(0.0, 0.5, min(m, n) - k))[::-1]])
        a = _with_spectrum(seed, m, n, s)
        ref = svd(a)
        bound = gram_bound(ref.s ** 2, k, a.shape)
        assert bound <= GRAM_TOLERANCE
        f = ref.truncate(k)
        with mock.patch.object(np.linalg, "svd", side_effect=AssertionError("full SVD ran")):
            g = truncated_svd(a, k)
        # the bound for each route, plus a rounding floor of 16 eps max(m, n)
        # for the reference's own vectors and for the measurement
        tol = 2 * bound + 16 * np.finfo(np.float64).eps * max(m, n)
        assert _sin_theta(g.U, f.U) <= tol
        assert _sin_theta(g.V, f.V) <= tol
        assert np.max(np.abs(g.s - f.s) / f.s) <= tol
        assert np.linalg.norm(g.U.T @ g.U - np.eye(k)) <= tol
        assert np.linalg.norm(g.V.T @ g.V - np.eye(k)) <= tol
        idx = np.argmax(np.abs(g.U), axis=0)
        assert np.all(g.U[idx, np.arange(k)] > 0)

    @settings(max_examples=30, deadline=None)
    @given(_shapes)
    def test_full_rank_truncation_is_full_svd(self, shape):
        m, n, seed = shape
        a = make_rng(seed).standard_normal((m, n))
        _assert_full_svd_route(a, min(m, n))

    @settings(max_examples=60, deadline=None)
    @given(_shapes, st.data())
    def test_tied_gap_is_full_svd(self, shape, data):
        # s_k = s_{k+1}, nonzero or zero: no certified gap
        m, n, seed = shape
        k = data.draw(st.integers(1, min(m, n) - 1))
        s = np.linspace(3.0, 1.0, min(m, n))
        s[k] = s[k - 1] = data.draw(st.sampled_from([s[k - 1], 0.0]))
        s[k + 1:] = np.minimum(s[k + 1:], s[k])
        _assert_full_svd_route(_with_spectrum(seed, m, n, s), k)

    @settings(max_examples=60, deadline=None)
    @given(_shapes, st.data())
    def test_rank_deficient_input_is_full_svd(self, shape, data):
        # k past the rank, as for a rank-r surrogate truncated at r_hat > r
        m, n, seed = shape
        k = data.draw(st.integers(2, min(m, n) - 1)) if min(m, n) > 2 else 1
        rank = data.draw(st.integers(0, k - 1))
        s = np.linspace(2.0, 1.0, rank)
        a = _with_spectrum(seed, m, n, s) if rank else np.zeros((m, n))
        _assert_full_svd_route(a, k)

    def test_flat_tail_is_certified_from_its_gap(self):
        # s_k / s_{k+1} = 1.004 at 60 x 90 still certifies; the bound is tiny
        s = np.concatenate([np.linspace(5.0, 2.008, 6), np.linspace(2.0, 0.5, 54)])
        a = _with_spectrum(3, 60, 90, s)
        assert gram_bound(np.linalg.eigvalsh(a @ a.T)[::-1], 6, a.shape) <= GRAM_TOLERANCE
        f, g = svd(a).truncate(6), truncated_svd(a, 6)
        assert _sin_theta(g.U, f.U) <= 1e-9 and _sin_theta(g.V, f.V) <= 1e-9


def _route_inputs(m, n, seed, k):
    # (input, k) for each route: Gram-certified, rank-deficient fallback to the
    # full SVD, and k = min(m, n)
    rng = make_rng(seed, 1)
    s = np.concatenate([np.sort(rng.uniform(1.0, 4.0, k))[::-1],
                        np.sort(rng.uniform(0.0, 0.5, min(m, n) - k))[::-1]])
    deficient = _with_spectrum(seed, m, n, np.linspace(2.0, 1.0, k - 1)) if k > 1 \
        else np.zeros((m, n))
    return {"gram": (_with_spectrum(seed, m, n, s), k),
            "fallback": (deficient, k),
            "full": (rng.standard_normal((m, n)), min(m, n))}


@settings(max_examples=40, deadline=None)
@given(_shapes, st.data())
def test_builder_gives_the_matrix_bits_and_is_let_go_during_eigh(shape, data):
    m, n, seed = shape
    k = data.draw(st.integers(1, min(m, n) - 1))
    for route, (a, kk) in _route_inputs(m, n, seed, k).items():
        made, alive, vectors = [], [], []

        def build():
            # the full eigenvector matrix is gone by the time of a rebuild
            assert all(ref() is None for ref in vectors)
            out = a.copy()
            made.append(weakref.ref(out))
            return out

        def eigh(g, _eigh=np.linalg.eigh):
            alive.append(any(ref() is not None for ref in made))
            lam, Q = _eigh(g)
            vectors.append(weakref.ref(Q))
            return lam, Q

        with mock.patch.object(np.linalg, "eigh", eigh):
            g = truncated_svd(build, kk)
        f = truncated_svd(a, kk)
        assert np.array_equal(g.U, f.U) and np.array_equal(g.s, f.s)
        assert np.array_equal(g.V, f.V)
        # one build for the full SVD; two on the Gram route and its fallback
        assert len(made) == (1 if route == "full" else 2)
        assert alive == ([] if route == "full" else [False])
        if route == "gram":
            assert gram_bound(svd(a).s ** 2, kk, a.shape) <= GRAM_TOLERANCE
        if route == "fallback":
            _assert_full_svd_route(a, kk)


class TestSampleOrthogonal:
    def test_one_by_one(self):
        q = sample_semi_orthogonal(1, 1, make_rng(3))
        assert q.shape == (1, 1) and abs(abs(q[0, 0]) - 1.0) < 1e-15

    def test_orthonormality_residual(self):
        q = sample_semi_orthogonal(5, 5, make_rng(0))
        assert np.linalg.norm(q.T @ q - np.eye(5)) <= 1e-12
        assert np.linalg.norm(q @ q.T - np.eye(5)) <= 1e-12

    def test_same_seed_identical(self):
        q1 = sample_semi_orthogonal(6, 6, make_rng(42))
        q2 = sample_semi_orthogonal(6, 6, make_rng(42))
        assert np.array_equal(q1, q2)

    def test_singular_values_are_one(self):
        q = sample_semi_orthogonal(11, 11, make_rng(9))
        assert np.max(np.abs(np.linalg.svd(q, compute_uv=False) - 1.0)) <= 1e-10

    def test_semi_orthogonal_shapes(self):
        tall = sample_semi_orthogonal(8, 3, make_rng(1))
        assert np.linalg.norm(tall.T @ tall - np.eye(3)) <= 1e-12
        wide = sample_semi_orthogonal(3, 8, make_rng(1))
        assert np.linalg.norm(wide @ wide.T - np.eye(3)) <= 1e-12


def test_spectral_difference_bound_random_pairs():
    # ||A - B||_F^2 dominates the distance between full spectra
    rng = make_rng(77)
    for _ in range(200):
        a = rng.standard_normal((8, 8))
        b = rng.standard_normal((8, 8))
        lhs = float(np.sum((a - b) ** 2))
        sa, sb = np.linalg.svd(a, compute_uv=False), np.linalg.svd(b, compute_uv=False)
        rhs = float(np.sum((sa - sb) ** 2))
        assert lhs >= rhs - 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(2, 6),
    st.integers(0, 2**32 - 1),
)
def test_norm_submultiplicative(n, k, m, seed):
    rng = make_rng(seed)
    a = rng.standard_normal((n, k))
    b = rng.standard_normal((k, m))
    na = np.sqrt(np.sum(a * a))
    nb = np.sqrt(np.sum(b * b))
    nab = np.sqrt(np.sum((a @ b) * (a @ b)))
    assert nab <= na * nb * (1 + 1e-12)


def _bottleneck_chain(seed, depth, where, k, d_out, d_in, core_rank=None):
    """Gaussian chain whose narrowest interior width k sits at boundary
    ``where`` (1..depth-1); other interior widths are k + 1..k + 3. With
    ``core_rank`` < k the layer after the bottleneck has that rank."""
    rng = make_rng(seed)
    widths = [d_in] + [k + 1 + int(rng.integers(0, 3)) for _ in range(depth - 1)] + [d_out]
    widths[where] = k
    layers = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(depth)]
    if core_rank is not None:
        a = rng.standard_normal((widths[where + 1], core_rank))
        layers[where] = a @ rng.standard_normal((core_rank, k))
    return layers


def _assert_sign_rule(U):
    idx = np.argmax(np.abs(U), axis=0)
    assert np.all(U[idx, np.arange(U.shape[1])] > 0)


class TestChainSvd:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        depth=st.integers(2, 4),
        where=st.sampled_from(["first", "middle", "last"]),
        k=st.integers(1, 4),
        d_out=st.integers(6, 12),
        d_in=st.integers(6, 12),
        deficient=st.booleans(),
    )
    def test_factored_matches_full_svd(self, seed, depth, where, k, d_out, d_in, deficient):
        boundary = {"first": 1, "middle": depth // 2, "last": depth - 1}[where]
        core_rank = max(k - 1, 0) if deficient else None
        layers = _bottleneck_chain(seed, depth, boundary, k, d_out, d_in, core_rank)
        W = chain_product(layers)
        ref = np.linalg.svd(W, compute_uv=False)
        scale = max(ref[0], np.finfo(float).tiny)

        s = chain_svd(layers)
        assert s.shape == ref.shape
        assert np.max(np.abs(s - ref)) <= 1e-12 * scale
        assert np.all(s[k:] == 0.0)

        f = chain_svd(layers, top_k=k, compute_uv=True)
        assert f.U.shape == (d_out, k) and f.V.shape == (d_in, k)
        assert np.max(np.abs(f.s - ref[:k])) <= 1e-12 * scale
        assert np.linalg.norm(f.reconstruct() - W) <= 1e-12 * max(np.linalg.norm(W), scale)
        assert np.linalg.norm(f.U.T @ f.U - np.eye(k)) <= 1e-12
        assert np.linalg.norm(f.V.T @ f.V - np.eye(k)) <= 1e-12
        _assert_sign_rule(f.U)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(2, 4),
           extra=st.integers(1, 5))
    def test_top_k_past_bottleneck(self, seed, depth, extra):
        k, d = 3, 9
        layers = _bottleneck_chain(seed, depth, 1, k, d, d + 2)
        W = chain_product(layers)
        s = chain_svd(layers, top_k=k + extra)
        assert s.size == k + extra and np.all(s[k:] == 0.0)
        assert np.max(np.abs(s[:k] - np.linalg.svd(W, compute_uv=False)[:k])) <= 1e-12 * s[0]
        # triplets past the bottleneck have no factored form: full SVD, bit for bit
        f = chain_svd(layers, top_k=k + extra, compute_uv=True)
        g = svd(W).truncate(k + extra)
        for a, b in ((f.U, g.U), (f.s, g.s), (f.V, g.V)):
            assert np.array_equal(a, b)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**32 - 1), depth=st.integers(2, 4),
           d_out=st.integers(2, 7), d_in=st.integers(2, 7), top_k=st.integers(1, 8))
    def test_wide_route_is_full_svd_bitwise(self, seed, depth, d_out, d_in, top_k):
        rng = make_rng(seed)
        inner = max(d_out, d_in)
        widths = [d_in] + [inner + int(rng.integers(0, 2)) for _ in range(depth - 1)] + [d_out]
        layers = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(depth)]
        W = chain_product(layers)
        n = min(top_k, d_out, d_in)
        assert np.array_equal(chain_svd(layers, top_k), np.linalg.svd(W, compute_uv=False)[:n])
        assert np.array_equal(chain_svd(layers, top_k, product=W), chain_svd(layers, top_k))
        f = chain_svd(layers, top_k, compute_uv=True)
        U, s, Vt = np.linalg.svd(W, full_matrices=False)
        assert np.array_equal(f.s, s[:n])
        g = svd(W)
        assert np.array_equal(f.U, g.U[:, :n]) and np.array_equal(f.V, g.V[:, :n])
        _assert_sign_rule(f.U)

    def test_chain_product_order(self):
        a, b = np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]])
        assert np.array_equal(chain_product([a, b]), b @ a)
        assert chain_product([a]) is a

    def test_top_k_must_be_positive(self):
        with pytest.raises(ContractViolationError):
            chain_svd([np.eye(3), np.eye(3)], top_k=0)


class TestSerialization:
    def test_bin_roundtrip(self, tmp_path, rng):
        a = rng.standard_normal((6, 3))
        path = tmp_path / "m.dlnm"
        save_matrix_bin(path, a)
        assert np.array_equal(load_matrix_bin(path), a)

    def test_bin_magic(self, tmp_path):
        path = tmp_path / "bad.dlnm"
        path.write_bytes(b"NOPE" + b"\x00" * 24)
        with pytest.raises(ContractViolationError):
            load_matrix_bin(path)

    def test_bin_truncated(self, tmp_path):
        path = tmp_path / "short.dlnm"
        save_matrix_bin(path, np.eye(3))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ContractViolationError):
            load_matrix_bin(path)


class TestRngStreams:
    def test_same_stream_identical(self):
        a = make_rng(5, 1).standard_normal(8)
        b = make_rng(5, 1).standard_normal(8)
        assert np.array_equal(a, b)

    def test_streams_differ(self):
        a = make_rng(5, 1).standard_normal(8)
        b = make_rng(5, 2).standard_normal(8)
        assert not np.array_equal(a, b)
