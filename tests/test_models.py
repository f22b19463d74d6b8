import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dln.errors import ContractViolationError
from dln.linalg import make_rng, singular_values, truncated_svd
from dln.models import (
    CompressedDLN,
    InitSpec,
    WideDLN,
    chain_gradients,
    end_to_end,
    gradients,
    init_compressed,
    init_wide,
    load_model,
    loss,
    param_count,
    save_model,
)
from dln.operators import CompletionMask, GaussianSensing, Identity


def finite_difference_grad(layers_shapes, build_loss, layers, step=1e-6):
    """Central finite differences of build_loss over every layer entry."""
    grads = []
    for li, w in enumerate(layers):
        g = np.zeros_like(w)
        for idx in np.ndindex(*w.shape):
            orig = w[idx]
            w[idx] = orig + step
            lp = build_loss(layers)
            w[idx] = orig - step
            lm = build_loss(layers)
            w[idx] = orig
            g[idx] = (lp - lm) / (2 * step)
        grads.append(g)
    return grads


class TestEndToEnd:
    def test_identity_layers(self):
        model = WideDLN([np.eye(4) for _ in range(3)])
        assert np.array_equal(end_to_end(model), np.eye(4))

    def test_hand_product_depth2(self):
        model = CompressedDLN(
            w_first=np.array([[0.0, 2.0]]), mids=[], w_last=np.array([[1.0], [0.0]])
        )
        assert np.array_equal(end_to_end(model), [[0.0, 2.0], [0.0, 0.0]])

    def test_spectral_init_base_case(self, rng):
        # at init the compressed product is eps^L times the outer frame
        d, r_hat, L, eps = 8, 3, 4, 1e-2
        surr = rng.standard_normal((d, d))
        model = init_compressed(d, L, r_hat, InitSpec(eps, "spectral", surrogate=surr))
        f = truncated_svd(surr, r_hat)
        expected = eps**L * f.U @ f.V.T
        assert np.allclose(end_to_end(model), expected, atol=1e-18)


class TestInitWide:
    def test_end_to_end_scale(self):
        d, L, eps = 12, 3, 1e-3
        model = init_wide(d, L, InitSpec(eps, "orthogonal"), make_rng(0, 2))
        sv = singular_values(end_to_end(model))
        assert np.max(np.abs(sv - eps**L)) <= 1e-18

    def test_balanced_at_init(self):
        d, eps = 9, 1e-3
        model = init_wide(d, 3, InitSpec(eps, "orthogonal"), make_rng(1, 2))
        for l in range(2):
            left = model.layers[l + 1].T @ model.layers[l + 1]
            right = model.layers[l] @ model.layers[l].T
            assert np.allclose(left, eps**2 * np.eye(d), atol=1e-17)
            assert np.allclose(right, eps**2 * np.eye(d), atol=1e-17)

    def test_same_seed_identical(self):
        m1 = init_wide(6, 3, InitSpec(1e-2, "orthogonal"), make_rng(7, 2))
        m2 = init_wide(6, 3, InitSpec(1e-2, "orthogonal"), make_rng(7, 2))
        for a, b in zip(m1.layers, m2.layers):
            assert np.array_equal(a, b)

    def test_uniform_mode_bounds(self):
        model = init_wide(5, 2, InitSpec(1e-2, "uniform"), make_rng(3, 2))
        for w in model.layers:
            assert np.all(np.abs(w) <= 1e-2)

    def test_spectral_mode_rejected(self):
        with pytest.raises(ContractViolationError):
            init_wide(4, 2, InitSpec(1e-3, "spectral", surrogate=np.eye(4)), make_rng(0))

    def test_rectangular_outer_layers(self):
        model = init_wide(10, 3, InitSpec(1e-3, "orthogonal"), make_rng(0, 2), d_out=6)
        assert end_to_end(model).shape == (6, 10)
        assert model.layers[1].shape == (10, 10)  # square intermediate at max dim


class TestInitCompressed:
    def test_diagonal_surrogate(self):
        d, r_hat, eps = 5, 2, 1e-3
        surr = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        model = init_compressed(d, 3, r_hat, InitSpec(eps, "spectral", surrogate=surr))
        assert np.allclose(model.w_last, eps * np.eye(d)[:, :r_hat])
        assert np.allclose(model.w_first, eps * np.eye(d)[:r_hat, :])
        for mid in model.mids:
            assert np.array_equal(mid, eps * np.eye(r_hat))

    def test_all_singular_values_eps_L(self, rng):
        d, L, r_hat, eps = 10, 3, 4, 1e-3
        surr = rng.standard_normal((d, d))
        model = init_compressed(d, L, r_hat, InitSpec(eps, "spectral", surrogate=surr))
        sv = singular_values(end_to_end(model))[:r_hat]
        assert np.max(np.abs(sv - eps**L)) <= 1e-18

    def test_rank_one_surrogate_small_case(self, rng):
        d, r_hat, eps = 4, 2, 1e-3
        u = rng.standard_normal((d, 1))
        v = rng.standard_normal((d, 1))
        surr = u @ v.T
        model = init_compressed(d, 3, r_hat, InitSpec(eps, "spectral", surrogate=surr))
        f = truncated_svd(surr, r_hat)
        expected = eps**3 * (np.outer(f.U[:, 0], f.V[:, 0]) + np.outer(f.U[:, 1], f.V[:, 1]))
        assert np.allclose(end_to_end(model), expected, atol=1e-18)

    def test_r_hat_out_of_range(self):
        with pytest.raises(ContractViolationError):
            init_compressed(4, 3, 5, InitSpec(1e-3, "spectral", surrogate=np.eye(4)))

    def test_depth_two_has_no_mids(self, rng):
        model = init_compressed(6, 2, 3, InitSpec(1e-3, "spectral", surrogate=rng.standard_normal((6, 6))))
        assert model.mids == [] and model.depth == 2


class TestLoss:
    def test_zero_at_target(self, rng):
        m = rng.standard_normal((3, 3))
        model = WideDLN([np.eye(3), m])
        op = Identity(3)
        assert loss(model, op, op.apply(m)) == 0.0

    def test_identity_is_half_frobenius(self, rng):
        target = rng.standard_normal((4, 4))
        model = WideDLN([rng.standard_normal((4, 4)) for _ in range(2)])
        op = Identity(4)
        z = end_to_end(model)
        expected = 0.5 * np.sum((z - target) ** 2)
        assert loss(model, op, op.apply(target)) == pytest.approx(expected, rel=1e-14)

    def test_masked_hand_value(self):
        model = CompressedDLN(
            w_first=np.array([[3.0, 9.0]]) , mids=[], w_last=np.array([[1.0], [1.0]])
        )
        # end-to-end [[3, 9], [3, 9]]; only the (0,0) entry is observed
        mask = CompletionMask.from_pairs([(0, 0)], 2)
        target = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert loss(model, mask, mask.apply(target)) == pytest.approx(2.0)


class TestGradients:
    def test_zero_residual_zero_gradients(self, rng):
        m = rng.standard_normal((3, 3))
        model = WideDLN([np.eye(3), m])
        op = Identity(3)
        for g in gradients(model, op, op.apply(m)):
            assert np.array_equal(g, np.zeros_like(g))

    def test_single_layer_gradient_is_residual(self, rng):
        w = rng.standard_normal((4, 4))
        op = Identity(4)
        y = op.apply(rng.standard_normal((4, 4)))
        grads, _ = chain_gradients([w], op, y)
        assert np.allclose(grads[0], op.adjoint(op.apply(w) - y))

    @pytest.mark.parametrize("kind", ["wide", "compressed"])
    @pytest.mark.parametrize("op_name", ["identity", "gaussian", "mask"])
    def test_matches_finite_differences(self, kind, op_name):
        rng = make_rng(99)
        d, L = 5, 3
        if op_name == "identity":
            op = Identity(d)
        elif op_name == "gaussian":
            op = GaussianSensing(rng.standard_normal((6, d, d)))
        else:
            op = CompletionMask.from_pairs([(0, 0), (1, 3), (2, 2), (4, 1), (3, 4)], d)
        y = op.apply(rng.standard_normal((d, d)))
        if kind == "wide":
            model = WideDLN([0.5 * rng.standard_normal((d, d)) for _ in range(L)])
        else:
            model = CompressedDLN(
                w_first=0.5 * rng.standard_normal((3, d)),
                mids=[0.5 * rng.standard_normal((3, 3))],
                w_last=0.5 * rng.standard_normal((d, 3)),
            )
        layers = model.layers

        def build_loss(ls):
            prod = ls[0]
            for w in ls[1:]:
                prod = w @ prod
            res = op.apply(prod) - y
            return 0.5 * float(res @ res)

        analytic = gradients(model, op, y)
        numeric = finite_difference_grad(None, build_loss, layers)
        for a, n in zip(analytic, numeric):
            denom = np.maximum(np.abs(n), 1e-3)
            assert np.max(np.abs(a - n) / denom) <= 1e-5


def prefix_suffix_gradients(layers, op, y):
    """Slow reference: the gradient of layer l is
    (suffix after l)^T @ R @ (prefix before l)^T with R the back-projected
    residual, every prefix and suffix multiplied out, empty products acting
    as the identity."""
    n = len(layers)
    prefixes = [None] * n
    prod = None
    for l, w in enumerate(layers):
        prefixes[l] = prod
        prod = w @ prod if prod is not None else w
    res = op.apply(prod) - y
    lo = 0.5 * float(res @ res)
    R = op.adjoint(res)
    suffixes = [None] * n
    suff = None
    for l in range(n - 1, -1, -1):
        suffixes[l] = suff
        suff = suff @ layers[l] if suff is not None else layers[l]
    grads = []
    for l in range(n):
        g = R if suffixes[l] is None else suffixes[l].T @ R
        if prefixes[l] is not None:
            g = g @ prefixes[l].T
        grads.append(g)
    return grads, lo, R


def random_chain(rng, depth, op_name, d_in, d_out, interior):
    """An operator, a chain of ``depth`` layers and measurements for it."""
    # identity and Gaussian sensing need a square target; the mask takes any
    if op_name != "mask":
        d_out = d_in
    if op_name == "identity":
        op = Identity(d_in)
    elif op_name == "gaussian":
        op = GaussianSensing(rng.standard_normal((int(rng.integers(1, 9)), d_in, d_in)))
    else:
        keep = rng.random((d_out, d_in)) < 0.5
        keep[int(rng.integers(d_out)), int(rng.integers(d_in))] = True
        rows, cols = np.nonzero(keep)
        op = CompletionMask(rows, cols, d_out, d_in)
    # interior widths: all max(d_in, d_out) for a wide chain, or a bottleneck
    # of width k at the first, a middle or the last boundary and k + 1..k + 3
    # elsewhere
    if interior == "wide":
        widths = [max(d_in, d_out)] * (depth - 1)
    else:
        k = int(rng.integers(1, min(d_in, d_out) + 1))
        widths = [k + int(rng.integers(1, 4)) for _ in range(depth - 1)]
        if depth > 1:
            widths[{"first": 0, "middle": (depth - 1) // 2, "last": depth - 2}[interior]] = k
    widths = [d_in, *widths, d_out]
    layers = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(depth)]
    y = op.apply(rng.standard_normal((d_out, d_in)))
    return op, layers, y


CHAINS = dict(
    seed=st.integers(0, 2**32 - 1),
    depth=st.integers(1, 4),
    op_name=st.sampled_from(["identity", "gaussian", "mask"]),
    d_in=st.integers(2, 7),
    d_out=st.integers(2, 7),
    interior=st.sampled_from(["wide", "first", "middle", "last"]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**CHAINS)
def test_delta_recursion_matches_prefix_suffix_reference(seed, depth, op_name, d_in,
                                                         d_out, interior):
    rng = make_rng(seed)
    op, layers, y = random_chain(rng, depth, op_name, d_in, d_out, interior)

    grads, lo = chain_gradients(layers, op, y)
    ref, ref_lo, R = prefix_suffix_gradients(layers, op, y)
    assert lo == ref_lo
    assert len(grads) == depth
    norms = [np.linalg.norm(w) for w in layers]
    for l, (g, h) in enumerate(zip(grads, ref)):
        assert g.shape == layers[l].shape
        bound = 1e-12 * np.linalg.norm(R) * np.prod(norms[:l] + norms[l + 1:])
        assert np.linalg.norm(g - h) <= bound


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None, derandomize=True)
@given(**CHAINS)
def test_kept_work_list_matches_fresh_buffers(seed, depth, op_name, d_in, d_out, interior):
    # a work list kept over successive steps gives the bits of a fresh call,
    # and a later call leaves the gradients an earlier one returned alone
    rng = make_rng(seed)
    op, layers, y = random_chain(rng, depth, op_name, d_in, d_out, interior)
    work = [None] * (depth + 1)
    before = None
    for _ in range(3):
        grads, lo = chain_gradients(layers, op, y, work)
        fresh, fresh_lo = chain_gradients(layers, op, y)
        assert lo == fresh_lo
        assert all(same_bits(g, h) for g, h in zip(grads, fresh))
        assert not any(np.shares_memory(g, s) for g in grads for s in work if s is not None)
        if before is not None:
            kept, copies = before
            assert all(same_bits(g, c) for g, c in zip(kept, copies))
        before = grads, [g.copy() for g in grads]
        for w in layers:
            w += 0.1 * rng.standard_normal(w.shape)


def test_work_list_length_checked(rng):
    layers = [rng.standard_normal((3, 3)) for _ in range(2)]
    op = Identity(3)
    with pytest.raises(ContractViolationError):
        chain_gradients(layers, op, op.apply(np.eye(3)), [None] * 2)


def test_kept_work_step_allocates_less_than_one_full_matrix():
    # with its buffers kept, a compressed completion step allocates only
    # measurement-length vectors and r_hat-sized matrices, no 300x500 array
    rng = make_rng(5)
    d_out, d_in, r_hat = 300, 500, 5
    rows, cols = np.nonzero(rng.random((d_out, d_in)) < 0.05)
    op = CompletionMask(rows, cols, d_out, d_in)
    y = op.apply(rng.standard_normal((d_out, d_in)))
    layers = [rng.standard_normal((r_hat, d_in)), rng.standard_normal((r_hat, r_hat)),
              rng.standard_normal((d_out, r_hat))]
    work = [None] * 4
    chain_gradients(layers, op, y, work)
    tracemalloc.start()
    try:
        chain_gradients(layers, op, y, work)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < d_out * d_in * 8


class TestParamCount:
    def test_count_identity(self):
        d, L, r_hat = 10, 4, 3
        wide = init_wide(d, L, InitSpec(1e-3, "orthogonal"), make_rng(0, 2))
        surr = np.eye(d)
        comp = init_compressed(d, L, r_hat, InitSpec(1e-3, "spectral", surrogate=surr))
        assert param_count(wide) == L * d * d
        assert param_count(comp) == 2 * d * r_hat + (L - 2) * r_hat**2


def test_compressed_init_error_never_worse_than_wide():
    # spectral seeding starts at least as close to the target, every seed
    from dln.data import SyntheticSpec, gen_lowrank

    d, r, r_hat, L, eps = 30, 5, 10, 3, 1e-3
    violations = 0
    for seed in range(20):
        M, U, s, V = gen_lowrank(SyntheticSpec(d=d, r=r, seed=seed, sigma_values=tuple(np.linspace(0.3, 0.1, r))))
        op = Identity(d)
        y = op.apply(M)
        wide = init_wide(d, L, InitSpec(eps, "orthogonal"), make_rng(seed, 2))
        comp = init_compressed(d, L, r_hat, InitSpec(eps, "spectral", surrogate=op.surrogate(y)))
        err_wide = np.sum((end_to_end(wide) - M) ** 2)
        err_comp = np.sum((end_to_end(comp) - M) ** 2)
        if err_wide < err_comp:
            violations += 1
    assert violations == 0


class TestCheckpoint:
    def test_roundtrip_wide(self, tmp_path, rng):
        model = WideDLN([rng.standard_normal((4, 4)) for _ in range(3)])
        save_model(tmp_path / "ckpt", model, extra={"seed": 3, "eps": 1e-3, "mode": "orthogonal"})
        back = load_model(tmp_path / "ckpt")
        assert isinstance(back, WideDLN)
        for a, b in zip(model.layers, back.layers):
            assert np.array_equal(a, b)

    def test_roundtrip_compressed(self, tmp_path, rng):
        model = CompressedDLN(
            w_first=rng.standard_normal((2, 5)),
            mids=[rng.standard_normal((2, 2))],
            w_last=rng.standard_normal((5, 2)),
        )
        save_model(tmp_path / "ckpt", model)
        back = load_model(tmp_path / "ckpt")
        assert isinstance(back, CompressedDLN)
        assert np.array_equal(back.w_first, model.w_first)
        assert np.array_equal(back.w_last, model.w_last)


def test_layer_shape_validation():
    with pytest.raises(ContractViolationError):
        WideDLN([np.ones((2, 3)), np.ones((2, 3))])
    with pytest.raises(ContractViolationError):
        WideDLN([np.ones((3, 3))])
    with pytest.raises(ContractViolationError):
        CompressedDLN(w_first=np.ones((2, 4)), mids=[np.ones((3, 3))], w_last=np.ones((4, 2)))
