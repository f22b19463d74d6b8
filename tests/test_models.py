import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dln.errors import ContractViolationError
from dln.linalg import chain_product, make_rng, save_matrix_bin, truncated_svd
from dln.models import (
    DLN,
    chain_gradients,
    init_compressed,
    init_wide,
    load_model,
    loss,
    param_count,
    save_model,
)
from dln.operators import _BLOCK_BYTES, CompletionMask, GaussianSensing, Identity


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
        model = DLN([np.eye(4) for _ in range(3)])
        assert np.array_equal(chain_product(model.layers), np.eye(4))

    def test_hand_product_depth2(self):
        model = DLN([np.array([[0.0, 2.0]]), np.array([[1.0], [0.0]])])
        assert np.array_equal(chain_product(model.layers), [[0.0, 2.0], [0.0, 0.0]])

    def test_spectral_init_base_case(self, rng):
        # at init the compressed product is eps^L times the outer frame
        d, r_hat, L, eps = 8, 3, 4, 1e-2
        surr = rng.standard_normal((d, d))
        model = init_compressed(surr, L, r_hat, eps)
        f = truncated_svd(surr, r_hat)
        expected = eps**L * f.U @ f.V.T
        assert np.allclose(chain_product(model.layers), expected, atol=1e-18)


class TestInitWide:
    def test_end_to_end_scale(self):
        d, L, eps = 12, 3, 1e-3
        model = init_wide(d, L, eps, "orthogonal", make_rng(0, 2))
        sv = np.linalg.svd(chain_product(model.layers), compute_uv=False)
        assert np.max(np.abs(sv - eps**L)) <= 1e-18

    def test_balanced_at_init(self):
        d, eps = 9, 1e-3
        model = init_wide(d, 3, eps, "orthogonal", make_rng(1, 2))
        for l in range(2):
            left = model.layers[l + 1].T @ model.layers[l + 1]
            right = model.layers[l] @ model.layers[l].T
            assert np.allclose(left, eps**2 * np.eye(d), atol=1e-17)
            assert np.allclose(right, eps**2 * np.eye(d), atol=1e-17)

    def test_same_seed_identical(self):
        m1 = init_wide(6, 3, 1e-2, "orthogonal", make_rng(7, 2))
        m2 = init_wide(6, 3, 1e-2, "orthogonal", make_rng(7, 2))
        for a, b in zip(m1.layers, m2.layers):
            assert np.array_equal(a, b)

    def test_uniform_mode_bounds(self):
        model = init_wide(5, 2, 1e-2, "uniform", make_rng(3, 2))
        for w in model.layers:
            assert np.all(np.abs(w) <= 1e-2)

    def test_spectral_mode_rejected(self):
        with pytest.raises(ContractViolationError):
            init_wide(4, 2, 1e-3, "spectral", make_rng(0))

    def test_rectangular_outer_layers(self):
        model = init_wide(10, 3, 1e-3, "orthogonal", make_rng(0, 2), d_out=6)
        assert chain_product(model.layers).shape == (6, 10)
        assert model.layers[1].shape == (10, 10)  # square intermediate at max dim


@pytest.mark.parametrize("eps", [0.0, -1e-3, float("nan")])
def test_nonpositive_init_scale_rejected(eps):
    with pytest.raises(ContractViolationError):
        init_wide(4, 2, eps, "orthogonal", make_rng(0, 2))
    with pytest.raises(ContractViolationError):
        init_compressed(np.eye(4), 2, 2, eps)


class TestInitCompressed:
    def test_diagonal_surrogate(self):
        d, r_hat, eps = 5, 2, 1e-3
        surr = np.diag([5.0, 4.0, 3.0, 2.0, 1.0])
        model = init_compressed(surr, 3, r_hat, eps)
        assert np.allclose(model.layers[-1], eps * np.eye(d)[:, :r_hat])
        assert np.allclose(model.layers[0], eps * np.eye(d)[:r_hat, :])
        for mid in model.layers[1:-1]:
            assert np.array_equal(mid, eps * np.eye(r_hat))

    def test_all_singular_values_eps_L(self, rng):
        d, L, r_hat, eps = 10, 3, 4, 1e-3
        surr = rng.standard_normal((d, d))
        model = init_compressed(surr, L, r_hat, eps)
        sv = np.linalg.svd(chain_product(model.layers), compute_uv=False)[:r_hat]
        assert np.max(np.abs(sv - eps**L)) <= 1e-18

    def test_rank_one_surrogate_small_case(self, rng):
        d, r_hat, eps = 4, 2, 1e-3
        u = rng.standard_normal((d, 1))
        v = rng.standard_normal((d, 1))
        surr = u @ v.T
        model = init_compressed(surr, 3, r_hat, eps)
        f = truncated_svd(surr, r_hat)
        expected = eps**3 * (np.outer(f.U[:, 0], f.V[:, 0]) + np.outer(f.U[:, 1], f.V[:, 1]))
        assert np.allclose(chain_product(model.layers), expected, atol=1e-18)

    def test_r_hat_out_of_range(self):
        with pytest.raises(ContractViolationError):
            init_compressed(np.eye(4), 3, 5, 1e-3)

    def test_depth_two_has_no_mids(self, rng):
        model = init_compressed(rng.standard_normal((6, 6)), 2, 3, 1e-3)
        assert [w.shape for w in model.layers] == [(3, 6), (6, 3)]


class TestLoss:
    def test_zero_at_target(self, rng):
        m = rng.standard_normal((3, 3))
        model = DLN([np.eye(3), m])
        op = Identity(3)
        assert loss(model, op, op.apply(m)) == 0.0

    def test_identity_is_half_frobenius(self, rng):
        target = rng.standard_normal((4, 4))
        model = DLN([rng.standard_normal((4, 4)) for _ in range(2)])
        op = Identity(4)
        z = chain_product(model.layers)
        expected = 0.5 * np.sum((z - target) ** 2)
        assert loss(model, op, op.apply(target)) == pytest.approx(expected, rel=1e-14)

    def test_masked_hand_value(self):
        model = DLN([np.array([[3.0, 9.0]]), np.array([[1.0], [1.0]])])
        # end-to-end [[3, 9], [3, 9]]; only the (0,0) entry is observed
        mask = CompletionMask.from_pairs([(0, 0)], 2)
        target = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert loss(model, mask, mask.apply(target)) == pytest.approx(2.0)


class TestGradients:
    def test_zero_residual_zero_gradients(self, rng):
        m = rng.standard_normal((3, 3))
        model = DLN([np.eye(3), m])
        op = Identity(3)
        for g in chain_gradients(model.layers, op, op.apply(m))[0]:
            assert np.array_equal(g, np.zeros_like(g))

    def test_single_layer_gradient_is_residual(self, rng):
        # A one-layer chain is refused; behind an identity layer the single
        # trained layer's gradient is the back-projected residual itself.
        w = rng.standard_normal((4, 4))
        op = Identity(4)
        y = op.apply(rng.standard_normal((4, 4)))
        grads, lo = chain_gradients([np.eye(4), w], op, y)
        res = op.apply(w) - y
        assert np.allclose(grads[1], op.adjoint(res))
        assert np.allclose(grads[0], w.T @ op.adjoint(res))
        assert lo == pytest.approx(0.5 * float(res @ res))

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
            model = DLN([0.5 * rng.standard_normal((d, d)) for _ in range(L)])
        else:
            model = DLN([
                0.5 * rng.standard_normal((3, d)),
                0.5 * rng.standard_normal((3, 3)),
                0.5 * rng.standard_normal((d, 3)),
            ])
        layers = model.layers

        def build_loss(ls):
            prod = ls[0]
            for w in ls[1:]:
                prod = w @ prod
            res = op.apply(prod) - y
            return 0.5 * float(res @ res)

        analytic, _ = chain_gradients(layers, op, y)
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
    depth=st.integers(2, 4),
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
def test_gradients_are_fresh_and_repeatable(seed, depth, op_name, d_in, d_out, interior):
    # the trainer scales each returned gradient in place, so none may share
    # memory with a layer or with another gradient; a second call on the same
    # layers gives the same bits and loss
    rng = make_rng(seed)
    op, layers, y = random_chain(rng, depth, op_name, d_in, d_out, interior)
    grads, lo = chain_gradients(layers, op, y)
    for i, g in enumerate(grads):
        assert not any(np.shares_memory(g, w) for w in layers)
        assert not any(np.shares_memory(g, h) for h in grads[i + 1:])
    again, again_lo = chain_gradients(layers, op, y)
    assert not any(np.shares_memory(g, h) for g in grads for h in again)
    assert again_lo == lo
    assert all(same_bits(g, h) for g, h in zip(grads, again))


def dense_chain_gradients(layers, op, y):
    """Reference for the operator heads: the full product, apply, the full
    back-projected residual, then the delta recursion over every layer."""
    prefixes = [None] * len(layers)
    prod = layers[0]
    for l in range(1, len(layers)):
        prefixes[l] = prod
        prod = layers[l] @ prod
    res = op.apply(prod) - y
    delta = op.adjoint(res)
    R_norm = np.linalg.norm(delta)
    grads = []
    for l in range(len(layers) - 1, 0, -1):
        grads.append(delta @ prefixes[l].T)
        delta = layers[l].T @ delta
    return [delta] + grads[::-1], 0.5 * float(res @ res), R_norm


def block_rows(d_in):
    # rows per block of the mask's head: two b x d_in float64 buffers
    return _BLOCK_BYTES // (16 * d_in)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(2, 4), d_in=st.integers(2200, 6000),
       blocks=st.integers(1, 5), wide=st.booleans(), density=st.sampled_from([0.02, 0.1, 0.4]),
       empty=st.sampled_from(["none", "rows", "block"]))
@example(seed=1, depth=3, d_in=5000, blocks=4, wide=False, density=0.1, empty="block")
@example(seed=2, depth=2, d_in=2400, blocks=3, wide=False, density=0.02, empty="rows")
@example(seed=3, depth=4, d_in=3000, blocks=1, wide=False, density=0.4, empty="none")
def test_blocked_mask_head_matches_dense_reference(seed, depth, d_in, blocks, wide, density,
                                                   empty):
    # the completion mask's row-blocked head against the full-product route,
    # over two steps: bitwise where one block covers the product or the last
    # layer is at least a block wide, else within the reference's bound
    rng = make_rng(seed)
    b = block_rows(d_in)
    d_out = max(2, blocks * b - int(rng.integers(0, b)))
    keep = rng.random((d_out, d_in)) < density
    if empty == "rows":
        keep[rng.random(d_out) < 0.3] = False
    elif empty == "block" and d_out > b:
        keep[b:2 * b] = False
    keep[int(rng.integers(d_out)), int(rng.integers(d_in))] = True
    rows, cols = np.nonzero(keep)
    op = CompletionMask(rows, cols, d_out, d_in)
    y = op.apply(rng.standard_normal((d_out, d_in)))
    k = b + int(rng.integers(0, 3)) if wide else int(rng.integers(1, b))
    widths = [d_in] + [k + int(rng.integers(0, 3)) for _ in range(depth - 2)] + [k, d_out]
    layers = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(depth)]
    exact = d_out <= b or k >= b
    for _ in range(2):
        grads, lo = chain_gradients(layers, op, y)
        ref, ref_lo, R_norm = dense_chain_gradients(layers, op, y)
        norms = [np.linalg.norm(w) for w in layers]
        if exact:
            assert lo == ref_lo
            assert all(same_bits(g, h) for g, h in zip(grads, ref))
        else:
            assert abs(lo - ref_lo) <= 1e-12 * np.sqrt(2 * ref_lo) * np.prod(norms)
        for l, (g, h) in enumerate(zip(grads, ref)):
            assert g.shape == layers[l].shape
            bound = 1e-12 * R_norm * np.prod(norms[:l] + norms[l + 1:])
            assert np.linalg.norm(g - h) <= bound
        for w in layers:
            w += 0.1 * rng.standard_normal(w.shape)


def balance_residual(layers, grads, l):
    """|W_{l+1}^T G_{l+1} - G_l W_l^T|, relative to |W_{l+1}| |G_{l+1}| + |G_l| |W_l|."""
    lhs, rhs = layers[l + 1].T @ grads[l + 1], grads[l] @ layers[l].T
    scale = (np.linalg.norm(layers[l + 1]) * np.linalg.norm(grads[l + 1])
             + np.linalg.norm(grads[l]) * np.linalg.norm(layers[l]))
    return np.linalg.norm(lhs - rhs) / scale


def assert_gradients_balanced(layers, op, y):
    # the true gradients of any loss of the product satisfy W_{l+1}^T G_{l+1}
    # = G_l W_l^T for every l; a gradient scaled by 1.001 breaks the identity,
    # which the loss alone would not show
    grads, _ = chain_gradients(layers, op, y)
    depth = len(layers)
    tol = 4 * depth * np.finfo(np.float64).eps
    assert max(balance_residual(layers, grads, l) for l in range(depth - 1)) <= tol
    for j in range(depth):
        scaled = [g * 1.001 if i == j else g for i, g in enumerate(grads)]
        assert max(balance_residual(layers, scaled, l) for l in range(depth - 1)) > 100 * tol


@settings(max_examples=150, deadline=None, derandomize=True)
@given(**CHAINS)
def test_gradients_satisfy_the_balance_identity(seed, depth, op_name, d_in, d_out, interior):
    # random Gaussian layers: a symmetric eps * I middle layer, as in a fresh
    # compressed chain, would hide a transposed gradient
    rng = make_rng(seed)
    op, layers, y = random_chain(rng, depth, op_name, d_in, d_out, interior)
    assert_gradients_balanced(layers, op, y)


@settings(max_examples=8, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), depth=st.integers(2, 4), d_in=st.integers(2200, 4000),
       blocks=st.integers(1, 3), wide=st.booleans())
@example(seed=1, depth=3, d_in=3000, blocks=3, wide=False)
def test_blocked_head_gradients_satisfy_the_balance_identity(seed, depth, d_in, blocks, wide):
    # the completion mask's row-blocked head, several blocks or one
    rng = make_rng(seed)
    b = block_rows(d_in)
    d_out = max(2, blocks * b - int(rng.integers(0, b)))
    rows, cols = np.nonzero(rng.random((d_out, d_in)) < 0.05)
    op = CompletionMask(rows, cols, d_out, d_in)
    y = op.apply(rng.standard_normal((d_out, d_in)))
    k = b + 1 if wide else int(rng.integers(1, b))
    widths = [d_in] + [k + int(rng.integers(0, 3)) for _ in range(depth - 2)] + [k, d_out]
    layers = [rng.standard_normal((widths[i + 1], widths[i])) for i in range(depth)]
    assert_gradients_balanced(layers, op, y)


@pytest.mark.parametrize("d_out,d_in", [(300, 500), (943, 1682)], ids=["300x500", "943x1682"])
def test_blocked_head_step_stays_within_its_block_budget(d_out, d_in):
    # a compressed completion step allocates its two row blocks (about
    # _BLOCK_BYTES together), measurement-length vectors and r_hat-wide
    # matrices; at the ratings shape that is below one d_out x d_in array
    rng = make_rng(5)
    r_hat = 5
    rows, cols = np.nonzero(rng.random((d_out, d_in)) < 0.05)
    op = CompletionMask(rows, cols, d_out, d_in)
    y = op.apply(rng.standard_normal((d_out, d_in)))
    layers = [rng.standard_normal((r_hat, d_in)), rng.standard_normal((r_hat, r_hat)),
              rng.standard_normal((d_out, r_hat))]
    tracemalloc.start()
    try:
        chain_gradients(layers, op, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _BLOCK_BYTES + 8 * (3 * op.m + 4 * r_hat * (d_out + d_in))
    if d_out == 943:
        assert peak < d_out * d_in * 8


class TestParamCount:
    def test_count_identity(self):
        d, L, r_hat = 10, 4, 3
        wide = init_wide(d, L, 1e-3, "orthogonal", make_rng(0, 2))
        surr = np.eye(d)
        comp = init_compressed(surr, L, r_hat, 1e-3)
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
        wide = init_wide(d, L, eps, "orthogonal", make_rng(seed, 2))
        comp = init_compressed(op.surrogate(y), L, r_hat, eps)
        err_wide = np.sum((chain_product(wide.layers) - M) ** 2)
        err_comp = np.sum((chain_product(comp.layers) - M) ** 2)
        if err_wide < err_comp:
            violations += 1
    assert violations == 0


class TestCheckpoint:
    def test_roundtrip_wide(self, tmp_path, rng):
        model = DLN([rng.standard_normal((4, 4)) for _ in range(3)])
        save_model(tmp_path / "ckpt", model, extra={"seed": 3, "eps": 1e-3, "mode": "orthogonal"})
        back = load_model(tmp_path / "ckpt")
        assert isinstance(back, DLN)
        for a, b in zip(model.layers, back.layers):
            assert np.array_equal(a, b)

    def test_roundtrip_compressed(self, tmp_path, rng):
        model = DLN([rng.standard_normal((2, 5)), rng.standard_normal((2, 2)),
                     rng.standard_normal((5, 2))])
        save_model(tmp_path / "ckpt", model)
        back = load_model(tmp_path / "ckpt")
        assert isinstance(back, DLN) and len(back.layers) == 3
        for a, b in zip(model.layers, back.layers):
            assert np.array_equal(a, b)

    def test_layers_that_do_not_compose_are_refused(self, tmp_path, rng):
        # the layer files are input from outside the program: a replaced
        # layer whose shape breaks the chain must not load
        model = DLN([rng.standard_normal((2, 5)), rng.standard_normal((2, 2)),
                     rng.standard_normal((5, 2))])
        save_model(tmp_path / "ckpt", model)
        save_matrix_bin(tmp_path / "ckpt" / "layer_01.dlnm", rng.standard_normal((3, 3)))
        with pytest.raises(ContractViolationError, match="does not compose"):
            load_model(tmp_path / "ckpt")

    @pytest.mark.parametrize("text", ['{"d_in": 3, "d_out": 3}', '{"depth": "2"}',
                                      '{"depth": 4}', "[2]", '{"depth": 2', "[" * 100_000],
                             ids=["missing", "text", "past-files", "not-an-object", "not-json",
                                  "too-deep"])
    def test_manifest_depth_checked(self, tmp_path, rng, text):
        # a hand-edited checkpoint manifest is input from outside the program
        model = DLN([rng.standard_normal((3, 3)) for _ in range(3)])
        save_model(tmp_path / "ckpt", model)
        (tmp_path / "ckpt" / "manifest.json").write_text(text)
        with pytest.raises(ContractViolationError, match="ckpt"):
            load_model(tmp_path / "ckpt")


def test_layer_shape_validation():
    with pytest.raises(ContractViolationError):
        DLN([np.ones((2, 3)), np.ones((2, 3))])
    with pytest.raises(ContractViolationError):
        DLN([np.ones((3, 3))])
    with pytest.raises(ContractViolationError):
        chain_gradients([np.ones((3, 3))], Identity(3), np.zeros(9))
    with pytest.raises(ContractViolationError):
        DLN([np.ones((2, 4)), np.ones((3, 3)), np.ones((4, 2))])
