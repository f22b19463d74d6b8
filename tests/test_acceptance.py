"""Acceptance suite: one test per acceptance criterion, at stated tolerances.

Each test prints a single pass line (visible with ``pytest -s``) once its
assertions hold. Criterion 10 runs against the real MovieLens 100K file when
available (``DLN_ML100K`` env var or ./data/ml-100k/u.data) and is always
exercised end-to-end on a reduced-scale synthetic ratings stand-in.
"""

import os
import time

import numpy as np
import pytest

from dln import diagnostics
from dln.baselines import altmin_complete
from dln.data import (
    SyntheticSpec,
    gen_gaussian_ops,
    gen_lowrank,
    gen_mcar_mask,
    gen_ratings_standin,
    load_movielens,
    split_ratings,
)
from dln.experiments import ExperimentConfig, default_config, load_manifest, run
from dln.linalg import chain_product, make_rng, svd, truncated_svd
from dln.models import (
    DLN,
    chain_gradients,
    init_compressed,
    init_wide,
    param_count,
)
from dln.operators import CompletionMask, GaussianSensing, Identity
from dln.theory import (
    FlowParams,
    RecursionParams,
    dominance_witness,
    flow_series,
    gated_flow_series,
    spectral_lower_bound,
    verify_against_training,
)
from dln.trainer import TrainConfig, train_compressed, train_wide

ML100K_PATH = os.environ.get("DLN_ML100K", os.path.join("data", "ml-100k", "u.data"))


def report(n, name):
    print(f"\n[acceptance] PASS criterion {n}: {name}")


def identity_problem(d, r, seed, sigma):
    M, U, s, V = gen_lowrank(SyntheticSpec(d=d, r=r, seed=seed, sigma_values=sigma))
    op = Identity(d)
    return M, U, s, V, op, op.apply(M)


def test_criterion_01_recursion_oracle_equivalence():
    t0 = time.monotonic()
    d, r, r_hat, L, eps, eta, T = 50, 5, 10, 3, 1e-3, 1.0, 1000
    sigma = (0.2, 0.17, 0.14, 0.11, 0.08)
    M, U, s, V, op, y = identity_problem(d, r, 0, sigma)
    surr = op.surrogate(y)
    model = init_compressed(surr, L, r_hat, eps)
    cfg = TrainConfig(eta=eta, alpha=1.0, iters=T, log_every=1, top_k=r_hat)
    trained, log = train_compressed(model, op, y, cfg)

    params = RecursionParams(L=L, eta=eta, eps=eps, sigma_star=s)
    rep = verify_against_training(log, params, r_hat)
    assert rep.passed, f"max relative deviation {rep.max_rel_dev}"

    frame = truncated_svd(surr, r_hat)
    leak = diagnostics.offdiagonal_leakage(chain_product(trained.layers), frame.U, frame.V)
    assert leak <= 1e-10

    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    report(1, f"oracle equivalence (max dev {rep.max_rel_dev:.2e}, leakage {leak:.2e}, {elapsed:.1f}s)")


def test_criterion_02_init_error_inequality_20_seeds():
    d, r, r_hat, L, eps = 100, 10, 20, 3, 1e-3
    violations = 0
    for seed in range(20):
        M, U, s, V, op, y = identity_problem(
            d, r, seed, tuple(np.linspace(0.05, 0.02, r))
        )
        wide = init_wide(d, L, eps, "orthogonal", make_rng(seed, 2))
        comp = init_compressed(op.surrogate(y), L, r_hat, eps)
        err_wide = float(np.sum((chain_product(wide.layers) - M) ** 2))
        err_comp = float(np.sum((chain_product(comp.layers) - M) ** 2))
        if not err_wide >= err_comp:
            violations += 1
    assert violations == 0
    report(2, "spectral init never starts farther from the target (20/20 seeds)")


@pytest.fixture(scope="module")
def factorization_runs():
    d, r, r_hat, L, eps, eta, alpha, T = 100, 10, 20, 3, 1e-3, 10.0, 5.0, 3000
    runs = []
    for seed in range(5):
        spec = SyntheticSpec(d=d, r=r, seed=seed, sigma_range=(0.02, 0.05))
        M, U, s, V = gen_lowrank(spec)
        op = Identity(d)
        y = op.apply(M)
        wide = init_wide(d, L, eps, "orthogonal", make_rng(seed, 2))
        comp = init_compressed(op.surrogate(y), L, r_hat, eps)
        cfg_w = TrainConfig(eta=eta, alpha=1.0, iters=T, log_every=25, top_k=r_hat)
        cfg_c = TrainConfig(eta=eta, alpha=alpha, iters=T, log_every=25, top_k=r_hat)
        _, log_w = train_wide(wide, op, y, cfg_w, probe=M)
        _, log_c = train_compressed(comp, op, y, cfg_c, probe=M)
        runs.append((wide, comp, log_w, log_c))
    return runs


def test_criterion_03_factorization_dominance_and_speed(factorization_runs):
    for seed, (wide, comp, log_w, log_c) in enumerate(factorization_runs):
        assert np.array_equal(log_w.ts(), log_c.ts())
        rw, rc = log_w.recovery(), log_c.recovery()
        assert np.all(rc <= rw + 1e-9), f"dominance violated for seed {seed}"
        # same logged iterates, so less training time is less per iteration
        assert log_c.train_seconds() < log_w.train_seconds(), (
            f"seed {seed}: compressed not faster per iteration"
        )
    wide, comp = factorization_runs[0][0], factorization_runs[0][1]
    ratio = param_count(comp) / param_count(wide)
    assert ratio == pytest.approx((2 * 100 * 20 + 20**2) / (3 * 100**2))
    report(3, f"recovery dominance on 5/5 seeds, parameter ratio {ratio:.3f}")


def test_criterion_04_completion_vs_altmin():
    t0 = time.monotonic()
    d, r, r_hat, L, eps, eta, alpha, p, T = 100, 10, 20, 3, 1e-3, 10.0, 5.0, 0.3, 8000
    for seed in range(3):
        spec = SyntheticSpec(d=d, r=r, seed=seed, sigma_range=(0.02, 0.05))
        M, U, s, V = gen_lowrank(spec)
        mask = gen_mcar_mask(d, p, seed)
        y = mask.apply(M)
        surr = mask.surrogate(y)
        comp = init_compressed(surr, L, r_hat, eps)
        cfg = TrainConfig(eta=eta, alpha=alpha, iters=T, log_every=50, top_k=r_hat)
        _, log_c = train_compressed(comp, mask, y, cfg, probe=M)
        comp_final = log_c.final().recovery_error
        assert comp_final <= 1e-2, f"seed {seed}: compressed recovery {comp_final}"

        _, log_a = altmin_complete(mask, y, r_hat, 60, probe=M)
        assert log_a.final().train_loss <= 1e-6, f"seed {seed}: baseline train loss"
        assert log_a.final().recovery_error >= 10 * comp_final, (
            f"seed {seed}: baseline recovered despite overspecified rank"
        )
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    report(4, f"completion recovery with overspecified-rank baseline failure ({elapsed:.0f}s)")


def test_criterion_05_sensing_dominance():
    d, r, r_hat, L, eps, alpha, m, T = 100, 5, 10, 3, 1e-3, 2.0, 2000, 1400
    for seed in range(3):
        spec = SyntheticSpec(d=d, r=r, seed=seed, sigma_range=(0.05, 0.08))
        M, U, s, V = gen_lowrank(spec)
        op = gen_gaussian_ops(d, m, seed)
        y = op.apply(M)
        eta = 10.0 / op.m  # measurement count folded into the step size
        wide = init_wide(d, L, eps, "orthogonal", make_rng(seed, 2))
        comp = init_compressed(op.surrogate(y), L, r_hat, eps)
        cfg_w = TrainConfig(eta=eta, alpha=1.0, iters=T, log_every=25, top_k=r_hat)
        cfg_c = TrainConfig(eta=eta, alpha=alpha, iters=T, log_every=25, top_k=r_hat)
        _, log_w = train_wide(wide, op, y, cfg_w, probe=M)
        _, log_c = train_compressed(comp, op, y, cfg_c, probe=M)
        assert np.all(log_c.recovery() <= log_w.recovery() + 1e-9), f"seed {seed}"
    report(5, "sensing recovery dominance on 3/3 seeds")


def test_criterion_06_incremental_learning():
    d, r, r_hat, L, eps, eta, T = 100, 5, 10, 3, 1e-3, 10.0, 40000
    sigma = tuple(0.12 * 0.4 ** np.arange(r))
    M, U, s, V, op, y = identity_problem(d, r, 0, sigma)
    comp = init_compressed(op.surrogate(y), L, r_hat, eps)
    cfg = TrainConfig(eta=eta, alpha=1.0, iters=T, log_every=100, top_k=r_hat)
    _, log = train_compressed(comp, op, y, cfg, probe=M, track_spectral=r)

    st = diagnostics.alignment(log, U, V, r)
    fits = diagnostics.detect_incremental(st, s)
    assert all(t is not None for t in fits), f"undetected components: {fits}"
    assert all(fits[i] <= fits[i + 1] for i in range(r - 1)), f"unordered fits: {fits}"
    dorm_cap = 10 * eps**L
    for i in range(r - 1):
        pre = st.svals[st.ts < fits[i], i + 1]
        assert pre.size and np.all(pre <= dorm_cap), f"component {i + 2} woke before t_{i + 1}"
    report(6, f"sequential fits at iterations {fits} with dormant trailing values")


def test_criterion_07_gradient_correctness():
    rng = make_rng(2024)
    d, step = 6, 1e-6
    checked = 0
    for L in (2, 3, 4):
        for op_name in ("identity", "gaussian", "mask"):
            if op_name == "identity":
                op = Identity(d)
            elif op_name == "gaussian":
                op = GaussianSensing(rng.standard_normal((8, d, d)))
            else:
                keep = np.nonzero(rng.random((d, d)) < 0.5)
                op = CompletionMask(keep[0], keep[1], d)
            y = op.apply(rng.standard_normal((d, d)))
            for kind in ("wide", "compressed"):
                if kind == "wide":
                    model = DLN([0.6 * rng.standard_normal((d, d)) for _ in range(L)])
                else:
                    r_hat = 3
                    model = DLN([
                        0.6 * rng.standard_normal((r_hat, d)),
                        *[0.6 * rng.standard_normal((r_hat, r_hat)) for _ in range(L - 2)],
                        0.6 * rng.standard_normal((d, r_hat)),
                    ])
                layers = model.layers

                def loss_of() -> float:
                    prod = layers[0]
                    for w in layers[1:]:
                        prod = w @ prod
                    res = op.apply(prod) - y
                    return 0.5 * float(res @ res)

                analytic, _ = chain_gradients(layers, op, y)
                for _ in range(50):
                    li = int(rng.integers(len(layers)))
                    w = layers[li]
                    idx = (int(rng.integers(w.shape[0])), int(rng.integers(w.shape[1])))
                    orig = w[idx]
                    w[idx] = orig + step
                    lp = loss_of()
                    w[idx] = orig - step
                    lm = loss_of()
                    w[idx] = orig
                    numeric = (lp - lm) / (2 * step)
                    denom = max(abs(numeric), 1e-8)
                    rel = abs(analytic[li][idx] - numeric) / denom
                    assert rel <= 1e-5, (L, op_name, kind, idx, rel)
                    checked += 1
    assert checked == 3 * 3 * 2 * 50
    report(7, f"analytic gradients match finite differences ({checked} coordinates)")


def test_criterion_08_linear_algebra_core():
    rng = make_rng(31337)
    for _ in range(200):
        rows = int(rng.integers(2, 201))
        cols = int(rng.integers(2, 201))
        a = rng.standard_normal((rows, cols))
        f = svd(a)
        k = min(rows, cols)
        assert np.linalg.norm(f.U.T @ f.U - np.eye(k)) <= 1e-10
        assert np.linalg.norm(f.V.T @ f.V - np.eye(k)) <= 1e-10
        rel = np.linalg.norm(f.reconstruct() - a) / np.linalg.norm(a)
        assert rel <= 1e-8
    for _ in range(1000):
        rows = int(rng.integers(1, 13))
        cols = int(rng.integers(1, 13))
        lhs, rhs = spectral_lower_bound(
            rng.standard_normal((rows, cols)), rng.standard_normal((rows, cols))
        )
        assert lhs >= rhs - 1e-9
    report(8, "SVD contracts on 200 matrices; spectral bound on 1000 pairs")


def test_criterion_09_gradient_flow_oracle():
    # closed-form check for the depth-2 separable solution
    params = FlowParams(L=2, sigma_star=np.array([1.0]))
    end = flow_series(params, [1e-6], 12.0, 1e-3).sigmas[-1]
    e = np.exp(2.0 * 12.0)
    expected = 1e-6 * e / (1.0 + 1e-6 * (e - 1.0))
    assert abs(end[0] - expected) <= 1e-6

    # sequentially gated modes never beat the all-active flow
    targets = np.array([1.0, 0.6, 0.3])
    fp = FlowParams(L=3, sigma_star=targets)
    s0 = np.full(3, 1e-2)
    gated = gated_flow_series(fp, s0, 60.0, 2e-3, sample_every=100)
    free = flow_series(fp, s0, 60.0, 2e-3, sample_every=100)
    assert dominance_witness(gated, free)
    report(9, "RK4 matches the closed form; gated flow is dominated")


def _ratings_protocol(path, T_wide, eps, out_prefix=""):
    """Shared ratings-completion protocol: wide vs compressed vs baseline."""
    ds = load_movielens(path)
    mask, y, holdout = split_ratings(ds, 0.8, seed=0)
    eta = 0.5 / mask.m
    surr = mask.surrogate(y)
    d_out, d_in = mask.shape

    wide = init_wide(d_in, 3, eps, "orthogonal", make_rng(0, 2), d_out=d_out)
    cfg_w = TrainConfig(eta=eta, alpha=1.0, iters=T_wide, log_every=10, top_k=10)
    _, log_w = train_wide(wide, mask, y, cfg_w, holdout=holdout)

    comp = init_compressed(surr, 3, 10, eps)
    cfg_c = TrainConfig(eta=eta, alpha=5.0, iters=T_wide, log_every=10, top_k=10)
    _, log_c = train_compressed(comp, mask, y, cfg_c, holdout=holdout)

    _, log_a = altmin_complete(mask, y, 10, 40, holdout=holdout)
    alt_rmse = log_a.final().extras["holdout_rmse"]

    hw = np.array([rec.extras["holdout_rmse"] for rec in log_w.records])
    hc = np.array([rec.extras["holdout_rmse"] for rec in log_c.records])
    wide_final, comp_final = hw[-1], hc[-1]
    crossings = np.nonzero(hc <= wide_final)[0]
    assert crossings.size, "compressed never reached the wide model's final held-out error"
    t_cross = log_c.records[crossings[0]].elapsed_s
    wall_wide = log_w.train_seconds()
    assert t_cross < 0.5 * wall_wide, (
        f"crossing at {t_cross:.2f}s vs wide wall-clock {wall_wide:.2f}s"
    )
    assert alt_rmse > wide_final and alt_rmse > comp_final, (
        f"baseline held-out error {alt_rmse} did not plateau above the networks"
    )
    return t_cross, wall_wide, alt_rmse, wide_final, comp_final


def test_criterion_10_ratings_standin_protocol(tmp_path):
    path = tmp_path / "standin.data"
    gen_ratings_standin(path, seed=0)
    t_cross, wall_wide, alt_rmse, wf, cf = _ratings_protocol(path, T_wide=2000, eps=0.3)
    report(10, (
        "ratings protocol (synthetic stand-in): crossing at "
        f"{t_cross:.2f}s of {wall_wide:.1f}s wide wall-clock, baseline holdout {alt_rmse:.2f} "
        f"above finals ({wf:.3f}, {cf:.3f})"
    ))


@pytest.mark.skipif(
    not os.path.exists(ML100K_PATH),
    reason="MovieLens 100K u.data not present (set DLN_ML100K or place data/ml-100k/u.data)",
)
def test_criterion_10_movielens_real_data():
    t0 = time.monotonic()
    t_cross, wall_wide, alt_rmse, wf, cf = _ratings_protocol(ML100K_PATH, T_wide=1000, eps=0.3)
    elapsed = time.monotonic() - t0
    assert elapsed < 900.0
    report(10, (
        f"MovieLens 100K: crossing at {t_cross:.1f}s of {wall_wide:.1f}s, "
        f"baseline holdout {alt_rmse:.3f} above finals ({wf:.3f}, {cf:.3f}), {elapsed:.0f}s total"
    ))


def test_criterion_11_manifest_rerun_determinism(tmp_path):
    cfg = default_config(
        "complete",
        d=40, r=4, r_hat=8, T=400, log_every=50, p=0.4, seeds=(0, 1),
        sigma_values=(0.1, 0.08, 0.06, 0.04), track_spectral=2,
        out_dir=str(tmp_path / "first"),
    )
    run(cfg)
    reloaded = load_manifest(tmp_path / "first" / "manifest.json")
    rerun_cfg = ExperimentConfig(**{**reloaded.__dict__, "out_dir": str(tmp_path / "second")})
    run(rerun_cfg)
    compared = 0
    for model in ("wide", "compressed", "altmin"):
        for seed in (0, 1):
            assert (tmp_path / "first" / model / f"seed_{seed}" / "trajectory.csv").exists()
            for name in ("trajectory.csv", "diagnostics.csv"):
                a = tmp_path / "first" / model / f"seed_{seed}" / name
                b = tmp_path / "second" / model / f"seed_{seed}" / name
                if a.exists():
                    assert a.read_bytes() == b.read_bytes(), (model, seed, name)
                    compared += 1
    assert compared >= 10
    report(11, f"manifest re-runs reproduce byte-identical logs ({compared} files)")
