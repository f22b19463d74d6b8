from pathlib import Path

import numpy as np
import pytest

from dln.errors import ContractViolationError, NumericalError
from dln.linalg import make_rng
from dln.theory import (
    FlowParams,
    OracleReport,
    RecursionParams,
    RecursionState,
    dominance_witness,
    fit_times,
    flow_series,
    gated_flow_series,
    implied_singular_values,
    initial_state,
    recursion_step,
    spectral_lower_bound,
    stable_step_bound,
    verify_against_training,
)


def logistic_closed_form(sigma0, target, t):
    # separable solution of sigma' = -2 sigma (sigma - target) for depth 2
    e = np.exp(2.0 * target * t)
    return target * sigma0 * e / (target + sigma0 * (e - 1.0))


class TestRecursionStep:
    def test_hand_value_lambda(self):
        params = RecursionParams(L=3, eta=10.0, eps=1e-3, sigma_star=np.array([2.0]))
        s1 = recursion_step(initial_state(params))
        # 1e-3 - 10 * (1e-3)^2 * ((1e-3)^3 - 2), on every layer at alpha = 1
        assert s1.lam.shape == (3, 2)
        assert s1.lam[:, 0] == pytest.approx(np.full(3, 1.01999999999e-3), rel=1e-12)

    def test_hand_value_tail(self):
        params = RecursionParams(L=3, eta=10.0, eps=1e-3, sigma_star=np.array([2.0]))
        s1 = recursion_step(initial_state(params))
        # 1e-3 - 10 * (1e-3)^2 * ((1e-3)^3 - 0)
        assert s1.lam[:, -1] == pytest.approx(np.full(3, 9.9999999999e-4), rel=1e-12)

    def test_outer_layers_step_at_alpha_eta(self):
        params = RecursionParams(L=4, eta=10.0, eps=1e-3, sigma_star=np.array([2.0]),
                                 alpha=5.0)
        s1 = recursion_step(initial_state(params))
        # each layer moves by eta_l * (1e-3)^3 * ((1e-3)^4 - 2)
        grown = 1e-3 + np.array([5.0, 1.0, 1.0, 5.0]) * 10.0 * 1e-9 * (2.0 - 1e-12)
        assert s1.lam[:, 0] == pytest.approx(grown, rel=1e-12)

    def test_fixed_point(self):
        eps = 1e-2
        params = RecursionParams(L=3, eta=1.0, eps=eps, sigma_star=np.array([eps**3]))
        s1 = recursion_step(initial_state(params))
        assert np.all(s1.lam[:, 0] == eps)

    def test_tail_strictly_decreasing_and_below_eps(self):
        params = RecursionParams(L=3, eta=10.0, eps=1e-3, sigma_star=np.array([0.1]))
        states = [initial_state(params)]
        for _ in range(1000):
            states.append(recursion_step(states[-1]))
        tails = np.array([s.lam[:, -1] for s in states])
        assert np.all(np.diff(tails, axis=0) < 0)
        assert np.all(tails <= 1e-3)
        assert np.all(np.prod(tails, axis=1) <= (1e-3) ** 3)

    def test_monotone_convergence_below_stability_bound(self):
        sigma = np.array([0.5, 0.3])
        L = 3
        eta = 0.5 * stable_step_bound(float(sigma[0]), L) / 2.0  # monotone regime
        params = RecursionParams(L=L, eta=eta, eps=1e-3, sigma_star=sigma)
        state = initial_state(params)
        prev = state.lam.copy()
        for _ in range(200000):
            state = recursion_step(state)
            assert np.all(state.lam[:, :2] >= prev[:, :2] - 1e-15)
            prev = state.lam.copy()
            if np.max(np.abs(implied_singular_values(state, 2) - sigma)) <= 1e-8:
                break
        assert np.max(np.abs(implied_singular_values(state, 2) - sigma)) <= 1e-8

    def test_overflow_raises(self):
        params = RecursionParams(L=3, eta=1e6, eps=1.0, sigma_star=np.array([5.0]))
        state = initial_state(params)
        with pytest.raises(NumericalError):
            for _ in range(500):
                state = recursion_step(state)

    def test_implied_values_layout(self):
        params = RecursionParams(L=3, eta=1.0, eps=1e-2, sigma_star=np.array([0.5]))
        vals = implied_singular_values(initial_state(params), 4)
        assert vals.shape == (4,)
        assert np.allclose(vals, 1e-6)


class TestVerifyAgainstTraining:
    def _training_log(self, eta=1.0, iters=500, L=3, eps=1e-3, alpha=1.0):
        from dln.data import SyntheticSpec, gen_lowrank
        from dln.models import init_compressed
        from dln.operators import Identity
        from dln.trainer import TrainConfig, train_compressed

        d, r, r_hat = 50, 5, 10
        sigma = tuple(np.linspace(0.2, 0.08, r))
        M, U, s, V = gen_lowrank(SyntheticSpec(d=d, r=r, seed=0, sigma_values=sigma))
        op = Identity(d)
        y = op.apply(M)
        model = init_compressed(op.surrogate(y), L, r_hat, eps)
        cfg = TrainConfig(eta=eta, alpha=alpha, iters=iters, log_every=10, top_k=r_hat)
        _, log = train_compressed(model, op, y, cfg)
        return log, s

    def test_matching_run_passes(self):
        log, s = self._training_log()
        params = RecursionParams(L=3, eta=1.0, eps=1e-3, sigma_star=s)
        report = verify_against_training(log, params, 10)
        assert report.passed and report.max_rel_dev <= 1e-6

    def test_mismatched_eta_fails_with_report(self):
        log, s = self._training_log()
        params = RecursionParams(L=3, eta=2.0, eps=1e-3, sigma_star=s)
        report = verify_against_training(log, params, 10)
        assert not report.passed
        assert report.first_fail_iter is not None
        assert report.max_rel_dev > 1e-6

    def test_zero_iteration_trajectory_passes(self):
        from dln.trainer import TrajectoryLog, TrajectoryRecord

        params = RecursionParams(L=3, eta=1.0, eps=1e-3, sigma_star=np.array([0.5]))
        log = TrajectoryLog(top_k=3)
        log.records.append(TrajectoryRecord(0, 0.1, None, np.full(3, 1e-9), 0.0))
        report = verify_against_training(log, params, 3)
        assert report.passed

    def test_structural_mismatch_raises(self):
        log, s = self._training_log()
        params = RecursionParams(L=3, eta=1.0, eps=1e-3, sigma_star=s)
        with pytest.raises(ContractViolationError):
            verify_against_training(log, params, 5)  # log tracks 10

    @pytest.mark.parametrize("L", [3, 4])
    @pytest.mark.parametrize("alpha", [1.0, 5.0])
    def test_replay_sees_the_outer_rate(self, L, alpha):
        log, s = self._training_log(iters=300, L=L, eps=0.1, alpha=alpha)
        own, other = (RecursionParams(L=L, eta=1.0, eps=0.1, sigma_star=s, alpha=a)
                      for a in (alpha, 6.0 - alpha))  # the run's alpha, then the other one
        report = verify_against_training(log, own, 10)
        assert report.passed and report.max_rel_dev <= 1e-10
        report = verify_against_training(log, other, 10)
        assert not report.passed and report.first_fail_iter is not None

    def test_report_json(self, tmp_path):
        report = OracleReport(max_rel_dev=1e-9, first_fail_iter=None, passed=True, tol=1e-6)
        payload = report.to_json(tmp_path / "oracle.json")
        assert '"pass": true' in payload
        assert (tmp_path / "oracle.json").exists()


class TestSpectralLowerBound:
    def test_equal_matrices(self):
        a = np.arange(6.0).reshape(2, 3)
        assert spectral_lower_bound(a, a) == (0.0, 0.0)

    def test_aligned_diagonal_equality(self):
        lhs, rhs = spectral_lower_bound(np.diag([3.0, 0.0]), np.diag([1.0, 0.0]))
        assert lhs == pytest.approx(4.0)
        assert rhs == pytest.approx(4.0)

    def test_rotated_rank_one(self):
        lhs, rhs = spectral_lower_bound(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert lhs == pytest.approx(2.0)
        assert rhs == pytest.approx(0.0, abs=1e-12)

    def test_never_violated_on_random_pairs(self):
        rng = make_rng(1001)
        for _ in range(300):
            rows = int(rng.integers(1, 13))
            cols = int(rng.integers(1, 13))
            a = rng.standard_normal((rows, cols))
            b = rng.standard_normal((rows, cols))
            lhs, rhs = spectral_lower_bound(a, b)
            assert lhs >= rhs - 1e-9

    def test_shape_mismatch(self):
        with pytest.raises(ContractViolationError):
            spectral_lower_bound(np.eye(2), np.eye(3))


class TestFlow:
    def test_equilibrium_constant(self):
        params = FlowParams(L=3, sigma_star=np.array([0.7, 0.2]))
        end = flow_series(params, params.sigma_star, 5.0, 1e-3).sigmas[-1]
        assert np.allclose(end, params.sigma_star, atol=1e-14)

    def test_depth2_matches_closed_form(self):
        params = FlowParams(L=2, sigma_star=np.array([1.0]))
        end = flow_series(params, [1e-6], 12.0, 1e-3).sigmas[-1]
        assert end[0] >= 0.99
        expected = logistic_closed_form(1e-6, 1.0, 12.0)
        assert abs(end[0] - expected) <= 1e-6

    def test_rk4_order(self):
        # halving dt shrinks the endpoint error by roughly 2^4
        params = FlowParams(L=2, sigma_star=np.array([1.0]))
        exact = logistic_closed_form(1e-3, 1.0, 8.0)
        errs = []
        for dt in (4e-2, 2e-2):
            end = flow_series(params, [1e-3], 8.0, dt).sigmas[-1]
            errs.append(abs(end[0] - exact))
        ratio = errs[0] / errs[1]
        assert 8.0 <= ratio <= 32.0

    def test_zero_target_strictly_decreasing(self):
        params = FlowParams(L=3, sigma_star=np.array([0.0]))
        series = flow_series(params, [1e-3], 10.0, 1e-2)
        vals = series.sigmas[:, 0]
        assert np.all(np.diff(vals) < 0)

    def test_instability_raises(self):
        params = FlowParams(L=2, sigma_star=np.array([1.0]))
        with pytest.raises(NumericalError):
            flow_series(params, [50.0], 10.0, 1.0)

    @pytest.mark.parametrize("sigma0,duration,match", [
        ([1e-3, 1e-3], 1.0, "one nonnegative start value"),
        ([-1e-3], 1.0, "one nonnegative start value"),
        ([1e-3], -1.0, "duration >= 0"),
    ], ids=["length", "negative", "duration"])
    def test_bad_arguments_refused(self, sigma0, duration, match):
        params = FlowParams(L=3, sigma_star=np.array([1.0]))
        for entry in (flow_series, gated_flow_series):
            with pytest.raises(ContractViolationError, match=match):
                entry(params, sigma0, duration, 1e-2)

    @pytest.mark.parametrize("entry", [flow_series, gated_flow_series])
    def test_endpoint_independent_of_sampling(self, entry):
        # the last sample is the end of the run, whatever the sampling stride
        params = FlowParams(L=3, sigma_star=np.array([1.0, 0.4]))
        runs = [entry(params, [1e-2, 1e-2], 3.0, 1e-2, sample_every=k) for k in (1, 7, 10**9)]
        for run in runs:
            assert run.times[0] == 0.0 and run.times[-1] == 300 * 1e-2
            assert np.array_equal(run.sigmas[0], [1e-2, 1e-2])
            assert np.array_equal(run.sigmas[-1], runs[0].sigmas[-1])
        assert [len(run.times) for run in runs] == [301, 44, 2]


class TestDominance:
    def test_identical_initial_states(self):
        params = FlowParams(L=3, sigma_star=np.array([1.0, 0.5]))
        a = flow_series(params, [1e-3, 1e-3], 5.0, 1e-2)
        b = flow_series(params, [1e-3, 1e-3], 5.0, 1e-2)
        assert dominance_witness(a, b)

    def test_started_at_target_dominates(self):
        params = FlowParams(L=3, sigma_star=np.array([1.0]))
        a = flow_series(params, [1e-3], 4.0, 1e-2)
        b = flow_series(params, params.sigma_star, 4.0, 1e-2)
        assert dominance_witness(a, b)
        assert not dominance_witness(b, a)

    def test_gated_vs_ungated_sequential_fits(self):
        # all-active flow dominates the one whose modes activate sequentially
        targets = np.array([1.0, 0.6, 0.3])
        params = FlowParams(L=3, sigma_star=targets)
        s0 = np.full(3, 1e-2)
        dt = 2e-3
        gated = gated_flow_series(params, s0, 60.0, dt, sample_every=100)
        free = flow_series(params, s0, 60.0, dt, sample_every=100)
        assert dominance_witness(gated, free)
        t_free = fit_times(free)
        t_gated = fit_times(gated)
        assert all(f is not None and g is not None for f, g in zip(t_free, t_gated))
        assert all(f <= g for f, g in zip(t_free, t_gated))
        assert all(t_gated[i] <= t_gated[i + 1] for i in range(2))

    def test_grid_mismatch_raises(self):
        params = FlowParams(L=3, sigma_star=np.array([1.0]))
        a = flow_series(params, [1e-3], 4.0, 1e-2)
        b = flow_series(params, [1e-3], 2.0, 1e-2)
        with pytest.raises(ContractViolationError):
            dominance_witness(a, b)


@pytest.mark.parametrize("L", [2, 3, 4])
@pytest.mark.parametrize("alpha", [1.0, 2.0, 5.0])
def test_stable_step_bound_separates_convergence_from_oscillation(L, alpha):
    # the mixed-rate bound, checked against the recursion it linearizes
    target = 0.5
    bound = stable_step_bound(target, L, alpha=alpha)
    offsets = []
    for scale in (0.9, 1.1):
        params = RecursionParams(L=L, eta=scale * bound, eps=0.3,
                                 sigma_star=np.array([target]), alpha=alpha)
        state = initial_state(params)
        last = []
        for _ in range(2000):
            state = recursion_step(state)
            last = [*last[-1:], implied_singular_values(state, 1)[0]]
        # past the bound the product settles into a two-cycle around the target
        offsets.append(max(abs(v - target) for v in last))
    assert offsets[0] <= 1e-14 * target
    assert offsets[1] >= 0.1


def test_stable_step_bound_formula():
    assert stable_step_bound(1.0, 2) == pytest.approx(1.0)
    # larger outer-rate multipliers shrink the stable region
    assert stable_step_bound(0.5, 3, alpha=5.0) < stable_step_bound(0.5, 3, alpha=1.0)


def test_oracles_import_no_trainer_code():
    # the oracles' independence from the code they check, at run time;
    # imports under TYPE_CHECKING serve annotations only
    import ast
    import dln.theory

    tree = ast.parse(Path(dln.theory.__file__).read_text())
    guarded = {id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
               and ast.unparse(block.test) == "TYPE_CHECKING" for node in ast.walk(block)}
    imported = set()
    for node in ast.walk(tree):
        if id(node) in guarded:
            continue
        if isinstance(node, ast.ImportFrom):
            base = "dln." * (node.level > 0) + (node.module or "")
            imported |= {base} | {f"{base}.{a.name}" for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
    assert "dln.diagnostics" in imported  # the walk sees the module's imports
    banned = {f"dln.{m}" for m in ("trainer", "models", "operators", "baselines", "experiments")}
    assert not {name for name in imported
                if any(name == b or name.startswith(b + ".") for b in banned)}
