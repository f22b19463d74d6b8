from dataclasses import replace

import numpy as np
import pytest

from dln.baselines import altmin_complete
from dln.data import SyntheticSpec, gen_lowrank, gen_mcar_mask
from dln.errors import ContractViolationError, DivergenceError
from dln.linalg import chain_product, make_rng, truncated_svd
from dln.diagnostics import offdiagonal_leakage
from dln.models import (
    DLN,
    chain_gradients,
    init_compressed,
    init_wide,
)
from dln.operators import CompletionMask, Identity
from dln.theory import RecursionParams, verify_against_training
from dln.trainer import Recorder, TrainConfig, train_compressed, train_wide


def make_factorization(d, r, seed, sigma_values):
    M, U, s, V = gen_lowrank(SyntheticSpec(d=d, r=r, seed=seed, sigma_values=sigma_values))
    op = Identity(d)
    return M, U, s, V, op, op.apply(M)


class TestTrainWide:
    def test_zero_residual_keeps_parameters(self, rng):
        model = DLN([rng.standard_normal((3, 3)) for _ in range(2)])
        init = [w.copy() for w in model.layers]
        op = Identity(3)
        y = op.apply(chain_product(model.layers))
        trained, log = train_wide(model, op, y, TrainConfig(eta=0.1, iters=25))
        for a, b in zip(init, trained.layers):
            assert np.array_equal(a, b)
        assert log.final().train_loss == 0.0

    def test_scalar_hand_iteration(self):
        # d=1, L=2: one step sends a to a - eta*(a*b - sigma)*b
        a0, b0, sigma, eta = 0.3, 0.5, 2.0, 0.01
        model = DLN([np.array([[a0]]), np.array([[b0]])])
        op = Identity(1)
        trained, _ = train_wide(model, op, np.array([sigma]), TrainConfig(eta=eta, iters=1))
        res = a0 * b0 - sigma
        assert trained.layers[0][0, 0] == pytest.approx(a0 - eta * res * b0, abs=1e-16)
        assert trained.layers[1][0, 0] == pytest.approx(b0 - eta * res * a0, abs=1e-16)

    def test_monotone_loss_paper_scale_run(self):
        # full-observation run at the reference settings: logged loss never rises
        d, r = 100, 10
        M, U, s, V, op, y = make_factorization(d, r, 0, tuple(np.linspace(0.05, 0.02, r)))
        model = init_wide(d, 3, 1e-3, "orthogonal", make_rng(0, 2))
        cfg = TrainConfig(eta=10.0, iters=1200, log_every=20, top_k=10)
        _, log = train_wide(model, op, y, cfg, probe=M)
        losses = log.losses()
        assert np.all(np.diff(losses) <= 1e-15)

    def test_divergence_raises_with_iteration(self):
        M, U, s, V, op, y = make_factorization(8, 2, 1, (0.5, 0.3))
        model = init_wide(8, 3, 0.5, "orthogonal", make_rng(1, 2))
        with pytest.raises(DivergenceError) as exc:
            train_wide(model, op, y, TrainConfig(eta=500.0, iters=500))
        assert exc.value.iteration >= 0


class TestTrainCompressed:
    def test_alpha_one_matches_uniform_reference(self):
        d, r, r_hat, L, eps, eta, T = 12, 3, 5, 3, 1e-2, 0.5, 40
        M, U, s, V, op, y = make_factorization(d, r, 3, (0.4, 0.3, 0.2))
        model = init_compressed(op.surrogate(y), L, r_hat, eps)
        layers = [w.copy() for w in model.layers]
        trained, _ = train_compressed(model, op, y, TrainConfig(eta=eta, alpha=1.0, iters=T))

        # independent uniform-rate reference loop
        for _ in range(T):
            gs, _ = chain_gradients(layers, op, y)
            layers = [w - eta * g for w, g in zip(layers, gs)]
        for a, b in zip(trained.layers, layers):
            assert np.array_equal(a, b)

    def test_synchronous_update_order_independent(self):
        # one step applied in reversed layer order gives identical parameters
        d, r_hat, eta, alpha = 8, 3, 0.3, 2.0
        M, U, s, V, op, y = make_factorization(d, 2, 4, (0.4, 0.2))
        model = init_compressed(op.surrogate(y), 3, r_hat, 1e-2)
        init = [w.copy() for w in model.layers]
        trained, _ = train_compressed(model, op, y, TrainConfig(eta=eta, alpha=alpha, iters=1))

        layers = [w.copy() for w in init]
        rates = [alpha * eta, eta, alpha * eta]
        gs, _ = chain_gradients(init, op, y)
        for idx in reversed(range(3)):
            layers[idx] = layers[idx] - rates[idx] * gs[idx]
        for a, b in zip(trained.layers, layers):
            assert np.array_equal(a, b)

    def test_trajectory_matches_scalar_recursion(self):
        # top-r logged singular values follow the closed-form recursion
        d, r, r_hat, eta, T = 30, 3, 6, 10.0, 2500
        sigma = (0.1, 0.08, 0.06)
        M, U, s, V, op, y = make_factorization(d, r, 5, sigma)
        model = init_compressed(op.surrogate(y), 3, r_hat, 1e-3)
        cfg = TrainConfig(eta=eta, alpha=1.0, iters=T, log_every=50, top_k=r)
        _, log = train_compressed(model, op, y, cfg)
        params = RecursionParams(L=3, eta=eta, eps=1e-3, sigma_star=s)
        report = verify_against_training(log, params, r_hat)
        assert report.passed and report.max_rel_dev <= 1e-8, report.to_json()

    @pytest.mark.parametrize("trainer", [train_compressed, train_wide])
    def test_updates_the_model_it_is_handed(self, trainer):
        M, U, s, V, op, y = make_factorization(6, 2, 8, (0.4, 0.2))
        model = init_compressed(op.surrogate(y), 3, 3, 1e-2)
        layers = list(model.layers)
        init = [w.copy() for w in layers]
        trained, _ = trainer(model, op, y, TrainConfig(eta=0.5, alpha=2.0, iters=3))
        assert trained is model
        assert all(a is b for a, b in zip(trained.layers, layers))
        assert not any(np.array_equal(a, b) for a, b in zip(trained.layers, init))

    @pytest.mark.parametrize("trainer", [train_compressed, train_wide])
    def test_layers_that_share_memory_refused(self, trainer, rng):
        # one square array twice would take each update twice
        w = rng.standard_normal((3, 3))
        before = w.copy()
        op = Identity(3)
        with pytest.raises(ContractViolationError, match="share memory"):
            trainer(DLN([w, w]), op, op.apply(before), TrainConfig(eta=0.1, iters=2))
        assert np.array_equal(w, before)
        # overlapping views of one buffer are refused as well
        buf = rng.standard_normal((4, 3))
        with pytest.raises(ContractViolationError, match="share memory"):
            trainer(DLN([buf[:3], buf[1:]]), op, op.apply(before), TrainConfig(eta=0.1, iters=2))

    def test_interleaved_views_of_one_buffer_train(self, rng):
        # the column halves of one buffer span the same address range but
        # share no element, so they are two layers; each moves as it would
        # on its own
        buf = rng.standard_normal((3, 6))
        apart = DLN([buf[:, :3].copy(), buf[:, 3:].copy()])
        op = Identity(3)
        y = op.apply(rng.standard_normal((3, 3)))
        cfg = TrainConfig(eta=0.05, iters=4)
        train_compressed(apart, op, y, cfg)
        train_compressed(DLN([buf[:, :3], buf[:, 3:]]), op, y, cfg)
        np.testing.assert_allclose(buf, np.hstack(apart.layers), rtol=1e-12, atol=0)

    def test_end_to_end_stays_diagonal_in_frame(self):
        d, r, r_hat = 20, 2, 4
        M, U, s, V, op, y = make_factorization(d, r, 6, (0.1, 0.05))
        surr = op.surrogate(y)
        model = init_compressed(surr, 3, r_hat, 1e-3)
        trained, _ = train_compressed(model, op, y, TrainConfig(eta=10.0, alpha=1.0, iters=1500))
        frame = truncated_svd(surr, r_hat)
        assert offdiagonal_leakage(chain_product(trained.layers), frame.U, frame.V) <= 1e-10


class TestOneDescentBody:
    """The wide net trains as the compressed net at alpha = 1, bit for bit."""

    @staticmethod
    def problem(kind):
        M, U, s, V, op, y = make_factorization(8, 2, 7, (0.4, 0.2))
        if kind == "completion":
            op = gen_mcar_mask(8, 0.6, 7)
            y = op.apply(M)
        model = init_wide(8, 3, 0.3, "orthogonal", make_rng(7, 2))
        return model, op, y, M, TrainConfig(eta=0.5, iters=30, log_every=5, top_k=4)

    @staticmethod
    def copy(model):
        """A model of its own: the trainers update the one they are handed."""
        return DLN([w.copy() for w in model.layers])

    @staticmethod
    def bits(trained, log):
        """Every array a run hands back, as bytes."""
        out = [w.tobytes() for w in trained.layers]
        out += [log.ts().tobytes(), log.losses().tobytes(), log.recovery().tobytes()]
        out += [r.svals.tobytes() for r in log.records]
        out += [a.tobytes() for rec in log.records
                for a in (rec.spectrum.U, rec.spectrum.s, rec.spectrum.V)]
        return out

    @pytest.mark.parametrize("kind", ["identity", "completion"])
    def test_wide_ignores_alpha(self, kind):
        model, op, y, M, cfg = self.problem(kind)
        runs = [self.bits(*train_wide(self.copy(model), op, y, replace(cfg, alpha=a), probe=M,
                                      track_spectral=2)) for a in (1.0, 5.0)]
        assert runs[0] == runs[1]
        # alpha = 5 does move the compressed rule's bits on the same model
        moved = train_compressed(self.copy(model), op, y, replace(cfg, alpha=5.0), probe=M,
                                 track_spectral=2)
        assert self.bits(*moved) != runs[0]

    @pytest.mark.parametrize("kind", ["identity", "completion"])
    def test_wide_is_compressed_at_alpha_one(self, kind):
        model, op, y, M, cfg = self.problem(kind)
        wide = train_wide(self.copy(model), op, y, cfg, probe=M, track_spectral=2)
        compressed = train_compressed(self.copy(model), op, y, cfg, probe=M, track_spectral=2)
        assert self.bits(*wide) == self.bits(*compressed)


class TestTrajectoryLog:
    def _quick_log(self, tmp_path=None, probe=True):
        M, U, s, V, op, y = make_factorization(10, 2, 7, (0.3, 0.2))
        model = init_compressed(op.surrogate(y), 3, 4, 1e-3)
        cfg = TrainConfig(eta=1.0, iters=90, log_every=20, top_k=4)
        _, log = train_compressed(model, op, y, cfg, probe=M if probe else None)
        return log

    def test_iterates_strictly_increasing_fixed_k(self):
        log = self._quick_log()
        ts = log.ts()
        assert np.all(np.diff(ts) > 0)
        assert ts[0] == 0 and ts[-1] == 90
        assert all(r.svals.size == log.top_k for r in log.records)

    def test_csv_schema(self, tmp_path):
        log = self._quick_log()
        path = tmp_path / "traj.csv"
        log.write_csv(path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,train_loss,recovery_error,sv_1,sv_2,sv_3,sv_4"
        assert len(lines) == len(log.records) + 1
        first = lines[1].split(",")
        assert first[0] == "0" and float(first[1]) == log.records[0].train_loss

    def test_csv_blank_recovery_without_probe(self, tmp_path):
        log = self._quick_log(probe=False)
        path = tmp_path / "traj.csv"
        log.write_csv(path)
        row = path.read_text().strip().split("\n")[1].split(",")
        assert row[2] == ""

    def test_timing_csv_separate(self, tmp_path):
        log = self._quick_log()
        log.write_timing_csv(tmp_path / "timing.csv")
        lines = (tmp_path / "timing.csv").read_text().strip().split("\n")
        assert lines[0] == "t,elapsed_s"
        assert len(lines) == len(log.records) + 1

    def test_deterministic_reruns_byte_identical(self, tmp_path):
        paths = []
        for run in range(2):
            log = self._quick_log()
            p = tmp_path / f"traj{run}.csv"
            log.write_csv(p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()


def test_config_validation():
    with pytest.raises(ContractViolationError):
        TrainConfig(eta=-1.0, iters=10)
    with pytest.raises(ContractViolationError):
        TrainConfig(eta=1.0, iters=0)
    with pytest.raises(ContractViolationError):
        TrainConfig(eta=1.0, iters=10, alpha=0.0)
    with pytest.raises(ContractViolationError):
        TrainConfig(eta=1.0, iters=10, log_every=0)


@pytest.mark.parametrize("entry", ["Recorder", "train_wide", "train_compressed",
                                   "altmin_complete"])
@pytest.mark.parametrize("holdout", [
    (CompletionMask([0, 5], [1, 2], 6, 7), np.ones(2)),  # a wider mask
    (CompletionMask([0, 5], [1, 2], 7, 6), np.ones(2)),  # a taller one
    (CompletionMask([0, 5], [1, 2], 6, 6), np.ones(1)),  # a value short
    (CompletionMask([0, 5], [1, 2], 6, 6), np.ones(3)),  # a value over
], ids=["wider", "taller", "fewer-values", "more-values"])
def test_mismatched_holdout_refused_before_the_first_record(monkeypatch, entry, holdout):
    mask = gen_mcar_mask(6, 0.5, 0)
    y = mask.apply(np.ones((6, 6)))
    model = DLN([np.full((2, 6), 0.5), np.full((6, 2), 0.5)])
    recorded = []
    monkeypatch.setattr(Recorder, "__call__", lambda self, t, elapsed: recorded.append(t))
    calls = {
        "Recorder": lambda: Recorder(model.layers, mask, y, 2, holdout=holdout),
        "train_wide": lambda: train_wide(model, mask, y, TrainConfig(eta=0.1, iters=2),
                                         holdout=holdout),
        "train_compressed": lambda: train_compressed(model, mask, y, TrainConfig(eta=0.1, iters=2),
                                                     holdout=holdout),
        "altmin_complete": lambda: altmin_complete(mask, y, 2, 2, holdout=holdout),
    }
    with pytest.raises(ContractViolationError, match="hold-out"):
        calls[entry]()
    assert recorded == []
