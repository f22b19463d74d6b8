import importlib
from pathlib import Path

import numpy as np
import pytest

from dln.data import SyntheticSpec, gen_lowrank, load_movielens, split_ratings
from dln.diagnostics import (
    SpectralTrajectory,
    alignment,
    detect_incremental,
    holdout_relative_error,
    holdout_rmse,
    offdiagonal_leakage,
    spectral_rows,
    subspace_distance,
    write_diagnostics_csv,
)
from dln.errors import ContractViolationError
from dln.linalg import chain_product, make_rng, sample_semi_orthogonal
from dln.models import DLN, init_compressed
from dln.operators import CompletionMask, Identity
from dln.trainer import Recorder, TrainConfig, train_compressed, train_wide

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


class TestRecoveryError:
    """The recorder's ``recovery_error`` column: ||W - probe||_F / ||probe||_F."""

    @staticmethod
    def logged(model, probe, iters=1):
        # logs the model as given at t = 0, then `iters` steps toward y = 0
        op = Identity(probe.shape[0])
        return train_wide(model, op, np.zeros(op.m), TrainConfig(eta=1e-3, iters=iters,
                                                                 log_every=1), probe=probe)

    def test_exact(self, rng):
        model = DLN([rng.standard_normal((4, 4)) for _ in range(2)])
        _, log = self.logged(model, chain_product(model.layers))
        assert log.records[0].recovery_error == 0.0

    def test_zero_estimate(self, rng):
        model = DLN([np.zeros((4, 4)) for _ in range(2)])
        _, log = self.logged(model, rng.standard_normal((4, 4)))
        assert log.records[0].recovery_error == pytest.approx(1.0)

    def test_double_estimate(self, rng):
        model = DLN([rng.standard_normal((4, 4)) for _ in range(2)])
        _, log = self.logged(model, chain_product(model.layers) / 2)
        assert log.records[0].recovery_error == pytest.approx(1.0)

    def test_matches_the_trained_product(self, rng):
        model = DLN([rng.standard_normal((4, 4)) for _ in range(3)])
        probe = rng.standard_normal((4, 4))
        trained, log = self.logged(model, probe, iters=3)
        W = chain_product(trained.layers)
        assert log.final().recovery_error == (
            float(np.linalg.norm(W - probe)) / float(np.linalg.norm(probe)))

    def test_zero_target_rejected(self, rng):
        model = DLN([rng.standard_normal((2, 2)) for _ in range(2)])
        with pytest.raises(ContractViolationError, match="probe target must be nonzero"):
            self.logged(model, np.zeros((2, 2)))


def frozen_frame_run(d=20, r=2, r_hat=4, eta=10.0, iters=1500, log_every=50):
    sigma = tuple(np.linspace(0.1, 0.05, r))
    M, U, s, V = gen_lowrank(SyntheticSpec(d=d, r=r, seed=6, sigma_values=sigma))
    op = Identity(d)
    y = op.apply(M)
    model = init_compressed(op.surrogate(y), 3, r_hat, 1e-3)
    cfg = TrainConfig(eta=eta, iters=iters, log_every=log_every, top_k=r_hat)
    _, log = train_compressed(model, op, y, cfg, probe=M, track_spectral=r)
    return log, M, U, s, V


class TestAlignment:
    def test_frozen_subspaces_alignment_is_one(self):
        # spectral seeding under full observation pins the singular vectors
        log, M, U, s, V = frozen_frame_run()
        st = alignment(log, U, V, 2)
        # at t=0 all values tie and pairing is arbitrary, so that record is left out
        assert log.records[0].t == 0 and st.ts[0] == log.records[1].t
        assert np.all(st.left_align >= 1 - 1e-10)
        assert np.all(st.right_align >= 1 - 1e-10)

    def test_t0_record_left_out(self, rng):
        from dln.linalg import SvdResult
        from dln.trainer import TrajectoryLog, TrajectoryRecord

        q = sample_semi_orthogonal(6, 6, rng)
        log = TrajectoryLog(top_k=2)
        for t, cols in ((0, slice(2, 4)), (5, slice(0, 2))):
            spectrum = SvdResult(q[:, cols], np.ones(2), q[:, cols])
            log.records.append(TrajectoryRecord(t, 0.0, None, np.ones(2), 0.0, spectrum))
        st = alignment(log, q[:, :2], q[:, :2], 2)
        assert st.ts.tolist() == [5] and np.allclose(st.left_align, 1.0)
        log.records.pop()
        with pytest.raises(ContractViolationError):
            alignment(log, q[:, :2], q[:, :2], 2)

    def test_self_alignment(self, rng):
        from dln.linalg import SvdResult
        from dln.trainer import TrajectoryLog, TrajectoryRecord

        q = sample_semi_orthogonal(6, 6, rng)
        log = TrajectoryLog(top_k=3)
        spectrum = SvdResult(q[:, :3], np.ones(3), q[:, :3])
        log.records.append(TrajectoryRecord(1, 0.0, None, np.ones(3), 0.0, spectrum))
        st = alignment(log, q[:, :3], q[:, :3], 3)
        assert np.allclose(st.left_align, 1.0)
        assert np.allclose(st.right_align, 1.0)

    def test_orthogonal_complement_alignment_zero(self, rng):
        from dln.linalg import SvdResult
        from dln.trainer import TrajectoryLog, TrajectoryRecord

        q = sample_semi_orthogonal(6, 6, rng)
        log = TrajectoryLog(top_k=2)
        spectrum = SvdResult(q[:, :2], np.ones(2), q[:, :2])
        log.records.append(TrajectoryRecord(1, 0.0, None, np.ones(2), 0.0, spectrum))
        st = alignment(log, q[:, 2:4], q[:, 2:4], 2)
        assert np.allclose(st.left_align, 0.0, atol=1e-12)

    def test_spectral_rows_end_with_drift_of_consecutive_iterates(self, rng):
        # a fresh orthonormal frame at each logged iterate, so every drift is
        # nonzero; none is measured from t = 0
        from dln.linalg import SvdResult
        from dln.trainer import TrajectoryLog, TrajectoryRecord

        log = TrajectoryLog(top_k=3)
        for t in (0, 4, 8, 12):
            q = sample_semi_orthogonal(7, 7, rng)
            spectrum = SvdResult(q[:, :3], np.array([3.0, 2.0, 1.0]), q[:, 3:6])
            log.records.append(TrajectoryRecord(t, 0.0, None, spectrum.s, 0.0, spectrum))
        tracked = log.records[1:]
        target = sample_semi_orthogonal(7, 7, rng)[:, :2]
        rows = spectral_rows(alignment(log, target, target, 2))
        drift = rows[-(len(tracked) - 1):]
        assert all(metric != "subspace_distance" for _, metric, _, _ in rows[:-len(drift)])
        want = [(b.t, "subspace_distance", None, subspace_distance(a.spectrum.U, b.spectrum.U, 2))
                for a, b in zip(tracked, tracked[1:])]
        assert drift == want
        assert all(v > 0.1 for *_, v in drift)

    def test_requires_snapshots(self):
        from dln.trainer import TrajectoryLog

        with pytest.raises(ContractViolationError):
            alignment(TrajectoryLog(top_k=2), np.eye(3), np.eye(3), 2)


class TestSubspaceDistance:
    def test_equal_bases(self, rng):
        q = sample_semi_orthogonal(7, 7, rng)
        assert subspace_distance(q[:, :3], q[:, :3], 3) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_complements(self, rng):
        q = sample_semi_orthogonal(8, 8, rng)
        assert subspace_distance(q[:, :3], q[:, 3:6], 3) == pytest.approx(3.0)

    def test_permutation_invariant(self, rng):
        q = sample_semi_orthogonal(7, 7, rng)
        u = q[:, :3]
        perm = u[:, [2, 0, 1]]
        assert subspace_distance(u, perm, 3) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_and_rotation_invariant(self, rng):
        qa = sample_semi_orthogonal(9, 9, rng)[:, :4]
        qb = sample_semi_orthogonal(9, 9, make_rng(55))[:, :4]
        d_ab = subspace_distance(qa, qb, 4)
        d_ba = subspace_distance(qb, qa, 4)
        assert d_ab == pytest.approx(d_ba, abs=1e-10)
        rot = sample_semi_orthogonal(4, 4, make_rng(56))
        assert subspace_distance(qa @ rot, qb, 4) == pytest.approx(d_ab, abs=1e-10)

    def test_non_orthonormal_rejected(self, rng):
        with pytest.raises(ContractViolationError):
            subspace_distance(rng.standard_normal((5, 3)), np.eye(5)[:, :3], 3)


class TestDetectIncremental:
    """Fit times of as many components as the trajectory aligns."""

    def _st(self, ts, svals, la, ra):
        return SpectralTrajectory(
            ts=np.asarray(ts), svals=np.asarray(svals, dtype=float),
            left_align=np.asarray(la, dtype=float), right_align=np.asarray(ra, dtype=float),
            drift=np.zeros(len(ts) - 1),
        )

    def test_constant_at_target(self):
        sigma = np.array([2.0, 1.0])
        st = self._st([0, 10, 20], np.tile(sigma, (3, 1)), np.ones((3, 2)), np.ones((3, 2)))
        assert detect_incremental(st, sigma) == [0, 0]

    def test_staged_fits_are_ordered(self):
        sigma = np.array([2.0, 1.0])
        svals = [[0.0, 0.0], [2.0, 0.0], [2.0, 1.0], [2.0, 1.0]]
        ones = np.ones((4, 2))
        st = self._st([0, 5, 10, 15], svals, ones, ones)
        t = detect_incremental(st, sigma)
        assert t == [5, 10]
        assert t[0] <= t[1]

    def test_never_converged_component_absent(self):
        sigma = np.array([2.0, 1.0])
        svals = [[2.0, 0.0], [2.0, 0.0]]
        ones = np.ones((2, 2))
        st = self._st([0, 5], svals, ones, ones)
        t = detect_incremental(st, sigma)
        assert t == [0, None]

    def test_alignment_condition_gates_detection(self):
        sigma = np.array([2.0])
        svals = [[2.0], [2.0]]
        bad = np.array([[0.5], [0.5]])
        st = self._st([0, 5], svals, bad, np.ones((2, 1)))
        assert detect_incremental(st, sigma) == [None]

    def test_condition_must_hold_for_all_later_iterates(self):
        sigma = np.array([1.0])
        svals = [[1.0], [0.2], [1.0]]  # dips back out mid-run
        ones = np.ones((3, 1))
        st = self._st([0, 5, 10], svals, ones, ones)
        assert detect_incremental(st, sigma) == [10]

    @pytest.mark.parametrize("value_off, align_off, fitted", [
        (2e-3, 0.0, False),
        (-2e-3, 0.0, False),
        (0.0, 2e-3, False),
        (5e-4, 0.0, True),
        (-5e-4, 0.0, True),
        (0.0, 5e-4, True),
    ])
    def test_tolerance_boundaries(self, value_off, align_off, fitted):
        # a value within 1e-3 relative of its target and alignments within
        # 1e-3 of one are fitted; twice that is not
        sigma = np.array([2.0])
        svals = [[2.0 * (1 + value_off)]] * 2
        align = np.full((2, 1), 1.0 - align_off)
        for la, ra in ((align, np.ones((2, 1))), (np.ones((2, 1)), align)):
            st = self._st([0, 5], svals, la, ra)
            assert detect_incremental(st, sigma) == ([0] if fitted else [None])

    def test_fits_as_many_components_as_aligned(self):
        # three values tracked, two aligned: two fit times; one target is too few
        svals = [[2.0, 1.0, 0.5]] * 2
        st = self._st([0, 5], svals, np.ones((2, 2)), np.ones((2, 2)))
        assert detect_incremental(st, np.array([2.0, 1.0, 0.5])) == [0, 0]
        with pytest.raises(ContractViolationError, match="fewer than r"):
            detect_incremental(st, np.array([2.0]))


class TestHoldout:
    """The held-out metrics over a residual, prediction minus value; the
    recorder forms it from the hold-out mask (``TestRecordedHoldout``)."""

    def test_exact_predictions(self):
        assert holdout_rmse(np.zeros(2)) == 0.0

    def test_constant_off_by_one(self):
        assert holdout_rmse(np.ones(3)) == pytest.approx(1.0)

    def test_hand_rmse(self):
        assert holdout_rmse(np.array([3.0, 4.0])) == pytest.approx(np.sqrt(12.5))

    def test_empty_rejected(self):
        # a hold-out is a CompletionMask, which refuses an empty index set
        with pytest.raises(ContractViolationError, match="empty observation set"):
            CompletionMask(np.array([], dtype=np.int64), np.array([], dtype=np.int64), 2, 2)

    def test_out_of_range_rejected(self):
        with pytest.raises(ContractViolationError, match="out of range"):
            CompletionMask([2], [0], 2, 2)

    def test_relative_error(self):
        assert holdout_relative_error(np.array([1.0]), np.array([1.0])) == pytest.approx(1.0)

    def test_all_zero_values_rejected(self):
        with pytest.raises(ContractViolationError, match="all zero"):
            holdout_relative_error(np.array([1.0, 2.0]), np.zeros(2))


@pytest.fixture(scope="module")
def workloads():
    """perfbench's workload module, for its ratings-file writer."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        return importlib.import_module("workloads")


class TestRecordedHoldout:
    """The recorder's held-out metrics against plain numpy over the held-out
    (user, item, rating) rows in split order, read from the file itself."""

    @pytest.mark.parametrize("seed", [41, 42, 43, 44, 45])
    def test_matches_the_held_out_rows(self, tmp_path, workloads, seed):
        path = tmp_path / "u.data"
        workloads.write_ratings(path, seed)
        shape = workloads.RATINGS_SHAPE
        ds = load_movielens(path)
        assert (ds.n_users, ds.n_items) == shape
        mask, y, holdout = split_ratings(ds, 0.8, seed)
        table = np.loadtxt(path, dtype=np.int64, delimiter="\t")
        n_train = int(np.floor(0.8 * len(table)))
        held = table[make_rng(seed, 4).permutation(len(table))[n_train:]]
        rows, cols, ratings = held[:, 0] - 1, held[:, 1] - 1, held[:, 2].astype(np.float64)
        rng = np.random.default_rng(seed)
        products = {  # name: (first layer, last layer)
            "rank 10": (rng.standard_normal((10, shape[1])), rng.standard_normal((shape[0], 10))),
            "constant 3.5": (np.ones((1, shape[1])), np.full((shape[0], 1), 3.5)),
        }
        for name, (first, last) in products.items():
            record = Recorder([first, last], mask, y, top_k=1, holdout=holdout)
            record(0, 0.0)
            got = record.log.final().extras
            res = (last @ first)[rows, cols] - ratings
            want = {"holdout_rmse": np.sqrt(np.mean(res**2)),
                    "holdout_rel_error": np.linalg.norm(res) / np.linalg.norm(ratings)}
            assert set(got) == set(want)
            for metric, value in want.items():
                assert abs(got[metric] - value) <= 1e-15 * value, (name, metric, got[metric])


class TestLeakage:
    def test_diagonal_in_frame_is_clean(self, rng):
        q = sample_semi_orthogonal(6, 6, rng)
        u, v = q[:, :3], sample_semi_orthogonal(6, 6, make_rng(8))[:, :3]
        w = u @ np.diag([3.0, 2.0, 1.0]) @ v.T
        assert offdiagonal_leakage(w, u, v) <= 1e-12

    def test_detects_off_frame_mass(self, rng):
        q = sample_semi_orthogonal(6, 6, rng)
        u, v = q[:, :2], q[:, :2]
        w = u @ np.diag([3.0, 2.0]) @ v.T + 0.1 * np.outer(q[:, 3], q[:, 4])
        assert offdiagonal_leakage(w, u, v) >= 0.05


def test_recovery_non_increasing_after_last_fit():
    log, M, U, s, V = frozen_frame_run(d=20, r=2, r_hat=4, iters=2500)
    st = alignment(log, U, V, 2)
    fits = detect_incremental(st, s)
    assert all(f is not None for f in fits)
    rec = log.recovery()
    tail = rec[log.ts() >= fits[-1]]
    assert np.all(np.diff(tail) <= 1e-12)


def test_diagnostics_csv_tidy_schema(tmp_path):
    log, M, U, s, V = frozen_frame_run(iters=200, log_every=100)
    st = alignment(log, U, V, 2)
    rows = spectral_rows(st)
    path = tmp_path / "diag.csv"
    write_diagnostics_csv(path, "factorize", 0, rows)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "experiment,seed,t,metric,component,value"
    assert any(",sval,1," in ln for ln in lines[1:])
    assert any(",left_align,2," in ln for ln in lines[1:])
