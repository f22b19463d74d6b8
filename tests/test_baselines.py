import numpy as np
import pytest

from dln.baselines import (
    DAMPING,
    AltMinModel,
    _grouped,
    altmin_complete,
    altmin_init,
    half_sweep_left,
    half_sweep_right,
)
from dln.data import SyntheticSpec, gen_lowrank, gen_mcar_mask
from dln.errors import ContractViolationError
from dln.linalg import make_rng
from dln.operators import CompletionMask


def completion_problem(d, r, p, seed, sigma=None):
    spec = SyntheticSpec(d=d, r=r, seed=seed, sigma_values=sigma or tuple(np.linspace(2.0, 1.0, r)))
    M, U, s, V = gen_lowrank(spec)
    mask = gen_mcar_mask(d, p, seed)
    return M, mask, mask.apply(M)


def test_fully_observed_exact_fit_in_three_sweeps():
    d, r_hat = 12, 3
    M, U, s, V = gen_lowrank(SyntheticSpec(d=d, r=r_hat, seed=0, sigma_values=(3.0, 2.0, 1.0)))
    mask = gen_mcar_mask(d, 1.0, 0)
    y = mask.apply(M)
    model, log = altmin_complete(mask, y, r_hat, 3, seed=0, surrogate=mask.surrogate(y), probe=M)
    assert log.final().train_loss <= 1e-10


def test_unobserved_row_keeps_factor():
    # a row with no observations never moves off its initialization
    mask = CompletionMask.from_pairs([(0, 0), (0, 1), (2, 1), (2, 2)], 3)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = altmin_init(mask, y, 2, seed=1)
    frozen = model.Lf[1].copy()
    row_pos, row_vals = _grouped(mask.rows, mask.cols, y, 3)
    half_sweep_left(model, row_pos, row_vals)
    assert np.array_equal(model.Lf[1], frozen)
    assert not np.array_equal(model.Lf[0], frozen)


def _per_row_sweeps(model, row_pos, row_vals, col_pos, col_vals):
    # reference: one damped solve per row, then per column
    damp = DAMPING * np.eye(model.Lf.shape[1])
    for i, (cols, b) in enumerate(zip(row_pos, row_vals)):
        if cols.size:
            G = model.Rf[:, cols]
            model.Lf[i] = np.linalg.solve(G @ G.T + damp, G @ b)
    for j, (rows, b) in enumerate(zip(col_pos, col_vals)):
        if rows.size:
            H = model.Lf[rows, :]
            model.Rf[:, j] = np.linalg.solve(H.T @ H + damp, H.T @ b)


def test_batched_half_sweeps_match_per_row_solves_bitwise():
    # rows 2 and 9 and columns 0 and 17 have no entries and keep their values
    d_out, d_in, r_hat = 14, 23, 4
    rng = make_rng(21)
    keep = rng.random((d_out, d_in)) < 0.4
    keep[[2, 9], :] = False
    keep[:, [0, 17]] = False
    rows, cols = np.nonzero(keep)
    mask = CompletionMask(rows, cols, d_out, d_in)
    y = rng.standard_normal(mask.m)
    row_pos, row_vals = _grouped(mask.rows, mask.cols, y, d_out)
    col_pos, col_vals = _grouped(mask.cols, mask.rows, y, d_in)
    init = altmin_init(mask, y, r_hat, seed=4)
    batched = AltMinModel(init.Lf.copy(), init.Rf.copy())
    reference = AltMinModel(init.Lf.copy(), init.Rf.copy())
    for _ in range(3):
        half_sweep_left(batched, row_pos, row_vals)
        half_sweep_right(batched, col_pos, col_vals)
        _per_row_sweeps(reference, row_pos, row_vals, col_pos, col_vals)
        assert np.array_equal(batched.Lf, reference.Lf)
        assert np.array_equal(batched.Rf, reference.Rf)
    assert np.array_equal(batched.Lf[[2, 9]], init.Lf[[2, 9]])
    assert np.array_equal(batched.Rf[:, [0, 17]], init.Rf[:, [0, 17]])
    assert not np.array_equal(batched.Lf, init.Lf)


def test_spectral_init_time_is_logged():
    M, mask, y = completion_problem(20, 3, 0.5, 2)
    _, log = altmin_complete(mask, y, 3, 1, seed=2, surrogate=mask.surrogate(y))
    assert log.svd_init_s > 0.0


def test_half_sweeps_never_increase_loss():
    M, mask, y = completion_problem(20, 4, 0.5, 3)
    model = altmin_init(mask, y, 6, seed=3, surrogate=mask.surrogate(y))
    row_pos, row_vals = _grouped(mask.rows, mask.cols, y, mask.shape[0])
    col_pos, col_vals = _grouped(mask.cols, mask.rows, y, mask.shape[1])

    def train_loss():
        return 0.5 * float(np.sum((mask.apply(model.estimate()) - y) ** 2))

    prev = train_loss()
    for _ in range(6):
        half_sweep_left(model, row_pos, row_vals)
        cur = train_loss()
        assert cur <= prev + 1e-12
        prev = cur
        half_sweep_right(model, col_pos, col_vals)
        cur = train_loss()
        assert cur <= prev + 1e-12
        prev = cur


def test_well_specified_rank_and_dense_sampling_recovers():
    # rank known exactly and 90% observed: the baseline does recover
    d, r = 40, 4
    M, mask, y = completion_problem(d, r, 0.9, 5)
    model, log = altmin_complete(mask, y, r, 30, seed=5, surrogate=mask.surrogate(y), probe=M)
    assert log.final().recovery_error <= 1e-6


def test_deterministic_given_seed():
    M, mask, y = completion_problem(15, 3, 0.6, 7)
    m1, l1 = altmin_complete(mask, y, 5, 4, seed=9)
    m2, l2 = altmin_complete(mask, y, 5, 4, seed=9)
    assert np.array_equal(m1.Lf, m2.Lf)
    assert l1.losses().tolist() == l2.losses().tolist()


def test_log_schema_matches_trainer():
    M, mask, y = completion_problem(15, 3, 0.6, 11)
    _, log = altmin_complete(mask, y, 5, 4, seed=11, probe=M, top_k=5)
    assert log.ts().tolist() == [0, 1, 2, 3, 4]
    assert all(r.svals.size == 5 for r in log.records)
    assert all(r.recovery_error is not None for r in log.records)


def test_validation_errors():
    mask = CompletionMask.from_pairs([(0, 0)], 2)
    with pytest.raises(ContractViolationError):
        altmin_complete(mask, [1.0], 3, 2, seed=0)  # r_hat > d
    with pytest.raises(ContractViolationError):
        altmin_complete(mask, [1.0, 2.0], 1, 2, seed=0)  # wrong y length
    with pytest.raises(ContractViolationError):
        altmin_complete(mask, [1.0], 1, 0, seed=0)  # no sweeps
