import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dln.baselines import (
    DAMPING,
    _grouped,
    altmin_complete,
    altmin_init,
    half_sweep_left,
    half_sweep_right,
)
from dln.data import SyntheticSpec, gen_lowrank, gen_mcar_mask
from dln.errors import ContractViolationError
from dln.linalg import make_rng
from dln.models import DLN
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
    model, log = altmin_complete(mask, y, r_hat, 3, probe=M)
    assert log.final().train_loss <= 1e-10


def test_unobserved_row_keeps_factor():
    # a row with no observations never moves off its initialization
    mask = CompletionMask.from_pairs([(0, 0), (0, 1), (2, 1), (2, 2)], 3)
    y = np.array([1.0, 2.0, 3.0, 4.0])
    model = altmin_init(mask.surrogate(y), 2)
    L = model.layers[1]
    frozen = L[1].copy()
    row_pos, row_vals = _grouped(mask.rows, mask.cols, y, 3)
    half_sweep_left(model, row_pos, row_vals)
    assert np.array_equal(L[1], frozen)
    assert not np.array_equal(L[0], frozen)


def _per_row(indices, other, values, n):
    # reference: each index's observed positions and values, in entry order
    order = np.argsort(indices, kind="stable")
    idx, oth, val = indices[order], other[order], values[order]
    bounds = np.searchsorted(idx, np.arange(n + 1))
    pos = [oth[bounds[i]:bounds[i + 1]] for i in range(n)]
    vals = [val[bounds[i]:bounds[i + 1]] for i in range(n)]
    return pos, vals


def _per_row_sweeps(model, row_pos, row_vals, col_pos, col_vals):
    # reference: one damped solve per row, then per column
    R, L = model.layers
    damp = DAMPING * np.eye(L.shape[1])
    for i, (cols, b) in enumerate(zip(row_pos, row_vals)):
        if cols.size:
            G = R[:, cols]
            L[i] = np.linalg.solve(G @ G.T + damp, G @ b)
    for j, (rows, b) in enumerate(zip(col_pos, col_vals)):
        if rows.size:
            H = L[rows, :]
            R[:, j] = np.linalg.solve(H.T @ H + damp, H.T @ b)


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
    row_lists = _per_row(mask.rows, mask.cols, y, d_out)
    col_lists = _per_row(mask.cols, mask.rows, y, d_in)
    init = altmin_init(mask.surrogate(y), r_hat)
    batched = DLN([w.copy() for w in init.layers])
    reference = DLN([w.copy() for w in init.layers])
    for _ in range(3):
        half_sweep_left(batched, row_pos, row_vals)
        half_sweep_right(batched, col_pos, col_vals)
        _per_row_sweeps(reference, *row_lists, *col_lists)
        assert all(map(np.array_equal, batched.layers, reference.layers))
    (R, L), (R0, L0) = batched.layers, init.layers
    assert np.array_equal(L[[2, 9]], L0[[2, 9]])
    assert np.array_equal(R[:, [0, 17]], R0[:, [0, 17]])
    assert not np.array_equal(L, L0)


@st.composite
def sweep_masks(draw):
    """Masks with empty rows and columns, single-entry rows, a full row, and
    (in the staircase shape) rows whose counts are all distinct."""
    d_out = draw(st.integers(2, 12))
    d_in = draw(st.integers(d_out, 24))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        # row i observes its first i columns, so counts 0, 1, ..., d_out - 1
        keep = np.arange(d_in)[None, :] < np.arange(d_out)[:, None]
    else:
        keep = rng.random((d_out, d_in)) < draw(st.floats(0.05, 0.9))
        empty_rows = draw(st.lists(st.integers(0, d_out - 1), max_size=2))
        keep[empty_rows, :] = False
        keep[:, draw(st.lists(st.integers(0, d_in - 1), max_size=2))] = False
        for i in draw(st.lists(st.integers(0, d_out - 1), max_size=2)):
            keep[i, :] = False
            keep[i, rng.integers(d_in)] = True
    keep[draw(st.integers(0, d_out - 1)), :] = True
    rows, cols = np.nonzero(keep)
    return CompletionMask(rows, cols, d_out, d_in), rng.standard_normal(rows.size), seed


@settings(max_examples=60, deadline=None)
@given(sweep_masks(), st.integers(1, 5))
def test_grouped_sweeps_match_per_row_solves_on_random_masks(drawn, r_hat):
    mask, y, seed = drawn
    d_out, d_in = mask.shape
    row_groups = _grouped(mask.rows, mask.cols, y, d_out)
    col_groups = _grouped(mask.cols, mask.rows, y, d_in)
    row_lists = _per_row(mask.rows, mask.cols, y, d_out)
    col_lists = _per_row(mask.cols, mask.rows, y, d_in)
    init = altmin_init(mask.surrogate(y), min(r_hat, d_out))
    batched = DLN([w.copy() for w in init.layers])
    reference = DLN([w.copy() for w in init.layers])
    for _ in range(3):
        try:
            _per_row_sweeps(reference, *row_lists, *col_lists)
        except np.linalg.LinAlgError:
            # factors that outgrow the damping leave a singular system; the
            # grouped sweeps must meet the same one
            with pytest.raises(np.linalg.LinAlgError):
                half_sweep_left(batched, *row_groups)
                half_sweep_right(batched, *col_groups)
            return
        half_sweep_left(batched, *row_groups)
        half_sweep_right(batched, *col_groups)
        assert all(map(np.array_equal, batched.layers, reference.layers))


def test_spectral_init_time_is_logged():
    M, mask, y = completion_problem(20, 3, 0.5, 2)
    _, log = altmin_complete(mask, y, 3, 1)
    assert log.svd_init_s > 0.0


def test_half_sweeps_never_increase_loss():
    M, mask, y = completion_problem(20, 4, 0.5, 3)
    model = altmin_init(mask.surrogate(y), 6)
    row_pos, row_vals = _grouped(mask.rows, mask.cols, y, mask.shape[0])
    col_pos, col_vals = _grouped(mask.cols, mask.rows, y, mask.shape[1])

    def train_loss():
        return 0.5 * float(np.sum((mask.apply(model.layers[1] @ model.layers[0]) - y) ** 2))

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
    model, log = altmin_complete(mask, y, r, 30, probe=M)
    assert log.final().recovery_error <= 1e-6


def test_deterministic_given_seed():
    M, mask, y = completion_problem(15, 3, 0.6, 7)
    m1, l1 = altmin_complete(mask, y, 5, 4)
    m2, l2 = altmin_complete(mask, y, 5, 4)
    assert all(map(np.array_equal, m1.layers, m2.layers))
    assert l1.losses().tolist() == l2.losses().tolist()


def test_log_schema_matches_trainer(tmp_path):
    # the two-layer chain has width r_hat: that many singular values are logged
    M, mask, y = completion_problem(15, 3, 0.6, 11)
    _, log = altmin_complete(mask, y, 5, 4, probe=M)
    assert log.ts().tolist() == [0, 1, 2, 3, 4]
    assert all(r.svals.size == 5 for r in log.records)
    assert all(r.recovery_error is not None for r in log.records)
    log.write_csv(tmp_path / "trajectory.csv")
    header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert header == "t,train_loss,recovery_error,sv_1,sv_2,sv_3,sv_4,sv_5"


def test_validation_errors():
    mask = CompletionMask.from_pairs([(0, 0)], 2)
    with pytest.raises(ContractViolationError):
        altmin_complete(mask, [1.0], 3, 2)  # r_hat > d
    with pytest.raises(ContractViolationError):
        altmin_complete(mask, [1.0, 2.0], 1, 2)  # wrong y length
    with pytest.raises(ContractViolationError):
        altmin_complete(mask, [1.0], 1, 0)  # no sweeps
