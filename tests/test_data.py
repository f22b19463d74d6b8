import os
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dln.data import (
    ARRAY_BUDGET_BYTES,
    RatingsDataset,
    SyntheticSpec,
    TRAIN_FRAC,
    _DRAW_CHUNK_BYTES,
    _scan_movielens,
    can_split,
    gaussian_ops_bytes,
    gen_gaussian_ops,
    gen_lowrank,
    gen_mcar_mask,
    gen_ratings_standin,
    load_movielens,
    split_ratings,
)
from dln.errors import ContractViolationError, ParseError, ResourceBudgetError
from dln.linalg import make_rng
from dln.operators import CompletionMask


class TestGenLowrank:
    def test_rank(self):
        M, U, s, V = gen_lowrank(SyntheticSpec(d=20, r=4, seed=0))
        sv = np.linalg.svd(M, compute_uv=False)
        assert sv[4] <= 1e-12

    def test_same_seed_identical(self):
        a = gen_lowrank(SyntheticSpec(d=10, r=3, seed=5))[0]
        b = gen_lowrank(SyntheticSpec(d=10, r=3, seed=5))[0]
        assert np.array_equal(a, b)

    def test_full_rank_unit_spectrum_is_orthogonal(self):
        M, U, s, V = gen_lowrank(SyntheticSpec(d=6, r=6, seed=1, sigma_values=(1.0,) * 6))
        assert np.allclose(M.T @ M, np.eye(6), atol=1e-12)

    def test_gram_identity(self):
        M, U, s, V = gen_lowrank(SyntheticSpec(d=15, r=5, seed=2))
        lhs = M.T @ M
        rhs = V @ np.diag(s**2) @ V.T
        assert np.linalg.norm(lhs - rhs) <= 1e-8

    def test_spectrum_descending_and_in_range(self):
        M, U, s, V = gen_lowrank(SyntheticSpec(d=12, r=6, seed=3, sigma_range=(0.5, 2.0)))
        assert np.all(np.diff(s) <= 0)
        assert np.all((s >= 0.5) & (s <= 2.0))

    def test_explicit_spectrum(self):
        M, U, s, V = gen_lowrank(SyntheticSpec(d=8, r=2, seed=4, sigma_values=(0.3, 0.7)))
        assert s.tolist() == [0.7, 0.3]

    def test_invalid_specs(self):
        with pytest.raises(ContractViolationError):
            SyntheticSpec(d=4, r=5, seed=0)
        with pytest.raises(ContractViolationError):
            SyntheticSpec(d=4, r=2, seed=0, sigma_values=(1.0,))
        with pytest.raises(ContractViolationError):
            SyntheticSpec(d=4, r=2, seed=0, sigma_range=(-1.0, 2.0))


class TestMcarMask:
    def test_full_probability(self):
        mask = gen_mcar_mask(5, 1.0, 0)
        assert mask.m == 25

    def test_same_seed_identical(self):
        a = gen_mcar_mask(10, 0.4, 3)
        b = gen_mcar_mask(10, 0.4, 3)
        assert np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)

    def test_binomial_concentration(self):
        fractions = [gen_mcar_mask(100, 0.3, seed).m / 100**2 for seed in range(30)]
        assert 0.27 <= float(np.mean(fractions)) <= 0.33

    def test_invalid_probability(self):
        with pytest.raises(ContractViolationError):
            gen_mcar_mask(5, 0.0, 0)
        with pytest.raises(ContractViolationError):
            gen_mcar_mask(5, 1.5, 0)


class TestGaussianOps:
    def test_entry_mean_within_three_sigma(self):
        op = gen_gaussian_ops(20, 50, 0)
        n = op.matrices.size
        assert abs(float(op.matrices.mean())) <= 3.0 / np.sqrt(n)

    def test_same_seed_identical(self):
        a = gen_gaussian_ops(5, 3, 1)
        b = gen_gaussian_ops(5, 3, 1)
        assert np.array_equal(a.matrices, b.matrices)

    def test_single_scalar(self):
        op = gen_gaussian_ops(1, 1, 2)
        assert op.matrices.shape == (1, 1, 1)

    def test_budget_enforced(self):
        # 1100 float32 1000 x 1000 matrices take 4.4e9 bytes > 4 GiB
        with pytest.raises(ResourceBudgetError):
            gen_gaussian_ops(1000, 1100, 0)

    @pytest.mark.parametrize("d, m", [(1, 1), (5, 3), (8, 2048), (7, 3001), (60, 37)])
    def test_chunked_draw_is_the_one_shot_draw_rounded(self, d, m):
        # 8 x 8 x 2048 entries fill one draw chunk exactly; 7 x 7 x 3001 and
        # 60 x 60 x 37 end in a partial one
        op = gen_gaussian_ops(d, m, 4)
        ref = make_rng(4, 1).standard_normal((m, d, d)).astype(np.float32)
        assert op.matrices.dtype == np.float32 and op.matrices.shape == (m, d, d)
        assert op.matrices.tobytes() == ref.tobytes()

    def test_float64_draw_never_held_whole(self):
        # the operator plus one float64 draw chunk, and a little for the
        # generator's own objects; a one-shot float64 draw adds 52 MB here
        tracemalloc.start()
        try:
            op = gen_gaussian_ops(60, 1800, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert op.matrices.nbytes == gaussian_ops_bytes(60, 1800) == 25_920_000
        assert peak < op.matrices.nbytes + _DRAW_CHUNK_BYTES + 64 * 1024


CANONICAL_LINES = [
    "1\t1\t5\t874965758",
    "1\t2\t3\t876893171",
    "2\t1\t4\t888550871",
    "3\t3\t1\t889237482",
    "2\t2\t2\t888551341",
]


class TestLoadMovielens:
    def test_parse_small_file(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("\n".join(CANONICAL_LINES) + "\n")
        ds = load_movielens(path)
        assert len(ds) == 5 and (ds.n_users, ds.n_items) == (3, 3)
        assert ds.users[0] == 0 and ds.items[0] == 0 and ds.ratings[0] == 5.0
        assert ds.timestamps[0] == 874965758

    def test_truncated_line_names_line_number(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text(CANONICAL_LINES[0] + "\n1\t2\t3\n")
        with pytest.raises(ParseError) as exc:
            load_movielens(path)
        assert "line 2" in str(exc.value)

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text(CANONICAL_LINES[0] + "\n" + CANONICAL_LINES[0] + "\n")
        with pytest.raises(ParseError):
            load_movielens(path)

    def test_rating_out_of_range(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t6\t874965758\n")
        with pytest.raises(ParseError):
            load_movielens(path)

    def test_id_out_of_range(self, tmp_path):
        # ids start at 1; the largest of each column sets the shape
        path = tmp_path / "u.data"
        for text, line in (("1\t1\t5\t7\n0\t1\t5\t8\n", 2), ("1\t0\t5\t7\n", 1)):
            path.write_text(text)
            with pytest.raises(ParseError, match="below 1") as exc:
                load_movielens(path)
            assert exc.value.line == line
        path.write_text("4\t1\t5\t874965758\n")
        ds = load_movielens(path)
        assert (ds.n_users, ds.n_items) == (4, 1) and ds.users.tolist() == [3]

    @pytest.mark.parametrize("text", ["{u}\t{i}\t5\t7\n", "1\t1\t5\t7\n{u}\t{i}\t3\t8\n"])
    def test_ids_past_the_array_budget_refused(self, tmp_path, text):
        # 2**14 x 2**15 float64 entries are the budget exactly; one more item is past it
        path = tmp_path / "u.data"
        u, i = 2**14, 2**15
        assert 8 * u * i == ARRAY_BUDGET_BYTES
        path.write_text(text.format(u=u, i=i))
        ds = load_movielens(path)
        assert (ds.n_users, ds.n_items) == (u, i)
        for u, i in ((u, i + 1), (u + 1, i), (2**62, 1), (10**30, 1)):
            path.write_text(text.format(u=u, i=i))
            with pytest.raises(ParseError, match="budget") as exc:
                load_movielens(path)
            assert exc.value.line is None
            with pytest.raises(ParseError, match="budget"):
                _scan_movielens(path.read_text())

    def test_canonical_file_when_available(self):
        path = os.environ.get("DLN_ML100K", "data/ml-100k/u.data")
        if not os.path.exists(path):
            pytest.skip("canonical MovieLens 100K file not available in this environment")
        ds = load_movielens(path)
        assert len(ds) == 100000
        assert ds.n_users == 943 and ds.n_items == 1682


def test_load_traces_at_most_two_and_a_half_files(tmp_path):
    # the C reader streams the file, so its text is never held whole; the
    # parsed int64 table alone is about 1.6 files at this line length
    path = tmp_path / "u.data"
    gen_ratings_standin(path, n_users=943, n_items=1682, n_ratings=100_000)
    tracemalloc.start()
    try:
        ds = load_movielens(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * path.stat().st_size
    ref = _scan_movielens(path.read_text())
    for name in ("users", "items", "ratings", "timestamps"):
        a, b = getattr(ds, name), getattr(ref, name)
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert (ds.n_users, ds.n_items) == (ref.n_users, ref.n_items) == (943, 1682)


RATINGS_ALPHABET = "0123456789\t\n +-.#\r"


@st.composite
def ratings_texts(draw):
    """Texts near the `u.data` layout: mostly well-formed lines with ids up
    to 3 and 4, with damaged fields (ids of any size among them), field
    counts and line ends mixed in, or raw text over the same alphabet."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.text(RATINGS_ALPHABET, max_size=40))
    good = st.tuples(st.integers(1, 3), st.integers(1, 4), st.integers(1, 5),
                     st.integers(-10**12, 10**12)).map(lambda v: "\t".join(map(str, v)))
    field = st.one_of(st.integers(-1, 6).map(str), st.integers(0, 2**64).map(str),
                      st.text(RATINGS_ALPHABET, max_size=4),
                      st.tuples(st.sampled_from(["", " ", "+", "-", "0"]), st.integers(0, 6),
                                st.sampled_from(["", " ", "."])).map(lambda t: "%s%d%s" % t))
    damaged = st.lists(field, min_size=3, max_size=5).map("\t".join)
    lines = draw(st.lists(st.integers(0, 9).flatmap(
        lambda k: good if k < 7 else damaged if k < 9 else st.sampled_from(["", " ", "\t", "#"])),
        max_size=8))
    ends = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=len(lines),
                         max_size=len(lines)))
    return "".join(line + end for line, end in zip(lines, ends))


def _read_both(text: str):
    with tempfile.TemporaryDirectory() as td:
        path = Path(td) / "u.data"
        path.write_bytes(text.encode())
        outcomes = []
        for read in (lambda: _scan_movielens(path.read_text()),
                     lambda: load_movielens(path)):
            try:
                outcomes.append(read())
            except Exception as exc:  # compared by type, message and line below
                outcomes.append(exc)
    return outcomes


class TestLoaderMatchesScanner:
    @settings(max_examples=300, deadline=None)
    @given(ratings_texts())
    @example("1\t1\t5\t874965758\r\n2\t3\t1\t88\r3\t4\t2\t-7\n\n")
    @example("1\t1\t5\t7\n1\t1\t4\t8\n")
    @example("1\t1\t5\t99999999999999999999\n")
    @example(" +1 \t1\t5\t7\n \n")
    @example("1\t1\t5.0\t7\n")
    @example("1\t1\t5\t7\n2\t5\t3\t8\n")
    @example("1\t1\t5\t7\n9223372036854775807\t1\t3\t8\n")
    @example("1\t1\t5\t7\n18446744073709551616\t1\t3\t8\n1\t1\t4\t9\n")
    @example("16384\t32769\t5\t7\n")
    @example("1\t0\t5\t7\n")
    @example("0\t1\t5\t7\n")
    @example("1\t1\t0\t7\n")
    @example("\n\r\n")
    def test_same_dataset_or_same_error(self, text):
        scanned, loaded = _read_both(text)
        if isinstance(scanned, Exception):
            assert type(loaded) is type(scanned)
            assert str(loaded) == str(scanned)
            assert getattr(loaded, "line", None) == getattr(scanned, "line", None)
            return
        assert isinstance(loaded, RatingsDataset)
        for name in ("users", "items", "ratings", "timestamps"):
            a, b = getattr(loaded, name), getattr(scanned, name)
            assert a.dtype == b.dtype and np.array_equal(a, b)
        # the shape both derive is the largest id of each column
        shape = (int(loaded.users.max()) + 1, int(loaded.items.max()) + 1)
        assert (loaded.n_users, loaded.n_items) == (scanned.n_users, scanned.n_items) == shape

    def test_field_python_reads_but_c_does_not_is_refused(self, tmp_path):
        path = tmp_path / "u.data"
        path.write_text("1\t1\t5\t1_000\n")
        with pytest.raises(ParseError, match="plain decimal integers"):
            load_movielens(path)


def _split_via_dense_table(ds, seed):
    # reference: the measurement order read back through a dense table
    n_train = int(np.floor(TRAIN_FRAC * len(ds)))
    perm = make_rng(seed, 4).permutation(len(ds))
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    mask = CompletionMask(ds.users[train_idx], ds.items[train_idx], ds.n_users, ds.n_items)
    held = CompletionMask(ds.users[test_idx], ds.items[test_idx], ds.n_users, ds.n_items)
    full = np.full((ds.n_users, ds.n_items), np.nan)
    full[ds.users, ds.items] = ds.ratings
    return mask, full[mask.rows, mask.cols], (held, full[held.rows, held.cols])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 30), st.integers(2, 40), st.data())
def test_split_matches_dense_table_reference(n_users, n_items, data):
    n = data.draw(st.integers(2, n_users * n_items))
    seed = data.draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    cells = rng.choice(n_users * n_items, size=n, replace=False)
    users, items = np.divmod(cells, n_items)
    ds = RatingsDataset(users, items, rng.integers(1, 6, n).astype(np.float64),
                        np.arange(n, dtype=np.int64), n_users, n_items)
    mask, y, holdout = split_ratings(ds, seed)
    ref_mask, ref_y, ref_holdout = _split_via_dense_table(ds, seed)
    for (got, values), (ref, ref_values) in (((mask, y), (ref_mask, ref_y)),
                                             (holdout, ref_holdout)):
        assert np.array_equal(got.rows, ref.rows) and np.array_equal(got.cols, ref.cols)
        assert got.shape == ref.shape == (n_users, n_items)
        assert np.array_equal(values, ref_values)


class TestSplitRatings:
    def _dataset(self, n=50, seed=0):
        import tempfile

        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "standin.data")
            gen_ratings_standin(path, n_users=10, n_items=12, n_ratings=n, rank=2, seed=seed)
            return load_movielens(path)

    def test_counts_exact(self):
        ds = self._dataset(n=50)
        mask, y, (held, held_y) = split_ratings(ds, seed=0)
        assert mask.m == y.size == 40 and held.m == held_y.size == 10

    def test_disjoint_union(self):
        ds = self._dataset(n=60)
        mask, y, (held, _) = split_ratings(ds, seed=1)
        train_set = set(zip(mask.rows.tolist(), mask.cols.tolist()))
        test_set = set(zip(held.rows.tolist(), held.cols.tolist()))
        assert not (train_set & test_set)
        all_set = set(zip(ds.users.tolist(), ds.items.tolist()))
        assert train_set | test_set == all_set

    def test_measurements_follow_mask_order(self):
        ds = self._dataset(n=40)
        mask, y, holdout = split_ratings(ds, seed=2)
        lookup = {(u, i): r for u, i, r in zip(ds.users.tolist(), ds.items.tolist(), ds.ratings.tolist())}
        for m, values in ((mask, y), holdout):
            for k in range(m.m):
                assert values[k] == lookup[(int(m.rows[k]), int(m.cols[k]))]

    def test_single_test_entry(self):
        # the smallest files the split cuts hold out one rating
        for n in (2, 3):
            mask, y, (held, held_y) = split_ratings(self._dataset(n=n), seed=3)
            assert held.m == held_y.size == 1 and mask.m == y.size == n - 1

    def test_same_seed_identical(self):
        ds = self._dataset(n=40)
        m1, y1, (h1, hy1) = split_ratings(ds, seed=5)
        m2, y2, (h2, hy2) = split_ratings(ds, seed=5)
        assert np.array_equal(m1.flat, m2.flat) and np.array_equal(y1, y2)
        assert np.array_equal(h1.flat, h2.flat) and np.array_equal(hy1, hy2)

    def test_single_rating_refused(self):
        assert [can_split(n) for n in range(4)] == [False, False, True, True]
        with pytest.raises(ContractViolationError, match="1 ratings"):
            split_ratings(self._dataset(n=1), seed=0)


def test_standin_generator_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.data", tmp_path / "b.data"
    gen_ratings_standin(p1, seed=4)
    gen_ratings_standin(p2, seed=4)
    assert p1.read_bytes() == p2.read_bytes()
    ds = load_movielens(p1)
    assert len(ds) == 12000
    assert (ds.n_users, ds.n_items) == (200, 350)  # the default grid, spanned
