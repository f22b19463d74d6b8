import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dln import experiments
from dln.cli import main, read_config_file
from dln.data import gaussian_ops_bytes
from dln.errors import ConfigError
from dln.operators import CompletionMask
from dataclasses import replace

from dln.experiments import (
    ExperimentConfig,
    ablate,
    default_config,
    effective_eta,
    field_rule,
    load_manifest,
    resolve_models,
    run,
    validate_config,
    write_manifest,
)

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
# a valid tiny factorize command line
TINY_ARGV = ["factorize", "--d", "4", "--r", "1", "--rhat", "2", "--T", "2"]
TINY = dict(d=16, r=2, r_hat=4, T=60, log_every=20, seeds=(0,),
            sigma_values=(0.1, 0.05), eta=1.0, alpha=1.0)


def tiny_config(tmp_path, problem="factorize", **kw):
    base = dict(TINY)
    base.update(kw)
    return default_config(problem, out_dir=str(tmp_path / "out"), **base)


class TestConfig:
    def test_recipe_defaults(self):
        cfg = default_config("complete", out_dir="x")
        assert cfg.p == 0.3 and cfg.r_hat == 20 and cfg.alpha == 5.0

    def test_unknown_problem(self):
        with pytest.raises(ConfigError):
            default_config("fit")

    def test_validation_messages_carry_field(self, tmp_path):
        cfg = tiny_config(tmp_path, eta=-1.0)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.field == "eta"

    def test_oracle_replays_alpha_two(self, tmp_path):
        # the oracle replays the run's own outer-layer rate
        res = run(tiny_config(tmp_path, oracle=True, alpha=2.0, model="compressed"))
        assert res.statuses == {"compressed/seed_0": "ok"}
        report = json.loads((tmp_path / "out" / "compressed" / "seed_0" / "oracle.json").read_text())
        assert report["max_rel_dev"] <= 1e-10

    def test_oracle_needs_rhat_at_least_r(self, tmp_path):
        cfg = tiny_config(tmp_path, oracle=True, r=2, r_hat=1, sigma_values=(0.1, 0.05))
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.field == "r_hat"

    def test_altmin_needs_completion(self, tmp_path):
        cfg = tiny_config(tmp_path, model="altmin")
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_sensing_budget_checked(self, tmp_path):
        # 4 GiB is 4 * 100^2 * 107374 bytes, rounded down: float32 entries
        validate_config(tiny_config(tmp_path, problem="sense", d=100, m=107_374))
        with pytest.raises(ConfigError) as exc:
            validate_config(tiny_config(tmp_path, problem="sense", d=100, m=107_375))
        assert exc.value.field == "m"

    @pytest.mark.parametrize("r_hat", [0, 6])
    def test_ratings_rhat_checked_against_shape(self, tmp_path, r_hat):
        # the file spans 5 x 8, so r_hat lies in 1..5; a run past it writes nothing
        data = tmp_path / "u.data"
        data.write_text("".join(f"{u}\t{u + 3}\t3\t{u}\n" for u in range(1, 6)))
        cfg = default_config("movielens", out_dir=str(tmp_path / "out"), r_hat=r_hat,
                             movielens_path=str(data), T=1, log_every=1, altmin_iters=1)
        with pytest.raises(ConfigError) as exc:
            run(cfg)
        assert exc.value.field == "r_hat"
        assert not (tmp_path / "out").exists()
        assert run(replace(cfg, r_hat=5)).statuses.keys() == {
            f"{m}/seed_0" for m in ("wide", "compressed", "altmin")}

    @pytest.mark.parametrize("problem", ["factorize", "sense", "complete"])
    def test_synthetic_d_past_the_array_budget_refused(self, tmp_path, problem):
        # a 23170 x 23170 float64 target fits 4 GiB, one more row and column
        # does not; refused before complete's mask pre-draw would allocate it
        validate_config(tiny_config(tmp_path, problem="factorize", d=23_170))
        for d in (23_171, 10**6):
            with pytest.raises(ConfigError, match="budget") as exc:
                validate_config(tiny_config(tmp_path, problem=problem, d=d, m=1))
            assert exc.value.field == "d"

    @pytest.mark.parametrize("problem,field,value", [
        ("factorize", "log_every", 0),
        ("complete", "altmin_iters", 0),
        ("movielens", "train_frac", 0.0),
        ("movielens", "train_frac", 1.0),
    ])
    def test_fields_read_during_the_run_are_checked_up_front(self, problem, field, value):
        cfg = default_config(problem, out_dir="x", movielens_path="u.data", p=1.0,
                             **{field: value})
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.field == field
        if field == "altmin_iters":
            validate_config(replace(cfg, model="wide,compressed"))

    @pytest.mark.parametrize("recipe", sorted(experiments.RECIPES))
    def test_every_recipe_validates(self, recipe):
        # a domain drawn too tight would refuse a recipe's own defaults
        validate_config(default_config(recipe, out_dir="x", movielens_path="u.data"))

    def test_every_numeric_field_has_a_domain(self):
        # altmin_iters is read only when ALS runs, so validate_config checks it
        numeric = {f.name for f in dataclasses.fields(ExperimentConfig)
                   if field_rule(f)[0] in (int, float)}
        assert numeric - set(experiments.FIELD_DOMAINS) == {"altmin_iters"}

    @pytest.mark.parametrize("field,value", [
        ("seeds", (0, -1)), ("track_spectral", -3), ("eps", math.inf), ("eta", math.inf),
        ("alpha", math.nan), ("seeds", (2**64,)), ("L", 1),
        ("sigma_values", (0.1, math.inf)), ("sigma_range", (0.05, 0.02)),
        ("sigma_range", (0.0, 0.05)), ("m", 0), ("p", 0.0), ("train_frac", 1.0),
        ("init_mode", "foo"), ("problem", "fit"),
    ])
    def test_out_of_domain_value_refused(self, tmp_path, field, value):
        # a domain holds whatever the problem: m, p and train_frac on factorize too
        cfg = replace(tiny_config(tmp_path, sigma_values=None), **{field: value})
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.field == field

    def test_seeds_compared_as_integers(self, tmp_path):
        # exact at the 64-bit edge, and no float rounding of a 400-digit seed
        validate_config(tiny_config(tmp_path, seeds=(2**64 - 1,)))
        for seed in (2**64, 10**400, -10**400):
            with pytest.raises(ConfigError) as exc:
                validate_config(tiny_config(tmp_path, seeds=(seed,)))
            assert exc.value.field == "seeds"

    def test_sigma_range_unread_beside_an_explicit_spectrum(self, tmp_path):
        validate_config(tiny_config(tmp_path, sigma_range=(0.05, 0.02)))

    def test_effective_eta_normalization(self):
        sense = default_config("sense", out_dir="x", eta=10.0)
        assert effective_eta(sense, 2000) == pytest.approx(10.0 / 2000)
        fact = default_config("factorize", out_dir="x", eta=10.0)
        assert effective_eta(fact, 10000) == 10.0


class TestRun:
    def test_factorize_writes_artifacts(self, tmp_path):
        cfg = tiny_config(tmp_path)
        res = run(cfg)
        assert res.ok
        out = tmp_path / "out"
        for model in ("wide", "compressed"):
            base = out / model / "seed_0"
            assert (base / "trajectory.csv").exists()
            assert (base / "timing.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["problem"] == "factorize"
        assert (out / "status.json").exists()

    def test_manifest_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path, problem="complete", p=0.5, model="all", track_spectral=2)
        run(cfg)
        reloaded = load_manifest(tmp_path / "out" / "manifest.json")
        rerun_cfg = ExperimentConfig(**{**reloaded.__dict__, "out_dir": str(tmp_path / "out2")})
        run(rerun_cfg)
        # CSV logs are the deterministic artifacts; timing.csv carries wall-clock
        for model in ("wide", "compressed", "altmin"):
            for name in ("trajectory.csv", "diagnostics.csv"):
                a = tmp_path / "out" / model / "seed_0" / name
                b = tmp_path / "out2" / model / "seed_0" / name
                if a.exists():
                    assert a.read_bytes() == b.read_bytes(), (model, name)

    def test_oracle_report_passes(self, tmp_path):
        cfg = default_config("oracle", out_dir=str(tmp_path / "out"), d=20, r=2, r_hat=4,
                             T=200, sigma_values=(0.2, 0.1), seeds=(0,))
        res = run(cfg)
        assert res.statuses == {"compressed/seed_0": "ok"}
        assert json.loads((tmp_path / "out" / "status.json").read_text()) == res.statuses
        report = json.loads((tmp_path / "out" / "compressed" / "seed_0" / "oracle.json").read_text())
        assert report["pass"] is True and report["max_rel_dev"] <= 1e-6

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("problem", ["factorize", "sense", "complete"])
    def test_divergence_reported_not_raised(self, tmp_path, problem):
        # unstable steps overflow in the products, the backprop and, on
        # sense, the float32 operator; each net's run ends as diverged, and
        # no numpy warning is raised on the way
        for eta in (5e4, 1e100, 1e200):
            out = tmp_path / f"out_{eta}"
            res = run(replace(tiny_config(tmp_path, problem, eta=eta, model="all", eps=0.5,
                                          p=0.6, altmin_iters=2), out_dir=str(out)))
            assert not res.ok
            for net in ("wide", "compressed"):
                assert res.statuses[f"{net}/seed_0"].startswith("diverged@"), (eta, net)
            assert json.loads((out / "status.json").read_text()) == res.statuses

    def test_altmin_divergence_reported_not_raised(self, tmp_path, monkeypatch):
        from dln import baselines

        sweeps = []
        original = baselines.half_sweep_left

        def poisoned(model, row_pos, row_vals):
            original(model, row_pos, row_vals)
            sweeps.append(1)
            if len(sweeps) == 2:
                model.layers[1][0, 0] = np.nan

        monkeypatch.setattr(baselines, "half_sweep_left", poisoned)
        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model="altmin")
        res = run(cfg)
        assert not res.ok
        assert res.statuses["altmin/seed_0"] == "diverged@2"
        status = json.loads((tmp_path / "out" / "status.json").read_text())
        assert status["altmin/seed_0"] == "diverged@2"

    def test_loss_above_the_cap_is_a_divergence_for_every_model(self, tmp_path):
        # targets near 1e8 put every model's t=0 loss past LOSS_CAP; ALS
        # would fit them, and used to end as ok
        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model="all",
                          sigma_values=(1e8, 5e7), altmin_iters=3)
        res = run(cfg)
        expected = {f"{m}/seed_0": "diverged@0" for m in ("wide", "compressed", "altmin")}
        assert res.statuses == expected
        assert json.loads((tmp_path / "out" / "status.json").read_text()) == expected

    def _checkpoint(self, tmp_path, model, **kw):
        from dln.models import load_model

        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model=model, save_models=True,
                          **kw)
        run(cfg)
        base = tmp_path / "out" / model / "seed_0"
        assert (base / "mask.csv").exists()
        assert (base / "train_values.csv").exists()
        manifest = json.loads((base / "checkpoint" / "manifest.json").read_text())
        return load_model(base / "checkpoint"), manifest

    def test_checkpoint_and_measurement_archive(self, tmp_path):
        model, manifest = self._checkpoint(tmp_path, "compressed")
        assert manifest == {"kind": "compressed", "mode": "spectral", "r_hat": 4, "depth": 3,
                            "d_in": 16, "d_out": 16, "eps": 1e-3, "seed": 0}
        assert [w.shape for w in model.layers] == [(4, 16), (4, 4), (16, 4)]

    def test_wide_checkpoint_manifest(self, tmp_path):
        model, manifest = self._checkpoint(tmp_path, "wide", init_mode="uniform")
        assert manifest == {"kind": "wide", "mode": "uniform", "depth": 3,
                            "d_in": 16, "d_out": 16, "eps": 1e-3, "seed": 0}
        assert [w.shape for w in model.layers] == [(16, 16)] * 3

    def test_incremental_artifact(self, tmp_path):
        cfg = tiny_config(tmp_path, model="compressed", track_spectral=2, T=4000,
                          eta=10.0, log_every=25, sigma_values=(0.1, 0.04))
        res = run(cfg)
        payload = json.loads(
            (tmp_path / "out" / "compressed" / "seed_0" / "incremental.json").read_text()
        )
        fits = payload["fit_iterations"]
        assert len(fits) == 2 and all(f is not None for f in fits)
        assert fits[0] <= fits[1]

    def test_every_tracked_net_writes_incremental(self, tmp_path):
        # the compressed net's file is the one it writes when it runs alone
        cfg = tiny_config(tmp_path, model="wide,compressed", track_spectral=2, T=400,
                          eta=10.0, log_every=25, sigma_values=(0.1, 0.04))
        assert run(cfg).ok
        alone = replace(cfg, model="compressed", out_dir=str(tmp_path / "alone"))
        assert run(alone).ok
        for model in ("wide", "compressed"):
            payload = json.loads((tmp_path / "out" / model / "seed_0" / "incremental.json")
                                 .read_text())
            assert len(payload["fit_iterations"]) == 2, model
        name = Path("compressed", "seed_0", "incremental.json")
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "alone" / name).read_bytes()
        assert not (tmp_path / "alone" / "wide").exists()


    def test_spectral_rows_leave_out_t0(self, tmp_path):
        # the init ties every singular value at t = 0; the trajectory keeps
        # that iterate, the spectral diagnostics do not
        cfg = tiny_config(tmp_path, model="wide,compressed", track_spectral=2, T=60)
        assert run(cfg).ok
        for model in ("wide", "compressed"):
            base = tmp_path / "out" / model / "seed_0"
            with open(base / "diagnostics.csv") as fh:
                rows = list(csv.DictReader(fh))
            assert {r["metric"] for r in rows} == {"sval", "left_align", "right_align",
                                                   "subspace_distance"}
            assert all(r["t"] != "0" for r in rows), model
            drift = [r["t"] for r in rows if r["metric"] == "subspace_distance"]
            assert drift == ["40", "60"], model
            with open(base / "trajectory.csv") as fh:
                assert next(csv.DictReader(fh))["t"] == "0"

    def test_alignment_computed_once_per_seed(self, tmp_path, monkeypatch):
        from dln import diagnostics

        calls = []
        original = diagnostics.alignment

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(diagnostics, "alignment", counted)
        cfg = tiny_config(tmp_path, model="compressed", track_spectral=2, T=40)
        assert run(cfg).ok
        base = tmp_path / "out" / "compressed" / "seed_0"
        assert (base / "incremental.json").exists() and (base / "diagnostics.csv").exists()
        assert len(calls) == 1

    def test_spectral_init_time_counts_the_same_surrogate_builds(self, tmp_path, monkeypatch):
        # each model's init builds the surrogate inside its svd_init_s timer,
        # as often as the other's
        from dln import baselines

        original = CompletionMask.surrogate
        builds = {"compressed": 0, "altmin": 0}
        model = []

        def slow(self, y):
            time.sleep(0.2)
            builds[model[-1]] += 1
            return original(self, y)

        def labelled(name, init):
            def wrapper(*args):
                model.append(name)
                return init(*args)
            return wrapper

        monkeypatch.setattr(CompletionMask, "surrogate", slow)
        monkeypatch.setattr(experiments, "init_compressed",
                            labelled("compressed", experiments.init_compressed))
        monkeypatch.setattr(baselines, "altmin_init", labelled("altmin", baselines.altmin_init))
        res = run(tiny_config(tmp_path, problem="complete", p=0.6,
                              model="compressed,altmin", T=2))
        assert res.ok
        n = builds["compressed"]
        assert n >= 1 and builds["altmin"] == n
        for key in ("compressed/seed_0", "altmin/seed_0"):
            assert 0.2 * n <= res.logs[key].svd_init_s < 0.2 * (n + 1)

    def test_no_surrogate_alive_while_the_gram_matrix_is_decomposed(self, tmp_path, monkeypatch):
        # the spectral init reads the surrogate through a builder and lets
        # every copy go before eigh, for the compressed net and for ALS alike
        original_surrogate, original_eigh = CompletionMask.surrogate, np.linalg.eigh
        made, alive = [], []

        def surrogate(self, y):
            out = original_surrogate(self, y)
            made.append(weakref.ref(out))
            return out

        def eigh(a, *args, **kwargs):
            alive.append(any(ref() is not None for ref in made))
            return original_eigh(a, *args, **kwargs)

        monkeypatch.setattr(CompletionMask, "surrogate", surrogate)
        monkeypatch.setattr(np.linalg, "eigh", eigh)
        for model in ("compressed", "altmin"):
            made.clear()
            alive.clear()
            res = run(tiny_config(tmp_path / model, problem="complete", p=0.6, model=model,
                                  T=2, altmin_iters=2))
            assert res.ok
            assert made and alive == [False]

    def test_surrogate_released_before_training(self, tmp_path, monkeypatch):
        # the dense surrogate feeds the spectral init only; training holds no
        # reference to any copy of it
        original_surrogate, original_train = CompletionMask.surrogate, experiments.train_compressed
        made, alive = [], []

        def surrogate(self, y):
            out = original_surrogate(self, y)
            made.append(weakref.ref(out))
            return out

        def train(*args, **kwargs):
            alive.extend(ref() is not None for ref in made)
            return original_train(*args, **kwargs)

        monkeypatch.setattr(CompletionMask, "surrogate", surrogate)
        monkeypatch.setattr(experiments, "train_compressed", train)
        res = run(tiny_config(tmp_path, problem="complete", p=0.6, model="compressed", T=2))
        assert res.ok
        assert alive and not any(alive)

    def test_als_surrogate_released_before_the_sweeps(self, tmp_path, monkeypatch):
        # altmin_complete builds the dense surrogate for its init only
        from dln import baselines

        original_surrogate, original_sweep = CompletionMask.surrogate, baselines.half_sweep_left
        made, alive = [], []

        def surrogate(self, y):
            out = original_surrogate(self, y)
            made.append(weakref.ref(out))
            return out

        def sweep(*args):
            if not alive:
                alive.extend(ref() is not None for ref in made)
            return original_sweep(*args)

        monkeypatch.setattr(CompletionMask, "surrogate", surrogate)
        monkeypatch.setattr(baselines, "half_sweep_left", sweep)
        res = run(tiny_config(tmp_path, problem="complete", p=0.6, model="altmin",
                              altmin_iters=2))
        assert res.ok
        assert alive and not any(alive)

    def test_one_sensing_operator_held_at_a_time(self, tmp_path):
        # each seed's problem goes before the next seed's operator is drawn;
        # at m = 2000 the 1 MiB draw chunk is well below half the operator
        cfg = default_config("sense", d=30, r=2, r_hat=4, m=2000, T=2, seeds=(0, 1),
                             out_dir=str(tmp_path / "out"))
        op_bytes = gaussian_ops_bytes(cfg.d, cfg.m)
        tracemalloc.start()
        try:
            res = run(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.ok
        assert peak <= 1.5 * op_bytes

    def test_trained_layers_released_before_the_next_fit(self, tmp_path, monkeypatch):
        # a (model, seed)'s layers go once saved, before the next model or seed
        trained_refs, alive = [], []

        def tracked(trainer):
            def wrapper(*args, **kwargs):
                alive.append(any(ref() is not None for ref in trained_refs))
                trained_refs.clear()
                trained, log = trainer(*args, **kwargs)
                trained_refs.extend(weakref.ref(w) for w in trained.layers)
                return trained, log
            return wrapper

        for name in ("train_wide", "train_compressed", "altmin_complete"):
            monkeypatch.setattr(experiments, name, tracked(getattr(experiments, name)))
        res = run(tiny_config(tmp_path, problem="complete", p=0.6, model="all", T=2,
                              altmin_iters=2, seeds=(0, 1), save_models=True))
        assert res.ok
        assert alive == [False] * 6

    def test_ratings_diagnostics_rows_are_metric_major(self, tmp_path):
        # every holdout_rmse row, t ascending, then every holdout_rel_error row
        from dln.data import gen_ratings_standin

        data = tmp_path / "u.data"
        gen_ratings_standin(data, n_users=12, n_items=15, n_ratings=120, rank=2)
        cfg = default_config("movielens", movielens_path=str(data),
                             r_hat=2, T=4, log_every=2, altmin_iters=3,
                             out_dir=str(tmp_path / "out"))
        res = run(cfg)
        assert res.statuses == {f"{m}/seed_0": "ok" for m in ("wide", "compressed", "altmin")}
        for model, ts in (("wide", [0, 2, 4]), ("compressed", [0, 2, 4]),
                          ("altmin", [0, 1, 2, 3])):
            with open(tmp_path / "out" / model / "seed_0" / "diagnostics.csv") as fh:
                rows = [(r["metric"], int(r["t"])) for r in csv.DictReader(fh)]
            assert rows == ([("holdout_rmse", t) for t in ts]
                            + [("holdout_rel_error", t) for t in ts])

    def test_manifest_records_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        cfg = tiny_config(tmp_path, model="compressed", T=2)
        run(cfg)
        env = json.loads((tmp_path / "out" / "manifest.json").read_text())["environment"]
        assert env["numpy"] == np.__version__
        assert set(env["blas"]) == {"name", "version"}
        assert env["thread_env"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["thread_env"]["MKL_NUM_THREADS"] is None
        assert load_manifest(tmp_path / "out" / "manifest.json") == cfg


SIDE = 10**6


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    cells=st.sets(st.tuples(st.integers(0, SIDE - 1), st.integers(0, SIDE - 1)),
                  min_size=1, max_size=40),
    values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=40, max_size=40),
)
@example(cells={(0, 0), (2, 1), (1, SIDE - 1), (SIDE - 1, 3)},
         values=[-0.0, 5e-324, 1e-310, 1.7976931348623157e308] + [-1e300, 0.1] * 18)
@example(cells={(i // 97, i % 97) for i in range(2 * 4096 + 1)},  # three write blocks
         values=[i / 7 for i in range(2 * 4096 + 1)])
def test_archive_bytes_match_csv_writer_and_savetxt(cells, values):
    # the archive writers format in one call what csv.writer and np.savetxt
    # write line by line, byte for byte
    rows, cols = np.array(list(cells)).T
    mask = CompletionMask(rows, cols, SIDE, SIDE)
    y = np.array(values[:mask.m])
    with tempfile.TemporaryDirectory() as tmp:
        dest = Path(tmp)
        experiments._archive_measurements(dest, mask, y)
        with open(dest / "mask_ref.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["row", "col"])
            for r, c in zip(mask.rows, mask.cols):
                w.writerow([int(r), int(c)])
        np.savetxt(dest / "values_ref.csv", y, fmt="%.17g")
        assert (dest / "mask.csv").read_bytes() == (dest / "mask_ref.csv").read_bytes()
        assert (dest / "train_values.csv").read_bytes() == (dest / "values_ref.csv").read_bytes()


class TestModelTable:
    def test_model_list_matches_single_model_runs(self, tmp_path):
        cfg = tiny_config(tmp_path, problem="complete", p=0.6, track_spectral=2)
        run(replace(cfg, model="compressed,altmin", out_dir=str(tmp_path / "both")))
        for model in ("compressed", "altmin"):
            run(replace(cfg, model=model, out_dir=str(tmp_path / model)))
            for name in ("trajectory.csv", "diagnostics.csv", "mask.csv", "train_values.csv"):
                a = tmp_path / "both" / model / "seed_0" / name
                b = tmp_path / model / model / "seed_0" / name
                assert a.exists() == b.exists(), (model, name)
                if a.exists():
                    assert a.read_bytes() == b.read_bytes(), (model, name)
        assert not (tmp_path / "both" / "wide").exists()

    def test_list_order_follows_table(self, tmp_path):
        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model="altmin, compressed")
        assert resolve_models(cfg) == ("compressed", "altmin")

    def test_all_on_factorize_runs_the_two_networks(self, tmp_path):
        res = run(tiny_config(tmp_path, model="all", T=5))
        assert sorted(res.statuses) == ["compressed/seed_0", "wide/seed_0"]
        assert sorted(p.name for p in (tmp_path / "out").iterdir() if p.is_dir()) == [
            "compressed", "wide"]

    @pytest.mark.parametrize("problem,model,needle", [
        ("factorize", "wide,wide", "twice"),
        ("factorize", "wide,foo", "unknown model 'foo'"),
        ("factorize", "", "empty"),
        ("sense", "compressed,altmin", "does not serve"),
    ])
    def test_bad_model_lists_rejected(self, tmp_path, problem, model, needle):
        with pytest.raises(ConfigError) as exc:
            validate_config(tiny_config(tmp_path, problem=problem, model=model))
        assert exc.value.field == "model" and needle in str(exc.value)

    def test_trainers_looked_up_at_call_time(self, tmp_path, monkeypatch):
        # perfbench's tracer swaps these names on their modules during a run;
        # a name bound another way would leave its span empty
        from dln import baselines, models

        names = [(experiments, n) for n in ("train_wide", "train_compressed",
                                            "altmin_complete", "init_wide", "init_compressed")]
        names += [(models, "truncated_svd"), (baselines, "truncated_svd"),
                  (baselines, "altmin_init")]
        called = []
        for owner, name in names:
            def wrapper(*args, _key=(owner, name), _fn=getattr(owner, name), **kwargs):
                called.append(_key)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapper)
        res = run(tiny_config(tmp_path, problem="complete", p=0.6, model="all", T=5))
        assert res.ok
        assert set(called) == set(names)

    def test_status_written_after_each_model_and_seed(self, tmp_path, monkeypatch):
        original = experiments.train_compressed

        calls = []

        def failing(model, op, y, tc, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("trainer crashed")
            return original(model, op, y, tc, **kwargs)

        monkeypatch.setattr(experiments, "train_compressed", failing)
        with pytest.raises(RuntimeError):
            run(tiny_config(tmp_path, seeds=(0, 1), T=5))
        out = tmp_path / "out"
        status = json.loads((out / "status.json").read_text())
        assert status == {"wide/seed_0": "ok", "compressed/seed_0": "ok", "wide/seed_1": "ok"}
        assert sorted(p.name for p in out.iterdir() if p.is_file()) == [
            "manifest.json", "status.json"]


class TestAblate:
    def test_ratings_rhat_past_the_files_shape_writes_nothing(self, tmp_path):
        # the file spans 5 x 8; the refused value comes after one that runs
        data = tmp_path / "u.data"
        data.write_text("".join(f"{u}\t{u + 3}\t3\t{u}\n" for u in range(1, 6)))
        cfg = default_config("movielens", movielens_path=str(data), T=1, altmin_iters=1,
                             out_dir=str(tmp_path / "out"))
        with pytest.raises(ConfigError) as exc:
            ablate(cfg, "rhat", [2, 6])
        assert exc.value.field == "r_hat"
        assert not (tmp_path / "out").exists()

    def test_alpha_sweep_summary(self, tmp_path):
        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model="compressed", T=80)
        res = ablate(cfg, "alpha", [1.0, 2.0])
        assert res.ok and res.statuses == {
            "alpha_1.0/compressed/seed_0": "ok", "alpha_2.0/compressed/seed_0": "ok"}
        out = res.out_dir
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0].startswith("axis,value,model,seed,status,final_recovery_error")
        assert lines[1].startswith("alpha,1.0,compressed,0,ok,")
        assert len(lines) == 3
        assert (out / "alpha_1.0" / "compressed" / "seed_0" / "trajectory.csv").exists()

    def test_summary_columns(self, tmp_path):
        # at alpha = 1e4 the compressed net diverges; every other run reaches
        # the threshold within T
        cfg = default_config("factorize", d=8, r=2, r_hat=3, L=3, eps=0.1, eta=0.5, T=200,
                             log_every=10, seeds=(0,), sigma_values=(1.0, 0.5),
                             out_dir=str(tmp_path / "out"))
        out = ablate(cfg, "alpha", [1.0, 1e4]).out_dir
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert list(rows[0])[:5] == ["axis", "value", "model", "seed", "status"]
        assert [(r["value"], r["model"]) for r in rows] == [
            ("1.0", "wide"), ("1.0", "compressed"), ("10000.0", "wide"),
            ("10000.0", "compressed")]
        results = ("final_recovery_error", "iters_to_threshold", "train_seconds",
                   "svd_init_seconds")
        for row in rows:
            run_dir = out / f"alpha_{row['value']}"
            status = json.loads((run_dir / "status.json").read_text())
            assert row["status"] == status[f"{row['model']}/seed_0"]
            if row["value"] == "10000.0" and row["model"] == "compressed":
                assert row["status"].startswith("diverged@")
                assert all(row[c] == "" for c in results)
                continue
            assert row["status"] == "ok"
            with open(run_dir / row["model"] / "seed_0" / "trajectory.csv") as fh:
                traj = list(csv.DictReader(fh))
            first = next(int(r["t"]) for r in traj
                         if float(r["recovery_error"]) <= experiments.THRESHOLD)
            assert int(row["iters_to_threshold"]) == first
            assert row["final_recovery_error"] == traj[-1]["recovery_error"]

    def test_summary_rows_in_run_order(self, tmp_path, monkeypatch):
        # a diverged (model, seed) keeps its place among its value's rows
        from dln.errors import DivergenceError

        original, calls = experiments.train_wide, []

        def diverge_first(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise DivergenceError(0, float("inf"))
            return original(*args, **kwargs)

        monkeypatch.setattr(experiments, "train_wide", diverge_first)
        out = ablate(tiny_config(tmp_path, T=5, seeds=(0, 1)), "alpha", [1.0, 2.0]).out_dir
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["model"], r["seed"]) for r in rows] == [
            (v, m, s) for v in ("1.0", "2.0") for s in ("0", "1")
            for m in ("wide", "compressed")]
        assert rows[0]["train_seconds"] == "" and all(r["train_seconds"] for r in rows[1:])

    def test_depth_sweep(self, tmp_path):
        cfg = tiny_config(tmp_path, model="compressed", T=40)
        out = ablate(cfg, "depth", [2, 3]).out_dir
        assert (out / "depth_2" / "manifest.json").exists()

    def test_all_diverged_sweep_exits_three(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["ablate", "--problem", "factorize", "--axis", "alpha", "--values", "1,5",
                     "--eta", "1e6", "--T", "20", "--d", "6", "--r", "2", "--rhat", "3",
                     "--out", str(out)]) == 3
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["model"], r["status"]) for r in rows] == [
            ("1.0", "wide", "diverged@3"), ("1.0", "compressed", "diverged@3"),
            ("5.0", "wide", "diverged@3"), ("5.0", "compressed", "diverged@2")]
        for row in rows:
            status = json.loads((out / f"alpha_{row['value']}" / "status.json").read_text())
            assert row["status"] == status[f"{row['model']}/seed_0"]
            assert row["final_recovery_error"] == row["train_seconds"] == ""
        table = capsys.readouterr().out.splitlines()[1:]
        assert [line.split() for line in table] == [
            ["alpha_1.0/compressed/seed_0", "diverged@3"], ["alpha_1.0/wide/seed_0", "diverged@3"],
            ["alpha_5.0/compressed/seed_0", "diverged@2"], ["alpha_5.0/wide/seed_0", "diverged@3"]]

    def test_spaced_string_values_sweep(self, tmp_path):
        # string values are stripped as a config file's are
        out = tmp_path / "o"
        assert main(["ablate", "--problem", "factorize", "--axis", "init", "--values",
                     "orthogonal, uniform", "--model", "wide", *TINY_ARGV[1:],
                     "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            assert [r["value"] for r in csv.DictReader(fh)] == ["orthogonal", "uniform"]
        assert (out / "init_uniform" / "wide" / "seed_0" / "trajectory.csv").exists()

    def test_unknown_axis(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(ConfigError):
            ablate(cfg, "width", [1])

    @pytest.mark.parametrize("values", [[1.0, 2.0, 1.0], []], ids=["duplicate", "empty"])
    def test_duplicate_or_empty_sweep_refused(self, tmp_path, values):
        # two equal values would write one run directory twice
        cfg = tiny_config(tmp_path)
        with pytest.raises(ConfigError) as exc:
            ablate(cfg, "alpha", values)
        assert exc.value.field == "alpha"
        assert not (tmp_path / "out").exists()

    def test_base_value_of_the_swept_field_not_validated(self, tmp_path):
        # the recipe's r_hat = 20 exceeds d = 6, but only the swept values run
        out = tmp_path / "o"
        assert main(["ablate", "--problem", "factorize", "--axis", "rhat", "--values", "2,3",
                     "--d", "6", "--r", "2", "--T", "5", "--out", str(out)]) == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["value"], r["model"]) for r in rows] == [
            ("2", "wide"), ("2", "compressed"), ("3", "wide"), ("3", "compressed")]

    def test_empty_out_dir_refused(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ConfigError) as exc:
            ablate(dataclasses.replace(tiny_config(tmp_path), out_dir=""), "alpha", [1.0])
        assert exc.value.field == "out_dir"
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("raw", ["1,1", "1,1.0", ","])
    def test_duplicate_or_empty_values_exit_two(self, tmp_path, capsys, raw):
        out = tmp_path / "o"
        argv = TINY_ARGV[1:] + ["--axis", "alpha", "--values", raw, "--out", str(out)]
        assert main(["ablate", "--problem", "factorize", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: config field 'alpha'") and "Traceback" not in err
        assert not out.exists()


class TestConfigFile:
    def test_parse_and_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment line\n"
            "d = 24\n"
            "rhat = 6\n"
            "eta = 2.5\n"
            "seeds = 0,3\n"
            "sigma_values = 0.2,0.1\n"
            "model = compressed  # trailing comment\n"
        )
        parsed = read_config_file(path)
        assert parsed == {
            "d": 24, "r_hat": 6, "eta": 2.5, "seeds": (0, 3),
            "sigma_values": (0.2, 0.1), "model": "compressed",
        }

    @pytest.mark.parametrize("raw,value", [("1", True), ("TRUE", True), ("Yes", True),
                                           ("on", True), ("0", False), ("False", False),
                                           ("NO", False), ("off", False)])
    def test_boolean_spellings(self, tmp_path, raw, value):
        path = tmp_path / "run.cfg"
        path.write_text(f"save_models = {raw}\n")
        assert read_config_file(path) == {"save_models": value}

    @pytest.mark.parametrize("raw", ["ture", "yes please", ""])
    def test_unknown_boolean_names_field(self, tmp_path, raw):
        path = tmp_path / "run.cfg"
        path.write_text(f"oracle = {raw}\n")
        with pytest.raises(ConfigError) as exc:
            read_config_file(path)
        assert exc.value.field == "oracle"

    def test_unknown_key_names_field(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("depth = 3\n")
        with pytest.raises(ConfigError) as exc:
            read_config_file(path)
        assert exc.value.field == "depth"


class TestCli:
    def test_factorize_exit_zero(self, tmp_path, capsys):
        rc = main([
            "factorize", "--model", "compressed", "--d", "16", "--r", "2", "--rhat", "4",
            "--T", "40", "--log-every", "20", "--sigma", "0.1,0.05", "--eta", "1",
            "--alpha", "1", "--seeds", "0", "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert "compressed/seed_0" in capsys.readouterr().out

    def test_bad_config_exit_two(self, tmp_path):
        rc = main(["factorize", "--eta", "-3", "--out", str(tmp_path / "o")])
        assert rc == 2

    def _assert_config_error(self, argv, capsys, needle):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert "Traceback" not in err

    def test_sigma_length_mismatch_exit_two(self, tmp_path, capsys):
        self._assert_config_error(
            ["factorize", "--sigma", "1,2", "--r", "3", "--out", str(tmp_path / "o")],
            capsys, "sigma_values",
        )

    def test_nonpositive_sigma_exit_two(self, tmp_path, capsys):
        self._assert_config_error(
            ["factorize", "--sigma", "0.1,0", "--r", "2", "--out", str(tmp_path / "o")],
            capsys, "sigma_values",
        )

    def test_duplicate_seeds_exit_two(self, tmp_path, capsys):
        self._assert_config_error(
            ["factorize", "--seeds", "0,0", "--out", str(tmp_path / "o")], capsys, "seeds",
        )

    def test_empty_mask_draw_exit_two(self, tmp_path, capsys):
        self._assert_config_error(
            ["complete", "--d", "5", "--r", "2", "--rhat", "3", "--p", "1e-5",
             "--T", "5", "--out", str(tmp_path / "o")],
            capsys, "mask draw came up empty",
        )

    def test_empty_mask_draw_on_a_later_seed_writes_nothing(self, tmp_path, capsys):
        # seeds 0 and 1 draw entries at p=0.05, a later seed draws none
        out = tmp_path / "o"
        self._assert_config_error(
            ["complete", "--d", "5", "--r", "2", "--rhat", "3", "--p", "0.05",
             "--seeds", "0,1,2,3,4,5", "--out", str(out)],
            capsys, "mask draw came up empty",
        )
        assert not (out / "manifest.json").exists()

    def test_sensing_over_budget_exit_two(self, tmp_path, capsys):
        # the budget is checked before the operator is drawn
        self._assert_config_error(
            ["sense", "--m", "200000", "--T", "5", "--out", str(tmp_path / "o")],
            capsys, "budget",
        )

    def test_sensing_over_budget_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        self._assert_config_error(
            ["sense", "--m", "200000", "--T", "5", "--out", str(out)], capsys, "budget",
        )
        assert not out.exists()

    def test_standin_trains_at_its_own_shape_without_a_config(self, tmp_path, capsys,
                                                              monkeypatch):
        # the script prints only its summary, and the run reads the file's shape
        data = tmp_path / "standin.data"
        done = subprocess.run(
            [sys.executable, str(SCRIPTS / "make_movielens_standin.py"), str(data),
             "--users", "30", "--items", "40", "--ratings", "600", "--rank", "3"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": str(SCRIPTS.parent / "src")})
        assert done.stdout == "" and "30x40" in done.stderr
        shapes = []

        def recorded(trainer):
            def wrapper(model, op, *args, **kwargs):
                shapes.append((model.layers[-1].shape[0], model.layers[0].shape[1], op.shape))
                return trainer(model, op, *args, **kwargs)
            return wrapper

        for name in ("train_wide", "train_compressed"):
            monkeypatch.setattr(experiments, name, recorded(getattr(experiments, name)))
        out = tmp_path / "o"
        assert main(["movielens", "--data", str(data), "--rhat", "3", "--T", "2",
                     "--altmin-iters", "1", "--out", str(out)]) == 0
        assert shapes == [(30, 40, (30, 40))] * 2
        assert "movielens_shape" not in json.loads((out / "manifest.json").read_text())["config"]

    def test_manifest_movielens_shape_rereads_only_its_files_shape(self, tmp_path, capsys):
        # a manifest written while the shape was a setting re-runs when the
        # setting is the shape the file spans, and is refused otherwise
        data = tmp_path / "u.data"
        data.write_text("".join(f"{u}\t{u + 3}\t3\t{u}\n" for u in range(1, 6)))
        cfg = default_config("movielens", movielens_path=str(data), r_hat=2, T=2,
                             altmin_iters=1, out_dir=str(tmp_path / "old"))
        manifest = tmp_path / "manifest.json"
        for shape, code in (([5, 8], 0), ([943, 1682], 2), ([5, 9], 2)):
            config = {**dataclasses.asdict(cfg), "movielens_shape": shape}
            manifest.write_text(json.dumps({"version": "0", "config": config}))
            out = tmp_path / f"o_{shape[1]}"
            rc = main(["movielens", "--manifest", str(manifest), "--out", str(out)])
            err = capsys.readouterr().err
            assert rc == code, err
            if code:
                assert err.startswith("error: config field 'movielens_shape'") and "[5, 8]" in err
                assert "Traceback" not in err and not out.exists()
        # the field was never read on other problems, so any value re-runs there
        config = {**dataclasses.asdict(tiny_config(tmp_path)), "movielens_shape": [943, 1682]}
        manifest.write_text(json.dumps({"version": "0", "config": config}))
        assert load_manifest(manifest) == tiny_config(tmp_path)

    @pytest.mark.parametrize("argv,code,needle", [
        (["factorize", "--d", "1000000", "--r", "2", "--rhat", "4", "--T", "1"], 2,
         "error: config field 'd'"),
        (["movielens", "--T", "1", "--data", "{big}"], 4, "error: ids span a 1000000x5000 "),
        (["movielens", "--T", "1", "--rhat", "2", "--data", "{skewed}"], 2,
         "error: config field 'model': the wide net"),
    ], ids=["factorize", "ratings", "ratings-wide"])
    def test_past_the_array_budget_exits_with_one_line_and_writes_nothing(
            self, tmp_path, capsys, argv, code, needle):
        # the skewed file fits as a 2 x 600000 product, not as the wide
        # net's 600000-square layers
        files = {"big": "1\t1\t5\t7\n1000000\t5000\t3\t8\n",
                 "skewed": "1\t1\t5\t7\n2\t600000\t3\t8\n1\t2\t4\t9\n"}
        for name, text in files.items():
            (tmp_path / name).write_text(text)
        out = tmp_path / "o"
        argv = [a.format(**{n: str(tmp_path / n) for n in files}) for a in argv]
        assert main(argv + ["--out", str(out)]) == code
        err = capsys.readouterr().err
        assert err.startswith(needle) and err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()

    def test_ratings_rhat_too_large_writes_nothing(self, tmp_path, capsys):
        # rejected before the wide net trains, so no manifest or seed directory
        data = tmp_path / "u.data"
        data.write_text("".join(f"{u}\t{u + 1}\t3\t88125{u:04d}\n" for u in range(1, 21)))
        out = tmp_path / "o"
        self._assert_config_error(
            ["movielens", "--data", str(data), "--rhat", "5000", "--T", "2",
             "--out", str(out)], capsys, "r_hat",
        )
        assert not out.exists()

    def test_ratings_track_spectral_exit_two_writes_nothing(self, tmp_path, capsys):
        # ratings have no synthetic target to align tracked triplets with; a
        # manifest written before this rule is refused as the flag is
        from dln.data import gen_ratings_standin

        data = tmp_path / "u.data"
        gen_ratings_standin(data, n_users=12, n_items=15, n_ratings=120, rank=2)
        write_manifest(default_config("movielens", movielens_path=str(data), r_hat=2, T=2,
                                      track_spectral=3,
                                      out_dir=str(tmp_path / "old")), tmp_path)
        for argv in (["movielens", "--data", str(data), "--rhat", "2", "--T", "2",
                      "--track-spectral", "3"],
                     ["movielens", "--manifest", str(tmp_path / "manifest.json")]):
            out = tmp_path / "o"
            self._assert_config_error(argv + ["--out", str(out)], capsys,
                                      "error: config field 'track_spectral'")
            assert not out.exists()

    def test_empty_ratings_split_writes_nothing(self, tmp_path, capsys):
        # floor(0.01 * 20) leaves no train rating; found before the manifest is written
        data = tmp_path / "u.data"
        data.write_text("".join(f"{u}\t{u + 1}\t3\t88125{u:04d}\n" for u in range(1, 21)))
        out = tmp_path / "o"
        self._assert_config_error(
            ["movielens", "--data", str(data), "--train-frac", "0.01", "--rhat", "2",
             "--T", "2", "--out", str(out)], capsys, "'train_frac'",
        )
        assert not out.exists()

    @pytest.mark.parametrize("argv,field", [
        (TINY_ARGV + ["--sigma-range", "0.05,0.02"], "sigma_range"),
        (TINY_ARGV + ["--sigma-range", "0,0.05"], "sigma_range"),
        (TINY_ARGV + ["--seeds", "-1"], "seeds"),
        (["factorize", "--d", "4", "--r", "2", "--rhat", "2", "--T", "2", "--sigma", "0.1,inf"],
         "sigma_values"),
        (TINY_ARGV + ["--eps", "inf"], "eps"),
        (TINY_ARGV + ["--eta", "inf"], "eta"),
        (TINY_ARGV + ["--track-spectral", "-3"], "track_spectral"),
        (TINY_ARGV + ["--seeds", "1" + "0" * 400], "seeds"),
    ], ids=["sigma-range-reversed", "sigma-range-zero", "seeds", "sigma", "eps", "eta",
            "track-spectral", "seed-past-64-bits"])
    def test_out_of_domain_flag_exit_two_writes_nothing(self, tmp_path, capsys, argv, field):
        out = tmp_path / "o"
        self._assert_config_error(argv + ["--out", str(out)], capsys,
                                  f"error: config field '{field}'")
        assert not out.exists()

    def test_malformed_seeds_exit_two(self, tmp_path, capsys):
        self._assert_config_error(
            ["factorize", "--seeds", "0,a", "--out", str(tmp_path / "o")], capsys, "'seeds'",
        )

    def test_malformed_sigma_exit_two(self, tmp_path, capsys):
        self._assert_config_error(
            ["factorize", "--sigma", "0.1,zz", "--r", "2", "--out", str(tmp_path / "o")],
            capsys, "'sigma_values'",
        )

    def test_malformed_config_file_value_exit_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("d = abc\n")
        self._assert_config_error(
            ["factorize", "--config", str(path), "--out", str(tmp_path / "o")], capsys, "'d'",
        )

    def test_malformed_ablation_values_exit_two(self, tmp_path, capsys):
        out = tmp_path / "o"
        self._assert_config_error(
            ["ablate", "--axis", "rhat", "--values", "2,x", "--out", str(out)], capsys, "'r_hat'",
        )
        assert not out.exists()

    @pytest.mark.parametrize("flag,value,field", [("--d", "abc", "'d'"),
                                                   ("--eta", "fast", "'eta'"),
                                                   ("--init", "foo", "'init_mode'")])
    def test_malformed_flag_value_names_field(self, tmp_path, capsys, flag, value, field):
        # flag values go through the config parser, not argparse
        out = tmp_path / "o"
        self._assert_config_error(["factorize", flag, value, "--out", str(out)], capsys, field)
        assert not out.exists()

    def test_config_file_for_another_problem_exit_two(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("problem = sense\n")
        self._assert_config_error(
            ["factorize", "--config", str(path), "--out", str(tmp_path / "o")], capsys,
            "'problem'",
        )

    def test_divergence_exit_three(self, tmp_path):
        rc = main([
            "factorize", "--model", "wide", "--d", "12", "--r", "2", "--rhat", "4",
            "--T", "300", "--eta", "50000", "--eps", "0.5", "--sigma", "0.5,0.2",
            "--seeds", "0", "--out", str(tmp_path / "o"),
        ])
        assert rc == 3

    @pytest.mark.parametrize("argv, normalized", [
        (["complete", "--p", "0.6"], False),
        (["sense", "--m", "40"], True),
    ], ids=["complete", "sense"])
    def test_normalize_eta_flag(self, tmp_path, monkeypatch, argv, normalized):
        # the compressed trainer sees eta / m where the problem stacks measurements
        seen = []
        original = experiments.train_compressed

        def recording(model, op, y, tc, **kwargs):
            seen.append((tc.eta, op.m))
            return original(model, op, y, tc, **kwargs)

        monkeypatch.setattr(experiments, "train_compressed", recording)
        rc = main(argv + ["--model", "compressed", "--d", "8", "--r", "2", "--rhat", "3",
                          "--T", "2", "--eta", "0.5", "--sigma", "0.1,0.05", "--seeds", "0",
                          "--out", str(tmp_path / "o")])
        assert rc == 0
        [(eta, m)] = seen
        assert eta == (0.5 / m if normalized else 0.5)

    def test_singular_als_system_exit_three(self, tmp_path, capsys):
        # ALS factors outgrow the damping in the first sweep and one damped
        # system is exactly singular
        out = tmp_path / "o"
        rc = main([
            "complete", "--d", "10", "--r", "2", "--rhat", "5", "--p", "0.3",
            "--seeds", "168", "--model", "altmin", "--sigma-range", "1,3", "--out", str(out),
        ])
        assert rc == 3
        status = json.loads((out / "status.json").read_text())
        assert status["altmin/seed_168"].startswith("diverged@")
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_ratings_file_exit_four(self, tmp_path):
        rc = main([
            "movielens", "--data", str(tmp_path / "missing.data"),
            "--out", str(tmp_path / "o"), "--T", "5",
        ])
        assert rc == 4

    @pytest.mark.parametrize("payload", [b"1\t1\t5\t7\n1\t0\t5\t8\n",
                                         b"1\t1\t5\t7\n\xff\t1\t5\t7\n"])
    def test_unreadable_ratings_file_exit_four_writes_nothing(self, tmp_path, capsys, payload):
        data = tmp_path / "u.data"
        data.write_bytes(payload)
        out = tmp_path / "o"
        rc = main(["movielens", "--data", str(data), "--T", "2", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 4 and err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()

    ORACLE_RUN = ["--d", "20", "--r", "2", "--rhat", "4", "--T", "150", "--sigma", "0.2,0.1"]

    def test_oracle_subcommand_prints_pass(self, tmp_path, capsys):
        rc = main(["oracle", *self.ORACLE_RUN, "--out", str(tmp_path / "o")])
        assert rc == 0
        assert capsys.readouterr().out.splitlines()[1:] == ["  compressed/seed_0  ok"]

    def test_oracle_fail_exits_three(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["oracle", "--eta", "12", "--T", "500", "--out", str(out)]) == 3
        assert capsys.readouterr().out.splitlines()[1:] == [
            "  compressed/seed_0  oracle_fail@463"]
        assert json.loads((out / "status.json").read_text()) == {
            "compressed/seed_0": "oracle_fail@463"}
        report = json.loads((out / "compressed" / "seed_0" / "oracle.json").read_text())
        assert report["pass"] is False and report["first_fail_iter"] == 463

    def test_oracle_rhat_below_r_exit_two_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["oracle", "--rhat", "3", "--T", "20", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 2 and "'r_hat'" in err and "Traceback" not in err
        assert not out.exists()

    def test_factorize_oracle_at_recipe_rates_prints_pass(self, tmp_path, capsys):
        # recipe defaults (alpha = 5, both networks) at a shorter T
        out = tmp_path / "o"
        assert main(["factorize", "--oracle", "--T", "300", "--out", str(out)]) == 0
        assert [line.split() for line in capsys.readouterr().out.splitlines()[1:]] == [
            ["compressed/seed_0", "ok"], ["wide/seed_0", "ok"]]
        report = json.loads((out / "compressed" / "seed_0" / "oracle.json").read_text())
        assert report["pass"] is True and report["max_rel_dev"] <= 1e-10

    def test_oracle_manifest_rerun(self, tmp_path):
        assert main(["oracle", *self.ORACLE_RUN, "--out", str(tmp_path / "a")]) == 0
        rc = main(["oracle", "--manifest", str(tmp_path / "a" / "manifest.json"),
                   "--out", str(tmp_path / "b")])
        assert rc == 0
        for name in ("trajectory.csv", "oracle.json"):
            a = (tmp_path / "a" / "compressed" / "seed_0" / name).read_bytes()
            b = (tmp_path / "b" / "compressed" / "seed_0" / name).read_bytes()
            assert a == b, name

    def test_oracle_default_out_dir_leaves_factorize_run(self, tmp_path, monkeypatch):
        env = tmp_path / "envout"
        monkeypatch.setenv("DLN_OUT_DIR", str(env))
        monkeypatch.chdir(tmp_path)
        rc = main(["factorize", "--model", "compressed", "--d", "12", "--r", "2", "--rhat", "4",
                   "--T", "20", "--sigma", "0.1,0.05", "--eta", "1", "--alpha", "1"])
        assert rc == 0
        before = {name: (env / "factorize" / name).read_bytes()
                  for name in ("manifest.json", "status.json")}
        assert main(["oracle", *self.ORACLE_RUN]) == 0
        assert (env / "oracle" / "compressed" / "seed_0" / "oracle.json").exists()
        for name, data in before.items():
            assert (env / "factorize" / name).read_bytes() == data, name

    def test_manifest_rerun_via_cli(self, tmp_path):
        out1 = tmp_path / "a"
        rc = main([
            "factorize", "--model", "compressed", "--d", "16", "--r", "2", "--rhat", "4",
            "--T", "40", "--log-every", "20", "--sigma", "0.1,0.05", "--eta", "1",
            "--alpha", "1", "--seeds", "0", "--out", str(out1),
        ])
        assert rc == 0
        out2 = tmp_path / "b"
        rc = main(["factorize", "--manifest", str(out1 / "manifest.json"), "--out", str(out2)])
        assert rc == 0
        a = (out1 / "compressed" / "seed_0" / "trajectory.csv").read_bytes()
        b = (out2 / "compressed" / "seed_0" / "trajectory.csv").read_bytes()
        assert a == b

    def test_manifest_rerun_preserves_oracle_flag(self, tmp_path, capsys):
        out1 = tmp_path / "a"
        rc = main([
            "factorize", "--model", "compressed", "--oracle", "--alpha", "1",
            "--d", "16", "--r", "2", "--rhat", "4", "--T", "40", "--eta", "1",
            "--sigma", "0.1,0.05", "--seeds", "0", "--out", str(out1),
        ])
        assert rc == 0
        out2 = tmp_path / "b"
        capsys.readouterr()
        rc = main(["factorize", "--manifest", str(out1 / "manifest.json"), "--out", str(out2)])
        assert rc == 0
        assert (out2 / "compressed" / "seed_0" / "oracle.json").exists()
        assert capsys.readouterr().out.splitlines()[1:] == ["  compressed/seed_0  ok"]

    def test_spaced_init_flag_accepted(self, tmp_path):
        out = tmp_path / "o"
        assert main([*TINY_ARGV, "--model", "wide", "--init", " uniform", "--out", str(out)]) == 0
        assert load_manifest(out / "manifest.json").init_mode == "uniform"

    def _manifest_exit(self, tmp_path, capsys, text):
        path = tmp_path / "manifest.json"
        path.write_text(text)
        code = main(["factorize", "--manifest", str(path), "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        return code, err

    def _edited_manifest(self, tmp_path, **config):
        cfg = tiny_config(tmp_path, model="compressed", T=2)
        payload = {"version": "0", "config": {**dataclasses.asdict(cfg), **config}}
        return json.dumps(payload)

    def test_manifest_mistyped_value_exit_two(self, tmp_path, capsys):
        code, err = self._manifest_exit(tmp_path, capsys, self._edited_manifest(tmp_path, d="abc"))
        assert code == 2 and "'d'" in err

    def test_manifest_scalar_for_list_exit_two(self, tmp_path, capsys):
        code, err = self._manifest_exit(tmp_path, capsys, self._edited_manifest(tmp_path, seeds=5))
        assert code == 2 and "'seeds'" in err

    def test_manifest_not_json_exit_four(self, tmp_path, capsys):
        code, _ = self._manifest_exit(tmp_path, capsys, "d = 4\n")
        assert code == 4

    @pytest.mark.parametrize("value", ["1" * 5000, "[" * 100_000], ids=["long-int", "too-deep"])
    def test_manifest_past_the_json_limits_exit_four(self, tmp_path, capsys, value):
        text = self._edited_manifest(tmp_path).replace('"d": 16', '"d": ' + value)
        code, _ = self._manifest_exit(tmp_path, capsys, text)
        assert code == 4

    def test_manifest_without_config_exit_four(self, tmp_path, capsys):
        code, _ = self._manifest_exit(tmp_path, capsys, json.dumps({"version": "0"}))
        assert code == 4

    def test_out_dir_env_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DLN_OUT_DIR", str(tmp_path / "envout"))
        monkeypatch.chdir(tmp_path)
        rc = main([
            "factorize", "--model", "compressed", "--d", "12", "--r", "2", "--rhat", "4",
            "--T", "20", "--sigma", "0.1,0.05", "--eta", "1", "--alpha", "1", "--seeds", "0",
        ])
        assert rc == 0
        assert (tmp_path / "envout" / "factorize" / "manifest.json").exists()

    def test_ablate_cli(self, tmp_path):
        rc = main([
            "ablate", "--problem", "complete", "--axis", "alpha", "--values", "1,2",
            "--model", "compressed", "--d", "14", "--r", "2", "--rhat", "4", "--p", "0.6",
            "--T", "40", "--eta", "1", "--sigma", "0.1,0.05", "--seeds", "0",
            "--out", str(tmp_path / "sweep"),
        ])
        assert rc == 0
        assert (tmp_path / "sweep" / "summary.csv").exists()

    def test_ablate_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DLN_OUT_DIR", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = main(["ablate", "--axis", "alpha", "--values", "1", "--model", "compressed",
                   "--d", "8", "--r", "2", "--rhat", "3", "--p", "0.6", "--T", "5",
                   "--sigma", "0.1,0.05"])
        assert rc == 0
        assert (tmp_path / "dln_runs" / "ablate" / "summary.csv").exists()
