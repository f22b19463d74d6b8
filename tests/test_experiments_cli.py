import json
import os

import numpy as np
import pytest

from dln.cli import main, read_config_file
from dln.errors import ConfigError
from dataclasses import replace

from dln.experiments import (
    ExperimentConfig,
    ablate,
    default_config,
    effective_eta,
    load_manifest,
    oracle_config,
    run,
    validate_config,
)

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

    def test_oracle_requires_uniform_rate(self, tmp_path):
        cfg = tiny_config(tmp_path, oracle=True, alpha=2.0)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.field == "alpha"

    def test_altmin_needs_completion(self, tmp_path):
        cfg = tiny_config(tmp_path, model="altmin")
        with pytest.raises(ConfigError):
            validate_config(cfg)

    def test_sensing_budget_checked(self, tmp_path):
        # 4 GiB is 8 * 100^2 * 53687 bytes
        validate_config(tiny_config(tmp_path, problem="sense", d=100, m=53_687))
        with pytest.raises(ConfigError) as exc:
            validate_config(tiny_config(tmp_path, problem="sense", d=100, m=53_688))
        assert exc.value.field == "m"

    @pytest.mark.parametrize("r_hat", [0, 6])
    def test_ratings_rhat_checked_against_shape(self, tmp_path, r_hat):
        cfg = default_config("movielens", out_dir="x", movielens_path="u.data",
                             movielens_shape=(5, 8), r_hat=r_hat)
        with pytest.raises(ConfigError) as exc:
            validate_config(cfg)
        assert exc.value.field == "r_hat"
        validate_config(replace(cfg, r_hat=5))

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
            assert (base / "trajectory.jsonl").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["problem"] == "factorize"
        assert (out / "status.json").exists()

    def test_manifest_rerun_byte_identical(self, tmp_path):
        cfg = tiny_config(tmp_path, problem="complete", p=0.5, model="all", track_spectral=2)
        run(cfg)
        reloaded = load_manifest(tmp_path / "out" / "manifest.json")
        rerun_cfg = ExperimentConfig(**{**reloaded.__dict__, "out_dir": str(tmp_path / "out2")})
        run(rerun_cfg)
        # CSV logs are the deterministic artifacts; jsonl carries wall-clock
        for model in ("wide", "compressed", "altmin"):
            for name in ("trajectory.csv", "diagnostics.csv"):
                a = tmp_path / "out" / model / "seed_0" / name
                b = tmp_path / "out2" / model / "seed_0" / name
                if a.exists():
                    assert a.read_bytes() == b.read_bytes(), (model, name)

    def test_oracle_report_passes(self, tmp_path):
        cfg = oracle_config(out_dir=str(tmp_path / "out"), d=20, r=2, r_hat=4, T=200,
                            sigma_values=(0.2, 0.1), seeds=(0,))
        res = run(cfg)
        assert res.statuses["compressed/seed_0/oracle"] == "pass"
        report = json.loads((tmp_path / "out" / "compressed" / "seed_0" / "oracle.json").read_text())
        assert report["pass"] is True and report["max_rel_dev"] <= 1e-6

    def test_divergence_reported_not_raised(self, tmp_path):
        cfg = tiny_config(tmp_path, eta=5e4, model="wide", eps=0.5)
        res = run(cfg)
        assert not res.ok
        assert res.statuses["wide/seed_0"].startswith("diverged@")

    def test_altmin_divergence_reported_not_raised(self, tmp_path, monkeypatch):
        from dln import baselines

        sweeps = []
        original = baselines.half_sweep_left

        def poisoned(model, row_pos, row_vals):
            original(model, row_pos, row_vals)
            sweeps.append(1)
            if len(sweeps) == 2:
                model.Lf[0, 0] = np.nan

        monkeypatch.setattr(baselines, "half_sweep_left", poisoned)
        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model="altmin")
        res = run(cfg)
        assert not res.ok
        assert res.statuses["altmin/seed_0"] == "diverged@2"
        status = json.loads((tmp_path / "out" / "status.json").read_text())
        assert status["altmin/seed_0"] == "diverged@2"

    def test_checkpoint_and_measurement_archive(self, tmp_path):
        from dln.models import CompressedDLN, load_model

        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model="compressed",
                          save_models=True)
        run(cfg)
        base = tmp_path / "out" / "compressed" / "seed_0"
        assert (base / "mask.csv").exists()
        assert (base / "train_values.csv").exists()
        model = load_model(base / "checkpoint")
        assert isinstance(model, CompressedDLN) and model.r_hat == 4

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


class TestAblate:
    def test_alpha_sweep_summary(self, tmp_path):
        cfg = tiny_config(tmp_path, problem="complete", p=0.6, model="compressed", T=80)
        out = ablate(cfg, "alpha", [1.0, 2.0])
        lines = (out / "summary.csv").read_text().strip().split("\n")
        assert lines[0].startswith("axis,value,model,seed,final_recovery_error")
        assert len(lines) == 3
        assert (out / "alpha_1.0" / "compressed" / "seed_0" / "trajectory.csv").exists()

    def test_depth_sweep(self, tmp_path):
        cfg = tiny_config(tmp_path, model="compressed", T=40)
        out = ablate(cfg, "depth", [2, 3])
        assert (out / "depth_2" / "manifest.json").exists()

    def test_unknown_axis(self, tmp_path):
        cfg = tiny_config(tmp_path)
        with pytest.raises(ConfigError):
            ablate(cfg, "width", [1])


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

    def test_divergence_exit_three(self, tmp_path):
        rc = main([
            "factorize", "--model", "wide", "--d", "12", "--r", "2", "--rhat", "4",
            "--T", "300", "--eta", "50000", "--eps", "0.5", "--sigma", "0.5,0.2",
            "--seeds", "0", "--out", str(tmp_path / "o"),
        ])
        assert rc == 3

    def test_missing_ratings_file_exit_four(self, tmp_path):
        rc = main([
            "movielens", "--data", str(tmp_path / "missing.data"),
            "--out", str(tmp_path / "o"), "--T", "5",
        ])
        assert rc == 4

    def test_oracle_subcommand_prints_pass(self, tmp_path, capsys):
        rc = main([
            "oracle", "--d", "20", "--r", "2", "--rhat", "4", "--T", "150",
            "--sigma", "0.2,0.1", "--out", str(tmp_path / "o"),
        ])
        assert rc == 0
        assert "PASS" in capsys.readouterr().out

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

    def test_manifest_rerun_preserves_oracle_flag(self, tmp_path):
        out1 = tmp_path / "a"
        rc = main([
            "factorize", "--model", "compressed", "--oracle", "--alpha", "1",
            "--d", "16", "--r", "2", "--rhat", "4", "--T", "40", "--eta", "1",
            "--sigma", "0.1,0.05", "--seeds", "0", "--out", str(out1),
        ])
        assert rc == 0
        out2 = tmp_path / "b"
        rc = main(["factorize", "--manifest", str(out1 / "manifest.json"), "--out", str(out2)])
        assert rc == 0
        assert (out2 / "compressed" / "seed_0" / "oracle.json").exists()

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
