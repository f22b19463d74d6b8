"""Experiment recipes: problem setup, training, and artifact writing.

Each run resolves an :class:`ExperimentConfig` into seeded problems, trains
the requested models, and writes a self-describing output tree::

    out_dir/
      manifest.json            resolved config + package version (re-runnable)
      status.json              per (model, seed) outcome and timings
      <model>/seed_<k>/
        trajectory.csv         deterministic per-iterate metrics
        timing.csv             cumulative training-only wall-clock
        trajectory.jsonl       full records, one JSON object per iterate
        diagnostics.csv        tidy (experiment, seed, t, metric, component)
        oracle.json            recursion-oracle report (when requested)
        incremental.json       per-component fit iterations (when tracked)

Random streams are split by purpose: (seed, 0) target, (seed, 1) operator or
mask, (seed, 2) wide init, (seed, 3) baseline init, (seed, 4) ratings split.

Step-size normalization: the training loss is always the raw half squared
residual, so recipes whose measurement count stacks many observations of the
same entries (Gaussian sensing, ratings data) divide the nominal step size by
the measurement count. Full-observation and completion recipes use it as is.
"""

from __future__ import annotations

import dataclasses
import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, diagnostics
from .baselines import altmin_complete
from .data import (
    MOVIELENS_SHAPE,
    SyntheticSpec,
    gen_gaussian_ops,
    gen_lowrank,
    gen_mcar_mask,
    load_movielens,
    split_ratings,
)
from .errors import ConfigError, DivergenceError
from .linalg import make_rng
from .models import InitSpec, init_compressed, init_wide, save_model
from .operators import CompletionMask, Identity
from .theory import RecursionParams, initial_state, verify_against_training
from .trainer import TrainConfig, TrajectoryLog, train_compressed, train_wide

PROBLEMS = ("factorize", "sense", "complete", "movielens")
MODELS = ("wide", "compressed", "altmin", "all")
ABLATION_AXES = ("alpha", "rhat", "depth", "init")


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    model: str = "all"
    d: int = 100
    r: int = 10
    r_hat: int = 20
    L: int = 3
    eps: float = 1e-3
    eta: float = 10.0
    alpha: float = 5.0
    T: int = 3000
    p: float = 0.3
    m: int = 2000
    seeds: tuple[int, ...] = (0,)
    log_every: int = 25
    top_k: int | None = None
    stop_tol: float | None = None
    sigma_range: tuple[float, float] = (0.02, 0.05)
    sigma_values: tuple[float, ...] | None = None
    init_mode: str = "orthogonal"
    normalize_eta: bool | None = None
    movielens_path: str = ""
    movielens_shape: tuple[int, int] = MOVIELENS_SHAPE
    train_frac: float = 0.8
    altmin_iters: int = 60
    track_spectral: int = 0
    oracle: bool = False
    save_models: bool = False
    threshold: float = 1e-2
    out_dir: str = ""

    def resolved_top_k(self) -> int:
        return self.top_k if self.top_k is not None else self.r_hat

    def wants(self, model: str) -> bool:
        return self.model in (model, "all")


# per-problem recipe defaults; numbers chosen so every desk-scale run is
# stable under the raw-residual loss and finishes in minutes
RECIPES: dict[str, dict] = {
    "factorize": dict(
        d=100, r=10, r_hat=20, L=3, eps=1e-3, eta=10.0, alpha=5.0, T=3000,
        sigma_range=(0.02, 0.05), log_every=25,
    ),
    "sense": dict(
        d=100, r=5, r_hat=10, L=3, eps=1e-3, eta=10.0, alpha=2.0, T=1400,
        m=2000, sigma_range=(0.05, 0.08), log_every=25,
    ),
    "complete": dict(
        d=100, r=10, r_hat=20, L=3, eps=1e-3, eta=10.0, alpha=5.0, T=8000,
        p=0.3, sigma_range=(0.02, 0.05), log_every=50, altmin_iters=60,
    ),
    "movielens": dict(
        r_hat=10, L=3, eps=0.3, eta=0.5, alpha=5.0, T=1000, log_every=10,
        train_frac=0.8, altmin_iters=40, model="all",
    ),
}

# the recursion-oracle recipe: uniform rate, spectrum kept in the monotone
# regime so the whole window exercises the growth phase
ORACLE_RECIPE = dict(
    problem="factorize", model="compressed", d=50, r=5, r_hat=10, L=3,
    eps=1e-3, eta=1.0, alpha=1.0, T=1000, log_every=1,
    sigma_values=(0.2, 0.17, 0.14, 0.11, 0.08), oracle=True,
)


def default_config(problem: str, **overrides) -> ExperimentConfig:
    if problem not in PROBLEMS:
        raise ConfigError("problem", f"unknown problem {problem!r}")
    base = dict(RECIPES[problem])
    base.update(overrides)
    return ExperimentConfig(problem=problem, **base)


def oracle_config(**overrides) -> ExperimentConfig:
    base = dict(ORACLE_RECIPE)
    base.update(overrides)
    return ExperimentConfig(**base)


def validate_config(cfg: ExperimentConfig) -> None:
    if cfg.problem not in PROBLEMS:
        raise ConfigError("problem", f"must be one of {PROBLEMS}")
    if cfg.model not in MODELS:
        raise ConfigError("model", f"must be one of {MODELS}")
    if cfg.problem != "movielens":
        if not 1 <= cfg.r <= cfg.d:
            raise ConfigError("r", f"rank must lie in 1..{cfg.d}")
        if not 1 <= cfg.r_hat <= cfg.d:
            raise ConfigError("r_hat", f"must lie in 1..{cfg.d}")
        if cfg.sigma_values is not None:
            if len(cfg.sigma_values) != cfg.r:
                raise ConfigError(
                    "sigma_values", f"got {len(cfg.sigma_values)} values for rank r={cfg.r}"
                )
            if any(not s > 0 for s in cfg.sigma_values):
                raise ConfigError("sigma_values", "singular values must be positive")
    if cfg.L < 2:
        raise ConfigError("L", "depth must be at least 2")
    if cfg.eps <= 0:
        raise ConfigError("eps", "must be positive")
    if cfg.eta <= 0:
        raise ConfigError("eta", "must be positive")
    if cfg.alpha <= 0:
        raise ConfigError("alpha", "must be positive")
    if cfg.T < 1:
        raise ConfigError("T", "need at least one iteration")
    if not cfg.seeds:
        raise ConfigError("seeds", "need at least one seed")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError("seeds", "seeds must be distinct")
    if cfg.problem == "complete" and not 0 < cfg.p <= 1:
        raise ConfigError("p", "observation probability must lie in (0, 1]")
    if cfg.problem == "sense" and cfg.m < 1:
        raise ConfigError("m", "need at least one measurement")
    if cfg.problem == "movielens" and not cfg.movielens_path:
        raise ConfigError("movielens_path", "ratings file path is required")
    if cfg.model == "altmin" and cfg.problem in ("factorize", "sense"):
        raise ConfigError("model", "the alternating baseline only handles completion problems")
    if cfg.oracle:
        if cfg.problem != "factorize":
            raise ConfigError("oracle", "oracle verification requires the factorize problem")
        if not cfg.wants("compressed"):
            raise ConfigError("oracle", "oracle verification requires the compressed model")
        if cfg.alpha != 1.0:
            raise ConfigError(
                "alpha", "oracle verification requires alpha = 1 (uniform-rate updates)"
            )
    if not cfg.out_dir:
        raise ConfigError("out_dir", "output directory is required")


def effective_eta(cfg: ExperimentConfig, m: int) -> float:
    normalize = cfg.normalize_eta
    if normalize is None:
        normalize = cfg.problem in ("sense", "movielens")
    return cfg.eta / m if normalize else cfg.eta


@dataclass
class RunResult:
    out_dir: Path
    statuses: dict[str, str] = field(default_factory=dict)
    logs: dict[str, TrajectoryLog] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        # oracle verdicts are reported, not treated as run failures
        return all(
            v == "ok" for k, v in self.statuses.items() if not k.endswith("/oracle")
        )


def write_manifest(cfg: ExperimentConfig, out: Path) -> None:
    payload = {"version": __version__, "config": dataclasses.asdict(cfg)}
    (out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> ExperimentConfig:
    payload = json.loads(Path(path).read_text())
    raw = payload["config"]
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field in manifest")
    for key in ("seeds", "sigma_values", "sigma_range", "movielens_shape"):
        if raw.get(key) is not None:
            raw[key] = tuple(raw[key])
    return ExperimentConfig(**raw)


def _synthetic_problem(cfg: ExperimentConfig, seed: int):
    spec = SyntheticSpec(
        d=cfg.d, r=cfg.r, seed=seed,
        sigma_range=cfg.sigma_range, sigma_values=cfg.sigma_values,
    )
    M, U, s, V = gen_lowrank(spec)
    if cfg.problem == "factorize":
        op = Identity(cfg.d)
    elif cfg.problem == "sense":
        op = gen_gaussian_ops(cfg.d, cfg.m, seed)
    else:
        op = gen_mcar_mask(cfg.d, cfg.p, seed)
    return M, U, s, V, op, op.apply(M)


def _archive_measurements(dest: Path, op, y) -> None:
    if isinstance(op, CompletionMask):
        op.save_csv(dest / "mask.csv")
        np.savetxt(dest / "train_values.csv", y, fmt="%.17g")


def _seed_dir(out: Path, model: str, seed: int) -> Path:
    d = out / model / f"seed_{seed}"
    d.mkdir(parents=True, exist_ok=True)
    return d


def _write_logs(dest: Path, log: TrajectoryLog, experiment: str, seed: int,
                extra_rows=None) -> None:
    log.write_csv(dest / "trajectory.csv")
    log.write_timing_csv(dest / "timing.csv")
    log.write_jsonl(dest / "trajectory.jsonl")
    rows = list(extra_rows or [])
    for name, values in log.extras.items():
        for rec, value in zip(log.records, values):
            rows.append((rec.t, name, None, value))
    if rows:
        diagnostics.write_diagnostics_csv(dest / "diagnostics.csv", experiment, seed, rows)


def run(cfg: ExperimentConfig, echo=None) -> RunResult:
    """Execute one experiment config; returns statuses keyed by model/seed."""
    validate_config(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out)
    result = RunResult(out_dir=out)
    say = echo or (lambda msg: None)

    ratings = None
    if cfg.problem == "movielens":
        ratings = load_movielens(cfg.movielens_path, shape=tuple(cfg.movielens_shape))

    for seed in cfg.seeds:
        if cfg.problem == "movielens":
            mask, y, test = split_ratings(ratings, cfg.train_frac, seed)
            op, M, U, s, V = mask, None, None, None, None
            d_in, d_out = mask.n_cols, mask.n_rows
            extra = {
                "holdout_rmse": lambda W, t=test: diagnostics.holdout_rmse(W, t),
                "holdout_rel_error": lambda W, t=test: diagnostics.holdout_relative_error(W, t),
            }
        else:
            M, U, s, V, op, y = _synthetic_problem(cfg, seed)
            d_in = d_out = cfg.d
            extra = None
        eta = effective_eta(cfg, op.m)
        top_k = min(cfg.resolved_top_k(), min(d_in, d_out))

        if cfg.wants("wide"):
            key = f"wide/seed_{seed}"
            try:
                model = init_wide(
                    d_in, cfg.L, InitSpec(cfg.eps, cfg.init_mode), make_rng(seed, 2), d_out=d_out
                )
                tc = TrainConfig(eta=eta, alpha=1.0, iters=cfg.T, log_every=cfg.log_every,
                                 stop_tol=cfg.stop_tol, seed=seed, top_k=top_k)
                trained, log = train_wide(model, op, y, tc, probe=M,
                                          track_spectral=cfg.track_spectral,
                                          extra_metrics=extra)
                dest = _seed_dir(out, "wide", seed)
                rows = _spectral_diag_rows(cfg, log, U, V)
                _write_logs(dest, log, cfg.problem, seed, rows)
                _archive_measurements(dest, op, y)
                if cfg.save_models:
                    save_model(dest / "checkpoint", trained,
                               extra={"eps": cfg.eps, "mode": cfg.init_mode, "seed": seed})
                result.logs[key] = log
                result.statuses[key] = "ok"
            except DivergenceError as exc:
                result.statuses[key] = f"diverged@{exc.iteration}"
            say(f"{key}: {result.statuses[key]}")

        if cfg.wants("compressed"):
            key = f"compressed/seed_{seed}"
            try:
                t0 = time.perf_counter()
                surr = op.surrogate(y)
                model = init_compressed(
                    d_in, cfg.L, cfg.r_hat,
                    InitSpec(cfg.eps, "spectral", surrogate=surr), d_out=d_out,
                )
                svd_s = time.perf_counter() - t0
                tc = TrainConfig(eta=eta, alpha=cfg.alpha, iters=cfg.T, log_every=cfg.log_every,
                                 stop_tol=cfg.stop_tol, seed=seed, top_k=top_k)
                trained, log = train_compressed(model, op, y, tc, probe=M,
                                                track_spectral=cfg.track_spectral,
                                                extra_metrics=extra)
                log.svd_init_s = svd_s
                dest = _seed_dir(out, "compressed", seed)
                rows = _spectral_diag_rows(cfg, log, U, V)
                _write_logs(dest, log, cfg.problem, seed, rows)
                _archive_measurements(dest, op, y)
                if cfg.save_models:
                    save_model(dest / "checkpoint", trained,
                               extra={"eps": cfg.eps, "mode": "spectral", "seed": seed})
                if cfg.track_spectral > 0 and s is not None:
                    _write_incremental(dest, cfg, log, U, V, s)
                if cfg.oracle:
                    params = RecursionParams(L=cfg.L, eta=eta, eps=cfg.eps, sigma_star=s)
                    report = verify_against_training(
                        log, initial_state(params), cfg.r_hat
                    )
                    report.to_json(dest / "oracle.json")
                    result.statuses[key + "/oracle"] = "pass" if report.passed else "fail"
                result.logs[key] = log
                result.statuses[key] = "ok"
            except DivergenceError as exc:
                result.statuses[key] = f"diverged@{exc.iteration}"
            say(f"{key}: {result.statuses[key]}")

        if cfg.wants("altmin") and cfg.problem in ("complete", "movielens"):
            key = f"altmin/seed_{seed}"
            try:
                surr = op.surrogate(y)
                _, log = altmin_complete(
                    op, y, cfg.r_hat, cfg.altmin_iters, seed,
                    surrogate=surr, probe=M, top_k=top_k, extra_metrics=extra,
                )
                _write_logs(_seed_dir(out, "altmin", seed), log, cfg.problem, seed)
                result.logs[key] = log
                result.statuses[key] = "ok"
            except DivergenceError as exc:
                result.statuses[key] = f"diverged@{exc.iteration}"
            say(f"{key}: {result.statuses[key]}")

    (out / "status.json").write_text(json.dumps(result.statuses, indent=2, sort_keys=True) + "\n")
    return result


def _spectral_diag_rows(cfg: ExperimentConfig, log: TrajectoryLog, U, V):
    if cfg.track_spectral <= 0 or U is None:
        return []
    r = min(cfg.track_spectral, cfg.r)
    st = diagnostics.alignment(log, U, V, r)
    rows = diagnostics.spectral_rows(st)
    for n in range(1, len(log.spectral)):
        prev, cur = log.spectral[n - 1], log.spectral[n]
        k = min(prev.U.shape[1], cur.U.shape[1], r)
        rows.append(
            (int(cur.t), "subspace_distance", None,
             diagnostics.subspace_distance(prev.U, cur.U, k))
        )
    return rows


def _write_incremental(dest: Path, cfg: ExperimentConfig, log: TrajectoryLog, U, V, s) -> None:
    r = min(cfg.track_spectral, cfg.r)
    st = diagnostics.alignment(log, U, V, r)
    fits = diagnostics.detect_incremental(st, s, diagnostics.IncrementalConfig(r=r))
    (dest / "incremental.json").write_text(
        json.dumps({"fit_iterations": fits}, sort_keys=True) + "\n"
    )


def iters_to_threshold(log: TrajectoryLog, threshold: float) -> int | None:
    for rec in log.records:
        if rec.recovery_error is not None and rec.recovery_error <= threshold:
            return rec.t
    return None


def ablate(cfg: ExperimentConfig, axis: str, values) -> Path:
    """Sweep exactly one axis over the given values; summary.csv per run."""
    if axis not in ABLATION_AXES:
        raise ConfigError("axis", f"must be one of {ABLATION_AXES}")
    validate_config(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    field_map = {"alpha": "alpha", "rhat": "r_hat", "depth": "L", "init": "init_mode"}
    rows = []
    for value in values:
        sub = replace(
            cfg,
            **{field_map[axis]: value},
            out_dir=str(out / f"{axis}_{value}"),
        )
        res = run(sub)
        for key, log in res.logs.items():
            model, seed_name = key.split("/")
            final = log.final()
            rows.append(
                [
                    axis,
                    value,
                    model,
                    seed_name.removeprefix("seed_"),
                    "" if final.recovery_error is None else repr(final.recovery_error),
                    _fmt_optional(iters_to_threshold(log, cfg.threshold)),
                    repr(log.train_seconds()),
                    repr(log.svd_init_s),
                ]
            )
        for key, status in res.statuses.items():
            if status != "ok" and not key.endswith("/oracle"):
                model, seed_name = key.split("/")
                rows.append([axis, value, model, seed_name.removeprefix("seed_"),
                             "", "", "", ""])
    header = ("axis,value,model,seed,final_recovery_error,"
              "iters_to_threshold,train_seconds,svd_init_seconds")
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return out


def _fmt_optional(v) -> str:
    return "" if v is None else str(v)
