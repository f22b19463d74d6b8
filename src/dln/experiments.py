"""Experiment recipes: problem setup, training, and artifact writing.

Each run resolves an :class:`ExperimentConfig` into seeded problems, trains
the requested models, and writes a self-describing output tree::

    out_dir/
      manifest.json            resolved config, package version, numpy and BLAS
                               build, BLAS thread settings (re-runnable)
      status.json              one status per (model, seed): ok, diverged@<t> or
                               oracle_fail@<t>; rewritten after each one
      <model>/seed_<k>/
        trajectory.csv         deterministic per-iterate metrics
        timing.csv             cumulative training-only wall-clock
        diagnostics.csv        tidy (experiment, seed, t, metric, component);
                               ratings: held-out rows over the split's hold-out mask
        oracle.json            recursion-oracle report (when requested)
        incremental.json       per-component fit iterations (each net, when tracked)

Random streams are split by purpose: (seed, 0) target, (seed, 1) operator or
mask, (seed, 2) wide init, (seed, 4) ratings split, which trains on a fixed
``data.TRAIN_FRAC`` (80%) of the file and holds out the rest. Tag 3 is unused:
the ALS baseline starts from the surrogate, like the compressed network.

Step-size normalization: the training loss is always the raw half squared
residual, so the problems whose measurement count stacks many observations of
the same entries (Gaussian sensing, ratings data) divide the nominal step size
by the measurement count (:func:`effective_eta`). Full-observation and
completion problems use it as is.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import __version__, diagnostics
from .baselines import altmin_complete
from .data import (
    ARRAY_BUDGET_BYTES,
    SyntheticSpec,
    TRAIN_FRAC,
    can_split,
    dense_bytes,
    gaussian_ops_bytes,
    gen_gaussian_ops,
    gen_lowrank,
    gen_mcar_mask,
    load_movielens,
    split_ratings,
)
from .errors import ConfigError, ContractViolationError, DivergenceError, ParseError
from .linalg import make_rng
from .models import INIT_MODES, init_compressed, init_wide, save_model
from .operators import CompletionMask, Identity, SensingOperator
from .theory import RecursionParams, verify_against_training
from .trainer import TrainConfig, TrajectoryLog, train_compressed, train_wide

PROBLEMS = ("factorize", "sense", "complete", "movielens")
# ablation axis -> the config field it sweeps
ABLATION_AXES = {"alpha": "alpha", "rhat": "r_hat", "depth": "L", "init": "init_mode"}
# recovery error that ablate's iters_to_threshold counts to
THRESHOLD = 1e-2
# config fields that runs no longer carry, with the one value every run that
# wrote them used; a manifest holding one at that value re-runs exactly
RETIRED_FIELDS = {"top_k": None, "stop_tol": None, "normalize_eta": None, "threshold": 0.01,
                  "train_frac": TRAIN_FRAC}


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str
    model: str = "all"  # "all" or a comma list of MODEL_TABLE names
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
    sigma_range: tuple[float, float] = (0.02, 0.05)
    sigma_values: tuple[float, ...] | None = None
    init_mode: str = "orthogonal"
    movielens_path: str = ""
    altmin_iters: int = 60
    track_spectral: int = 0
    oracle: bool = False
    save_models: bool = False
    out_dir: str = ""


# what each config field may hold, as (test, description), applied to each
# entry of a tuple and skipped for None; integers are compared as integers, so
# a seed of any size is checked exactly. `validate_config` adds `altmin_iters`
# (read only when ALS runs) and the rules that tie fields together.
FIELD_DOMAINS: dict[str, tuple[Callable[[object], bool], str]] = {
    "problem": (lambda v: v in PROBLEMS, f"one of {', '.join(PROBLEMS)}"),
    "init_mode": (lambda v: v in INIT_MODES, f"one of {', '.join(INIT_MODES)}"),
    **dict.fromkeys(("d", "r", "r_hat", "T", "m", "log_every"),
                    (lambda v: v >= 1, "at least 1")),
    "L": (lambda v: v >= 2, "at least 2"),
    # a seed names its run directory, seed_<k>, so it stays a 64-bit integer
    "seeds": (lambda v: 0 <= v < 2**64, "in 0..2**64 - 1"),
    "track_spectral": (lambda v: v >= 0, "at least 0"),
    **dict.fromkeys(("eps", "eta", "alpha", "sigma_values", "sigma_range"),
                    (lambda v: 0 < v < math.inf, "finite and positive")),
    "p": (lambda v: 0 < v <= 1, "in (0, 1]"),
}


# recipe defaults, one per subcommand, stable under the raw-residual loss and
# minutes long at desk scale; a recipe named after its problem omits `problem`
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
        altmin_iters=40, model="all",
    ),
    # the recursion oracle: spectrum kept in the monotone regime so the whole
    # window exercises the growth phase
    "oracle": dict(
        problem="factorize", model="compressed", d=50, r=5, r_hat=10, L=3,
        eps=1e-3, eta=1.0, alpha=1.0, T=1000, log_every=1,
        sigma_values=(0.2, 0.17, 0.14, 0.11, 0.08), oracle=True,
    ),
}


def default_config(recipe: str, **overrides) -> ExperimentConfig:
    if recipe not in RECIPES:
        raise ConfigError("problem", f"unknown recipe {recipe!r}")
    return ExperimentConfig(**{"problem": recipe, **RECIPES[recipe], **overrides})


def validate_config(cfg: ExperimentConfig) -> None:
    for name, (test, text) in FIELD_DOMAINS.items():
        value = getattr(cfg, name)
        for v in value if isinstance(value, tuple) else () if value is None else (value,):
            if not test(v):
                raise ConfigError(name, f"{v!r} is not {text}")
    models = resolve_models(cfg)
    if cfg.problem == "movielens":
        if not cfg.movielens_path:
            raise ConfigError("movielens_path", "ratings file path is required")
        if cfg.track_spectral > 0:
            raise ConfigError("track_spectral", "ratings have no synthetic target to align with")
    else:
        # before anything d x d is drawn, the complete mask pre-draw below too
        _check_budget("d", f"a {cfg.d}x{cfg.d} target", dense_bytes(cfg.d, cfg.d))
        for name in ("r", "r_hat"):
            if getattr(cfg, name) > cfg.d:
                raise ConfigError(name, f"must lie in 1..{cfg.d}")
        if cfg.sigma_values is not None and len(cfg.sigma_values) != cfg.r:
            raise ConfigError("sigma_values", f"got {len(cfg.sigma_values)} values for r={cfg.r}")
        if cfg.sigma_values is None and cfg.sigma_range[0] > cfg.sigma_range[1]:
            raise ConfigError("sigma_range", f"need lo <= hi, got {cfg.sigma_range}")
    if "altmin" in models and cfg.altmin_iters < 1:
        raise ConfigError("altmin_iters", "need at least one sweep")
    if not cfg.seeds or len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError("seeds", "need at least one seed, all distinct")
    if cfg.problem == "sense":
        _check_budget("m", "sensing operator", gaussian_ops_bytes(cfg.d, cfg.m))
    if cfg.oracle and (cfg.problem != "factorize" or "compressed" not in models):
        raise ConfigError("oracle", "oracle verification requires the factorize problem "
                                    "and the compressed model")
    if cfg.oracle and cfg.r_hat < cfg.r:
        raise ConfigError("r_hat", f"oracle verification needs r_hat >= r = {cfg.r}")
    if not cfg.out_dir:
        raise ConfigError("out_dir", "output directory is required")
    if cfg.problem == "complete":
        # each seed's mask is drawn again by the run; an empty draw is found
        # here, before anything is written
        for seed in cfg.seeds:
            try:
                gen_mcar_mask(cfg.d, cfg.p, seed)
            except ContractViolationError as exc:
                raise ConfigError("p", f"seed {seed}: {exc}") from exc


def _check_budget(field: str, what: str, need: int) -> None:
    if need > ARRAY_BUDGET_BYTES:
        raise ConfigError(field, f"{what} needs {need} bytes > budget {ARRAY_BUDGET_BYTES}")


def effective_eta(cfg: ExperimentConfig, m: int) -> float:
    return cfg.eta / m if cfg.problem in ("sense", "movielens") else cfg.eta


@dataclass
class RunResult:
    out_dir: Path
    statuses: dict[str, str] = field(default_factory=dict)
    logs: dict[str, TrajectoryLog] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(v == "ok" for v in self.statuses.values())


def field_rule(f: dataclasses.Field) -> tuple[type, bool, bool, bool]:
    """How a config field's annotation reads: its element type (bool, int,
    float or str), whether it may be None, whether it is a tuple, and whether
    that tuple is a pair. Flags, config files and manifests all go by it."""
    kind = f.type
    conv = (bool if kind.startswith("bool") else int if "int" in kind
            else float if "float" in kind else str)
    is_tuple = kind.startswith("tuple")
    return conv, kind.endswith("| None"), is_tuple, is_tuple and "..." not in kind


def _manifest_value(f: dataclasses.Field, value):
    """A manifest's JSON value for one config field, checked by ``field_rule``:
    an int stands for a float, a list for a tuple; anything else of the wrong
    type is a ConfigError."""
    conv, optional, is_tuple, pair = field_rule(f)
    if value is None and optional:
        return None

    def element(v):
        if conv is float and type(v) is int:
            return float(v)
        if type(v) is not conv:
            raise ConfigError(f.name, f"expected {conv.__name__} values in the manifest, "
                                      f"got {json.dumps(v)}")
        return v

    if not is_tuple:
        return element(value)
    if not isinstance(value, list) or (pair and len(value) != 2):
        want = "a list of two" if pair else "a list of"
        raise ConfigError(f.name, f"expected {want} {conv.__name__} values in the manifest, "
                                  f"got {json.dumps(value)}")
    return tuple(element(v) for v in value)


def _environment() -> dict:
    """What decides a run's bits besides its config: numpy, its BLAS build and
    the BLAS thread settings."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ.get(var)
                       for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def write_manifest(cfg: ExperimentConfig, out: Path) -> None:
    payload = {"version": __version__, "config": dataclasses.asdict(cfg),
               "environment": _environment()}
    (out / "manifest.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def load_manifest(path: str | Path) -> ExperimentConfig:
    """The config of a manifest written by :func:`write_manifest`; its other
    top-level keys (version, environment) are not read. A file that cannot be
    read or is not a manifest is a ParseError; a missing, unknown or mistyped
    config field is a ConfigError, as is a retired field at any value but the
    one in :data:`RETIRED_FIELDS`, which is dropped. So is a ratings
    manifest's ``movielens_shape`` at any value but the shape its file spans,
    which this reads; the field was never read on other problems."""
    try:
        payload = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read manifest {path}: {exc}") from None
    raw = payload.get("config") if isinstance(payload, dict) else None
    if not isinstance(raw, dict):
        raise ParseError(f"{path} is not a manifest: no 'config' object")
    for name, old in RETIRED_FIELDS.items():
        if name in raw and (value := raw.pop(name)) != old:
            raise ConfigError(name, f"retired field: only {json.dumps(old)} re-runs, "
                                    f"got {json.dumps(value)}")
    old_shape = raw.pop("movielens_shape", None)
    fields = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(raw) - set(fields)
    if unknown:
        raise ConfigError(sorted(unknown)[0], "unknown field in manifest")
    missing = set(fields) - set(raw)
    if missing:
        raise ConfigError(sorted(missing)[0], "missing from manifest")
    cfg = ExperimentConfig(**{name: _manifest_value(fields[name], v) for name, v in raw.items()})
    if old_shape is not None and cfg.problem == "movielens":
        ratings = load_movielens(cfg.movielens_path)
        shape = [ratings.n_users, ratings.n_items]
        if old_shape != shape:
            raise ConfigError("movielens_shape", f"retired field: only {json.dumps(shape)}, "
                                                 f"the shape its file spans, re-runs, got "
                                                 f"{json.dumps(old_shape)}")
    return cfg


def _archive_measurements(dest: Path, op, y) -> None:
    if isinstance(op, CompletionMask):
        op.save_csv(dest / "mask.csv")
        # np.savetxt(..., y, fmt="%.17g")'s bytes, 4096 lines per format call
        with open(dest / "train_values.csv", "w") as fh:
            for block in np.split(y, range(4096, y.size, 4096)):
                fh.write(("%.17g\n" * block.size) % tuple(block.tolist()))


def _write_logs(dest: Path, log: TrajectoryLog, experiment: str, seed: int, st) -> None:
    log.write_csv(dest / "trajectory.csv")
    log.write_timing_csv(dest / "timing.csv")
    rows = [] if st is None else diagnostics.spectral_rows(st)
    for name in log.final().extras:  # name-major: each metric's rows together
        rows += [(rec.t, name, None, rec.extras[name]) for rec in log.records]
    if rows:
        diagnostics.write_diagnostics_csv(dest / "diagnostics.csv", experiment, seed, rows)


@dataclass(frozen=True)
class _Problem:
    """One seed's measurements, training config, synthetic factors and ratings hold-out."""

    op: SensingOperator
    y: np.ndarray
    M: np.ndarray | None
    U: np.ndarray | None
    s: np.ndarray | None
    V: np.ndarray | None
    train: TrainConfig
    holdout: tuple[CompletionMask, np.ndarray] | None


def _seed_problem(cfg: ExperimentConfig, seed: int, ratings) -> _Problem:
    if cfg.problem == "movielens":
        op, y, holdout = split_ratings(ratings, seed)
        M = U = s = V = None
    else:
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
        y = op.apply(M)
        holdout = None
    train = TrainConfig(eta=effective_eta(cfg, op.m), alpha=cfg.alpha, iters=cfg.T,
                        log_every=cfg.log_every, top_k=cfg.r_hat)
    return _Problem(op, y, M, U, s, V, train, holdout)


# The fit functions name the initialisers and trainers through this module's
# globals, so a wrapper set on `dln.experiments` at run time is the one called.
def _fit_wide(cfg: ExperimentConfig, seed: int, pb: _Problem):
    d_out, d_in = pb.op.shape
    model = init_wide(d_in, cfg.L, cfg.eps, cfg.init_mode, make_rng(seed, 2), d_out=d_out)
    return train_wide(model, pb.op, pb.y, pb.train, probe=pb.M,
                      track_spectral=cfg.track_spectral, holdout=pb.holdout)


def _fit_compressed(cfg: ExperimentConfig, seed: int, pb: _Problem):
    # the init builds the dense surrogate each time it reads it, inside the
    # timer, and holds none once it returns, as `altmin_complete` does for ALS
    t0 = time.perf_counter()
    model = init_compressed(functools.partial(pb.op.surrogate, pb.y), cfg.L, cfg.r_hat, cfg.eps)
    svd_s = time.perf_counter() - t0
    trained, log = train_compressed(model, pb.op, pb.y, pb.train, probe=pb.M,
                                    track_spectral=cfg.track_spectral, holdout=pb.holdout)
    log.svd_init_s = svd_s
    return trained, log


def _finish_compressed(cfg: ExperimentConfig, pb: _Problem, log: TrajectoryLog,
                       dest: Path) -> str | None:
    if not cfg.oracle:
        return None
    params = RecursionParams(L=cfg.L, eta=pb.train.eta, eps=cfg.eps, sigma_star=pb.s,
                             alpha=cfg.alpha)
    report = verify_against_training(log, params, cfg.r_hat)
    report.to_json(dest / "oracle.json")
    return None if report.passed else f"oracle_fail@{report.first_fail_iter}"


def _fit_altmin(cfg: ExperimentConfig, seed: int, pb: _Problem):
    return altmin_complete(pb.op, pb.y, cfg.r_hat, cfg.altmin_iters, probe=pb.M,
                           holdout=pb.holdout)


class ModelEntry(NamedTuple):
    """One model of the comparison.

    ``fit(cfg, seed, problem)`` initialises and trains one seed and returns
    ``(trained, log)``. ``checkpoint(cfg)`` gives the fields a network's
    checkpoint manifest records besides its shape, eps and seed: its kind,
    its init mode and the compressed network's r_hat. It is None for the ALS
    baseline, which archives no measurements and saves no checkpoint.
    ``finish(cfg, problem, log, dest)`` checks a trained seed, writing its
    report under ``dest``, and returns the failing status that replaces
    ``ok``, or None when the check passes.
    """

    problems: tuple[str, ...]
    fit: Callable
    checkpoint: Callable[[ExperimentConfig], dict] | None
    finish: Callable | None = None


# models run in this order, whatever order a model list gives
MODEL_TABLE: dict[str, ModelEntry] = {
    "wide": ModelEntry(PROBLEMS, _fit_wide,
                       lambda cfg: {"kind": "wide", "mode": cfg.init_mode}),
    "compressed": ModelEntry(
        PROBLEMS, _fit_compressed,
        lambda cfg: {"kind": "compressed", "mode": "spectral", "r_hat": cfg.r_hat},
        _finish_compressed),
    "altmin": ModelEntry(("complete", "movielens"), _fit_altmin, None),
}


def resolve_models(cfg: ExperimentConfig) -> tuple[str, ...]:
    """The models ``cfg.model`` names, in table order: ``all`` is every model
    that serves the problem, otherwise a comma list of table names."""
    names = [n.strip() for n in cfg.model.split(",")]
    if names == ["all"]:
        return tuple(n for n, e in MODEL_TABLE.items() if cfg.problem in e.problems)
    if names == [""]:
        raise ConfigError("model", "empty model list")
    for n in names:
        if n not in MODEL_TABLE:
            raise ConfigError("model", f"unknown model {n!r}; expected 'all' or a comma "
                                       f"list of {', '.join(MODEL_TABLE)}")
        if names.count(n) > 1:
            raise ConfigError("model", f"model {n!r} is listed twice")
        if cfg.problem not in MODEL_TABLE[n].problems:
            raise ConfigError("model", f"model {n!r} does not serve the {cfg.problem} problem")
    return tuple(n for n in MODEL_TABLE if n in names)


def run(cfg: ExperimentConfig) -> RunResult:
    """Execute one experiment config; returns statuses keyed by model/seed."""
    validate_config(cfg)
    models = resolve_models(cfg)
    # a ratings file that does not parse, or that the config does not fit,
    # leaves no output directory behind
    ratings = load_movielens(cfg.movielens_path) if cfg.problem == "movielens" else None
    if ratings is not None:
        _check_ratings(cfg, ratings)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_manifest(cfg, out)
    result = RunResult(out_dir=out)

    for seed in cfg.seeds:
        pb = _seed_problem(cfg, seed, ratings)
        for name in models:
            entry = MODEL_TABLE[name]
            key = f"{name}/seed_{seed}"
            try:
                trained, log = entry.fit(cfg, seed, pb)
                dest = out / name / f"seed_{seed}"
                dest.mkdir(parents=True, exist_ok=True)
                st = _alignment(cfg, log, pb)
                _write_logs(dest, log, cfg.problem, seed, st)
                if st is not None:
                    fits = diagnostics.detect_incremental(st, pb.s)
                    (dest / "incremental.json").write_text(
                        json.dumps({"fit_iterations": fits}, sort_keys=True) + "\n")
                if entry.checkpoint is not None:
                    _archive_measurements(dest, pb.op, pb.y)
                    if cfg.save_models:
                        save_model(dest / "checkpoint", trained,
                                   extra={"eps": cfg.eps, "seed": seed, **entry.checkpoint(cfg)})
                del trained  # one model's layers at a time
                failed = entry.finish and entry.finish(cfg, pb, log, dest)
                result.logs[key] = log
                result.statuses[key] = failed or "ok"
            except DivergenceError as exc:
                result.statuses[key] = f"diverged@{exc.iteration}"
            # replaced whole after every (model, seed), so a crash leaves a valid file
            tmp = out / "status.json.tmp"
            tmp.write_text(json.dumps(result.statuses, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, out / "status.json")
        del pb  # one seed's operator and data at a time
    return result


def _check_ratings(cfg: ExperimentConfig, ratings) -> None:
    """What a ratings file decides: whether the fixed split can cut it, r_hat
    within the shape its ids span, and the wide net's layers within the array
    budget."""
    shape = (ratings.n_users, ratings.n_items)
    if not can_split(len(ratings)):
        raise ConfigError("movielens_path", f"{len(ratings)} ratings cannot be split into "
                                            "a train and a held-out set")
    if cfg.r_hat > min(shape):
        raise ConfigError("r_hat", f"must lie in 1..{min(shape)} for ratings of shape "
                                   f"{shape[0]}x{shape[1]}")
    if "wide" in resolve_models(cfg):
        _check_budget("model", f"the wide net at ratings of shape {shape[0]}x{shape[1]}",
                      dense_bytes(max(shape), max(shape)))


def _alignment(cfg: ExperimentConfig, log: TrajectoryLog, pb: _Problem):
    """The tracked spectrum's alignment with the synthetic target, or None (as
    for ALS, which tracks no spectrum). Its width, ``left_align.shape[1]``, is
    the number of tracked components."""
    if cfg.track_spectral <= 0 or log.final().spectrum is None:
        return None
    return diagnostics.alignment(log, pb.U, pb.V, min(cfg.track_spectral, cfg.r))


def iters_to_threshold(log: TrajectoryLog, threshold: float) -> int | None:
    for rec in log.records:
        if rec.recovery_error is not None and rec.recovery_error <= threshold:
            return rec.t
    return None


def ablate(cfg: ExperimentConfig, axis: str, values) -> RunResult:
    """Sweep exactly one axis over the given values into one summary.csv; the
    statuses of every run, keyed ``<axis>_<value>/<model>/seed_<k>``."""
    if axis not in ABLATION_AXES:
        raise ConfigError("axis", f"must be one of {tuple(ABLATION_AXES)}")
    swept = ABLATION_AXES[axis]
    # each value names its own run directory
    if not values or len(set(values)) != len(values):
        raise ConfigError(swept, f"need at least one value, all distinct; got {list(values)}")
    # only the swept configs run, so the base's own value of the field is not checked
    if not cfg.out_dir:
        raise ConfigError("out_dir", "output directory is required")
    out = Path(cfg.out_dir)
    subs = [replace(cfg, **{swept: value}, out_dir=str(out / f"{axis}_{value}"))
            for value in values]
    for sub in subs:
        validate_config(sub)
    if cfg.problem == "movielens":  # every swept config reads the one file
        ratings = load_movielens(cfg.movielens_path)
        for sub in subs:
            _check_ratings(sub, ratings)
        del ratings
    out.mkdir(parents=True, exist_ok=True)
    result, rows = RunResult(out_dir=out), []
    for value, sub in zip(values, subs):
        res = run(sub)
        for key, status in res.statuses.items():  # run order; a diverged run has no log
            result.statuses[f"{axis}_{value}/{key}"] = status
            log = res.logs.get(key)
            rows.append([axis, value, *key.split("/seed_"), status] + (
                [""] * 4 if log is None else [
                    _fmt_optional(log.final().recovery_error),
                    _fmt_optional(iters_to_threshold(log, THRESHOLD)),
                    repr(log.train_seconds()), repr(log.svd_init_s)]))
    header = ("axis,value,model,seed,status,final_recovery_error,"
              "iters_to_threshold,train_seconds,svd_init_seconds")
    lines = [header] + [",".join(str(c) for c in row) for row in rows]
    (out / "summary.csv").write_text("\n".join(lines) + "\n")
    return result


def _fmt_optional(v) -> str:
    return "" if v is None else str(v)
