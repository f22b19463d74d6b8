"""Command-line experiment runner.

Subcommands: factorize, sense, complete, movielens, ablate, oracle. Each one
starts from the recipe of its name (`ablate` from its `--problem`, default
complete), then a flat `key = value` config file or the manifest of an earlier
run of the same problem (`--manifest` re-runs one), then the flags. Flag
values, config files and ablation values are text read by one parser, so a
value that does not parse is a config error naming its field.

Each command prints one status per (model, seed): ok, diverged@<t> or
oracle_fail@<t>. Exit codes: 0 all ok, 2 config error (including a mistyped,
missing or unknown field in a manifest), 3 a (model, seed) diverged or failed
its oracle check, 4 I/O error (including a manifest that cannot be read or is
not JSON with a "config" object). The output directory comes from --out, then
$DLN_OUT_DIR/<subcommand>, then ./dln_runs/<subcommand>.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from pathlib import Path

from .errors import ConfigError, ContractViolationError, ParseError, ResourceBudgetError
from .experiments import (
    ABLATION_AXES,
    ExperimentConfig,
    RunResult,
    ablate,
    default_config,
    field_rule,
    load_manifest,
    run,
)
from .models import INIT_MODES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_FAILED = 3
EXIT_IO = 4

_FIELD_ALIASES = {"rhat": "r_hat", "iters": "T", "data": "movielens_path"}
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}
_BOOLEANS = {"1": True, "true": True, "yes": True, "on": True,
             "0": False, "false": False, "no": False, "off": False}


def _parse_value(field: dataclasses.Field, raw: str):
    """One config value from its text form, for flags, config files and sweeps.

    The field's annotation picks the parse (:func:`field_rule`): a comma list
    for tuples ("lo,hi" or "lo:hi" for pairs), "none" or nothing for optional
    fields, and 1/true/yes/on or 0/false/no/off, in any case, for booleans. A
    value that does not parse is a ConfigError.
    """
    conv, optional, is_tuple, pair = field_rule(field)
    text = raw.strip().lower()
    if optional and text in ("", "none"):
        return None
    if conv is bool:
        if text not in _BOOLEANS:
            raise ConfigError(field.name, f"{raw!r} is none of {', '.join(_BOOLEANS)}")
        return _BOOLEANS[text]
    if conv is str:
        return raw.strip()
    if pair:
        text = text.replace(":", ",")
    try:
        if not is_tuple:
            return conv(text)
        parts = tuple(conv(v) for v in text.split(",") if v)
    except ValueError as exc:
        raise ConfigError(field.name, f"cannot parse {raw!r}: {exc}") from None
    if pair and len(parts) != 2:
        raise ConfigError(field.name, "expected two values 'a,b'")
    return parts


def read_config_file(path: str | Path) -> dict:
    """Flat `key = value` UTF-8 file; '#' starts a comment; keys are config
    fields. A file that cannot be read or decoded is a ParseError."""
    out = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from None
    for no, line in enumerate(lines, start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError("config", f"line {no}: expected 'key = value'")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        key = _FIELD_ALIASES.get(key, key)
        if key not in _FIELDS:
            raise ConfigError(key, "unknown config field")
        out[key] = _parse_value(_FIELDS[key], raw)
    return out


# every config flag: its field and help text; each value is text that
# `_parse_value` reads, as a config file's would be
FLAGS: dict[str, tuple[str, str]] = {
    "--model": ("model", "'all' (the default) or a comma list of wide, compressed, altmin"),
    "--d": ("d", "dimension of the synthetic target"),
    "--r": ("r", "rank of the synthetic target"),
    "--rhat": ("r_hat", "width of the compressed network"),
    "--L": ("L", "depth"),
    "--eps": ("eps", "initial scale of each layer"),
    "--eta": ("eta", "step size"),
    "--alpha": ("alpha", "rate multiplier of the compressed net's outer layers"),
    "--T": ("T", "training iterations"),
    "--seeds": ("seeds", "comma-separated seed list, e.g. 0,1,2"),
    "--log-every": ("log_every", "iterations between logged iterates"),
    "--sigma": ("sigma_values", "explicit target spectrum, comma-separated"),
    "--sigma-range": ("sigma_range", "uniform spectrum range lo,hi"),
    "--init": ("init_mode", f"wide-net init: {', '.join(INIT_MODES)}"),
    "--track-spectral": ("track_spectral", "singular triplets tracked for diagnostics"),
    "--altmin-iters": ("altmin_iters", "ALS baseline sweeps"),
    "--oracle": ("oracle", "verify the run against the scalar recursion"),
    "--m": ("m", "Gaussian measurements"),
    "--p": ("p", "observation probability"),
    "--data": ("movielens_path", "path to the u.data ratings file"),
}
# subcommand -> help and the config flags only it takes
SUBCOMMANDS: dict[str, tuple[str, tuple[str, ...]]] = {
    "factorize": ("run the factorize experiment", ("--oracle",)),
    "sense": ("run the sense experiment", ("--m",)),
    "complete": ("run the complete experiment", ("--p",)),
    "movielens": ("ratings-data completion experiment", ("--data",)),
    "ablate": ("sweep one axis of an experiment", ("--p", "--m")),
    "oracle": ("train and check against the scalar recursion", ()),
}
COMMON = tuple(f for f in FLAGS if not any(f in extra for _, extra in SUBCOMMANDS.values()))


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """The config a command line names: its recipe, then a config file or a
    manifest that keeps the recipe's problem, then its flags. Without --out it
    writes to <subcommand> under $DLN_OUT_DIR, else under ./dln_runs."""
    if args.manifest and args.config:
        raise ConfigError("config", "--config and --manifest are mutually exclusive")
    recipe = default_config(args.recipe)
    overrides = {field: _parse_value(_FIELDS[field], raw) for field, _ in FLAGS.values()
                 if (raw := getattr(args, field, None)) is not None}
    if args.manifest:
        cfg = dataclasses.replace(load_manifest(args.manifest), **overrides)
    else:
        base = read_config_file(args.config) if args.config else {}
        cfg = dataclasses.replace(recipe, **{**base, **overrides})
    if cfg.problem != recipe.problem:
        raise ConfigError("problem", f"{args.command} runs {recipe.problem!r}, "
                                     f"not {cfg.problem!r}")
    if args.out or not cfg.out_dir:
        root = os.environ.get("DLN_OUT_DIR") or "dln_runs"
        cfg = dataclasses.replace(cfg, out_dir=args.out or str(Path(root) / args.command))
    return cfg


def _report(result: RunResult) -> int:
    """Prints the output directory and the status table; the exit code."""
    print(f"wrote {result.out_dir}")
    width = max(len(k) for k in result.statuses)
    for key in sorted(result.statuses):
        print(f"  {key:<{width}}  {result.statuses[key]}")
    return EXIT_OK if result.ok else EXIT_FAILED


def _cmd_run(args: argparse.Namespace) -> int:
    return _report(run(_build_config(args)))


def _cmd_ablate(args: argparse.Namespace) -> int:
    cfg = _build_config(args)
    field = _FIELDS[ABLATION_AXES[args.axis]]
    values = [_parse_value(field, v) for v in args.values.split(",") if v]
    return _report(ablate(cfg, args.axis, values))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dln", description="Wide vs compressed deep linear network experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, extra) in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--manifest", help="manifest.json of a previous run to re-run")
        p.add_argument("--out", help="output directory (default $DLN_OUT_DIR/<subcommand>, "
                       "else ./dln_runs/<subcommand>)")
        for flag in COMMON + extra:
            field, help_text = FLAGS[flag]
            is_bool = field_rule(_FIELDS[field])[0] is bool
            switch = dict(action="store_const", const="true") if is_bool else {}
            p.add_argument(flag, dest=field, help=help_text, **switch)
        p.set_defaults(func=_cmd_run, recipe=name)

    p = sub.choices["ablate"]
    p.add_argument("--problem", dest="recipe", choices=["factorize", "sense", "complete"],
                   help="recipe the sweep starts from (default complete)")
    p.add_argument("--axis", required=True, choices=list(ABLATION_AXES))
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.set_defaults(func=_cmd_ablate, recipe="complete")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolationError, ResourceBudgetError, ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO if isinstance(exc, (ParseError, OSError)) else EXIT_CONFIG


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
