"""Command-line experiment runner.

Subcommands: factorize, sense, complete, movielens, ablate, oracle. Each run
writes a manifest that fully reproduces it (`--manifest` re-runs one). A flat
`key = value` config file can seed any run; explicit flags win over the file.

Exit codes: 0 success, 2 config error (including a mistyped, missing or
unknown field in a manifest), 3 divergence, 4 I/O error (including a manifest
that cannot be read or is not JSON with a "config" object). The output
directory comes from --out, then the DLN_OUT_DIR environment variable, then
./dln_runs/<problem>.
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
    ablate,
    default_config,
    field_rule,
    load_manifest,
    oracle_config,
    run,
)
from .models import INIT_MODES

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3
EXIT_IO = 4

_FIELD_ALIASES = {"rhat": "r_hat", "iters": "T", "data": "movielens_path"}
_FIELDS = {f.name: f for f in dataclasses.fields(ExperimentConfig)}


def _parse_value(field: dataclasses.Field, raw: str):
    """One config value from its text form, for flags, config files and sweeps.

    The field's annotation picks the parse (:func:`field_rule`): a comma list
    for tuples ("lo,hi" or "lo:hi" for pairs), "none" or nothing for optional
    fields, and 1/true/yes/on for booleans. A value that does not parse is a
    ConfigError.
    """
    conv, optional, is_tuple, pair = field_rule(field)
    text = raw.strip()
    if optional and text.lower() in ("", "none"):
        return None
    if conv is bool:
        return text.lower() in ("1", "true", "yes", "on")
    if conv is str:
        return raw
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
    """Flat `key = value` file; '#' starts a comment; keys are config fields."""
    out = {}
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as exc:
        raise ParseError(f"cannot read config file: {exc}") from exc
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


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--manifest", help="manifest.json of a previous run to re-run")
    parser.add_argument("--out", help="output directory (falls back to $DLN_OUT_DIR)")
    parser.add_argument("--model", help="'all' (the default) or a comma list of "
                        "wide, compressed, altmin")
    parser.add_argument("--d", type=int)
    parser.add_argument("--r", type=int)
    parser.add_argument("--rhat", dest="r_hat", type=int)
    parser.add_argument("--L", type=int)
    parser.add_argument("--eps", type=float)
    parser.add_argument("--eta", type=float)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--T", type=int)
    parser.add_argument("--seeds", help="comma-separated seed list, e.g. 0,1,2")
    parser.add_argument("--log-every", dest="log_every", type=int)
    parser.add_argument("--top-k", dest="top_k", type=int)
    parser.add_argument("--sigma", dest="sigma_values",
                        help="explicit target spectrum, comma-separated")
    parser.add_argument("--sigma-range", dest="sigma_range", help="uniform spectrum range lo,hi")
    parser.add_argument("--init", dest="init_mode", choices=INIT_MODES)
    parser.add_argument("--track-spectral", dest="track_spectral", type=int)
    parser.add_argument("--altmin-iters", dest="altmin_iters", type=int)
    parser.add_argument("--normalize-eta", dest="normalize_eta", action="store_true",
                        default=None)
    parser.add_argument("--threshold", type=float)


def _overrides_from_args(args: argparse.Namespace) -> dict:
    out = {}
    for f in _FIELDS.values():
        # the problem comes from the subcommand and out_dir from --out
        val = getattr(args, f.name, None)
        if f.name in ("problem", "out_dir") or val is None:
            continue
        out[f.name] = _parse_value(f, val) if isinstance(val, str) else val
    return out


def _resolve_out(args: argparse.Namespace, problem: str) -> str:
    if getattr(args, "out", None):
        return args.out
    env = os.environ.get("DLN_OUT_DIR")
    if env:
        return str(Path(env) / problem)
    return str(Path("dln_runs") / problem)


def _build_config(args: argparse.Namespace, problem: str) -> ExperimentConfig:
    if args.manifest and args.config:
        raise ConfigError("config", "--config and --manifest are mutually exclusive")
    overrides = _overrides_from_args(args)
    if args.manifest:
        cfg = load_manifest(args.manifest)
        if cfg.problem != problem:
            raise ConfigError("problem", f"manifest is for {cfg.problem!r}, not {problem!r}")
        cfg = dataclasses.replace(cfg, **overrides)
    else:
        base = read_config_file(args.config) if args.config else {}
        base.update(overrides)
        if problem == "oracle-recipe":
            cfg = oracle_config(**base)
        else:
            cfg = default_config(problem, **base)
    if args.out or not cfg.out_dir:
        cfg = dataclasses.replace(cfg, out_dir=_resolve_out(args, cfg.problem))
    return cfg


def _print_status(result) -> None:
    width = max(len(k) for k in result.statuses)
    for key in sorted(result.statuses):
        print(f"  {key:<{width}}  {result.statuses[key]}")


def _cmd_problem(args: argparse.Namespace, problem: str) -> int:
    cfg = _build_config(args, problem)
    result = run(cfg, echo=None)
    print(f"wrote {result.out_dir}")
    _print_status(result)
    return EXIT_OK if result.ok else EXIT_DIVERGED


def _cmd_oracle(args: argparse.Namespace) -> int:
    cfg = _build_config(args, "oracle-recipe")
    result = run(cfg)
    _print_status(result)
    for key, v in sorted(result.statuses.items()):
        if key.endswith("/oracle"):
            print(f"oracle {key.split('/')[1]}: {'PASS' if v == 'pass' else 'FAIL'}")
    return EXIT_OK if result.ok else EXIT_DIVERGED


def _cmd_ablate(args: argparse.Namespace) -> int:
    problem = args.problem or "complete"
    cfg = _build_config(args, problem)
    field = _FIELDS[ABLATION_AXES[args.axis]]
    values = [_parse_value(field, v) for v in args.values.split(",") if v]
    out = ablate(cfg, args.axis, values)
    print(f"wrote {out / 'summary.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dln",
        description="Wide vs compressed deep linear network experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for problem in ("factorize", "sense", "complete"):
        p = sub.add_parser(problem, help=f"run the {problem} experiment")
        _add_common(p)
        if problem == "sense":
            p.add_argument("--m", type=int)
        if problem == "complete":
            p.add_argument("--p", type=float)
        if problem == "factorize":
            p.add_argument("--oracle", action="store_true", default=None,
                           help="verify the run against the scalar recursion")
        p.set_defaults(func=lambda a, prob=problem: _cmd_problem(a, prob))

    p = sub.add_parser("movielens", help="ratings-data completion experiment")
    _add_common(p)
    p.add_argument("--data", dest="movielens_path", help="path to the u.data ratings file")
    p.add_argument("--train-frac", dest="train_frac", type=float)
    p.set_defaults(func=lambda a: _cmd_problem(a, "movielens"))

    p = sub.add_parser("ablate", help="sweep one axis of an experiment")
    _add_common(p)
    p.add_argument("--problem", choices=["factorize", "sense", "complete"])
    p.add_argument("--axis", required=True, choices=list(ABLATION_AXES))
    p.add_argument("--values", required=True, help="comma-separated sweep values")
    p.add_argument("--p", type=float)
    p.add_argument("--m", type=int)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("oracle", help="train and check against the scalar recursion")
    _add_common(p)
    p.set_defaults(func=_cmd_oracle)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolationError, ResourceBudgetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
