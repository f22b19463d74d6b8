"""Random command lines and edited manifests through `cli.main`, in process:
every one must end in a documented exit code (0, 2, 3 or 4) with no traceback
on stderr."""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dln.cli import main
from dln.experiments import default_config, load_manifest

# every run stays tiny: d <= 8, T <= 3, one or two seeds; malformed values mixed in
COMMON = {
    "--r": ["1", "2", "9"],
    "--rhat": ["1", "3", "8", "0"],
    "--L": ["1", "2", "3"],
    "--eta": ["0.1", "1", "-1", "inf", "nan"],
    "--alpha": ["1", "2", "inf", "nan"],
    "--eps": ["1e-3", "0.5", "inf", "nan"],
    "--seeds": ["0", "0,1", "1,0", "0,a", "1,1", "", ",", "-1"],
    "--sigma": ["0.1", "0.1,0.05", "0.1,zz", "0.1,0", "-1", "0.1,inf"],
    "--sigma-range": ["0.02,0.05", "0.02:0.05", "0.1", "a,b", "0.05,0.02", "0,0.05"],
    "--model": ["all", "wide", "compressed", "altmin", "compressed,altmin",
                "altmin,wide", "wide,wide", "foo", "", "all,wide"],
    "--log-every": ["1", "2", "0"],
    "--track-spectral": ["0", "1", "2", "-1"],
    "--init": ["orthogonal", "uniform"],
    "--altmin-iters": ["1", "2", "0"],
}
EXTRA = {
    "factorize": {"--oracle": [None]},
    "sense": {"--m": ["1", "5", "30"]},
    "complete": {"--p": ["0.5", "1", "1e-5", "0"]},
    "oracle": {},
    "ablate": {"--problem": ["factorize", "complete"], "--p": ["0.5"], "--m": ["20"]},
}
# a valid tiny run for the pinned examples to break one field of
TINY_RUN = [("--d", "4"), ("--T", "2"), ("--r", "1"), ("--rhat", "2")]
CONFIG_LINES = ["d = abc", "d = 6", "seeds = 0,b", "model = compressed,altmin",
                "sigma_range = 0.1", "sigma_values = none", "init_mode = foo", "T = 2"]


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(EXTRA)))
    choices = {**COMMON, **EXTRA[command]}
    flags = draw(st.dictionaries(st.sampled_from(sorted(choices)), st.none(), max_size=6))
    pairs = [("--d", draw(st.sampled_from(["1", "4", "8", "0"]))),
             ("--T", draw(st.sampled_from(["1", "2", "3"])))]
    pairs += [(flag, draw(st.sampled_from(choices[flag]))) for flag in sorted(flags)]
    if command == "ablate":
        pairs.append(("--axis", draw(st.sampled_from(["alpha", "rhat", "depth", "init"]))))
        pairs.append(("--values", draw(st.sampled_from(
            ["1,2", "2,x", "2", "orthogonal", "uniform,foo", "", "0", "1,1.0", ","]))))
    config = draw(st.lists(st.sampled_from(CONFIG_LINES), max_size=2))
    return command, pairs, config


def _argv(command, pairs, out: Path) -> list[str]:
    argv = [command]
    for flag, value in pairs:
        argv += [flag] if value is None else [flag, value]
    return argv + ["--out", str(out)]


def _run_command(command, pairs, config) -> tuple[list[str], int, str, bool]:
    """Runs one command line, with ``config`` lines as its --config file; gives
    the argv, the exit code, stderr and whether --out exists afterwards."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = _argv(command, pairs, out)
        if config:
            path = Path(tmp) / "run.cfg"
            path.write_text("\n".join(config) + "\n")
            argv += ["--config", str(path)]
        code, err = _exit_code(argv)
        return argv, code, err, out.exists()


def _exit_code(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a flag value
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=60, deadline=None)
@given(command_lines())
@example(("factorize", [("--d", "4"), ("--T", "2"), ("--seeds", "0,a")], []))
@example(("factorize", [("--d", "4"), ("--T", "2"), ("--r", "2"), ("--sigma", "0.1,zz")], []))
@example(("factorize", [("--T", "2")], ["d = abc"]))
@example(("ablate", [("--d", "4"), ("--T", "2"), ("--axis", "rhat"), ("--values", "2,x")], []))
# fields the run reads only after writing its output: refused up front
@example(("factorize", [*TINY_RUN, ("--log-every", "0")], []))
@example(("complete", [*TINY_RUN, ("--p", "1"), ("--altmin-iters", "0")], []))
# values outside their field's domain: refused up front
@example(("factorize", [*TINY_RUN, ("--sigma-range", "0.05,0.02")], []))
@example(("factorize", [*TINY_RUN, ("--sigma-range", "0,0.05")], []))
@example(("factorize", [*TINY_RUN, ("--seeds", "-1")], []))
@example(("factorize", [("--d", "4"), ("--T", "2"), ("--r", "2"), ("--rhat", "2"),
                        ("--sigma", "0.1,inf")], []))
@example(("factorize", [*TINY_RUN, ("--eps", "inf")], []))
@example(("factorize", [*TINY_RUN, ("--eta", "inf")], []))
@example(("factorize", [*TINY_RUN, ("--track-spectral", "-3")], []))
def test_cli_exits_with_a_documented_code(case):
    argv, code, err, wrote = _run_command(*case)
    assert code in (0, 2, 3, 4), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    # a refused run leaves no output behind
    assert code not in (2, 4) or not wrote, (argv, code, err)


# settings that runs no longer carry, as a flag or a config-file line
@pytest.mark.parametrize("command,pairs,config", [
    ("factorize", [("--top-k", "3")], []),
    ("sense", [("--normalize-eta", None)], []),
    ("ablate", [("--threshold", "0.5"), ("--axis", "alpha"), ("--values", "1")], []),
    ("factorize", [], ["top_k = 3"]),
    ("factorize", [], ["stop_tol = 1e-6"]),
    ("sense", [], ["normalize_eta = true"]),
    ("factorize", [], ["threshold = 0.01"]),
], ids=["--top-k", "--normalize-eta", "--threshold", "top_k", "stop_tol", "normalize_eta",
        "threshold"])
def test_retired_setting_exits_two_and_writes_nothing(command, pairs, config):
    argv, code, err, wrote = _run_command(command, [*TINY_RUN, *pairs], config)
    assert code == 2, (argv, code, err)
    assert "Traceback" not in err and not wrote, (argv, err)


# manifests of tiny runs, edited: values of the wrong type, missing and extra
# keys, and truncated text
MANIFEST_BASES = {
    "factorize": dict(d=4, r=1, r_hat=2, T=2, log_every=1, sigma_values=(0.1,), seeds=(0,)),
    "complete": dict(d=6, r=1, r_hat=2, T=2, log_every=1, p=0.6, sigma_values=(0.1,),
                     seeds=(0,), altmin_iters=2),
}
WRONG_VALUES = ["abc", "", 1, 2.5, True, None, [], [1, 2], [0.5], {"x": 1}, -1, [-1],
                float("inf")]


@st.composite
def manifest_texts(draw):
    problem = draw(st.sampled_from(sorted(MANIFEST_BASES)))
    config = dataclasses.asdict(default_config(problem, **MANIFEST_BASES[problem]))
    keys = sorted(config)
    for key in draw(st.lists(st.sampled_from(keys), max_size=3, unique=True)):
        config[key] = draw(st.sampled_from(WRONG_VALUES))
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        config.pop(key, None)
    if draw(st.booleans()):
        config[draw(st.sampled_from(["extra", "rhat", "iters", "top_k", "threshold"]))] = 1
    payload = {"version": "0", "config": config, "environment": {"numpy": "0"}}
    for key in draw(st.lists(st.sampled_from(["version", "config", "environment"]),
                             max_size=1)):
        del payload[key]
    text = json.dumps(payload)
    if draw(st.booleans()):
        text = text[:draw(st.integers(0, len(text) - 1))]
    return problem, text


@settings(max_examples=60, deadline=None)
@given(manifest_texts())
@example(("factorize", '{"version": "0", "config": {"d": "abc"'))
def test_edited_manifest_exits_with_a_documented_code(case):
    problem, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "manifest.json"
        path.write_text(text)
        out = Path(tmp) / "out"
        code, err = _exit_code([problem, "--manifest", str(path), "--out", str(out)])
        assert code in (0, 2, 3, 4), (text, code, err)
        assert "Traceback" not in err, (text, err)
        assert code not in (2, 4) or not out.exists(), (text, code, err)


# what each retired setting held in every manifest written before it retired
RETIRED_AT = {"top_k": None, "stop_tol": None, "normalize_eta": None, "threshold": 0.01}


@pytest.mark.parametrize("key", sorted(RETIRED_AT))
def test_manifest_with_a_retired_key(tmp_path, key):
    cfg = default_config("factorize", out_dir=str(tmp_path / "run"), **MANIFEST_BASES["factorize"])
    config = {**dataclasses.asdict(cfg), **RETIRED_AT}
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"version": "0", "config": config}))
    assert load_manifest(path) == cfg
    assert _exit_code(["factorize", "--manifest", str(path), "--out", str(tmp_path / "a")]) \
        == (0, "")
    # at any other value the run cannot be reproduced
    path.write_text(json.dumps({"version": "0", "config": {**config, key: 3}}))
    code, err = _exit_code(["factorize", "--manifest", str(path), "--out", str(tmp_path / "b")])
    assert code == 2 and f"error: config field '{key}'" in err, err
    assert not (tmp_path / "b").exists()
