#!/usr/bin/env python3
"""Benchmark of the `dln` recipe path: ``python3 perfbench/run.py --workload W``.

Runs whole rounds of one workload through ``dln.experiments.run`` for about
``--seconds`` (no round starts that would end past it), checks every
(model, seed) training of every round, and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones (medians over rounds), with ``--trace 1`` the
per-layer ones from traced rounds, which alternate with untraced rounds so
that ``trace.overhead_s`` compares the two. README.md defines every metric.

BLAS runs on one thread: the variables below are set before numpy loads.
The `dln` source is taken from ``src/`` next to this directory; without it
the benchmark exits with code 2 and prints no result.
"""

import os

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "_out"
# set-up is timed in every round; workloads with fewer rounds than this time
# extra set-ups that stop at the first trainer call
SETUP_SAMPLES = 5


class SetupDone(Exception):
    """Raised in place of the first trainer call to time set-up alone."""


def _stop(*_args, **_kwargs):
    raise SetupDone


def machine_context(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with open("/proc/self/status") as fh:
        threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "process_threads": threads,
    }


def run_round(dln, workload, dest: Path, traced: bool) -> dict:
    """One round: its run calls, checks, figures; the run tree is removed."""
    E = dln.experiments
    tracer = tracing.Tracer()
    if traced:
        tracing.install_layers(tracer, dln)
    else:
        tracing.install_probe(tracer, E)
    statuses, logs = {}, {}
    try:
        for cfg in workload.configs(E, dest):
            res = E.run(cfg)
            statuses.update(res.statuses)
            logs.update(res.logs)
    except Exception:  # a crashed run fails every training of the round
        traceback.print_exc()
        shutil.rmtree(dest, ignore_errors=True)
        return {"failures": {k: "run raised" for k in workload.keys()}}
    finally:
        tracer.restore()
    failures = {}
    for key in workload.keys():
        status = statuses.get(key, "missing")
        if status != "ok":
            failures[key] = f"status {status}"
            continue
        try:
            workload.check(dest, key)
        except Exception as exc:  # noqa: BLE001 - every check error fails the training
            failures[key] = f"{type(exc).__name__}: {exc}"
    out = {"failures": failures, "spans": tracer.spans if traced else None}
    if not failures:
        out["summary"] = tracing.round_summary(tracer.spans, logs)
        if traced:
            layers = tracing.layer_metrics(tracer.spans, logs)
            layers["experiments.artefact_bytes"] = sum(
                f.stat().st_size for f in dest.rglob("*") if f.is_file())
            out["layers"] = layers
    shutil.rmtree(dest)
    return out


def time_setup(dln, workload, dest: Path) -> float:
    """Set-up CPU seconds of a round's run calls, each stopped at its first trainer."""
    E = dln.experiments
    saved = {fn: getattr(E, fn) for fn in tracing.TRAINERS}
    for fn in saved:
        setattr(E, fn, _stop)
    total = 0.0
    try:
        for cfg in workload.configs(E, dest):
            t0 = time.process_time()
            try:
                E.run(cfg)
            except SetupDone:
                total += time.process_time() - t0
            else:
                raise RuntimeError("run finished without calling a trainer")
    finally:
        for fn, original in saved.items():
            setattr(E, fn, original)
        shutil.rmtree(dest, ignore_errors=True)
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "dln" / "__init__.py").is_file():
        print(f"perfbench: no dln source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import dln.experiments

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "runs" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = workloads.make(args.workload, args.seed, work)
    context = machine_context(np)

    rounds, lengths, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    # traced: rounds 1, 3, ... traced; round 0 is an untraced warm-up kept
    # out of the overhead, which compares the traced rounds with rounds 2, 4, ...
    min_rounds = 3 if args.trace else 1
    # no round starts that would, at the median round length, end past --seconds
    while (len(rounds) < min_rounds
           or time.perf_counter() - start + statistics.median(lengths) <= args.seconds):
        traced = bool(args.trace) and len(rounds) % 2 == 1
        t0 = time.perf_counter()
        r = run_round(dln, workload, work / f"round_{len(rounds)}", traced)
        lengths.append(time.perf_counter() - t0)
        r["traced"] = traced
        rounds.append(r)
        attempted += len(workload.keys())
        failed += len(r["failures"])
        for key, why in r["failures"].items():
            print(f"FAILED {key} in round {len(rounds) - 1}: {why}", file=sys.stderr)

    def medians(group: list[dict], clock: str) -> dict:
        return {name: statistics.median(r["summary"][clock][name] for r in group)
                for name in group[0]["summary"][clock]}

    done = [r for r in rounds if "summary" in r]
    metrics, wall, setups = {}, {}, []
    if args.trace:
        traced = [r for r in done if r["traced"]]
        plain = [r for r in rounds[1:] if "summary" in r and not r["traced"]]
        if traced and plain:
            for name in traced[0]["layers"]:
                metrics[name] = statistics.median(r["layers"][name] for r in traced)
            metrics["trace.overhead_s"] = (medians(traced, "cpu")["run_cpu_s"]
                                           - medians(plain, "cpu")["run_cpu_s"])
        write_spans(OUT / "trace" / f"{args.workload}-seed{args.seed}.csv", rounds)
    elif done:
        setups = [r["summary"]["cpu"]["setup_s"] for r in done]
        while len(setups) < SETUP_SAMPLES:
            setups.append(time_setup(dln, workload, work / f"setup_{len(setups)}"))
        metrics = medians(done, "cpu")
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        wall = medians(done, "wall")
    units = unit_table()
    shaped = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    result = {"correct": failed == 0 and bool(metrics), "attempted": attempted,
              "failed": failed, "metrics": shaped}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  context=context, wall=wall, setup_samples=setups,
                  rounds=[{k: r[k] for k in ("traced", "failures", "summary", "layers") if k in r}
                          for r in rounds])
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work)
    print(json.dumps({"context": context}))
    print(json.dumps(result))
    return 0


def write_spans(path: Path, rounds: list[dict]) -> None:
    """Spans of the traced rounds as CSV: round, name, start, end, parent."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("round,name,start,end,parent\n")
        for k, r in enumerate(rounds):
            for name, start, end, parent, *_ in r.get("spans") or ():
                fh.write(f"{k},{name},{start!r},{end!r},{parent}\n")


def unit_table() -> dict:
    """Metric units, read from BENCHMARK.json next to this directory."""
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


if __name__ == "__main__":
    sys.exit(main())
