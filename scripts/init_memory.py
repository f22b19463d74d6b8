#!/usr/bin/env python3
"""Peak memory and CPU time of the spectral inits at ratings shapes, and of
whole runs over one seed and over several.

    python scripts/init_memory.py [--out BENCH_init_memory.json]

For each shape, a synthetic ratings file from ``gen_ratings_standin`` is
written to a temporary directory: 943 x 1682 with 100,000 ratings
(MovieLens-100K's shape) and 6040 x 3706 with 1,000,209 (MovieLens-1M's).
Each case then runs once in a fresh subprocess with one BLAS thread:

- each init, ``init_compressed`` and ``altmin_init``, on each shape, on the
  80% train split of seed 0 at the ratings recipe's r_hat, L and eps, reading
  the surrogate through ``functools.partial(mask.surrogate, y)`` as ``dln``
  runs do;
- ``experiments.run`` on the ``sense`` recipe (d = 100, m = 2000, an 80 MB
  operator) with ``model=compressed``, ``T=5``, over seeds 0 and over 0,1,2;
- ``experiments.run`` on the ``movielens`` recipe at 943 x 1682 with
  ``model=wide``, ``T=2``, over seeds 0 and over 0,1.

A run that holds one seed's data and one model's layers at a time peaks at
the same size over one seed as over several.

The subprocess records ``ru_maxrss`` before the case's call
(``rss_before_mb``, after loading the split for an init) and after it
(``peak_rss_mb``), and the call's process CPU time (``cpu_s``). Sizes are
``ru_maxrss / 1024``, MiB, as perfbench's ``peak_rss_mb``. A fresh process
per case keeps each peak its own.

The JSON also holds the machine context: numpy, its BLAS build, the thread
settings and ``os.cpu_count()``. The 6040 x 3706 inits take about 12 s of
CPU each, the wide runs about 5 s per seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SHAPES = ((943, 1682, 100_000), (6040, 3706, 1_000_209))
INITS = ("init_compressed", "altmin_init")
# whole runs, as (recipe, overrides); movielens reads the first shape's file
RUNS = (("sense", {"model": "compressed", "T": 5, "seeds": [0]}),
        ("sense", {"model": "compressed", "T": 5, "seeds": [0, 1, 2]}),
        ("movielens", {"model": "wide", "T": 2, "seeds": [0]}),
        ("movielens", {"model": "wide", "T": 2, "seeds": [0, 1]}))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# Linux hands a parent's ru_maxrss on to the children it starts, so this
# process imports no numpy and writes each file in a child of its own
_WRITE = ("from dln.data import gen_ratings_standin; "
          "gen_ratings_standin({!r}, n_users={}, n_items={}, n_ratings={})")


def _maxrss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _init_case(path: str, init: str):
    """One init on the ratings file at ``path``: the call and its figures."""
    from dln.baselines import altmin_init
    from dln.data import load_movielens, split_ratings
    from dln.experiments import default_config
    from dln.models import init_compressed

    cfg = default_config("movielens")
    mask, y, _ = split_ratings(load_movielens(path), 0)
    surrogate = functools.partial(mask.surrogate, y)
    if init == "init_compressed":
        call = functools.partial(init_compressed, surrogate, cfg.L, cfg.r_hat, cfg.eps)
    else:
        call = functools.partial(altmin_init, surrogate, cfg.r_hat)
    return call, {"train_ratings": int(mask.m), "r_hat": cfg.r_hat}


def _run_case(recipe: str, overrides: dict, path: str | None, out_dir: str):
    """One ``experiments.run`` of ``recipe``: the call and its figures."""
    from dln.experiments import default_config, run

    data = {} if path is None else {"movielens_path": path}
    cfg = default_config(recipe, **{**overrides, "seeds": tuple(overrides["seeds"])},
                         **data, out_dir=out_dir)
    return functools.partial(run, cfg), {}


def measure(case: dict) -> dict:
    """One case in this process, and the process's environment."""
    from dln.experiments import _environment

    args = {k: v for k, v in case.items() if k not in ("kind", "shape")}
    call, figures = (_init_case if case["kind"] == "init" else _run_case)(**args)
    before = _maxrss_mb()
    t0 = time.process_time()
    call()
    cpu_s = time.process_time() - t0
    return {"rss_before_mb": round(before, 1), "peak_rss_mb": round(_maxrss_mb(), 1),
            "cpu_s": round(cpu_s, 3), **figures,
            "environment": {**_environment(), "cpu_count": os.cpu_count()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="BENCH_init_memory.json")
    ap.add_argument("--child", metavar="CASE", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        print(json.dumps(measure(json.loads(args.child))))
        return

    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    results, environment = [], None
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for n_users, n_items, n_ratings in SHAPES:
            path = Path(tmp) / f"standin_{n_users}x{n_items}.data"
            subprocess.run([sys.executable, "-c", _WRITE.format(str(path), n_users, n_items, n_ratings)],
                           env=env, check=True)
            files[n_users, n_items] = (str(path), n_ratings)
        cases = [{"kind": "init", "path": files[u, i][0], "shape": [u, i], "init": init}
                 for u, i, _ in SHAPES for init in INITS]
        shape = SHAPES[0][:2]  # the movielens runs' file
        cases += [{"kind": "run", "recipe": recipe, "overrides": overrides,
                   "path": files[shape][0] if recipe == "movielens" else None,
                   "shape": list(shape) if recipe == "movielens" else None,
                   "out_dir": str(Path(tmp) / f"run_{n}")}
                  for n, (recipe, overrides) in enumerate(RUNS)]
        for case in cases:
            out = subprocess.run(
                [sys.executable, __file__, "--child", json.dumps(case)],
                env=env, check=True, capture_output=True, text=True,
            ).stdout
            row = {k: v for k, v in case.items() if k not in ("path", "out_dir")}
            if case["shape"]:
                row["ratings"] = files[tuple(case["shape"])][1]
            row.update(json.loads(out))
            environment = row.pop("environment")
            print(json.dumps(row), file=sys.stderr)
            results.append(row)
    payload = {"environment": environment, "results": results}
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
