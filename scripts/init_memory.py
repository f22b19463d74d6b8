#!/usr/bin/env python3
"""Peak memory and CPU time of the spectral inits at ratings shapes.

    python scripts/init_memory.py [--out BENCH_init_memory.json]

For each shape, a synthetic ratings file from ``gen_ratings_standin`` is
written to a temporary directory: 943 x 1682 with 100,000 ratings
(MovieLens-100K's shape) and 6040 x 3706 with 1,000,209 (MovieLens-1M's).
Each init, ``init_compressed`` and ``altmin_init``, then runs once per shape
in a fresh subprocess with one BLAS thread, on the 80% train split of seed 0
at the ratings recipe's r_hat, L and eps, reading the surrogate through
``functools.partial(mask.surrogate, y)`` as ``dln`` runs do. The subprocess
records ``ru_maxrss`` after loading the split and before the init
(``rss_before_mb``) and after it (``peak_rss_mb``), and the init's process CPU
time (``cpu_s``). Sizes are ``ru_maxrss / 1024``, MiB, as perfbench's
``peak_rss_mb``. A fresh process per init keeps each peak its own.

The JSON also holds the machine context: numpy, its BLAS build, the thread
settings and ``os.cpu_count()``. The 6040 x 3706 inits take about 12 s of
CPU each.
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
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


# Linux hands a parent's ru_maxrss on to the children it starts, so this
# process imports no numpy and writes each file in a child of its own
_WRITE = ("from dln.data import gen_ratings_standin; "
          "gen_ratings_standin({!r}, n_users={}, n_items={}, n_ratings={})")


def _maxrss_mb() -> float:
    # ru_maxrss is in kilobytes on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(path: str, n_users: int, n_items: int, init: str) -> dict:
    """One init on the ratings file at ``path``, in this process, and the
    process's environment."""
    from dln.baselines import altmin_init
    from dln.data import load_movielens, split_ratings
    from dln.experiments import _environment, default_config
    from dln.models import init_compressed

    cfg = default_config("movielens")
    mask, y, _ = split_ratings(load_movielens(path, (n_users, n_items)), cfg.train_frac, 0)
    surrogate = functools.partial(mask.surrogate, y)
    if init == "init_compressed":
        run = functools.partial(init_compressed, surrogate, cfg.L, cfg.r_hat, cfg.eps)
    else:
        run = functools.partial(altmin_init, surrogate, cfg.r_hat)
    before = _maxrss_mb()
    t0 = time.process_time()
    run()
    cpu_s = time.process_time() - t0
    return {"rss_before_mb": round(before, 1), "peak_rss_mb": round(_maxrss_mb(), 1),
            "cpu_s": round(cpu_s, 3), "train_ratings": int(mask.m), "r_hat": cfg.r_hat,
            "environment": {**_environment(), "cpu_count": os.cpu_count()}}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--out", default="BENCH_init_memory.json")
    ap.add_argument("--child", nargs=4, metavar=("PATH", "USERS", "ITEMS", "INIT"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        path, users, items, init = args.child
        print(json.dumps(measure(path, int(users), int(items), init)))
        return

    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1")}
    results, environment = [], None
    with tempfile.TemporaryDirectory() as tmp:
        for n_users, n_items, n_ratings in SHAPES:
            path = Path(tmp) / f"standin_{n_users}x{n_items}.data"
            subprocess.run([sys.executable, "-c", _WRITE.format(str(path), n_users, n_items, n_ratings)],
                           env=env, check=True)
            for init in INITS:
                out = subprocess.run(
                    [sys.executable, __file__, "--child", str(path), str(n_users),
                     str(n_items), init],
                    env=env, check=True, capture_output=True, text=True,
                ).stdout
                row = {"shape": [n_users, n_items], "ratings": n_ratings, "init": init,
                       **json.loads(out)}
                environment = row.pop("environment")
                print(json.dumps(row), file=sys.stderr)
                results.append(row)
            path.unlink()
    payload = {"environment": environment, "results": results}
    Path(args.out).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
