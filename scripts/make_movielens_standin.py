#!/usr/bin/env python3
"""Fabricate a synthetic ratings file in the tab-separated u.data layout.

Useful where the real MovieLens 100K download is unavailable: the file
exercises the identical parsing, splitting, and training pipeline at a
configurable scale. Standard output is the one config line that runs the
ratings recipe at the file's own shape, so

    python scripts/make_movielens_standin.py standin.data > standin.cfg
    dln movielens --data standin.data --config standin.cfg

trains all three models on the stand-in; the summary goes to stderr.
"""

import argparse
import sys

from dln.data import gen_ratings_standin


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("path", help="output file")
    ap.add_argument("--users", type=int, default=200)
    ap.add_argument("--items", type=int, default=350)
    ap.add_argument("--ratings", type=int, default=12000)
    ap.add_argument("--rank", type=int, default=14)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    shape = gen_ratings_standin(
        args.path, n_users=args.users, n_items=args.items,
        n_ratings=args.ratings, rank=args.rank, seed=args.seed,
    )
    print(f"wrote {args.ratings} ratings on a {shape[0]}x{shape[1]} grid to {args.path}",
          file=sys.stderr)
    print(f"movielens_shape = {shape[0]},{shape[1]}")


if __name__ == "__main__":
    main()
