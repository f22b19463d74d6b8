#!/usr/bin/env python3
"""Fabricate a synthetic ratings file in the tab-separated u.data layout.

Useful where the real MovieLens 100K download is unavailable: the file
exercises the identical parsing, splitting, and training pipeline at a
configurable scale. The ratings recipe reads the shape from the file, so

    python scripts/make_movielens_standin.py standin.data
    dln movielens --data standin.data

trains all three models on the stand-in; a summary goes to stderr.
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
    gen_ratings_standin(
        args.path, n_users=args.users, n_items=args.items,
        n_ratings=args.ratings, rank=args.rank, seed=args.seed,
    )
    print(f"wrote {args.ratings} ratings on a {args.users}x{args.items} grid to {args.path}",
          file=sys.stderr)


if __name__ == "__main__":
    main()
