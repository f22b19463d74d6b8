"""The benchmark's three workloads: their recipe configs, inputs and checks.

Each workload turns the benchmark seed into inputs, names the (model, seed)
trainings one round attempts, builds the `dln.experiments` configs of a round,
and checks a finished round with :mod:`checks`. Why each workload exists and
which layers it stresses is written in README.md.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

import checks

# factorize: ten values evenly spaced from 0.05 down to 0.02, the range of
# the factorize recipe, so the recipe's step size stays stable
FACTORIZE_SIGMA = tuple(float(v) for v in np.linspace(0.05, 0.02, 10))
# sense: three values inside the sense recipe's range (0.05, 0.08)
SENSE_SIGMA = (0.08, 0.065, 0.05)

RATINGS_SHAPE = (943, 1682)
RATINGS_COUNT = 100_000


def write_ratings(path: Path, seed: int) -> None:
    """A `u.data`-format file at the MovieLens-100K shape, drawn from ``seed``.

    100,000 distinct (user, item) cells uniform at random; rating =
    clip(round(3.5 + user bias + item bias + rank-3 interaction + noise), 1, 5)
    with biases N(0, 0.4^2) and N(0, 0.6^2), factor entries N(0, 1/3) and
    noise N(0, 0.4^2). Timestamps are the line number plus a constant.
    """
    n_users, n_items = RATINGS_SHAPE
    rank = 3
    rng = np.random.default_rng([seed, 0x52])
    bu = 0.4 * rng.standard_normal(n_users)
    bi = 0.6 * rng.standard_normal(n_items)
    gu = rng.standard_normal((n_users, rank)) / np.sqrt(rank)
    gi = rng.standard_normal((n_items, rank)) / np.sqrt(rank)
    cells = np.sort(rng.choice(n_users * n_items, size=RATINGS_COUNT, replace=False))
    u, i = np.divmod(cells, n_items)
    score = (3.5 + bu[u] + bi[i] + np.einsum("nk,nk->n", gu[u], gi[i])
             + 0.4 * rng.standard_normal(RATINGS_COUNT))
    rating = np.clip(np.rint(score), 1, 5).astype(np.int64)
    stamp = 880_000_000 + np.arange(RATINGS_COUNT)
    np.savetxt(path, np.column_stack([u + 1, i + 1, rating, stamp]), fmt="%d", delimiter="\t")


class Synthetic:
    """`factorize` or `sense`: wide and compressed nets on one explicit spectrum."""

    def __init__(self, problem: str, seeds: tuple[int, ...], sigma, **overrides):
        self.problem, self.seeds, self.sigma = problem, seeds, sigma
        self.overrides = dict(overrides, sigma_values=sigma, r=len(sigma))

    def keys(self) -> list[str]:
        return [f"{m}/seed_{s}" for s in self.seeds for m in ("wide", "compressed")]

    def configs(self, experiments, dest: Path) -> list:
        return [experiments.default_config(
            self.problem, model="all", seeds=self.seeds, save_models=True,
            out_dir=str(dest), **self.overrides,
        )]

    def check(self, dest: Path, key: str) -> None:
        model, seed_dir = key.split("/")
        wide = checks.read_trajectory(dest / "wide" / seed_dir / "trajectory.csv")
        if model == "wide":
            checks.check_loss_fell(wide)
            return
        run = dest / "compressed" / seed_dir
        W = checks.end_to_end(checks.read_checkpoint(run / "checkpoint"))
        checks.check_spectrum(W, self.sigma)
        checks.check_dominance(checks.read_trajectory(run / "trajectory.csv"), wide)


class Ratings:
    """Completion at the MovieLens-100K shape: compressed net plus ALS."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / "u.data"
        write_ratings(self.path, seed)
        self.table = checks.read_ratings(self.path, RATINGS_SHAPE)

    def keys(self) -> list[str]:
        return [f"compressed/seed_{self.seed}", f"altmin/seed_{self.seed}"]

    def configs(self, experiments, dest: Path) -> list:
        # `run` selects one model or all of them, so the two models take two
        # calls; eta = 2/m leaves the plateau near t=200 (the recipe's 0.5/m
        # is still on it at t=500)
        common = dict(movielens_path=str(self.path), seeds=(self.seed,), eta=2.0,
                      T=500, log_every=50, altmin_iters=15, save_models=True)
        return [experiments.default_config("movielens", model=model,
                                           out_dir=str(dest / model), **common)
                for model in ("compressed", "altmin")]

    def check(self, dest: Path, key: str) -> None:
        model, seed_dir = key.split("/")
        net = dest / "compressed" / "compressed" / seed_dir
        rows, cols = checks.read_mask(net / "mask.csv")
        run = dest / model / model / seed_dir
        traj = checks.read_trajectory(run / "trajectory.csv")
        logged = checks.final_logged_metric(run / "diagnostics.csv", "holdout_rmse")
        if model == "altmin":
            checks.check_completion_baseline(self.table, rows, cols, traj, logged)
            return
        W = checks.end_to_end(checks.read_checkpoint(net / "checkpoint"))
        checks.check_completion_net(W, self.table, rows, cols, traj, logged)


def make(name: str, seed: int, workdir: Path):
    if name == "factorize":
        # the factorize recipe's d, r, r_hat, L, step and length
        return Synthetic("factorize", (2 * seed, 2 * seed + 1), FACTORIZE_SIGMA)
    if name == "sense":
        # m=1800, not 900: at 900 the surrogate's noise (about 0.06 in spectral
        # norm) matches the spectrum, and about 1 seed in 10 starts misaligned
        # and is not recovered by T=1400; at 1800 none of 100 seeds was
        return Synthetic("sense", (seed,), SENSE_SIGMA, d=60, r_hat=6, m=1800)
    return Ratings(seed, workdir)


NAMES = ("factorize", "sense", "ratings")
