"""Checks on what a recipe run wrote, computed apart from the `dln` package.

Nothing here imports `dln`: checkpoints are read from the documented `DLNM`
layout (magic, u64 rows, u64 cols, little-endian f64 row-major), logs from
their CSV headers, and every reference value (end-to-end product, losses,
held-out errors, spectra) is recomputed with numpy from the benchmark's own
inputs. Each check raises :class:`CheckFailed` with the reason.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

DLNM_MAGIC = b"DLNM"

# compressed top-r singular values must match the target spectrum to this
# relative error, and the trailing ones must stay below it times sigma_min;
# the benchmark's recipes reach about 1e-8 (factorize) and 1e-7 (sense), an
# untrained net is off by about 1
SPECTRUM_RTOL = 1e-4
# slack on "compressed recovery error <= wide recovery error", as in the
# repository's own dominance criteria
DOMINANCE_SLACK = 1e-9
# recomputed train loss and held-out RMSE against the logged values
LOG_RTOL = 1e-9
# ALS train loss may "rise" by this relative amount between sweeps (roundoff)
MONOTONE_RTOL = 1e-12


class CheckFailed(AssertionError):
    """A run's output disagrees with an independently computed value."""


def read_dlnm(path: str | Path) -> np.ndarray:
    raw = Path(path).read_bytes()
    if len(raw) < 20 or raw[:4] != DLNM_MAGIC:
        raise CheckFailed(f"{path}: not a DLNM matrix file")
    rows, cols = struct.unpack("<QQ", raw[4:20])
    if len(raw) != 20 + 8 * rows * cols:
        raise CheckFailed(f"{path}: payload does not hold {rows}x{cols} doubles")
    return np.frombuffer(raw, dtype="<f8", offset=20).reshape(rows, cols)


def read_checkpoint(dirpath: str | Path) -> list[np.ndarray]:
    files = sorted(Path(dirpath).glob("layer_*.dlnm"))
    if not files:
        raise CheckFailed(f"{dirpath}: no checkpoint layers")
    return [read_dlnm(f) for f in files]


def end_to_end(layers: list[np.ndarray]) -> np.ndarray:
    """Product of the chain; ``layers[0]`` is applied first."""
    prod = layers[0]
    for w in layers[1:]:
        if w.shape[1] != prod.shape[0]:
            raise CheckFailed(f"layer shapes {w.shape} and {prod.shape} do not compose")
        prod = w @ prod
    return prod


def read_trajectory(path: str | Path) -> dict[str, np.ndarray]:
    """Columns ``t``, ``train_loss`` and ``recovery_error`` (NaN when empty)."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise CheckFailed(f"{path}: no logged iterates")
    return {
        "t": np.array([int(r["t"]) for r in rows]),
        "train_loss": np.array([float(r["train_loss"]) for r in rows]),
        "recovery_error": np.array(
            [float(r["recovery_error"]) if r["recovery_error"] else np.nan for r in rows]
        ),
    }


def final_logged_metric(path: str | Path, metric: str) -> float:
    """Value of ``metric`` at the last logged iterate of a diagnostics.csv."""
    with open(path, newline="") as fh:
        hits = [(int(r["t"]), float(r["value"])) for r in csv.DictReader(fh)
                if r["metric"] == metric]
    if not hits:
        raise CheckFailed(f"{path}: no {metric} rows")
    return max(hits)[1]


def read_mask(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        if next(rdr) != ["row", "col"]:
            raise CheckFailed(f"{path}: unexpected mask header")
        pairs = np.array([[int(r), int(c)] for r, c in rdr], dtype=np.int64)
    return pairs[:, 0], pairs[:, 1]


def read_ratings(path: str | Path, shape: tuple[int, int]) -> np.ndarray:
    """Dense table of a `u.data` file (1-based ids), NaN where unrated."""
    raw = np.loadtxt(path, dtype=np.int64, delimiter="\t", ndmin=2)
    table = np.full(shape, np.nan)
    table[raw[:, 0] - 1, raw[:, 1] - 1] = raw[:, 2]
    return table


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_spectrum(W: np.ndarray, sigma, rtol: float = SPECTRUM_RTOL) -> None:
    """Top-r singular values equal ``sigma``; the rest are near zero."""
    sigma = np.sort(np.asarray(sigma, dtype=np.float64))[::-1]
    r = sigma.size
    s = np.linalg.svd(W, compute_uv=False)
    worst = float(np.max(np.abs(s[:r] - sigma) / sigma))
    if worst > rtol:
        raise CheckFailed(f"top-{r} singular values off the target by {worst:.3g} relative")
    tail = float(s[r]) if s.size > r else 0.0
    if tail > rtol * sigma[-1]:
        raise CheckFailed(f"singular value {r + 1} is {tail:.3g}, not near zero")


def check_dominance(compressed: dict, wide: dict, slack: float = DOMINANCE_SLACK) -> None:
    """Compressed recovery error <= wide at every logged iterate."""
    if not np.array_equal(compressed["t"], wide["t"]):
        raise CheckFailed("wide and compressed runs logged different iterates")
    rc, rw = compressed["recovery_error"], wide["recovery_error"]
    bad = np.flatnonzero(~(rc <= rw + slack))
    if bad.size:
        t = int(compressed["t"][bad[0]])
        raise CheckFailed(f"compressed recovery {rc[bad[0]]!r} > wide {rw[bad[0]]!r} at t={t}")


def check_loss_fell(traj: dict) -> None:
    lo = traj["train_loss"]
    if not lo[-1] < lo[0]:
        raise CheckFailed(f"train loss ended at {lo[-1]!r}, not below its initial {lo[0]!r}")


def check_monotone(traj: dict, rtol: float = MONOTONE_RTOL) -> None:
    lo = traj["train_loss"]
    rises = np.flatnonzero(lo[1:] > lo[:-1] * (1 + rtol))
    if rises.size:
        k = int(rises[0]) + 1
        raise CheckFailed(f"train loss rose from {lo[k - 1]!r} to {lo[k]!r} at t={traj['t'][k]}")


def completion_split(table: np.ndarray, rows: np.ndarray, cols: np.ndarray):
    """Train values in mask order, and the held-out (row, col, rating) arrays.

    The held-out set is every rated entry of the file that is not in the mask.
    """
    y = table[rows, cols]
    if np.isnan(y).any():
        raise CheckFailed("mask holds entries that the ratings file does not rate")
    held = ~np.isnan(table)
    held[rows, cols] = False
    hr, hc = np.nonzero(held)
    if hr.size == 0:
        raise CheckFailed("no held-out ratings left outside the mask")
    return y, (hr, hc, table[hr, hc])


def rmse(pred: np.ndarray, truth: np.ndarray) -> float:
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def check_completion_net(W, table, rows, cols, traj: dict, logged_rmse: float) -> None:
    """Final train loss and held-out RMSE of a network, recomputed."""
    y, (hr, hc, hv) = completion_split(table, rows, cols)
    res = W[rows, cols] - y
    loss = 0.5 * float(res @ res)
    if not _close(traj["train_loss"][-1], loss, LOG_RTOL):
        raise CheckFailed(f"logged final train loss {traj['train_loss'][-1]!r} != recomputed {loss!r}")
    got = rmse(W[hr, hc], hv)
    if not _close(logged_rmse, got, LOG_RTOL):
        raise CheckFailed(f"logged held-out RMSE {logged_rmse!r} != recomputed {got!r}")
    zero = rmse(np.zeros_like(hv), hv)
    if not got < 0.5 * zero:
        raise CheckFailed(f"held-out RMSE {got:.4g} not below half of predicting zero ({zero:.4g})")


def check_completion_baseline(table, rows, cols, traj: dict, logged_rmse: float) -> None:
    """ALS loss never rises; held-out RMSE beats the global-mean predictor."""
    check_monotone(traj)
    y, (_, _, hv) = completion_split(table, rows, cols)
    mean_rmse = rmse(np.full_like(hv, y.mean()), hv)
    if not logged_rmse < mean_rmse:
        raise CheckFailed(
            f"held-out RMSE {logged_rmse:.4g} not below the global mean's {mean_rmse:.4g}"
        )
