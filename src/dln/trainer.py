"""Full-batch gradient descent on a :class:`~dln.models.DLN`, with structured logs.

One loop, :func:`descend`, runs the wide and the compressed network's descent
and the ALS baseline's sweeps for a fixed number of steps. One descent body,
:func:`train_compressed`, runs both networks: the outer layers use a discrepant
rate alpha * eta and the intermediates eta. The wide network is its alpha = 1
case (:func:`train_wide`), whose rates are exactly eta on every layer. Gradient
updates are synchronous: all layer gradients come from the same iterate before
any layer moves. The trainers update the model they are handed in place and
return it; layers that share memory are refused.

Logged wall-clock is training-only: the timer pauses around logging work
(extra forward passes, SVDs for the tracked spectrum), so per-iteration cost
comparisons between models are not polluted by the logging cadence. Timing is
serialized separately (``timing.csv``) so the deterministic trajectory files
are byte-identical across reruns. A logged iterate is one
:class:`TrajectoryRecord`, which carries its tracked spectrum and, on ratings,
the held-out metrics of the hold-out mask :func:`dln.data.split_ratings` returns.

The logged spectrum of a low-rank model (the compressed network, and the
alternating-minimization baseline, which logs through the same
:class:`Recorder`) comes from its factors: thin QR of the two sides of the
bottleneck and an r_hat x r_hat SVD (:func:`dln.linalg.chain_svd`), never a
full SVD of the d_out x d_in end-to-end matrix. The wide network has no
narrow width and keeps the full SVD.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import diagnostics
from .errors import ContractViolationError, DivergenceError
from .linalg import Matrix, SvdResult, chain_product, chain_svd
from .models import DLN, chain_gradients
from .operators import SensingOperator

LOSS_CAP = 1e12


@dataclass(frozen=True)
class TrainConfig:
    """Step sizes, budget, and logging cadence for one training run."""

    eta: float
    iters: int
    alpha: float = 1.0
    log_every: int = 1
    top_k: int = 10

    def __post_init__(self):
        if not self.eta > 0:
            raise ContractViolationError("eta must be positive")
        if not self.alpha > 0:
            raise ContractViolationError("alpha must be positive")
        if self.iters < 1:
            raise ContractViolationError("need at least one iteration")
        if self.log_every < 1:
            raise ContractViolationError("log_every must be >= 1")
        if self.top_k < 1:
            raise ContractViolationError("top_k must be >= 1")


@dataclass
class TrajectoryRecord:
    t: int
    train_loss: float
    recovery_error: float | None
    svals: np.ndarray
    elapsed_s: float
    spectrum: SvdResult | None = None  # tracked triplets, or None when the run tracks none
    extras: dict[str, float] = field(default_factory=dict)  # held-out metrics by name


@dataclass
class TrajectoryLog:
    records: list[TrajectoryRecord] = field(default_factory=list)
    top_k: int = 0
    svd_init_s: float = 0.0

    def ts(self) -> np.ndarray:
        return np.array([r.t for r in self.records], dtype=np.int64)

    def losses(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.records])

    def recovery(self) -> np.ndarray:
        return np.array(
            [np.nan if r.recovery_error is None else r.recovery_error for r in self.records]
        )

    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def train_seconds(self) -> float:
        return self.records[-1].elapsed_s

    def write_csv(self, path: str | Path) -> None:
        """Deterministic trajectory columns: t, train_loss, recovery_error, sv_1..sv_k."""
        cols = ["t", "train_loss", "recovery_error"] + [
            f"sv_{i + 1}" for i in range(self.top_k)
        ]
        lines = [",".join(cols)]
        for r in self.records:
            rec = "" if r.recovery_error is None else repr(r.recovery_error)
            vals = [str(r.t), repr(r.train_loss), rec] + [repr(float(v)) for v in r.svals]
            lines.append(",".join(vals))
        Path(path).write_text("\n".join(lines) + "\n")

    def write_timing_csv(self, path: str | Path) -> None:
        lines = ["t,elapsed_s"] + [f"{r.t},{r.elapsed_s!r}" for r in self.records]
        Path(path).write_text("\n".join(lines) + "\n")


class Recorder:
    """Logs one iterate of a layer chain (``layers[0]`` applied first).

    Shared by the gradient trainers and the alternating-minimization baseline.
    Each call evaluates the end-to-end matrix once and appends one
    :class:`TrajectoryRecord` to ``log``: the train loss, the recovery error
    against ``probe``, the top-k spectrum, ``track_spectral`` singular
    triplets and, given ``holdout=(mask, values)`` that fits ``op``, the
    held-out RMSE and relative error of one residual ``mask.apply(W) - values``.
    The spectrum comes from :func:`chain_svd`, so a chain with a bottleneck is
    decomposed through its factors. A loss that is not finite or exceeds
    ``LOSS_CAP`` raises :class:`DivergenceError` before anything is logged.
    ``layers`` is read at every call: the trainers update the layers of the
    model they are handed in place, and those must not share memory.
    """

    def __init__(
        self,
        layers: list[Matrix],
        op: SensingOperator,
        y: np.ndarray,
        top_k: int,
        probe: Matrix | None = None,
        track_spectral: int = 0,
        holdout: tuple[SensingOperator, np.ndarray] | None = None,
    ):
        self.layers, self.op, self.y = layers, op, y
        self.probe, self.track_spectral, self.holdout = probe, track_spectral, holdout
        if holdout is not None and (holdout[0].shape != op.shape
                                    or np.size(holdout[1]) != holdout[0].m):
            raise ContractViolationError(
                f"a {holdout[0].shape} hold-out of {holdout[0].m} entries and "
                f"{np.size(holdout[1])} values does not fit a {op.shape} operator")
        self.log = TrajectoryLog(top_k=top_k)
        self.probe_norm = None
        if probe is not None:
            self.probe_norm = float(np.linalg.norm(probe))
            if self.probe_norm == 0.0:
                raise ContractViolationError("probe target must be nonzero")

    def __call__(self, t: int, elapsed: float) -> None:
        log, layers = self.log, self.layers
        W = chain_product(layers)
        res = self.op.apply(W) - self.y
        lo = 0.5 * float(res @ res)
        if not lo <= LOSS_CAP:
            raise DivergenceError(t, lo)
        svals = chain_svd(layers, log.top_k, product=W)
        rec = None
        if self.probe is not None:
            rec = float(np.linalg.norm(W - self.probe)) / self.probe_norm
        spectrum = (chain_svd(layers, self.track_spectral, compute_uv=True, product=W)
                    if self.track_spectral > 0 else None)
        extras = {}
        if self.holdout is not None:
            mask, values = self.holdout
            held = mask.apply(W) - values
            extras = {"holdout_rmse": diagnostics.holdout_rmse(held),
                      "holdout_rel_error": diagnostics.holdout_relative_error(held, values)}
        log.records.append(TrajectoryRecord(t, lo, rec, svals, elapsed, spectrum, extras))


def descend(record: Recorder, step: Callable[[int], None], iters: int,
            log_every: int) -> TrajectoryLog:
    """The training loop: ``step(t)`` moves the iterate from t - 1 to t, and
    ``record`` logs t = 0, every ``log_every``-th iterate and the last one,
    with the seconds spent in ``step`` so far.

    An iterate that overflows is reported by the loss guards as a
    :class:`DivergenceError`, so numpy's overflow and invalid-value warnings
    are off for the whole loop."""
    with np.errstate(over="ignore", invalid="ignore"):
        record(0, 0.0)
        train_time = 0.0
        for t in range(1, iters + 1):
            t0 = time.perf_counter()
            step(t)
            train_time += time.perf_counter() - t0
            if t % log_every == 0 or t == iters:
                record(t, train_time)
    return record.log


def train_compressed(
    model: DLN,
    op: SensingOperator,
    y: np.ndarray,
    cfg: TrainConfig,
    probe: Matrix | None = None,
    track_spectral: int = 0,
    holdout: tuple[SensingOperator, np.ndarray] | None = None,
) -> tuple[DLN, TrajectoryLog]:
    """Descent with rate alpha*eta on the outer layers and eta on the rest,
    in place on the layers of ``model``, which must not share memory; returns
    ``model``. ``holdout`` goes to the :class:`Recorder`."""
    layers = model.layers
    if any(np.shares_memory(a, b) for i, a in enumerate(layers) for b in layers[i + 1:]):
        raise ContractViolationError("model layers share memory; an update would hit it twice")
    rates = [cfg.eta] * len(layers)
    rates[0] = rates[-1] = cfg.alpha * cfg.eta

    def step(t: int) -> None:
        grads, prev_loss = chain_gradients(layers, op, y)
        if not prev_loss <= LOSS_CAP:
            raise DivergenceError(t - 1, prev_loss)
        for w, rate, g in zip(layers, rates, grads):
            # the gradients are fresh arrays: scaling one in place saves a
            # temporary the size of its layer and gives the bits of w -= rate * g
            np.multiply(g, rate, out=g)
            w -= g

    record = Recorder(layers, op, y, cfg.top_k, probe, track_spectral, holdout)
    return model, descend(record, step, cfg.iters, cfg.log_every)


def train_wide(
    model: DLN,
    op: SensingOperator,
    y: np.ndarray,
    cfg: TrainConfig,
    probe: Matrix | None = None,
    track_spectral: int = 0,
    holdout: tuple[SensingOperator, np.ndarray] | None = None,
) -> tuple[DLN, TrajectoryLog]:
    """Uniform-rate descent: :func:`train_compressed` at alpha = 1, whatever
    ``cfg.alpha`` holds; ``model`` is updated in place and returned."""
    return train_compressed(model, op, y, replace(cfg, alpha=1.0), probe, track_spectral,
                            holdout)
