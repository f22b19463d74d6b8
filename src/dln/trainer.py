"""Full-batch gradient descent for both network types, with structured logs.

Updates are synchronous: all layer gradients are computed from the same
iterate before any layer moves. The compressed network's outer layers can use
a discrepant rate alpha * eta while the intermediates use eta; alpha = 1
reduces to uniform-rate descent.

Logged wall-clock is training-only: the timer pauses around logging work
(extra forward passes, SVDs for the tracked spectrum), so per-iteration cost
comparisons between models are not polluted by the logging cadence. Timing is
serialized separately (``timing.csv``) so the deterministic trajectory files
are byte-identical across reruns.

The logged spectrum of a low-rank model (the compressed network, and the
alternating-minimization baseline, which logs through the same
:class:`Recorder`) comes from its factors: thin QR of the two sides of the
bottleneck and an r_hat x r_hat SVD (:func:`dln.linalg.chain_svd`), never a
full SVD of the d_out x d_in end-to-end matrix. The wide network has no
narrow width and keeps the full SVD.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ContractViolationError, DivergenceError
from .linalg import Matrix, chain_product, chain_svd
from .models import CompressedDLN, WideDLN, chain_gradients
from .operators import SensingOperator

LOSS_CAP = 1e12


@dataclass(frozen=True)
class TrainConfig:
    """Step sizes, budget, and logging cadence for one training run."""

    eta: float
    iters: int
    alpha: float = 1.0
    log_every: int = 1
    stop_tol: float | None = None
    seed: int = 0
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


@dataclass
class SpectralSnapshot:
    """Leading singular triplets of the end-to-end matrix at a logged iterate."""

    t: int
    U: Matrix
    s: np.ndarray
    V: Matrix


@dataclass
class TrajectoryLog:
    records: list[TrajectoryRecord] = field(default_factory=list)
    top_k: int = 0
    spectral: list[SpectralSnapshot] = field(default_factory=list)
    svd_init_s: float = 0.0
    extras: dict[str, list[float]] = field(default_factory=dict)

    def ts(self) -> np.ndarray:
        return np.array([r.t for r in self.records], dtype=np.int64)

    def losses(self) -> np.ndarray:
        return np.array([r.train_loss for r in self.records])

    def recovery(self) -> np.ndarray:
        return np.array(
            [np.nan if r.recovery_error is None else r.recovery_error for r in self.records]
        )

    def sval_matrix(self) -> np.ndarray:
        return np.vstack([r.svals for r in self.records])

    def final(self) -> TrajectoryRecord:
        return self.records[-1]

    def train_seconds(self) -> float:
        return self.records[-1].elapsed_s

    def seconds_per_iter(self) -> float:
        last = self.records[-1]
        if last.t == 0:
            return 0.0
        return last.elapsed_s / last.t

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
        lines = ["t,elapsed_s"]
        for r in self.records:
            lines.append(f"{r.t},{r.elapsed_s!r}")
        Path(path).write_text("\n".join(lines) + "\n")

    def write_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            for r in self.records:
                fh.write(
                    json.dumps(
                        {
                            "t": r.t,
                            "train_loss": r.train_loss,
                            "recovery_error": r.recovery_error,
                            "svals": [float(v) for v in r.svals],
                            "elapsed_s": r.elapsed_s,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


class Recorder:
    """Logs one iterate of a layer chain (``layers[0]`` applied first).

    Shared by the gradient trainers and the alternating-minimization baseline.
    Each call evaluates the end-to-end matrix once and appends the train loss,
    the recovery error against ``probe``, the top-k spectrum, a spectral
    snapshot of ``track_spectral`` triplets and the extra metrics to ``log``.
    The spectrum comes from :func:`chain_svd`, so a chain with a bottleneck is
    decomposed through its factors. A non-finite loss raises
    :class:`DivergenceError` before anything is logged. ``layers`` is read at
    every call: callers update its matrices in place.
    """

    def __init__(
        self,
        layers: list[Matrix],
        op: SensingOperator,
        y: np.ndarray,
        top_k: int,
        probe: Matrix | None = None,
        track_spectral: int = 0,
        extra_metrics: dict[str, Callable[[Matrix], float]] | None = None,
    ):
        self.layers, self.op, self.y = layers, op, y
        self.probe, self.track_spectral = probe, track_spectral
        self.extra_metrics = extra_metrics or {}
        self.log = TrajectoryLog(top_k=top_k)
        self.log.extras = {name: [] for name in self.extra_metrics}
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
        if not np.isfinite(lo):
            raise DivergenceError(t, lo)
        svals = chain_svd(layers, log.top_k, product=W)
        rec = None
        if self.probe is not None:
            rec = float(np.linalg.norm(W - self.probe)) / self.probe_norm
        log.records.append(TrajectoryRecord(t, lo, rec, svals, elapsed))
        if self.track_spectral > 0:
            f = chain_svd(layers, self.track_spectral, compute_uv=True, product=W)
            log.spectral.append(SpectralSnapshot(t, f.U, f.s, f.V))
        for name, fn in self.extra_metrics.items():
            log.extras[name].append(float(fn(W)))


def _train(
    layers: list[Matrix],
    rates: list[float],
    op: SensingOperator,
    y: np.ndarray,
    cfg: TrainConfig,
    probe: Matrix | None,
    track_spectral: int,
    extra_metrics: dict[str, Callable[[Matrix], float]] | None,
) -> TrajectoryLog:
    record = Recorder(layers, op, y, cfg.top_k, probe, track_spectral, extra_metrics)
    log = record.log

    record(0, 0.0)
    if cfg.stop_tol is not None and log.records[0].train_loss <= cfg.stop_tol:
        return log

    train_time = 0.0
    last_logged = 0
    work = [None] * (len(layers) + 1)  # chain_gradients' buffers, kept across steps
    for t in range(1, cfg.iters + 1):
        t0 = time.perf_counter()
        grads, prev_loss = chain_gradients(layers, op, y, work)
        if not np.isfinite(prev_loss) or prev_loss > LOSS_CAP:
            raise DivergenceError(t - 1, prev_loss)
        if cfg.stop_tol is not None and prev_loss <= cfg.stop_tol:
            # the pre-step iterate already meets the target; keep it
            if last_logged != t - 1:
                record(t - 1, train_time)
            return log
        for w, rate, g in zip(layers, rates, grads):
            w -= rate * g
        train_time += time.perf_counter() - t0
        if t % cfg.log_every == 0 or t == cfg.iters:
            record(t, train_time)
            last_logged = t
    return log


def train_wide(
    model: WideDLN,
    op: SensingOperator,
    y: np.ndarray,
    cfg: TrainConfig,
    probe: Matrix | None = None,
    track_spectral: int = 0,
    extra_metrics: dict[str, Callable[[Matrix], float]] | None = None,
) -> tuple[WideDLN, TrajectoryLog]:
    """Uniform-rate descent on a wide network; the input model is not mutated."""
    layers = [w.copy() for w in model.layers]
    rates = [cfg.eta] * len(layers)
    log = _train(layers, rates, op, y, cfg, probe, track_spectral, extra_metrics)
    return WideDLN(layers), log


def train_compressed(
    model: CompressedDLN,
    op: SensingOperator,
    y: np.ndarray,
    cfg: TrainConfig,
    probe: Matrix | None = None,
    track_spectral: int = 0,
    extra_metrics: dict[str, Callable[[Matrix], float]] | None = None,
) -> tuple[CompressedDLN, TrajectoryLog]:
    """Descent with rate alpha*eta on the outer layers and eta on the rest."""
    layers = [w.copy() for w in model.layers]
    rates = [cfg.alpha * cfg.eta] + [cfg.eta] * (len(layers) - 2) + [cfg.alpha * cfg.eta]
    log = _train(layers, rates, op, y, cfg, probe, track_spectral, extra_metrics)
    trained = CompressedDLN(w_first=layers[0], mids=layers[1:-1], w_last=layers[-1])
    return trained, log
