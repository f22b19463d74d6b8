"""Independent oracles for the training dynamics of spectrally-seeded nets.

Under full observation with spectral initialization, every layer of the
compressed network stays diagonal in the surrogate's singular frame at any
per-layer rates (alpha * eta outside, eta inside), so each (layer, component)
scalar follows one recursion: the top r components chase their targets while
the remaining r_hat - r ones decay. This module implements that recursion, a
checker that replays it against a real training log, the spectral lower bound
used to compare recovery errors, and the continuous-time (gradient-flow) limit
of the singular-value dynamics as an RK4 integrator sampled from time 0, all
components active (:func:`flow_series`) or activated in turn (:func:`gated_flow_series`).

None of this code shares state with the trainer: it recomputes trajectories
from scratch, which is what makes it usable as an oracle.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .diagnostics import settled_from
from .errors import ContractViolationError, DivergenceError, NumericalError
from .linalg import Matrix

if TYPE_CHECKING:  # annotation only: the oracles run no trainer code
    from .trainer import TrajectoryLog


@dataclass(frozen=True)
class RecursionParams:
    L: int
    eta: float
    eps: float
    sigma_star: np.ndarray  # descending targets for the top components
    alpha: float = 1.0  # rate multiplier of the first and last layers

    def __post_init__(self):
        s = np.asarray(self.sigma_star, dtype=np.float64).ravel()
        if self.L < 2:
            raise ContractViolationError("need depth >= 2")
        if not (self.eta > 0 and self.eps > 0 and self.alpha > 0):
            raise ContractViolationError("eta, eps and alpha must be positive")
        if s.size and np.any(np.diff(s) > 0):
            raise ContractViolationError("targets must be sorted descending")
        object.__setattr__(self, "sigma_star", s)

    @property
    def r(self) -> int:
        return self.sigma_star.size


@dataclass(frozen=True)
class RecursionState:
    """lam[l, i] is layer l's scalar for component i; column r is the untargeted tail."""

    lam: np.ndarray  # (L, r + 1)
    t: int
    params: RecursionParams


def initial_state(params: RecursionParams) -> RecursionState:
    return RecursionState(np.full((params.L, params.r + 1), params.eps), 0, params)


def recursion_step(state: RecursionState) -> RecursionState:
    """One exact, synchronous step of the diagonal training recursion:

    lam[l, i] <- lam[l, i] - eta_l * prod_{k != l} lam[k, i] * (prod_k lam[k, i] - target_i)

    with eta_l = alpha * eta on the first and last layers, eta on the others,
    and target 0 for the untargeted column."""
    p = state.params
    lam = state.lam
    rates = np.array([[p.alpha * p.eta]] + [[p.eta]] * (p.L - 2) + [[p.alpha * p.eta]])
    target = np.append(p.sigma_star, 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        others = np.stack([np.prod(np.delete(lam, l, axis=0), axis=0) for l in range(p.L)])
        new_lam = lam - rates * others * (np.prod(lam, axis=0) - target)
    if not np.all(np.isfinite(new_lam)):
        raise DivergenceError(state.t + 1, float(np.max(np.abs(lam))))
    return RecursionState(lam=new_lam, t=state.t + 1, params=p)


def implied_singular_values(state: RecursionState, r_hat: int) -> np.ndarray:
    """End-to-end spectrum the recursion predicts: each component's product
    over the layers, the untargeted one repeated r_hat - r times."""
    p = state.params
    if r_hat < p.r:
        raise ContractViolationError(f"r_hat {r_hat} smaller than tracked components {p.r}")
    s = np.prod(state.lam, axis=0)
    return np.concatenate([s[:-1], np.full(r_hat - p.r, s[-1])])


def stable_step_bound(sigma_max: float, L: int, alpha: float = 1.0) -> float:
    """Largest eta for which the converged recursion is locally stable.

    Linearizing the mixed-rate scalar dynamics at the fixed point gives the
    contraction factor 1 - eta * L * alpha^(2/L) * sigma^(2-2/L); this returns
    the eta where that factor hits -1. A heuristic for real runs, exact for
    the diagonal dynamics.
    """
    if sigma_max <= 0:
        raise ContractViolationError("sigma_max must be positive")
    return 2.0 / (L * alpha ** (2.0 / L) * sigma_max ** (2.0 - 2.0 / L))


# largest relative deviation from the recursion at which the oracle passes
ORACLE_TOL = 1e-6


@dataclass
class OracleReport:
    max_rel_dev: float
    first_fail_iter: int | None
    passed: bool
    tol: float

    def to_json(self, path: str | Path | None = None) -> str:
        payload = json.dumps(
            {
                "max_rel_dev": self.max_rel_dev,
                "first_fail_iter": self.first_fail_iter,
                "pass": self.passed,
                "tol": self.tol,
            },
            sort_keys=True,
        )
        if path is not None:
            Path(path).write_text(payload + "\n")
        return payload


def verify_against_training(
    log: TrajectoryLog, params: RecursionParams, r_hat: int
) -> OracleReport:
    """Replay the recursion from t = 0 against the logged singular values; the
    report fails at the first logged iterate off by more than ``ORACLE_TOL``.

    The log must come from a full-observation run of a spectrally-initialized
    compressed network trained with the rates of ``params``.
    Compares as many leading values as the log carries (at most r_hat).
    """
    if log.top_k > r_hat:
        raise ContractViolationError(
            f"log tracks {log.top_k} values but the recursion only implies {r_hat}"
        )
    if not log.records:
        raise ContractViolationError("empty trajectory")
    k = log.top_k
    max_dev = 0.0
    first_fail = None
    state = initial_state(params)
    for rec in log.records:
        while state.t < rec.t:
            state = recursion_step(state)
        expected = implied_singular_values(state, r_hat)[:k]
        dev = float(np.max(np.abs(rec.svals - expected) / expected))
        max_dev = max(max_dev, dev)
        if dev > ORACLE_TOL and first_fail is None:
            first_fail = rec.t
    return OracleReport(max_rel_dev=max_dev, first_fail_iter=first_fail,
                        passed=first_fail is None, tol=ORACLE_TOL)


def spectral_lower_bound(A: Matrix, B: Matrix) -> tuple[float, float]:
    """(||A-B||_F^2, ||sigma(A)-sigma(B)||^2); the first dominates the second."""
    if A.shape != B.shape:
        raise ContractViolationError(f"shape mismatch {A.shape} vs {B.shape}")
    lhs = float(np.sum((A - B) ** 2))
    sa = np.linalg.svd(A, compute_uv=False)
    sb = np.linalg.svd(B, compute_uv=False)
    rhs = float(np.sum((sa - sb) ** 2))
    return lhs, rhs


@dataclass(frozen=True)
class FlowParams:
    L: int
    sigma_star: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma_star, dtype=np.float64).ravel()
        if self.L < 2:
            raise ContractViolationError("need depth >= 2")
        object.__setattr__(self, "sigma_star", s)


@dataclass
class FlowSeries:
    """Flow trajectory sampled on a uniform time grid."""

    times: np.ndarray
    sigmas: np.ndarray  # (n_samples, k)
    params: FlowParams


# a flow component counts as fitted within this relative distance of its target
FIT_REL_TOL = 1e-2


def _flow_rhs(sigma: np.ndarray, params: FlowParams, active: np.ndarray | None) -> np.ndarray:
    s = np.maximum(sigma, 0.0)
    rhs = -params.L * s ** (2.0 - 2.0 / params.L) * (s - params.sigma_star)
    if active is not None:
        rhs = rhs * active
    return rhs


def _rk4_step(sigma: np.ndarray, dt: float, params: FlowParams,
              active: np.ndarray | None = None) -> np.ndarray:
    k1 = _flow_rhs(sigma, params, active)
    k2 = _flow_rhs(sigma + 0.5 * dt * k1, params, active)
    k3 = _flow_rhs(sigma + 0.5 * dt * k2, params, active)
    k4 = _flow_rhs(sigma + dt * k3, params, active)
    new = sigma + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.all(np.isfinite(new)):
        raise NumericalError("flow integration produced non-finite values")
    scale = max(float(np.max(params.sigma_star, initial=0.0)), float(np.max(sigma, initial=0.0)), 1.0)
    if np.any(new < -1e-9 * scale):
        raise NumericalError("flow integration stepped significantly below zero; reduce dt")
    return np.maximum(new, 0.0)


def _sampled_flow(params: FlowParams, sigma0, duration: float, dt: float,
                  sample_every: int, gate=None) -> FlowSeries:
    """RK4 flow sampled at time 0, every ``sample_every`` steps and at the end;
    ``gate`` maps sigma to the active-component mask (None: all active)."""
    sigma = np.array(sigma0, dtype=np.float64).ravel()
    if sigma.size != params.sigma_star.size or np.any(sigma < 0):
        raise ContractViolationError("need one nonnegative start value per target")
    if dt <= 0 or duration < 0 or sample_every < 1:
        raise ContractViolationError("need dt > 0, duration >= 0 and sample_every >= 1")
    steps = int(round(duration / dt))
    times, samples = [0.0], [sigma]
    for n in range(1, steps + 1):
        sigma = _rk4_step(sigma, dt, params, None if gate is None else gate(sigma))
        if n % sample_every == 0 or n == steps:
            times.append(n * dt)
            samples.append(sigma)
    return FlowSeries(np.array(times), np.vstack(samples), params)


def flow_series(params: FlowParams, sigma0, duration: float, dt: float,
                sample_every: int = 1) -> FlowSeries:
    """RK4 integration of sigma_i' = -L * sigma_i^(2-2/L) * (sigma_i - sigma*_i)
    from ``sigma0`` at time 0, every component active."""
    return _sampled_flow(params, sigma0, duration, dt, sample_every)


def gated_flow_series(params: FlowParams, sigma0, duration: float, dt: float,
                      sample_every: int = 1) -> FlowSeries:
    """Flow where component i is frozen until component i-1 has been fitted.

    Models the sequential (one component at a time) fitting pattern: a mode
    activates only once the previous mode sits within ``FIT_REL_TOL``
    (relative) of its target. Component 1 is active from the start.
    """
    target = params.sigma_star
    k = target.size
    active = np.zeros(k)
    if k:
        active[0] = 1.0

    def gate(sigma: np.ndarray) -> np.ndarray:
        fitted = np.abs(sigma - target) <= FIT_REL_TOL * np.abs(target)
        for i in range(1, k):
            if active[i] == 0.0 and active[i - 1] == 1.0 and fitted[i - 1]:
                active[i] = 1.0
        return active

    return _sampled_flow(params, sigma0, duration, dt, sample_every, gate)


def dominance_witness(flow_a: FlowSeries, flow_b: FlowSeries, tol: float = 1e-9) -> bool:
    """True iff flow B is at least as close to the targets as flow A, always.

    Both series must share the time grid and the targets. Checks
    |sigma_i^B - sigma*_i| <= |sigma_i^A - sigma*_i| + tol at every sample.
    """
    if flow_a.times.shape != flow_b.times.shape or not np.allclose(flow_a.times, flow_b.times):
        raise ContractViolationError("flow series are sampled on different time grids")
    if not np.array_equal(flow_a.params.sigma_star, flow_b.params.sigma_star):
        raise ContractViolationError("flow series have different targets")
    targets = flow_a.params.sigma_star
    dev_a = np.abs(flow_a.sigmas - targets)
    dev_b = np.abs(flow_b.sigmas - targets)
    return bool(np.all(dev_b <= dev_a + tol))


def fit_times(series: FlowSeries) -> list[float | None]:
    """First sampled time each component stays within FIT_REL_TOL of its target."""
    out: list[float | None] = []
    for i, s in enumerate(series.params.sigma_star):
        n = settled_from(np.abs(series.sigmas[:, i] - s) <= FIT_REL_TOL * abs(s))
        out.append(None if n is None else float(series.times[n]))
    return out
