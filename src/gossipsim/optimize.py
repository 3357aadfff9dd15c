"""Decentralized SGD with pluggable averaging schemes.

Every round, each node takes a local stochastic gradient half-step and the
half-step matrix goes through one round of the gossip kernel
:class:`gossipsim.consensus.Gossip` (CHOCO-SGD is a local SGD step followed
by CHOCO-gossip).  The averaging scheme must preserve the column average
and contract the Lyapunov function ``Psi(X, Y) = ||X - Xbar||_F^2 +
||X - Y||_F^2`` of the iterates and public estimates ``Y`` (``X`` itself
for exact gossip) at some linear rate ``p in (0, 1]``:

* ``ExactAveraging`` -- ``exact`` gossip ``X+ = X ((1-gamma) I +
  gamma W)`` with ``p = gamma * delta``; at ``gamma = 1`` this is plain
  decentralized SGD (neighbors average the raw half-steps).
* ``TrackingAveraging`` -- ``tracking`` gossip (compressed corrections)
  with ``p = delta^2 * omega / 82``.  With identity compression and
  ``gamma = 1`` it reduces exactly to plain decentralized SGD.

Suboptimality is measured at the node average ``f(xbar) - f*`` -- a
simulator-only observable that is never fed back into node updates -- and
a weighted averaged iterate ``x_avg = (1/S_T) sum_t (a+t)^2 xbar_t`` is
maintained alongside.  ``f*`` is an input, ``SgdConfig.f_star``, resolved
before the run like the stepsizes (a ``harness.Plan`` takes it
from :func:`gossipsim.objectives.solve_reference`); ``run_optimization``
never solves for it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compression import CompressionSpec, Identity
from .consensus import DIVERGENCE_FACTOR, DivergenceError, Gossip, GossipScheme, RunConfig
from .consensus import _initial_iterates, _squared_error
from .objectives import Objective
from .records import OptimizeRecord
from .streams import tag_code
from .topology import GossipMatrix

_GRAD_TAG = tag_code("grad")

__all__ = [
    "TheoreticalSchedule",
    "PracticalSchedule",
    "theoretical_a",
    "ExactAveraging",
    "TrackingAveraging",
    "AVERAGING",
    "SgdConfig",
    "OptimizationResult",
    "sgd_round",
    "run_optimization",
]


@dataclass(frozen=True)
class TheoreticalSchedule:
    """``eta_t = 4 / (mu (a + t))`` with weight parameter ``a``."""

    mu: float
    a: float

    def __post_init__(self):
        _check_positive("mu", self.mu)
        _check_positive("a", self.a)

    def eta(self, t: int) -> float:
        return 4.0 / (self.mu * (self.a + t))


@dataclass(frozen=True)
class PracticalSchedule:
    """``eta_t = m * a / (t + b)``, the decaying schedule used in sweeps."""

    a: float
    b: float
    m: int

    def __post_init__(self):
        _check_positive("a", self.a)
        _check_positive("b", self.b)
        if self.m < 1:
            raise ValueError(f"schedule parameter m must be >= 1, got {self.m}")

    def eta(self, t: int) -> float:
        return self.m * self.a / (t + self.b)


Schedule = TheoreticalSchedule | PracticalSchedule


def _check_positive(name: str, value: float) -> None:
    if not 0.0 < value < math.inf:
        raise ValueError(f"schedule parameter {name} must be finite and > 0, got {value}")


def theoretical_a(objective: Objective, matrix: GossipMatrix,
                  compression: CompressionSpec) -> float:
    """The schedule parameter ``a = max(5/p, 16 L/mu)`` the theory asks of one
    run, at the tracking rate ``p = delta^2 omega / 82`` (so ``5/p =
    410/(delta^2 omega)``), with ``omega`` the run's operator's; exact
    averaging carries the identity, whose ``omega`` is 1."""
    mu, big_l = objective.constants()
    delta = matrix.delta
    omega = compression.omega(objective.dim)
    if min(mu, big_l, delta, omega) <= 0:
        raise ValueError("mu, L, delta and omega must be positive")
    return max(410.0 / (delta**2 * omega), 16.0 * big_l / mu)


class ExactAveraging(Gossip):
    """Full-precision neighbor averaging; ``gamma = 1`` is plain gossip.

    ``compression`` must be the identity operator, whose ``value_bits``
    sets the bit count.
    """

    def __init__(self, matrix: GossipMatrix, gamma: float,
                 compression: CompressionSpec = Identity(), seed: int = 0):
        super().__init__(GossipScheme.EXACT, matrix, gamma, compression, seed)


class TrackingAveraging(Gossip):
    """Compressed-correction averaging with public estimates ``Y = x_hat``
    and running aggregates ``S = Y @ W`` (kept incrementally)."""

    def __init__(self, matrix: GossipMatrix, gamma: float, compression: CompressionSpec,
                 seed: int = 0):
        super().__init__(GossipScheme.TRACKING, matrix, gamma, compression, seed)

    def apply(self, x_half, t):
        received, own, bits = self.exchange(x_half, t)
        # (x_half - gamma x_hat) + gamma s, the sum taken in either order:
        # Gossip.apply's x + gamma (s - x_hat) rounds differently, and the
        # sgd-logistic hashes in bench/golden.json pin this association.
        work = np.multiply(own, self.gamma, out=self._work)
        np.subtract(x_half, work, out=work)
        x_new = np.multiply(received, self.gamma, order="C")
        x_new += work
        return x_new, bits


# The gossip schemes SGD averages with, and the kernel each runs on.
AVERAGING = {GossipScheme.EXACT: ExactAveraging, GossipScheme.TRACKING: TrackingAveraging}


@dataclass(frozen=True, kw_only=True)
class SgdConfig(RunConfig):
    schedule: Schedule
    f_star: float  # the optimal value suboptimality is measured against
    averaging: str = "exact"  # a key of AVERAGING, by its value

    def __post_init__(self):
        if self.averaging not in AVERAGING:
            raise ValueError(f"unknown averaging {self.averaging!r}")
        self._check(GossipScheme(self.averaging))
        if not np.isfinite(self.f_star):
            raise ValueError(f"f_star must be finite, got {self.f_star}")
        # the sum of the averaging weights (a + s)^2 for s <= t, in closed form; a finite sum
        # bounds every weight.  A t past 1e300 overflows it all the same; past 1e308, no float.
        a, t = self.schedule.a, float(min(self.iters, 10**300))
        if not math.isfinite((t + 1) * a * a + a * t * (t + 1) + t * (t + 1) * (2 * t + 1) / 6):
            raise ValueError(f"schedule parameter a = {a} makes the averaging weights "
                             f"(a + t)^2 overflow by t = {self.iters}")
        if self.iters == 1 and a * a == 0:  # later weights (a + t)^2 >= 1 keep the sum positive
            raise ValueError(f"schedule parameter a = {a} makes the one averaging weight "
                             "a^2 underflow to 0")


@dataclass(frozen=True)
class OptimizationResult:
    records: list[OptimizeRecord]
    final_x: np.ndarray
    x_avg: np.ndarray
    avg_subopt: float
    s_total: float


def sgd_round(x: np.ndarray, objective: Objective, eta: float, averaging: Gossip,
              t: int) -> tuple[np.ndarray, np.ndarray]:
    """One decentralized SGD round: gradient half-step, then one gossip
    round.  Node i's gradient draws come from the kernel's ``(seed, i, t,
    "grad")`` stream, all of them before its first compress draw.  Returns
    the new iterates and payload bits per node."""
    grads = objective.stochastic_gradients(x, averaging.streams(t, _GRAD_TAG))
    return averaging.apply(x - eta * grads, t)


def run_optimization(
    config: SgdConfig, objective: Objective, initial_x: np.ndarray
) -> OptimizationResult:
    """Run decentralized SGD and track suboptimality of the node average.

    Records are taken at iteration entry every ``eval_every`` rounds and at
    the final iterate: ``f(xbar_t) - f*``, the consensus dispersion
    ``sum_i ||x_i - xbar_t||^2``, cumulative transmitted bits of completed
    rounds, and the stepsize ``eta_t``.
    """
    matrix = config.matrix
    x = _initial_iterates(initial_x, matrix.n)
    d = x.shape[0]
    if (objective.n_nodes, objective.dim) != (matrix.n, d):
        raise ValueError(
            f"objective has {objective.n_nodes} nodes and dimension {objective.dim}, "
            f"but the gossip matrix has {matrix.n} nodes and initial X dimension {d}"
        )

    scheme = AVERAGING[config.averaging](matrix, config.gamma, config.compression, config.seed)
    if isinstance(config.schedule, TheoreticalSchedule):
        needed = theoretical_a(objective, matrix, config.compression)
        if config.schedule.a < needed * (1.0 - 1e-9):
            warnings.warn(
                f"schedule parameter a = {config.schedule.a} is below the theoretical "
                f"requirement {needed:.6g}", stacklevel=2,
            )

    # running weighted average (1/S_T) sum_t (a + t)^2 xbar_t
    a = config.schedule.a
    weighted_sum = np.zeros(d)
    total = 0.0

    records: list[OptimizeRecord] = []
    bits = 0

    for t in range(config.iters + 1):
        final = t == config.iters
        xbar = x.sum(axis=1) / matrix.n  # what x.mean(axis=1) computes
        eta = config.schedule.eta(t)
        if final or t % config.eval_every == 0:
            subopt = objective.value(xbar) - config.f_star
            dispersion = _squared_error(x, xbar[:, None], scheme.work_like(x))
            records.append(OptimizeRecord(t, subopt, dispersion, bits, eta))
            limit = DIVERGENCE_FACTOR * max(abs(records[0].subopt), 1.0)
            if not np.isfinite(subopt) or abs(subopt) > limit:
                raise DivergenceError(t, subopt)
        if final:
            break
        w = (a + t) ** 2
        weighted_sum += w * xbar
        total += w
        x, payloads = sgd_round(x, objective, eta, scheme, t)
        bits += matrix.degree * int(payloads.sum())

    x_avg = weighted_sum / total
    return OptimizationResult(
        records=records,
        final_x=x,
        x_avg=x_avg,
        avg_subopt=objective.value(x_avg) - config.f_star,
        s_total=total,
    )
