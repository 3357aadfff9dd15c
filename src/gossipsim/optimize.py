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
maintained alongside.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .compression import CompressionSpec, Identity
from .consensus import DIVERGENCE_FACTOR, DivergenceError, Gossip, GossipScheme
from .objectives import Objective
from .records import OptimizeRecord
from .streams import StreamPool, tag_code
from .topology import GossipMatrix

_GRAD_TAG = tag_code("grad")

__all__ = [
    "TheoreticalSchedule",
    "PracticalSchedule",
    "theoretical_stepsize",
    "theoretical_a",
    "blackbox_stepsize_requirement",
    "ExactAveraging",
    "TrackingAveraging",
    "SgdConfig",
    "OptimizationResult",
    "sgd_round",
    "run_optimization",
]

THEORY_STEPSIZE_NUMERATOR = 410.0
THEORY_KAPPA_FACTOR = 16.0


@dataclass(frozen=True)
class TheoreticalSchedule:
    """``eta_t = 4 / (mu (a + t))`` with weight parameter ``a``."""

    mu: float
    a: float

    def eta(self, t: int) -> float:
        return 4.0 / (self.mu * (self.a + t))


@dataclass(frozen=True)
class PracticalSchedule:
    """``eta_t = m * a / (t + b)``, the decaying schedule used in sweeps."""

    a: float
    b: float
    m: int

    def eta(self, t: int) -> float:
        return self.m * self.a / (t + self.b)


Schedule = TheoreticalSchedule | PracticalSchedule


def theoretical_stepsize(
    mu: float, big_l: float, delta: float, omega: float, t: int
) -> tuple[float, float]:
    """``(eta_t, a)`` with ``a = max(410/(delta^2 omega), 16 L/mu)``.

    This is the specialization of :func:`blackbox_stepsize_requirement` to
    the tracking averaging scheme, whose contraction parameter is
    ``p = delta^2 omega / 82`` (so ``5/p = 410/(delta^2 omega)``).
    """
    if min(mu, big_l, delta, omega) <= 0:
        raise ValueError("mu, L, delta and omega must be positive")
    a = max(THEORY_STEPSIZE_NUMERATOR / (delta**2 * omega), THEORY_KAPPA_FACTOR * big_l / mu)
    return 4.0 / (mu * (a + t)), a


def theoretical_a(objective: Objective, matrix: GossipMatrix, averaging: str,
                  compression: CompressionSpec) -> float:
    """The requirement ``a`` of :func:`theoretical_stepsize` for one run,
    with ``omega = 1`` for exact averaging."""
    mu, big_l = objective.constants()
    omega = compression.omega(objective.dim) if averaging == "tracking" else 1.0
    return theoretical_stepsize(mu, big_l, matrix.delta, omega, 0)[1]


def blackbox_stepsize_requirement(p: float, mu: float, big_l: float) -> float:
    """Smallest schedule parameter ``a = max(5/p, 16 L/mu)`` valid for any
    average-preserving scheme that contracts the Lyapunov function at rate p."""
    if min(p, mu, big_l) <= 0:
        raise ValueError("p, mu and L must be positive")
    return max(5.0 / p, THEORY_KAPPA_FACTOR * big_l / mu)


class ExactAveraging(Gossip):
    """Full-precision neighbor averaging; ``gamma = 1`` is plain gossip.

    ``compression`` only sets ``value_bits`` for the bit count.
    """

    def __init__(self, matrix: GossipMatrix, gamma: float = 1.0,
                 compression: CompressionSpec = Identity(), seed: int = 0):
        super().__init__(GossipScheme.EXACT, matrix, gamma, compression, seed)

    @property
    def p(self) -> float:
        return self.gamma * self.matrix.delta


class TrackingAveraging(Gossip):
    """Compressed-correction averaging with public estimates ``Y = x_hat``
    and running aggregates ``S = Y @ W`` (kept incrementally)."""

    def __init__(self, matrix: GossipMatrix, gamma: float, compression: CompressionSpec,
                 d: int, seed: int = 0):
        super().__init__(GossipScheme.TRACKING, matrix, gamma, compression, seed)
        self.omega = compression.omega(d)

    @property
    def p(self) -> float:
        return self.matrix.delta**2 * self.omega / 82.0

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


AveragingScheme = ExactAveraging | TrackingAveraging


@dataclass(frozen=True)
class SgdConfig:
    matrix: GossipMatrix
    schedule: Schedule
    averaging: str = "exact"  # exact | tracking
    gamma: float = 1.0
    compression: CompressionSpec = Identity()
    iters: int = 100
    seed: int = 0
    eval_every: int = 1
    f_star: float | None = None
    fstar_tol: float = 1e-10

    def __post_init__(self):
        if self.averaging not in ("exact", "tracking"):
            raise ValueError(f"unknown averaging {self.averaging!r}")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if not self.fstar_tol > 0:
            raise ValueError(f"fstar_tol must be > 0, got {self.fstar_tol}")


@dataclass(frozen=True)
class OptimizationResult:
    records: list[OptimizeRecord]
    final_x: np.ndarray
    x_avg: np.ndarray
    avg_subopt: float
    s_total: float
    f_star: float
    empirical_g: float


def sgd_round(
    x: np.ndarray,
    objective: Objective,
    eta: float,
    averaging: AveragingScheme,
    t: int,
    pool: StreamPool,
) -> tuple[np.ndarray, np.ndarray, float]:
    """One decentralized SGD round: gradient half-step, then one gossip
    round.  Node i's gradient draws come from the ``(averaging.seed, i, t,
    "grad")`` stream.  Returns the new iterates, payload bits per node and
    the largest gradient norm seen."""
    def rng_for(i):
        return pool.get(averaging.seed, node=i, round_=t, tag=_GRAD_TAG)

    grads = objective.stochastic_gradients(x, rng_for)
    # a correctly rounded square root is monotone, so it commutes with max
    max_grad = math.sqrt((grads * grads).sum(axis=0).max())
    x_half = x - eta * grads
    x_new, payloads = averaging.apply(x_half, t)
    if not np.isfinite(x_new).all():
        raise DivergenceError(t, float("inf"))
    return x_new, payloads, max_grad


def build_averaging(config: SgdConfig, d: int) -> AveragingScheme:
    if config.averaging == "exact":
        return ExactAveraging(config.matrix, config.gamma, config.compression, config.seed)
    return TrackingAveraging(config.matrix, config.gamma, config.compression, d, config.seed)


def _check_theory_precondition(config: SgdConfig, objective: Objective) -> None:
    if not isinstance(config.schedule, TheoreticalSchedule):
        return
    needed = theoretical_a(objective, config.matrix, config.averaging, config.compression)
    if config.schedule.a < needed * (1.0 - 1e-9):
        warnings.warn(
            f"schedule parameter a = {config.schedule.a} is below the theoretical "
            f"requirement {needed:.6g}", stacklevel=3,
        )


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
    if matrix.delta <= 0.0:
        raise ValueError("optimization requires a positive spectral gap")
    x = np.asarray(initial_x, dtype=float).copy()
    if x.ndim != 2 or x.shape[1] != matrix.n:
        raise ValueError(f"initial X must be d x {matrix.n}, got shape {x.shape}")
    d = x.shape[0]
    if (objective.n_nodes, objective.dim) != (matrix.n, d):
        raise ValueError(
            f"objective has {objective.n_nodes} nodes and dimension {objective.dim}, "
            f"but the gossip matrix has {matrix.n} nodes and initial X dimension {d}"
        )

    scheme = build_averaging(config, d)
    _check_theory_precondition(config, objective)
    f_star = config.f_star
    if f_star is None:
        from .objectives import solve_reference

        _, f_star = solve_reference(objective, config.fstar_tol)

    # running weighted average (1/S_T) sum_t (a + t)^2 xbar_t
    a = config.schedule.a
    weighted_sum = np.zeros(d)
    total = 0.0
    degrees = np.asarray(matrix.degrees)

    records: list[OptimizeRecord] = []
    bits = 0
    empirical_g = 0.0
    initial_subopt = None
    pool = StreamPool()

    for t in range(config.iters + 1):
        final = t == config.iters
        xbar = x.sum(axis=1) / matrix.n  # what x.mean(axis=1) computes
        if final or t % config.eval_every == 0:
            subopt = objective.value(xbar) - f_star
            dispersion = float(np.sum((x - xbar[:, None]) ** 2))
            eta = config.schedule.eta(t)
            records.append(OptimizeRecord(t, subopt, dispersion, bits, eta))
            if initial_subopt is None:
                initial_subopt = abs(subopt)
            elif abs(subopt) > DIVERGENCE_FACTOR * max(initial_subopt, 1.0):
                raise DivergenceError(t, subopt)
        if final:
            break
        w = (a + t) ** 2
        weighted_sum += w * xbar
        total += w
        eta = config.schedule.eta(t)
        x, payloads, g = sgd_round(x, objective, eta, scheme, t, pool)
        empirical_g = max(empirical_g, g)
        bits += int(np.dot(degrees, payloads))

    if total <= 0:
        raise ValueError("no iterates accumulated")
    x_avg = weighted_sum / total
    return OptimizationResult(
        records=records,
        final_x=x,
        x_avg=x_avg,
        avg_subopt=objective.value(x_avg) - f_star,
        s_total=total,
        f_star=f_star,
        empirical_g=empirical_g,
    )
