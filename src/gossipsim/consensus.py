"""Gossip schemes for distributed average consensus.

All schemes iterate on a column matrix ``X in R^{d x n}`` (one column per
node) over a fixed mixing matrix ``W``:

* ``exact`` -- full-precision neighbor averaging,
  ``X <- X + gamma X (W - I)``.  Converges linearly at rate ``gamma*delta``.
* ``direct`` -- each node broadcasts a compressed copy of its iterate and
  receivers average it against their own raw state.  Does not preserve the
  average of the iterates, so it cannot reach the true consensus value.
* ``paired`` -- receivers difference two compressed copies, which preserves
  the average, but the compression noise does not vanish and the iterates
  stall (or diverge) at the noise floor.
* ``tracking`` -- every node maintains a public estimate of itself that all
  neighbors replicate, and broadcasts only the compressed correction
  ``q_i = Q(x_i - xhat_i)``.  Corrections shrink as consensus is reached,
  so the scheme converges linearly for any operator quality ``omega > 0``
  when run with the stepsize from :func:`tracking_stepsize`.

All four are one kernel, :class:`Gossip`: a round sends one message per
node and moves each iterate toward what it received,
``x <- x + gamma (received - own)``; the schemes differ only in what they
send and hold.  Decentralized SGD (:mod:`gossipsim.optimize`) drives the
same kernel after each local gradient step.

Each node draws one compressed message per round and delivers it
identically to all neighbors, so every replica of ``xhat_i`` stays equal
across the graph.  The round loop is single threaded and deterministic;
independent runs may execute in parallel with no shared state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .compression import CompressionSpec, Identity, RngFor, compress_columns
from .records import ConsensusRecord
from .streams import StreamPool, tag_code
from .topology import GossipMatrix

__all__ = [
    "GossipScheme",
    "RunConfig",
    "ConsensusConfig",
    "ConsensusResult",
    "DivergenceError",
    "Gossip",
    "tracking_stepsize",
    "run_consensus",
]

DIVERGENCE_FACTOR = 1e6
_COMPRESS_TAG = tag_code("compress")


class GossipScheme(str, enum.Enum):
    EXACT = "exact"
    DIRECT = "direct"
    PAIRED = "paired"
    TRACKING = "tracking"


class DivergenceError(RuntimeError):
    def __init__(self, iteration: int, value: float):
        super().__init__(f"run diverged at iteration {iteration} (error {value:.3e})")
        self.iteration = iteration
        self.value = value


@dataclass(frozen=True, kw_only=True)
class RunConfig:
    """What a consensus run and an SGD run share: the graph, the gossip
    stepsize and operator, the round count ``iters``, the seed and the
    evaluation cadence."""

    matrix: GossipMatrix
    gamma: float = 1.0
    compression: CompressionSpec = Identity()
    iters: int = 100
    seed: int = 0
    eval_every: int = 1

    def _check(self, scheme: GossipScheme) -> None:
        _check_gossip(scheme, self.gamma, self.compression)
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")


@dataclass(frozen=True, kw_only=True)
class ConsensusConfig(RunConfig):
    scheme: GossipScheme

    def __post_init__(self):
        self._check(self.scheme)


def _check_gossip(scheme: GossipScheme, gamma: float, compression: CompressionSpec) -> None:
    if not 0.0 < gamma <= 1.0:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if scheme == GossipScheme.EXACT and not isinstance(compression, Identity):
        raise ValueError(f"exact gossip takes the identity operator, got {compression}")
    if scheme in (GossipScheme.DIRECT, GossipScheme.PAIRED) and not compression.unbiased:
        raise ValueError(
            f"{scheme.value} gossip is only defined for unbiased compression "
            "(Identity or a naturally rescaled primitive)"
        )


@dataclass(frozen=True)
class ConsensusResult:
    records: list[ConsensusRecord]
    final_x: np.ndarray


def tracking_stepsize(delta: float, omega: float, beta: float) -> float:
    """Theoretical consensus stepsize for the tracking scheme.

    ``gamma = delta^2 omega / (16 delta + delta^2 + 4 beta^2
    + 2 delta beta^2 - 8 delta omega)``; always in (0, 1].
    """
    if not 0.0 < delta <= 1.0:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")
    if not 0.0 < omega <= 1.0:
        raise ValueError(f"omega must lie in (0, 1], got {omega}")
    if not 0.0 <= beta <= 2.0:
        raise ValueError(f"beta must lie in [0, 2], got {beta}")
    denom = 16 * delta + delta**2 + 4 * beta**2 + 2 * delta * beta**2 - 8 * delta * omega
    return delta**2 * omega / denom


class Gossip:
    """One gossip scheme's rounds over ``matrix``, with the tracking state.

    ``exchange(x, t)`` runs the communication of round ``t``: each node
    sends one message, node i's keyed to the ``(seed, i, t, "compress")``
    stream, and the method returns what every node received from its
    neighbors, what it holds for itself, and each node's payload bits.  The
    gossip step is ``x + gamma (received - own)``, with (received, own) =
    ``(x W, x)`` for exact, ``(Q(x) W, x)`` for direct, ``(Q(x) W, Q(x))``
    for paired and ``(s, x_hat)`` for tracking.

    Tracking advances the public estimates ``x_hat += Q(x - x_hat)`` and
    their aggregates ``s += Q(x - x_hat) W``, so ``s = x_hat W`` throughout;
    both start at zero and stay ``None`` for the other schemes.  Exact
    gossip sends its iterates uncompressed, so it takes only the identity
    operator and pays its ``d * value_bits`` per message.

    The kernel owns every ``d x n`` array a round touches, C-ordered and
    allocated on the first round: ``x_hat`` and ``s`` for tracking, one
    ``work`` array (:meth:`work_like`), and for the compressed schemes the
    message buffer and, if the operator is ``node_major``, its ``n x d``
    scratch.  The arrays that :meth:`exchange` and :meth:`messages` return
    -- the messages ``q``, ``x_hat``, ``s`` and ``received`` -- are these
    buffers: the next round overwrites them, so copy what must outlive it.
    """

    def __init__(self, scheme: GossipScheme, matrix: GossipMatrix, gamma: float,
                 compression: CompressionSpec = Identity(), seed: int = 0):
        self.scheme = GossipScheme(scheme)
        _check_gossip(self.scheme, gamma, compression)
        self.matrix = matrix
        self.gamma = gamma
        self.compression = compression
        self.seed = seed
        self.x_hat: np.ndarray | None = None
        self.s: np.ndarray | None = None
        self._work = self._q = self._scratch = None
        self._pool = StreamPool()

    def work_like(self, x: np.ndarray) -> np.ndarray:
        """The kernel's ``work`` array, shaped like ``x``; the rounds use it
        between their steps, so it holds nothing across them."""
        if self._work is None or self._work.shape != x.shape:
            self._work = np.empty(x.shape)
        return self._work

    def streams(self, t: int, tag: int) -> RngFor:
        """Round ``t``'s ``rng_for``: node i's generator for the ``(seed, i, t,
        tag)`` stream, from the kernel's one pool; consume each before the next."""
        return lambda i: self._pool.get(self.seed, node=i, round_=t, tag=tag)

    def messages(self, v: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Every node's round-``t`` message ``Q(v_i)``, in the message buffer,
        and its bits."""
        if self._q is None or self._q.shape != v.shape:
            self._q = np.empty(v.shape)
            self._scratch = np.empty(v.shape[::-1]) if self.compression.node_major else None
        return compress_columns(self.compression, v, self.streams(t, _COMPRESS_TAG),
                                self._q, self._scratch)

    def exchange(self, x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Round ``t``'s messages: ``(received, own, bits)``."""
        weights, work = self.matrix.weights, self.work_like(x)
        if self.scheme is GossipScheme.EXACT:
            bits = np.full(x.shape[1], self.compression.message_bits(x.shape[0]))
            return np.matmul(x, weights, out=work), x, bits
        if self.scheme is GossipScheme.TRACKING:
            if self.x_hat is None:
                self.x_hat, self.s = np.zeros(x.shape), np.zeros(x.shape)
            q, bits = self.messages(np.subtract(x, self.x_hat, out=work), t)
            self.x_hat += q
            self.s += np.matmul(q, weights, out=work)
            return self.s, self.x_hat, bits
        q, bits = self.messages(x, t)
        own = x if self.scheme is GossipScheme.DIRECT else q
        return np.matmul(q, weights, out=work), own, bits

    def move(self, received: np.ndarray, own: np.ndarray) -> np.ndarray:
        """The gossip step ``gamma (received - own)``, in the work array."""
        move = np.subtract(received, own, out=self._work)
        move *= self.gamma
        return move

    def apply(self, x: np.ndarray, t: int) -> tuple[np.ndarray, np.ndarray]:
        """One gossip round: new C-ordered iterates, as ``x @ W`` is, and each
        node's payload bits."""
        received, own, bits = self.exchange(x, t)
        return np.add(x, self.move(received, own), order="C"), bits


def _squared_error(a: np.ndarray, b: np.ndarray, work: np.ndarray) -> float:
    """``np.sum((a - b) ** 2)`` computed in ``work``; laid out as ``a - b``
    would be, it gives np.sum the same pairwise order."""
    np.subtract(a, b, out=work)
    np.square(work, out=work)
    return float(np.sum(work))


def _initial_iterates(initial_x: np.ndarray, n: int) -> np.ndarray:
    """A C-ordered float copy of a run's initial ``d x n`` iterates, d >= 1."""
    x = np.array(initial_x, dtype=float, order="C")
    if x.ndim != 2 or x.shape[1] != n:
        raise ValueError(f"initial X must be d x {n}, got shape {x.shape}")
    if x.shape[0] == 0:
        raise ValueError(f"initial X must have d >= 1 rows, got shape {x.shape}")
    return x


def run_consensus(config: ConsensusConfig, initial_x: np.ndarray) -> ConsensusResult:
    """Run one gossip experiment and collect per-iteration metrics.

    Records are taken at iteration entry (state ``x^(t)`` before the round-t
    update) every ``eval_every`` rounds and at the final state ``x^(T)``.
    Each record carries the consensus error ``sum_i ||x_i - xbar||^2``
    toward the initial average, the tracking Lyapunov value
    ``sum_i (||x_i - xbar||^2 + ||x_i - xhat_i^(t+1)||^2)`` (equal to the
    error for schemes without estimates), cumulative transmitted bits of
    the rounds already completed, and the drift of the iterate mean.
    Every round, round ``T`` included, runs its exchange; round ``T``'s
    serves only the final Lyapunov value, and the loop stops before its
    move, so its bits are not counted.

    The iterates are updated in place in a C-ordered copy of ``initial_x``,
    which ``final_x`` holds.
    """
    matrix = config.matrix
    x = _initial_iterates(initial_x, matrix.n)

    gossip = Gossip(config.scheme, matrix, config.gamma, config.compression, config.seed)
    work = gossip.work_like(x)  # every evaluation runs in it
    target = x.mean(axis=1)
    limit = DIVERGENCE_FACTOR * max(_squared_error(x, target[:, None], work), 1.0)

    records: list[ConsensusRecord] = []
    bits = 0
    for t in range(config.iters + 1):
        evaluate = t == config.iters or t % config.eval_every == 0
        if evaluate:
            error = _squared_error(x, target[:, None], work)
            drift = float(np.linalg.norm(x.mean(axis=1) - target))
            if not np.isfinite(error) or error > limit:
                raise DivergenceError(t, error)
        received, own, payloads = gossip.exchange(x, t)
        if evaluate:
            lyap = error if gossip.x_hat is None else error + _squared_error(x, gossip.x_hat, work)
            records.append(ConsensusRecord(t, error, lyap, bits, drift))
        if t == config.iters:
            break
        x += gossip.move(received, own)
        bits += matrix.degree * int(payloads.sum())
        if not np.isfinite(x).all():
            raise DivergenceError(t, float("inf"))

    return ConsensusResult(records=records, final_x=x)
