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

Each node draws one compressed message per round and delivers it
identically to all neighbors, so every replica of ``xhat_i`` stays equal
across the graph.  The round loop is single threaded and deterministic;
independent runs may execute in parallel with no shared state.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from .compression import CompressionSpec, Identity, compress_columns, is_unbiased
from .records import ConsensusRecord
from .streams import StreamPool, tag_code
from .topology import GossipMatrix

__all__ = [
    "GossipScheme",
    "NodeStates",
    "ConsensusConfig",
    "ConsensusResult",
    "DivergenceError",
    "tracking_stepsize",
    "step_exact",
    "step_direct",
    "step_paired",
    "step_tracking",
    "run_consensus",
]

DIVERGENCE_FACTOR = 1e6


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


@dataclass(frozen=True)
class NodeStates:
    """Per-node vectors stored column-wise: iterates ``x``, public estimates
    ``x_hat``, and the weighted neighbor aggregates ``s = x_hat @ W``."""

    x: np.ndarray
    x_hat: np.ndarray
    s: np.ndarray

    @classmethod
    def initial(cls, x0: np.ndarray) -> "NodeStates":
        x0 = np.asarray(x0, dtype=float)
        if x0.ndim != 2:
            raise ValueError(f"initial X must be d x n, got shape {x0.shape}")
        return cls(x=x0.copy(), x_hat=np.zeros_like(x0), s=np.zeros_like(x0))

    @property
    def d(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class ConsensusConfig:
    scheme: GossipScheme
    matrix: GossipMatrix
    gamma: float = 1.0
    compression: CompressionSpec = Identity()
    iters: int = 100
    seed: int = 0
    eval_every: int = 1
    check_state_invariants: bool = False

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.iters < 1:
            raise ValueError("iters must be >= 1")
        if self.eval_every < 1:
            raise ValueError("eval_every must be >= 1")
        if self.scheme in (GossipScheme.DIRECT, GossipScheme.PAIRED) and not is_unbiased(
            self.compression
        ):
            raise ValueError(
                f"{self.scheme.value} gossip is only defined for unbiased compression "
                "(Identity or a naturally rescaled primitive)"
            )


@dataclass(frozen=True)
class ConsensusResult:
    records: list[ConsensusRecord]
    final: NodeStates
    initial_error: float
    target_mean: np.ndarray


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


def _node_rngs(rngs, n):
    """Normalize to a per-node accessor: None, one shared Generator, a
    sequence of n Generators, or a callable ``i -> Generator``."""
    if rngs is None:
        return lambda i: None
    if isinstance(rngs, np.random.Generator):
        return lambda i: rngs
    if callable(rngs):
        return rngs
    rngs = list(rngs)
    if len(rngs) != n:
        raise ValueError(f"expected {n} per-node streams, got {len(rngs)}")
    return rngs.__getitem__


def _compress_columns(spec, mat, rngs):
    """One message per node; returns the dense d x n reconstruction and costs."""
    q, bits, _ = compress_columns(spec, mat, _node_rngs(rngs, mat.shape[1]))
    return q, bits


def step_exact(states: NodeStates, gamma: float, matrix: GossipMatrix) -> NodeStates:
    """``x_i <- x_i + gamma * sum_j w_ij (x_j - x_i)``; keeps the average."""
    x_new = states.x + gamma * (states.x @ matrix.weights - states.x)
    return replace(states, x=x_new)


def step_direct(
    states: NodeStates,
    gamma: float,
    compression: CompressionSpec,
    matrix: GossipMatrix,
    rngs=None,
) -> tuple[NodeStates, list[int]]:
    """Compress the broadcast iterate itself: ``x_i <- x_i + gamma *
    sum_j w_ij (Q(x_j) - x_i)``.  Breaks average preservation."""
    q, bits = _compress_columns(compression, states.x, rngs)
    x_new = states.x + gamma * (q @ matrix.weights - states.x)
    return replace(states, x=x_new), bits


def step_paired(
    states: NodeStates,
    gamma: float,
    compression: CompressionSpec,
    matrix: GossipMatrix,
    rngs=None,
) -> tuple[NodeStates, list[int]]:
    """Difference compressed copies on both ends: ``x_i <- x_i + gamma *
    sum_j w_ij (Q(x_j) - Q(x_i))``.  Preserves the average exactly because
    each node's single draw is shared with all its neighbors."""
    q, bits = _compress_columns(compression, states.x, rngs)
    x_new = states.x + gamma * (q @ matrix.weights - q)
    return replace(states, x=x_new), bits


def step_tracking(
    states: NodeStates,
    gamma: float,
    compression: CompressionSpec,
    matrix: GossipMatrix,
    rngs=None,
) -> tuple[NodeStates, list[int]]:
    """Broadcast compressed corrections against the public estimates.

    ``q_i = Q(x_i - xhat_i)``; ``xhat_i += q_i``; ``s_i += sum_j w_ij q_j``;
    ``x_i += gamma (s_i - xhat_i)``.  Identical to gossiping the full
    estimates since the weights sum to one.
    """
    q, bits = _compress_columns(compression, states.x - states.x_hat, rngs)
    x_hat_new = states.x_hat + q
    s_new = states.s + q @ matrix.weights
    x_new = states.x + gamma * (s_new - x_hat_new)
    return NodeStates(x=x_new, x_hat=x_hat_new, s=s_new), bits


def _consensus_error(x: np.ndarray, target: np.ndarray) -> float:
    return float(np.sum((x - target[:, None]) ** 2))


def run_consensus(config: ConsensusConfig, initial_x: np.ndarray) -> ConsensusResult:
    """Run one gossip experiment and collect per-iteration metrics.

    Records are taken at iteration entry (state ``x^(t)`` before the round-t
    update) every ``eval_every`` rounds and at the final state ``x^(T)``.
    Each record carries the consensus error ``sum_i ||x_i - xbar||^2``
    toward the initial average, the tracking Lyapunov value
    ``sum_i (||x_i - xbar||^2 + ||x_i - xhat_i^(t+1)||^2)`` (equal to the
    error for schemes without estimates), cumulative transmitted bits of
    the rounds already completed, and the drift of the iterate mean.
    """
    matrix = config.matrix
    if matrix.delta <= 0.0:
        raise ValueError("consensus requires a positive spectral gap")
    states = NodeStates.initial(initial_x)
    if states.n != matrix.n:
        raise ValueError(f"initial X has {states.n} columns but the graph has {matrix.n} nodes")
    d, n = states.d, states.n

    target = states.x.mean(axis=1)
    initial_error = _consensus_error(states.x, target)
    limit = DIVERGENCE_FACTOR * max(initial_error, 1.0)
    degrees = np.asarray(matrix.degrees)
    full_payload = d * config.compression.value_bits
    tracking = config.scheme == GossipScheme.TRACKING

    records: list[ConsensusRecord] = []
    bits = 0
    pool = StreamPool()
    compress_tag = tag_code("compress")

    def round_rngs(t):
        return lambda i: pool.get(config.seed, node=i, round_=t, tag=compress_tag)

    for t in range(config.iters + 1):
        final = t == config.iters
        evaluate = final or t % config.eval_every == 0
        error = lyap = drift = None
        if evaluate:
            error = _consensus_error(states.x, target)
            drift = float(np.linalg.norm(states.x.mean(axis=1) - target))
            if not np.isfinite(error) or error > limit:
                raise DivergenceError(t, error)
            lyap = error
        if final:
            if tracking:
                # Lyapunov pairs x^(T) with the estimate the round-T
                # correction would produce; nothing downstream is advanced.
                q, _ = _compress_columns(
                    config.compression, states.x - states.x_hat, round_rngs(t)
                )
                lyap = error + float(np.sum((states.x - (states.x_hat + q)) ** 2))
            records.append(ConsensusRecord(t, error, lyap, bits, drift))
            break

        if config.scheme == GossipScheme.EXACT:
            new_states = step_exact(states, config.gamma, matrix)
            payloads = [full_payload] * n
        elif config.scheme == GossipScheme.DIRECT:
            new_states, payloads = step_direct(
                states, config.gamma, config.compression, matrix, round_rngs(t)
            )
        elif config.scheme == GossipScheme.PAIRED:
            new_states, payloads = step_paired(
                states, config.gamma, config.compression, matrix, round_rngs(t)
            )
        else:
            new_states, payloads = step_tracking(
                states, config.gamma, config.compression, matrix, round_rngs(t)
            )

        if evaluate:
            if tracking:
                lyap = error + float(np.sum((states.x - new_states.x_hat) ** 2))
            records.append(ConsensusRecord(t, error, lyap, bits, drift))
        if config.check_state_invariants and tracking:
            recon = new_states.x_hat @ matrix.weights
            scale = max(1.0, float(np.max(np.abs(recon))))
            if np.max(np.abs(new_states.s - recon)) > 1e-10 * scale:
                raise AssertionError(f"aggregate s drifted from x_hat @ W at round {t}")

        bits += int(np.dot(degrees, payloads))
        if not np.all(np.isfinite(new_states.x)):
            raise DivergenceError(t, float("inf"))
        states = new_states

    return ConsensusResult(
        records=records, final=states, initial_error=initial_error, target_mean=target
    )
