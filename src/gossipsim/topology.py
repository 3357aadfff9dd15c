"""Communication graphs and their mixing matrices.

A mixing matrix ``W`` is symmetric, doubly stochastic, and supported on the
edges of a connected graph (self-loops included).  The quantities that
govern gossip convergence are

* ``delta = 1 - |lambda_2(W)|`` -- the spectral gap,
* ``beta = ||I - W||_2``, which lies in ``[0, 2]``.

Matrices are built with uniform neighbor averaging: ``w_ij = 1/(deg(i)+1)``
for every neighbor j and for ``i`` itself, where ``deg`` counts non-self
neighbors.  The self-loop keeps the smallest eigenvalue away from ``-1``
(plain ``1/deg`` weights have ``delta = 0`` on even rings), which the
simulator requires.  Uniform weights stay doubly stochastic only on regular
graphs, so irregular custom graphs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "Ring",
    "Torus",
    "FullyConnected",
    "Custom",
    "TopologyKind",
    "GossipMatrix",
    "build_gossip_matrix",
    "spectral_quantities",
    "mixing_contraction",
    "read_edge_list",
]

EIG_TOL = 1e-9
STOCHASTIC_TOL = 1e-10


@dataclass(frozen=True)
class Ring:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"ring needs n >= 1, got {self.n}")


@dataclass(frozen=True)
class Torus:
    rows: int
    cols: int

    def __post_init__(self):
        if self.rows < 3 or self.cols < 3:
            raise ValueError(
                f"torus needs rows, cols >= 3 so wrap edges are distinct, "
                f"got {self.rows}x{self.cols}"
            )


@dataclass(frozen=True)
class FullyConnected:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"fully connected graph needs n >= 1, got {self.n}")


@dataclass(frozen=True)
class Custom:
    n: int
    edges: tuple[tuple[int, int], ...]


TopologyKind = Ring | Torus | FullyConnected | Custom


@dataclass(frozen=True)
class GossipMatrix:
    """Mixing matrix with cached spectral quantities.

    Immutable after construction; freely shareable across threads.
    """

    n: int
    weights: np.ndarray
    delta: float
    beta: float
    edges: tuple[tuple[int, int], ...]
    degrees: tuple[int, ...]


def _edge_set(kind: TopologyKind) -> tuple[int, tuple[tuple[int, int], ...]]:
    if isinstance(kind, Ring):
        n = kind.n
        edges = {tuple(sorted((i, (i + 1) % n))) for i in range(n) if i != (i + 1) % n}
        return n, tuple(sorted(edges))
    if isinstance(kind, Torus):
        r, c = kind.rows, kind.cols
        n = r * c
        edges = set()
        for a in range(r):
            for b in range(c):
                i = a * c + b
                for j in (a * c + (b + 1) % c, ((a + 1) % r) * c + b):
                    if i != j:
                        edges.add(tuple(sorted((i, j))))
        return n, tuple(sorted(edges))
    if isinstance(kind, FullyConnected):
        n = kind.n
        return n, tuple((i, j) for i in range(n) for j in range(i + 1, n))
    if isinstance(kind, Custom):
        n = kind.n
        seen = set()
        for i, j in kind.edges:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"edge ({i}, {j}) out of range for n = {n}")
            if i == j:
                continue  # self-loops are implied at every node
            seen.add(tuple(sorted((i, j))))
        return n, tuple(sorted(seen))
    raise TypeError(f"unknown topology kind {kind!r}")


def _check_connected(n: int, edges) -> None:
    if n == 1:
        return
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    if len(seen) != n:
        raise ValueError(f"graph is disconnected: reached {len(seen)} of {n} nodes")


def build_gossip_matrix(kind: TopologyKind) -> GossipMatrix:
    """Uniform-averaging mixing matrix for the given topology.

    Raises if the graph is disconnected or (for ``Custom``) irregular, in
    which case symmetric doubly stochastic uniform weights do not exist.
    """
    n, edges = _edge_set(kind)
    _check_connected(n, edges)

    degrees = np.zeros(n, dtype=int)
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1
    if n > 1 and isinstance(kind, Custom) and len(set(degrees.tolist())) != 1:
        raise ValueError(
            "custom graph is not regular; uniform weights would not be doubly stochastic"
        )

    weights = np.zeros((n, n))
    for i, j in edges:
        w = 1.0 / (degrees[i] + 1)
        weights[i, j] = w
        weights[j, i] = w
    for i in range(n):
        weights[i, i] = 1.0 / (degrees[i] + 1)

    delta, beta = spectral_quantities(weights)
    if delta <= 0.0:
        raise ValueError("built matrix has zero spectral gap")
    weights.setflags(write=False)
    return GossipMatrix(
        n=n,
        weights=weights,
        delta=delta,
        beta=beta,
        edges=edges,
        degrees=tuple(int(x) for x in degrees),
    )


def spectral_quantities(weights: np.ndarray) -> tuple[float, float]:
    """``(delta, beta)`` of a symmetric doubly stochastic matrix.

    ``delta = 1 - |lambda_2|`` with the principal eigenvalue pinned to 1;
    ``beta = max_i |1 - lambda_i|``.  Eigenvalues within ``EIG_TOL`` of 0
    count as 0, so the averaging matrix ``11^T/n`` of a complete graph has
    ``delta = beta = 1`` exactly.  Input is validated to tolerance 1e-10.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValueError(f"weights must be square, got shape {w.shape}")
    n = w.shape[0]
    if np.max(np.abs(w - w.T)) > STOCHASTIC_TOL:
        raise ValueError("weights matrix is not symmetric")
    ones = np.ones(n)
    if np.max(np.abs(w @ ones - ones)) > STOCHASTIC_TOL:
        raise ValueError("rows do not sum to 1")
    if np.max(np.abs(ones @ w - ones)) > STOCHASTIC_TOL:
        raise ValueError("columns do not sum to 1")

    if n == 1:
        return 1.0, 0.0

    eigs = np.linalg.eigvalsh(w)
    eigs[np.abs(eigs) < EIG_TOL] = 0.0
    mags = np.sort(np.abs(eigs))[::-1]
    if abs(mags[0] - 1.0) > EIG_TOL:
        raise ValueError(f"principal eigenvalue is {mags[0]}, expected 1")
    delta = float(np.clip(1.0 - mags[1], 0.0, 1.0))
    beta = float(np.max(np.abs(1.0 - eigs)))
    return delta, beta


def mixing_contraction(weights: np.ndarray, k: int) -> float:
    """Operator norm ``||W^k - (1/n) 1 1^T||_2``; at most ``(1 - delta)^k``."""
    if k < 0:
        raise ValueError(f"power k must be >= 0, got {k}")
    w = np.asarray(weights, dtype=float)
    n = w.shape[0]
    wk = np.linalg.matrix_power(w, k)
    return float(np.linalg.norm(wk - np.ones((n, n)) / n, 2))


def read_edge_list(path: str | Path, n: int | None = None) -> Custom:
    """Load a custom topology from a text file of ``i j`` pairs, 0-indexed."""
    edges = []
    max_node = -1
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {raw!r}")
        try:
            i, j = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-integer node id in {raw!r}") from exc
        if i < 0 or j < 0:
            raise ValueError(f"{path}:{lineno}: node ids must be >= 0")
        edges.append((i, j))
        max_node = max(max_node, i, j)
    if not edges:
        raise ValueError(f"{path}: no edges found")
    return Custom(n=n if n is not None else max_node + 1, edges=tuple(edges))
