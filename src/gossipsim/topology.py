"""Communication graphs and their mixing matrices.

A graph is a :class:`Graph`: a node count and a list of undirected edges.
``Ring``, ``Torus`` and ``FullyConnected`` build the standard ones and
:func:`read_edge_list` loads any other; they differ only in their edges,
which :func:`build_gossip_matrix` normalizes the same way for every graph
(self-loops dropped, each pair counted once in either orientation).

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
graphs, so irregular graphs are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .records import data_lines

__all__ = [
    "Graph",
    "Ring",
    "Torus",
    "FullyConnected",
    "GossipMatrix",
    "build_gossip_matrix",
    "spectral_quantities",
    "mixing_contraction",
    "read_edge_list",
]

EIG_TOL = 1e-9
STOCHASTIC_TOL = 1e-10


@dataclass(frozen=True)
class Graph:
    """Nodes ``0 .. n-1`` and undirected edges ``(i, j)``, in any order and
    orientation; repeats and self-loops are allowed."""

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"graph needs n >= 1, got {self.n}")


def Ring(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def Torus(rows: int, cols: int) -> Graph:
    if rows < 3 or cols < 3:
        raise ValueError(
            f"torus needs rows, cols >= 3 so wrap edges are distinct, got {rows}x{cols}"
        )
    edges = []
    for a in range(rows):
        for b in range(cols):
            i = a * cols + b
            edges += [(i, a * cols + (b + 1) % cols), (i, ((a + 1) % rows) * cols + b)]
    return Graph(rows * cols, tuple(edges))


def FullyConnected(n: int) -> Graph:
    return Graph(n, tuple((i, j) for i in range(n) for j in range(i + 1, n)))


@dataclass(frozen=True)
class GossipMatrix:
    """Mixing matrix with cached spectral quantities.

    Immutable after construction; freely shareable across threads.
    """

    n: int
    weights: np.ndarray
    delta: float
    beta: float
    degree: int  # every node's, as the graph is regular; 0 on one node


def build_gossip_matrix(graph: Graph) -> GossipMatrix:
    """Uniform-averaging mixing matrix of ``graph``.

    Raises if an edge leaves ``range(n)``, if the graph is irregular, in
    which case symmetric doubly stochastic uniform weights do not exist, or
    if it is disconnected, which shows as a spectral gap below ``EIG_TOL``.
    """
    n = graph.n
    pairs = np.array(graph.edges, dtype=np.int64).reshape(-1, 2)
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    if pairs.size and (lo.min() < 0 or hi.max() >= n):
        i, j = next((i, j) for i, j in graph.edges if not (0 <= i < n and 0 <= j < n))
        raise ValueError(f"edge ({i}, {j}) out of range for n = {n}")
    adjacent = np.zeros((n, n), dtype=bool)  # upper triangle: each pair once as (min, max)
    adjacent[lo, hi] = True
    np.fill_diagonal(adjacent, False)  # self-loops are implied at every node
    lo, hi = np.nonzero(adjacent)

    degrees = np.bincount(np.concatenate([lo, hi]), minlength=n)
    if degrees.min() != degrees.max():
        raise ValueError("graph is not regular; uniform weights would not be doubly stochastic")

    w = 1.0 / (degrees + 1.0)
    weights = np.zeros((n, n))
    weights[lo, hi] = weights[hi, lo] = w[lo]
    np.fill_diagonal(weights, w)

    delta, beta = spectral_quantities(weights)
    if delta < EIG_TOL:  # W's eigenvalue 1 repeats once per connected component
        raise ValueError(f"graph is disconnected: spectral gap {delta:.3g}")
    weights.setflags(write=False)
    return GossipMatrix(n=n, weights=weights, delta=delta, beta=beta, degree=int(degrees[0]))


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


def read_edge_list(path: str | Path, n: int | None = None) -> Graph:
    """Load a graph from a text file of ``i j`` pairs, 0-indexed; ``n``
    defaults to one more than the largest node id."""
    edges = []
    max_node = -1
    for lineno, parts in data_lines(Path(path).read_text().splitlines()):
        try:
            i, j = map(int, parts)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: expected 'i j', got {' '.join(parts)!r}") from None
        if i < 0 or j < 0:
            raise ValueError(f"{path}:{lineno}: node ids must be >= 0")
        edges.append((i, j))
        max_node = max(max_node, i, j)
    if not edges:
        raise ValueError(f"{path}: no edges found")
    return Graph(n if n is not None else max_node + 1, tuple(edges))
