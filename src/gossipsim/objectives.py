"""Local objectives, stochastic gradient oracles, and data handling.

Two objective families are provided.

``QuadraticObjective`` holds one target vector per node and minimizes the
mean of ``0.5 ||x - t_i||^2``; its gradient oracle is deterministic unless
an artificial noise level is configured, which makes it the reference
fixture for stepsize and variance-scaling experiments (the minimizer is
the mean of the targets).

``LogisticObjective`` is l2-regularized binary logistic regression over a
sparse dataset partitioned into per-node shards::

    f(x) = (1/m) sum_j log(1 + exp(-b_j <a_j, x>)) + (1/(2m)) ||x||^2

The stochastic oracle samples one shard row uniformly; the regularizer is
always applied in full, so the oracle is unbiased for the shard-local
objective.  Strong convexity is ``mu = 1/m`` from the regularizer, and the
smoothness constant uses the 1/4 bound on the logistic Hessian:
``L = 1/m + (1/4) lambda_max((1/m) A^T A)``, with the top eigenvalue found
by power iteration.

SGD asks every node for one stochastic gradient per round, so each
objective's oracle works on the whole ``d x n`` iterate matrix:
``stochastic_gradients(X, rng_for)`` returns the matrix whose column ``i``
is node ``i``'s gradient at ``X[:, i]``.  It keeps the stream contract of
:func:`gossipsim.compression.compress_columns`: ``rng_for(i)`` is called
once for each node that draws, in node order, and that node's draws are
done before the next call, so a re-keyed :class:`~gossipsim.streams.StreamPool`
handle is safe and node ``i``'s gradient depends only on its own stream.
The noiseless quadratic draws nothing and never calls ``rng_for``.  The
logistic oracle gathers the features of every node's sampled row from
``X`` in one gather, takes one BLAS dot per row on its slice of that
gather (so each margin keeps its summation order) and adds every row's
loss gradient to ``G`` in one scatter.

SciPy serves only the logistic objective, so it loads on first use there:
``scipy.sparse`` where ``parse_libsvm`` and ``synthetic_classification``
build their CSR matrix, and ``scipy.special.expit`` when a
``LogisticObjective`` is built, which binds it for its oracles.  Importing
the package, running consensus and the quadratic objective never load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable

import numpy as np

from .compression import RngFor
from .streams import stream

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "Dataset",
    "parse_libsvm",
    "serialize_libsvm",
    "partition",
    "QuadraticObjective",
    "LogisticObjective",
    "Objective",
    "solve_reference",
    "power_iteration",
    "sigma_bar_squared",
]


@dataclass(frozen=True)
class Dataset:
    """Sparse feature rows with +/-1 labels."""

    features: sp.csr_matrix  # m x d
    labels: np.ndarray  # (m,), entries in {-1, +1}

    def __post_init__(self):
        if self.features.shape[0] != self.labels.shape[0]:
            raise ValueError("feature rows and labels disagree in length")
        if self.m < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isin(self.labels, (-1.0, 1.0))):
            raise ValueError("labels must be -1 or +1")

    @property
    def m(self) -> int:
        return self.features.shape[0]

    @property
    def d(self) -> int:
        return self.features.shape[1]


def parse_libsvm(source: IO[str] | Iterable[str], n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text: one ``label idx:val ...`` line per sample.

    Labels must parse to +/-1 (0/1 files are remapped to -1/+1); feature
    indices are 1-based and strictly increasing within a line, and are
    stored 0-based.  The dimension is the largest index seen unless
    ``n_features`` overrides it.  Malformed input raises with the offending
    line number.
    """
    data, indices, indptr, labels = [], [], [0], []
    max_index = 0
    lineno = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        label = _parse_label(parts[0], lineno)
        prev = 0
        for token in parts[1:]:
            try:
                idx_s, val_s = token.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed feature {token!r}") from exc
            if idx < 1:
                raise ValueError(f"line {lineno}: indices are 1-based, got {idx}")
            if idx <= prev:
                raise ValueError(f"line {lineno}: indices must be strictly increasing")
            prev = idx
            indices.append(idx - 1)
            data.append(val)
        max_index = max(max_index, prev)
        labels.append(label)
        indptr.append(len(data))
    if not labels:
        raise ValueError("empty LIBSVM stream")
    d = n_features if n_features is not None else max_index
    if d < max_index:
        raise ValueError(f"n_features = {d} is below the largest index {max_index}")
    if d < 1:
        raise ValueError("dataset has no features; pass n_features")
    import scipy.sparse as sp  # see the module docstring on SciPy

    features = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(labels), d),
    )
    return Dataset(features=features, labels=np.array(labels, dtype=float))


def _parse_label(token: str, lineno: int) -> float:
    try:
        value = float(token)
    except ValueError as exc:
        raise ValueError(f"line {lineno}: bad label {token!r}") from exc
    if value in (1.0, -1.0):
        return value
    if value == 0.0:  # common 0/1 binary files
        return -1.0
    raise ValueError(f"line {lineno}: label must be +/-1 or 0, got {token!r}")


def serialize_libsvm(dataset: Dataset) -> str:
    """Canonical text form: ``+1``/``-1`` labels, 1-based ascending indices."""
    rows = []
    csr = dataset.features
    for i in range(dataset.m):
        lo, hi = csr.indptr[i], csr.indptr[i + 1]
        feats = " ".join(
            f"{int(j) + 1}:{format(v, '.17g')}" for j, v in zip(csr.indices[lo:hi], csr.data[lo:hi])
        )
        label = "+1" if dataset.labels[i] > 0 else "-1"
        rows.append(f"{label} {feats}".rstrip())
    return "\n".join(rows) + "\n"


def partition(dataset: Dataset, n: int, mode: str, seed: int = 0) -> list[np.ndarray]:
    """Split sample indices into n shards whose sizes differ by at most one;
    shard i, the sample indices of node i, is the i-th array.

    ``shuffled`` applies a seeded uniform permutation before contiguous
    splitting.  ``sorted`` orders samples +1 block first, then -1, so that
    same-label nodes form contiguous ranges (the adversarial layout where
    label clusters are also graph clusters).
    """
    if n < 1:
        raise ValueError("need at least one shard")
    if n > dataset.m:
        raise ValueError(f"cannot split {dataset.m} samples across {n} nodes")
    if mode == "shuffled":
        order = stream(seed, tag="partition").permutation(dataset.m)
    elif mode == "sorted":
        order = np.argsort(-dataset.labels, kind="stable")
    else:
        raise ValueError(f"unknown partition mode {mode!r}")
    return np.array_split(order, n)


class QuadraticObjective:
    """Mean of per-node quadratics ``0.5 ||x - t_i||^2``.

    ``noise_sigma`` adds zero-mean Gaussian noise with total variance
    ``sigma^2`` (per-coordinate std ``sigma/sqrt(d)``) to each stochastic
    gradient, emulating a gradient oracle with bounded variance.
    """

    def __init__(self, targets: np.ndarray, noise_sigma: float = 0.0):
        targets = np.asarray(targets, dtype=float)
        if targets.ndim != 2:
            raise ValueError(f"targets must be d x n, got shape {targets.shape}")
        self.targets = targets
        self.noise_sigma = float(noise_sigma)

    @property
    def dim(self) -> int:
        return self.targets.shape[0]

    @property
    def n_nodes(self) -> int:
        return self.targets.shape[1]

    @property
    def samples_per_node(self) -> int:
        return 1

    def value(self, x: np.ndarray) -> float:
        diffs = x[:, None] - self.targets
        return 0.5 * float(np.sum(diffs**2)) / self.n_nodes

    def local_value(self, node: int, x: np.ndarray) -> float:
        return 0.5 * float(np.sum((x - self.targets[:, node]) ** 2))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return x - self.targets.mean(axis=1)

    def local_gradient(self, node: int, x: np.ndarray) -> np.ndarray:
        return x - self.targets[:, node]

    def stochastic_gradients(self, X: np.ndarray, rng_for: RngFor) -> np.ndarray:
        """Column i is node i's stochastic gradient at ``X[:, i]``."""
        return self._noisy_gradients(X - self.targets, rng_for)

    def _noisy_gradients(self, G: np.ndarray, rng_for: RngFor) -> np.ndarray:
        """Adds column i's noise, drawn from ``rng_for(i)``, to ``G`` in place."""
        if self.noise_sigma > 0.0:
            Z = np.empty(G.shape[::-1])  # one row of draws per column of G
            for i in range(G.shape[1]):
                rng = rng_for(i)
                if rng is None:
                    raise ValueError("noisy quadratic oracle needs an rng")
                rng.standard_normal(out=Z[i])
            G += self.noise_sigma * Z.T / math.sqrt(self.dim)
        return G

    def constants(self) -> tuple[float, float]:
        return 1.0, 1.0


class LogisticObjective:
    """Sharded l2-regularized logistic regression (see module docstring)."""

    def __init__(self, dataset: Dataset, shards: list[np.ndarray]):
        from scipy.special import expit  # see the module docstring on SciPy

        if not shards:
            raise ValueError("at least one shard is required")
        covered = np.sort(np.concatenate(shards))
        if len(covered) != dataset.m or not np.array_equal(covered, np.arange(dataset.m)):
            raise ValueError("shards must partition the sample indices")
        if any(len(s) == 0 for s in shards):
            raise ValueError("empty shard")
        self.dataset = dataset
        self.shards = shards
        self.l2 = 1.0 / (2 * dataset.m)
        self._constants: tuple[float, float] | None = None
        self._expit = expit  # bound here, not imported by the per-round oracles
        csr = dataset.features
        self._features_t = csr.T  # a CSC view sharing the CSR arrays
        self._rows = [
            (csr.indices[csr.indptr[j]:csr.indptr[j + 1]], csr.data[csr.indptr[j]:csr.indptr[j + 1]])
            for j in range(dataset.m)
        ]

    @property
    def dim(self) -> int:
        return self.dataset.d

    @property
    def n_nodes(self) -> int:
        return len(self.shards)

    @property
    def samples_per_node(self) -> int:
        return max(len(s) for s in self.shards)

    def _losses(self, rows: sp.csr_matrix, labels: np.ndarray, x: np.ndarray) -> np.ndarray:
        margins = labels * (rows @ x)
        return np.logaddexp(0.0, -margins)

    def value(self, x: np.ndarray) -> float:
        losses = self._losses(self.dataset.features, self.dataset.labels, x)
        return float(np.mean(losses) + self.l2 * np.dot(x, x))

    def local_value(self, node: int, x: np.ndarray) -> float:
        idx = self.shards[node]
        losses = self._losses(self.dataset.features[idx], self.dataset.labels[idx], x)
        return float(np.mean(losses) + self.l2 * np.dot(x, x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient of the full objective over all m samples."""
        return self._subset_gradient(
            self.dataset.features, self._features_t, self.dataset.labels, x
        )

    def local_gradient(self, node: int, x: np.ndarray) -> np.ndarray:
        idx = self.shards[node]
        rows = self.dataset.features[idx]
        return self._subset_gradient(rows, rows.T, self.dataset.labels[idx], x)

    def _subset_gradient(self, rows, rows_t, labels, x):
        margins = labels * (rows @ x)
        coef = -labels * self._expit(-margins)  # -b * sigma(-b a.x)
        grad = np.asarray(rows_t @ coef).ravel() / rows.shape[0]
        return grad + 2.0 * self.l2 * x

    def stochastic_gradients(self, X: np.ndarray, rng_for: RngFor) -> np.ndarray:
        """Column i is node i's stochastic gradient at ``X[:, i]``."""
        return self._sample_gradients(X, [self._draw(i, rng_for(i)) for i in range(X.shape[1])])

    def _draw(self, node: int, rng: np.random.Generator) -> int:
        idx = self.shards[node]
        return int(idx[rng.integers(len(idx))])

    def _sample_gradients(self, X: np.ndarray, samples: list[int]) -> np.ndarray:
        """Column c is the gradient at ``X[:, c]`` of sample ``samples[c]``'s
        loss plus the full regularizer."""
        G = 2.0 * self.l2 * X
        rows = [self._rows[j] for j in samples]
        sizes = [idx.size for idx, _ in rows]
        idx_all = np.concatenate([idx for idx, _ in rows])
        vals_all = np.concatenate([vals for _, vals in rows])
        cols_all = np.repeat(np.arange(X.shape[1]), sizes)
        feats = X[idx_all, cols_all]  # every sample's features, one gather
        # one BLAS dot per sample on its contiguous slice keeps each
        # margin's summation order
        dots, lo = np.empty(len(rows)), 0
        for c, (_, vals) in enumerate(rows):
            hi = lo + vals.size
            dots[c] = vals @ feats[lo:hi]
            lo = hi
        b = self.dataset.labels[samples]
        coef = -b * self._expit(-b * dots)
        # (row, column) pairs are distinct, so one scatter adds each once
        G[idx_all, cols_all] += np.repeat(coef, sizes) * vals_all
        return G

    def constants(self) -> tuple[float, float]:
        if self._constants is None:
            a, a_t = self.dataset.features, self._features_t
            lam = power_iteration(
                lambda v: np.asarray(a_t @ (a @ v)).ravel() / self.dataset.m, self.dataset.d
            )
            mu = 2.0 * self.l2
            self._constants = (mu, mu + 0.25 * lam)
        return self._constants


Objective = QuadraticObjective | LogisticObjective


def power_iteration(matvec, dim: int, tol: float = 1e-6, max_iters: int = 10_000) -> float:
    """Largest eigenvalue of a symmetric PSD operator given as a matvec."""
    v = np.random.Generator(np.random.Philox(np.random.SeedSequence(0))).standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iters):
        w = matvec(v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v_new = w / norm
        lam_new = float(v_new @ matvec(v_new))
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        v, lam = v_new, lam_new
    raise RuntimeError(f"power iteration did not converge in {max_iters} steps")


def solve_reference(
    objective: Objective, tolerance: float = 1e-10, max_iters: int = 10**6
) -> tuple[np.ndarray, float]:
    """Minimizer and optimal value by full-gradient descent with step 1/L."""
    _, big_l = objective.constants()
    x = np.zeros(objective.dim)
    step = 1.0 / big_l
    for _ in range(max_iters):
        g = objective.gradient(x)
        if np.linalg.norm(g) <= tolerance:
            return x, objective.value(x)
        x = x - step * g
    raise RuntimeError(f"reference solve did not reach ||grad|| <= {tolerance} "
                       f"in {max_iters} iterations")


def synthetic_classification(m: int, d: int, seed: int = 0, flip: float = 0.05) -> Dataset:
    """Dense Gaussian features labeled by a random separator with noise.

    Labels are the sign of the margin against a hidden unit vector with a
    small additive perturbation, and a ``flip`` fraction is inverted
    outright, giving a nearly separable but noisy binary problem.
    """
    rng = stream(seed, tag="synthetic")
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    features = rng.standard_normal((m, d)) / math.sqrt(d)
    margins = features @ w + 0.1 * rng.standard_normal(m) / math.sqrt(d)
    labels = np.where(margins >= 0, 1.0, -1.0)
    flips = rng.random(m) < flip
    labels[flips] = -labels[flips]
    import scipy.sparse as sp  # see the module docstring on SciPy

    return Dataset(features=sp.csr_matrix(features), labels=labels)


def sigma_bar_squared(objective: Objective, x: np.ndarray) -> float:
    """Empirical ``(1/n) sum_i E_j ||grad_j - grad_i||^2`` at a point.

    Exhaustive over shard samples, so intended for desk-scale shards only.
    Quadratic objectives report their configured artificial variance.
    """
    if isinstance(objective, QuadraticObjective):
        return objective.noise_sigma**2
    total = 0.0
    for i, shard in enumerate(objective.shards):
        mean_grad = objective.local_gradient(i, x)
        samples = shard.tolist()
        grads = objective._sample_gradients(np.tile(x[:, None], (1, len(samples))), samples)
        acc = 0.0
        for g in grads.T:
            acc += float(np.sum((g - mean_grad) ** 2))
        total += acc / len(samples)
    return total / objective.n_nodes
