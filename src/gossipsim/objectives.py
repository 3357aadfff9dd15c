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
logistic oracle draws one shard row per node and has one body: one
``X.take`` gathers the sampled features at flat C-order positions
``indices * n + owner``, the sigmoid maps the margins, and one scatter
through ``G.ravel()`` adds every row's loss gradient to a C-ordered ``G``.
Where every CSR row stores the same number ``w >= 1`` of entries (dense
data, such as ``synthetic_classification`` or any dense LIBSVM file), the
sampled rows come from ``(m, w)`` views of the CSR arrays, with ``owner =
arange(n)[:, None]``, and the margins from one stacked ``np.matmul`` of
``1 x w`` by ``w x 1``; otherwise the rows are read end to end at their
CSR positions, with ``owner = repeat(arange(n), sizes)``, and each margin
is one dot on its slice.  Either way a margin is one BLAS dot, the call
``vals @ x[idx]`` makes, so it keeps its summation order.

The logistic oracles take ``sigma(-t) = 1 / (1 + exp(t))`` from the C
library's ``exp`` through ``math.exp``, the ``exp`` SciPy's float64
``expit`` calls, so their bits are ``expit``'s without loading
``scipy.special``.  ``parse_libsvm`` streams its lines into typed buffers,
8 bytes per value and per index.

SciPy serves only the logistic objective, so it loads on first use there:
``scipy.sparse``, where ``parse_libsvm`` and ``synthetic_classification``
build their CSR matrix.  Importing the package, running consensus and the
quadratic objective never load it, and nothing loads ``scipy.special``.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable

import numpy as np

from .compression import RngFor
from .records import data_lines
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


_MAX_INDEX = 2**63 - 1  # the int64 buffer holds indices 1-based


def parse_libsvm(source: IO[str] | Iterable[str], n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text: one ``label idx:val ...`` line per sample.

    Labels must parse to +/-1 (0/1 files are remapped to -1/+1); feature
    indices are 1-based, strictly increasing within a line and at most
    ``2**63 - 1``, and are stored 0-based; values must be finite.  The
    dimension is the largest index seen unless ``n_features`` overrides it.
    Malformed input raises with the offending line number, a non-finite
    value once the rest of its line has passed.  Lines stream into typed
    buffers, 8 bytes per value and per index.
    """
    data, labels = array("d"), array("d")
    indices, indptr = array("q"), array("q", [0])  # 1-based until the end
    max_index = 0
    for lineno, parts in data_lines(source):
        labels.append(_parse_label(parts[0], lineno))
        prev = 0
        for token in parts[1:]:
            try:
                idx_s, val_s = token.split(":", 1)
                idx = int(idx_s)
                data.append(float(val_s))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed feature {token!r}") from exc
            if idx < 1:
                raise ValueError(f"line {lineno}: indices are 1-based, got {idx}")
            if idx <= prev:
                raise ValueError(f"line {lineno}: indices must be strictly increasing")
            if idx > _MAX_INDEX:
                raise ValueError(f"line {lineno}: index {idx} is above {_MAX_INDEX}")
            prev = idx
            indices.append(idx)
        if not math.isfinite(sum(data[indptr[-1]:])):  # finite values may still overflow it
            for token in parts[1:]:
                if not math.isfinite(float(token.split(":", 1)[1])):
                    raise ValueError(f"line {lineno}: non-finite feature value {token!r}")
        max_index = max(max_index, prev)
        indptr.append(len(data))
    if not labels:
        raise ValueError("empty LIBSVM stream")
    d = n_features if n_features is not None else max_index
    if d < max_index:
        raise ValueError(f"n_features = {d} is below the largest index {max_index}")
    if d < 1:
        raise ValueError("dataset has no features; pass n_features")
    import scipy.sparse as sp  # see the module docstring on SciPy

    zero_based = np.frombuffer(indices, dtype=np.int64)
    zero_based -= 1
    features = sp.csr_matrix(
        (np.frombuffer(data), zero_based, np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(labels), d),
    )
    return Dataset(features=features, labels=np.frombuffer(labels))


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
        if not 0.0 <= self.noise_sigma < math.inf:
            raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")

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

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return x - self.targets.mean(axis=1)

    def stochastic_gradients(self, X: np.ndarray, rng_for: RngFor) -> np.ndarray:
        """Column i is node i's stochastic gradient at ``X[:, i]``; its noise
        is drawn from ``rng_for(i)``."""
        G = X - self.targets
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
        if not shards:
            raise ValueError("at least one shard is required")
        shard_rows = np.concatenate(shards)  # node i's rows start at _starts[i]
        covered = np.sort(shard_rows)
        if len(covered) != dataset.m or not np.array_equal(covered, np.arange(dataset.m)):
            raise ValueError("shards must partition the sample indices")
        if any(len(s) == 0 for s in shards):
            raise ValueError("empty shard")
        self.dataset = dataset
        self.shards = shards
        self.l2 = 1.0 / (2 * dataset.m)
        self._constants: tuple[float, float] | None = None
        self._sizes = [len(s) for s in shards]
        self._shard_rows = shard_rows
        self._starts = np.cumsum([0, *self._sizes[:-1]])
        csr = dataset.features
        self._features_t = csr.T  # a CSC view sharing the CSR arrays
        counts = np.diff(csr.indptr)
        width = int(counts[0])
        self._table = None  # or (m, w) views of the CSR arrays when every row holds w >= 1
        if width >= 1 and (counts == width).all():
            lo, hi = csr.indptr[0], csr.indptr[-1]
            self._table = (csr.indices[lo:hi].reshape(-1, width), csr.data[lo:hi].reshape(-1, width))

    @property
    def dim(self) -> int:
        return self.dataset.d

    @property
    def n_nodes(self) -> int:
        return len(self.shards)

    @property
    def samples_per_node(self) -> int:
        return max(len(s) for s in self.shards)

    def value(self, x: np.ndarray) -> float:
        margins = self.dataset.labels * (self.dataset.features @ x)
        losses = np.logaddexp(0.0, -margins)
        return float(np.mean(losses) + self.l2 * np.dot(x, x))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        """Exact gradient of the full objective over all m samples."""
        labels = self.dataset.labels
        margins = labels * (self.dataset.features @ x)
        try:  # sigma(-t) = 1 / (1 + exp(t)); numpy's + and / round as Python's
            sig = 1.0 / (1.0 + np.fromiter(map(math.exp, margins.tolist()), float, len(margins)))
        except OverflowError:
            sig = np.fromiter(map(_sigmoid_neg, margins.tolist()), float, len(margins))
        coef = -labels * sig
        grad = np.asarray(self._features_t @ coef).ravel() / self.dataset.m
        return grad + 2.0 * self.l2 * x

    def stochastic_gradients(self, X: np.ndarray, rng_for: RngFor) -> np.ndarray:
        """Column i is node i's stochastic gradient at ``X[:, i]``."""
        n = X.shape[1]
        picks = np.fromiter(
            (rng_for(i).integers(size) for i, size in enumerate(self._sizes)), np.intp, n
        )
        samples = self._shard_rows[self._starts + picks]
        if self._table is not None:  # row i of (n, w) arrays is node i's sample
            indices, vals = (part[samples] for part in self._table)
            owner = np.arange(n)[:, None]
        else:  # the samples end to end: entry k is node owner[k]'s
            csr = self.dataset.features
            lo, hi = csr.indptr[samples], csr.indptr[samples + 1]
            owner = np.repeat(np.arange(n), hi - lo)
            ends = np.cumsum(hi - lo)  # sample i's entries end at ends[i]
            at = np.arange(len(owner)) + (hi - ends)[owner]  # each entry's CSR position
            indices, vals = csr.indices[at], csr.data[at]
        flat = np.multiply(indices, n, dtype=np.intp)  # C-order positions in X
        flat += owner
        feats = X.take(flat)  # every sample's features, one gather
        # one BLAS dot per sample, the call ``vals @ x[idx]`` makes, keeps each
        # margin's summation order
        if self._table is not None:
            margins = np.matmul(vals[:, None, :], feats[:, :, None]).reshape(n)
        else:
            bounds = zip((ends - hi + lo).tolist(), ends.tolist())
            margins = np.fromiter((vals[a:b] @ feats[a:b] for a, b in bounds), float, n)
        labels = self.dataset.labels[samples]
        sig = np.fromiter(map(_sigmoid_neg, (labels * margins).tolist()), float, n)
        G = np.multiply(2.0 * self.l2, X, order="C")
        # the positions are distinct, so one scatter adds each once
        G.ravel()[flat] += (-labels * sig)[owner] * vals  # -b * sigma(-b a.x) * a
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


def _sigmoid_neg(margin: float) -> float:
    """``sigma(-margin) = 1 / (1 + exp(margin))``, bit for bit SciPy's float64
    ``expit(-margin)``: both call the C library's ``exp``.  Where it
    overflows to ``inf``, ``math.exp`` raises instead, and the result is 0."""
    try:
        return 1.0 / (1.0 + math.exp(margin))
    except OverflowError:
        return 0.0


Objective = QuadraticObjective | LogisticObjective


def power_iteration(matvec, dim: int, tol: float = 1e-6, max_iters: int = 10_000) -> float:
    """Largest eigenvalue of a symmetric PSD operator given as a matvec."""
    v = np.random.Generator(np.random.Philox(np.random.SeedSequence(0))).standard_normal(dim)
    v /= np.linalg.norm(v)
    lam = 0.0
    w = matvec(v)
    for _ in range(max_iters):
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        w = matvec(v)  # gives this step's estimate and the next step's product
        lam_new = float(v @ w)
        if abs(lam_new - lam) <= tol * max(1.0, abs(lam_new)):
            return lam_new
        lam = lam_new
    raise RuntimeError(f"power iteration did not converge in {max_iters} steps")


def solve_reference(objective: Objective, tolerance: float = 1e-10) -> tuple[np.ndarray, float]:
    """Minimizer and optimal value by full-gradient descent with step 1/L,
    stopped once ``||grad|| <= tolerance``, within ``10**6`` steps."""
    max_iters = 10**6
    if not 0 < tolerance < math.inf:  # unmeetable spins max_iters; inf stops at x = 0
        raise ValueError(f"fstar_tol must be finite and > 0, got {tolerance}")
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


def synthetic_classification(m: int, d: int, seed: int = 0) -> Dataset:
    """Dense Gaussian features labeled by a random separator with noise.

    Labels are the sign of the margin against a hidden unit vector with a
    small additive perturbation, and each is inverted outright with
    probability 0.05, giving a nearly separable but noisy binary problem.
    """
    rng = stream(seed, tag="synthetic")
    w = rng.standard_normal(d)
    w /= np.linalg.norm(w)
    features = rng.standard_normal((m, d)) / math.sqrt(d)
    margins = features @ w + 0.1 * rng.standard_normal(m) / math.sqrt(d)
    labels = np.where(margins >= 0, 1.0, -1.0)
    flips = rng.random(m) < 0.05
    labels[flips] = -labels[flips]
    import scipy.sparse as sp  # see the module docstring on SciPy

    return Dataset(features=sp.csr_matrix(features), labels=labels)

