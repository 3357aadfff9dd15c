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
``scipy.special``.

``parse_libsvm`` stores each value as ``float`` reads it and each index as
``int`` does, about 32 KiB of feature text at a time.  One C scan reads a
chunk's plain ``index:decimal`` tokens as int64 indices, mantissas and
exponents, and ``mantissa * 10**exponent``, rounded once in a 64-bit long
double, rounds to ``float``'s double (Clinger 1990) unless it lies on a
float64 tie.  Ties, exponents past 27, mantissas of 20 digits and platforms
without such a long double read that value with ``float``; a chunk holding
any other token, or an error, is read line by line, token by token.  The parse
holds one chunk beyond the typed buffers it fills, 8 bytes per value and per
index.

SciPy serves only the logistic objective, so it loads on first use there:
``scipy.sparse``, where ``parse_libsvm`` and ``synthetic_classification``
build their CSR matrix.  Importing the package, running consensus and the
quadratic objective never load it, and nothing loads ``scipy.special``.
"""

from __future__ import annotations

import functools
import math
import warnings
from array import array
from dataclasses import dataclass
from typing import IO, TYPE_CHECKING, Iterable

import numpy as np

from .compression import RngFor, _rng
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

    @functools.cached_property
    def gram_max_eigenvalue(self) -> float:
        """``lambda_max((1/m) A^T A)`` by power iteration, once per dataset, so the
        objectives of its every partition share it."""
        a, a_t = self.features, self.features.T
        return power_iteration(lambda v: np.asarray(a_t @ (a @ v)).ravel() / self.m, self.d)


_MAX_INDEX = 2**63 - 1  # the largest 1-based index an int64 holds
_CHUNK_CHARS = 1 << 15  # feature text per bulk scan; it bounds the scan's temporaries
# every int64 mantissa and 10**k, k <= 27, is exact in an IEEE long double (x87 extended
# or quad: a 15-bit exponent) of 64 significand bits or more, whose products round once;
# a double-double (11-bit exponent) does not round once, so it reads with ``float``
_EXACT_LONG_DOUBLE = np.finfo(np.longdouble).nmant >= 63 and np.finfo(np.longdouble).nexp == 15
_MAX_POW10 = 27
_POW10 = np.cumprod(np.array([1] + [10] * _MAX_POW10, np.longdouble))  # each product exact
# The symbols other than digits that a simple token ``digits:[sign]mantissa[e[sign]digits]``
# holds, in the order they come: a sign after ``e`` is _EXP_SIGN and a space ends each
# token, so a chunk's symbols rise within a token and fall from a space to a colon only.
_COLON, _SIGN, _DOT, _EXP, _EXP_SIGN, _SPACE, _OTHER = 0, 1, 2, 3, 4, 5, 100
_SYMBOL = np.full(256, _OTHER, np.uint8)
for _chars, _symbol in ((b":", _COLON), (b"+-", _SIGN), (b".", _DOT), (b"eE", _EXP), (b" ", _SPACE)):
    _SYMBOL[list(_chars)] = _symbol
_FRACTION = np.int64(2**52 - 1)  # a float64's fraction bits
_NUMBERS = bytes.maketrans(b":eE", b"   ")  # with ``.`` deleted: index mantissa [exponent]


def parse_libsvm(source: IO[str] | Iterable[str], n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text: one ``label idx:val ...`` line per sample.

    Labels must parse to +/-1 (0/1 files are remapped to -1/+1); feature
    indices are 1-based, strictly increasing within a line and at most
    ``2**63 - 1``, and are stored 0-based; values must be finite and are
    stored as ``float`` reads them.  The dimension is the largest index seen
    unless ``n_features`` overrides it.  Malformed input raises with the
    offending line number, a non-finite value once the rest of its line has
    passed.

    A chunk of about 32 KiB of feature text is scanned at once, with the
    exact rounding of the module docstring.  A chunk holding a line that the
    scan cannot vouch for is read line by line, token by token, by
    :func:`_parse_line`, which raises its message, so errors come in line
    order as a token-by-token read meets them.  Beyond the typed buffers it
    fills, the parse holds one chunk.
    """
    data, labels = array("d"), array("d")
    indices, indptr = array("q"), array("q", [0])
    max_index = 0
    # each chunk's text is freed before the buffers grow, which leaves fewer holes in the heap
    for chunk_labels, counts, idx, vals in map(_parse_chunk, _chunks(source)):
        labels.extend(chunk_labels)
        max_index = max(max_index, int(idx.max(initial=0)))
        idx -= 1
        indices.frombytes(idx.data.cast("B"))
        data.frombytes(vals.data.cast("B"))
        indptr.frombytes((np.cumsum(counts) + indptr[-1]).data.cast("B"))
    if not labels:
        raise ValueError("empty LIBSVM stream")
    d = n_features if n_features is not None else max_index
    if d < max_index:
        raise ValueError(f"n_features = {d} is below the largest index {max_index}")
    if d < 1:
        raise ValueError("dataset has no features; pass n_features")
    import scipy.sparse as sp  # see the module docstring on SciPy

    features = sp.csr_matrix(
        (np.frombuffer(data), np.frombuffer(indices, dtype=np.int64),
         np.frombuffer(indptr, dtype=np.int64)),
        shape=(len(labels), d),
    )
    return Dataset(features=features, labels=np.frombuffer(labels))


def _chunks(source: IO[str] | Iterable[str]):
    """Lists of ``(line number, label, feature count, feature text)``, each
    about ``_CHUNK_CHARS`` of feature text; the text joins the features by spaces."""
    chunk, chars = [], 0
    for lineno, parts in data_lines(source):
        text = " ".join(parts[1:])
        chunk.append((lineno, parts[0], len(parts) - 1, text))
        chars += len(text) + 1
        if chars >= _CHUNK_CHARS:
            yield chunk
            chunk, chars = [], 0
    if chunk:
        yield chunk


def _parse_chunk(lines: list[tuple[int, str, int, str]]):
    """Labels, feature counts, 1-based indices and values of consecutive lines."""
    counts = np.fromiter((count for _, _, count, _ in lines), np.int64, len(lines))
    raw = "".join(text + " " for _, _, _, text in lines if text).encode("ascii", "replace")
    got = _scan_features(raw)
    if got is not None:
        idx, vals = got
        line_of = np.repeat(np.arange(len(lines)), counts)
        redo = (idx < 1) | (idx >= _MAX_INDEX) | ~np.isfinite(vals)
        redo[1:] |= (idx[1:] <= idx[:-1]) & (line_of[1:] == line_of[:-1])
        if not redo.any():
            try:
                labels = [_parse_label(label, lineno) for lineno, label, _, _ in lines]
                return labels, counts, idx, vals
            except ValueError:
                pass
    # the scan cannot vouch for every line: read them all in order, so the first bad one raises
    labels, idx, vals = [], [], []
    for lineno, label, _, text in lines:
        line_label, line_idx, line_vals = _parse_line(lineno, [label, *text.split()])
        labels.append(line_label)
        idx += line_idx
        vals += line_vals
    return labels, counts, np.array(idx, np.int64), np.array(vals, float)


def _parse_line(lineno: int, parts: list[str]) -> tuple[float, list[int], list[float]]:
    """One line's label, 1-based indices and values, read token by token."""
    label = _parse_label(parts[0], lineno)
    indices, data = [], []
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
    if not math.isfinite(sum(data)):  # finite values may still overflow it
        for token in parts[1:]:
            if not math.isfinite(float(token.split(":", 1)[1])):
                raise ValueError(f"line {lineno}: non-finite feature value {token!r}")
    return label, indices, data


def _scan_features(raw: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """1-based indices and values of simple tokens, each followed by one
    space, or None if any token is not simple.

    A simple token, ``digits:[sign]mantissa[e[sign]digits]`` with a digit
    and at most one ``.`` in the mantissa, is a form that ``int`` and
    ``float`` read.  Its symbols other than digits rise in code order.  With
    the ``.`` dropped, one C scan reads each token's index, mantissa and
    exponent as int64, and the digits after the ``.`` lower the exponent.
    ``m * 10**e`` (``m / 10**-e``) in long double is then exact before one
    rounding, and a tie is an offset of half the gap to the next double on
    its side (not ``np.spacing``, the gap above).
    """
    if not raw:
        return np.zeros(0, np.int64), np.zeros(0)
    u = np.frombuffer(raw, np.uint8)
    at = (np.subtract(u, 48, dtype=np.uint8) > 9).nonzero()[0]  # each symbol's position
    symbols = _SYMBOL[u[at]]
    signs = (symbols == _SIGN).nonzero()[0]
    symbols[signs[symbols[signs - 1] == _EXP]] = _EXP_SIGN
    rise = np.diff(symbols.view(np.int8), prepend=np.int8(_SPACE))
    wrong = (rise <= 0) & (rise != _COLON - _SPACE)  # out of order after the symbol before
    wrong[signs[at[signs] - 1 != at[signs - 1]]] = True  # a sign not right after ':' or 'e'
    if wrong.any():
        return None
    # each token's symbols: colon, [sign], [dot], [e, [sign]], space
    colon = (symbols == _COLON).nonzero()[0]
    signed = symbols[colon + 1] == _SIGN
    dot = colon + 1 + signed  # the dot if there is one
    has_dot = symbols[dot] == _DOT
    end = dot + has_dot  # the mantissa's end: 'e' or the space
    has_exp = symbols[end] == _EXP
    exp_at = end[has_exp]
    exp_end = exp_at + 1 + (symbols[exp_at + 1] == _EXP_SIGN)
    index_at = at[colon - 1] + 1
    index_at[0] = 0
    empty = (at[colon] <= index_at) | (at[end] - at[colon] - 1 <= signed + has_dot)
    empty[has_exp] |= at[exp_end] - at[exp_at] <= exp_end - exp_at
    if empty.any():
        return None  # an index, mantissa or exponent without a digit
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)  # numpy's partial-read signal
        try:
            numbers = np.fromstring(raw.translate(_NUMBERS, b"."), np.int64, sep=" ")
        except (ValueError, DeprecationWarning):
            return None
    if len(numbers) != 2 * len(colon) + len(exp_at):
        return None
    first = 2 * np.arange(len(colon)) + has_exp.cumsum() - has_exp  # each token's index
    idx, mantissa = numbers[first], numbers[first + 1]
    exponent = np.zeros(len(colon), np.int64)
    exponent[has_exp] = numbers[first[has_exp] + 2]
    clamped = (numbers >= _MAX_INDEX) | (numbers <= -_MAX_INDEX)
    reread = clamped[first + 1]
    reread[has_exp] |= clamped[first[has_exp] + 2]
    exponent -= (at[end] - at[dot] - 1) * has_dot  # the digits after '.'
    reread |= np.abs(exponent) > _MAX_POW10
    if _EXACT_LONG_DOUBLE:
        exponent[reread] = 0
        exact = mantissa.astype(np.longdouble)
        exact *= _POW10[np.maximum(exponent, 0)]
        exact /= _POW10[np.maximum(-exponent, 0)]  # one of the two is by 1: one rounding
        vals = exact.astype(float)
        off = (exact - vals).astype(float)  # exact: 11 significant bits at most
        # a tie is an offset of half the gap on its side: a power of two, which few are
        maybe = ((off.view(np.int64) & _FRACTION == 0) & (off != 0)).nonzero()[0]
        gap = np.abs(np.nextafter(vals[maybe], np.copysign(np.inf, off[maybe])) - vals[maybe])
        reread[maybe[2 * np.abs(off[maybe]) == gap]] = True
        vals[(mantissa == 0) & (u[at[colon] + 1] == ord("-"))] = -0.0
    else:
        vals = np.empty(len(colon))
        reread[:] = True
    for t in reread.nonzero()[0].tolist():
        vals[t] = float(raw[at[colon[t]] + 1:at[colon[t + 1] - 1 if t + 1 < len(colon) else -1]])
    return idx, vals


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
        _check_noise_sigma(noise_sigma)
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

    def gradient(self, x: np.ndarray) -> np.ndarray:
        return x - self.targets.mean(axis=1)

    def stochastic_gradients(self, X: np.ndarray, rng_for: RngFor) -> np.ndarray:
        """Column i is node i's stochastic gradient at ``X[:, i]``; its noise
        is drawn from ``rng_for(i)``."""
        G = X - self.targets
        if self.noise_sigma > 0.0:
            Z = np.empty(G.shape[::-1])  # one row of draws per column of G
            for i in range(G.shape[1]):
                _rng(rng_for, i, "noisy quadratic oracle").standard_normal(out=Z[i])
            G += self.noise_sigma * Z.T / math.sqrt(self.dim)
        return G

    def constants(self) -> tuple[float, float]:
        return 1.0, 1.0


def _check_noise_sigma(noise_sigma: float) -> None:
    if not 0.0 <= float(noise_sigma) < math.inf:
        raise ValueError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")


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
        picks = np.fromiter((_rng(rng_for, i, "logistic oracle").integers(size)
                             for i, size in enumerate(self._sizes)), np.intp, n)
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
        mu = 2.0 * self.l2
        return mu, mu + 0.25 * self.dataset.gram_max_eigenvalue


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
    _check_fstar_tol(tolerance)
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


def _check_fstar_tol(tolerance: float) -> None:
    if not 0 < tolerance < math.inf:  # unmeetable spins max_iters; inf stops at x = 0
        raise ValueError(f"fstar_tol must be finite and > 0, got {tolerance}")


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

