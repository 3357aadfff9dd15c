"""Message compression operators and their bit-cost model.

Each operator ``Q`` maps a vector to a cheaper-to-transmit surrogate and
contracts the error in expectation::

    E ||Q(x) - x||^2  <=  (1 - omega) ||x||^2,      0 < omega <= 1,

where ``omega`` is the quality factor ``spec.omega(d)`` (``omega = 1``
means lossless).  Implemented operators:

* ``Identity`` -- no compression.
* ``RandK(k)`` -- keep k coordinates chosen uniformly without replacement
  (``omega = k/d``).
* ``TopK(k)`` -- keep the k largest-magnitude coordinates, deterministic
  (``omega = k/d``): everything at or above the k-th largest magnitude,
  with ties at that threshold going to the lower index.
* ``Qsgd(s)`` -- random uniform-dither quantization to s levels per
  coordinate, rescaled by ``tau = 1 + min(d/s^2, sqrt(d)/s)`` so that the
  contraction above holds with ``omega = 1/tau``.
* ``RandGossip(p)`` -- transmit the whole vector with probability p, else
  nothing (``omega = p``).
* ``RescaledUnbiased(inner)`` -- the unbiased estimator associated with a
  contractive primitive: multiplies ``inner``'s output by its natural
  second-moment constant ``tau`` so that ``E Q(x) = x``.  Needed by the
  gossip baselines that are only analyzed for unbiased operators.  Note the
  unbiased estimator itself does not contract; ``omega`` reports ``1/tau``,
  the factor of the associated rescaled (contractive) operator.

Every round compresses one message per node, so ``apply`` writes a whole
``d x n`` matrix's messages, column ``i`` being node ``i``'s, into the gossip
kernel's buffers; :func:`compress_columns`, the helper for other callers,
returns new reconstructions and each message's bit cost, 0 if unsent.  Random
operators draw column ``i``'s numbers only from ``rng_for(i)``, in node order,
exactly as many as one message needs.  The simulators key ``rng_for(i)`` to
the ``(seed, i, t, "compress")`` stream, so a node's message does not depend
on the other columns or on batching them; independent draws of one vector
are one call over copies of it, with one generator for every column.

The bit cost of a message is modeled, not materialized: sparse formats pay
``ceil(log2 d)`` bits per transmitted index, quantized formats pay
``1 + ceil(log2 s)`` bits per coordinate (sign + level) plus one full-width
scalar for the norm, and dense formats pay ``value_bits`` per coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

__all__ = [
    "CompressionSpec",
    "OPERATORS",
    "Identity",
    "RandK",
    "TopK",
    "Qsgd",
    "RandGossip",
    "RescaledUnbiased",
    "compress_columns",
    "qsgd_tau",
]

RngFor = Callable[[int], "np.random.Generator | None"]


@dataclass(frozen=True)
class CompressionSpec:
    """Base for all operator specs; carries the bit-accounting knob.

    Subclasses implement ``omega(d)``, the contraction quality at dimension ``d``;
    ``message_bits(d)``, the modeled cost of one sent message at dimension ``d``, at least 1;
    and ``apply(X, rng_for, out, scratch)``, which writes ``Q`` of every column of the finite
    ``d x n`` matrix ``X`` into ``out`` (``d x n``, contiguous, not overlapping ``X``), using
    the ``n x d`` ``scratch`` if ``node_major``, leaves ``X`` as it was, and returns only the
    per-column sent mask, a bool array of shape ``(n,)``.
    Those with ``E Q(x) = x`` set ``unbiased``, those that work on the ``n x d`` scratch set
    ``node_major``, and each states its string ``form`` and reads its argument in ``from_arg``.
    """

    value_bits: int = field(default=32, kw_only=True)
    unbiased: ClassVar[bool] = False
    node_major: ClassVar[bool] = False

    def __post_init__(self):
        if not 1 <= self.value_bits <= 64:  # so every bit count fits in int64
            raise ValueError(f"value_bits must lie in [1, 64], got {self.value_bits}")

    @classmethod
    def from_arg(cls, arg: str, d: int) -> CompressionSpec:
        """The operator that ``form``'s argument ``arg`` names at dimension ``d``."""
        return cls()

    def natural_tau(self, d: int) -> float:
        """Scale that lifts the operator to its unbiased estimator."""
        raise ValueError(f"no unbiased rescaling for {type(self).__name__}")


@dataclass(frozen=True)
class Identity(CompressionSpec):
    unbiased: ClassVar[bool] = True
    form: ClassVar[str] = "identity"

    def omega(self, d):
        return 1.0

    def message_bits(self, d):
        return d * self.value_bits

    def natural_tau(self, d):
        return 1.0

    def apply(self, X, rng_for, out, scratch):
        np.copyto(out, X)
        return _all_sent(X)


@dataclass(frozen=True)
class _Sparsifier(CompressionSpec):
    """Sends ``k`` of the ``d`` coordinates with their indices; ``omega = k/d``."""

    k: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1:
            raise ValueError(f"k must be a positive count, got {self.k}")

    @classmethod
    def from_arg(cls, arg, d):  # a count k, or below 1 a coordinate fraction: ceil(fraction * d)
        value = float(arg)
        if value <= 0.0:
            raise ValueError(f"k fraction must lie in (0, 1], got {value}")
        k = max(1, math.ceil(value * d)) if value < 1 else int(value)
        if k != value and value >= 1:
            raise ValueError(f"a count k must be a whole number, got {arg}")
        return cls(k)

    def omega(self, d):
        return self._k_at(d) / d

    def message_bits(self, d):
        return self._k_at(d) * (self.value_bits + _index_bits(d))

    def _k_at(self, d: int) -> int:
        if self.k > d:
            raise ValueError(f"k = {self.k} exceeds the dimension d = {d}")
        return self.k


class RandK(_Sparsifier):
    form: ClassVar[str] = "rand_k:<k|frac>"

    def natural_tau(self, d):
        return d / self._k_at(d)

    def apply(self, X, rng_for, out, scratch):
        d, n = X.shape
        rows = np.stack(
            [_rng(rng_for, i, self).choice(d, size=self.k, replace=False) for i in range(n)]
        ).ravel()
        cols = np.repeat(np.arange(n), self.k)
        out.fill(0.0)
        out[rows, cols] = X[rows, cols]
        return _all_sent(X)


class TopK(_Sparsifier):
    node_major: ClassVar[bool] = True
    form: ClassVar[str] = "top_k:<k|frac>"

    def apply(self, X, rng_for, out, scratch):
        d, n = X.shape
        k = self.k
        mag = np.abs(X.T, out=scratch)  # one row per node
        # each node's k-th largest magnitude, partitioned in out's memory;
        # keep everything at or above it
        part = out.ravel(order="K").reshape(n, d)
        np.copyto(part, mag)
        part.partition(d - k, axis=1)
        threshold = part[:, d - k:d - k + 1]
        keep = mag >= threshold
        if np.count_nonzero(keep) > n * k:  # every row keeps at least k
            # a stable sort of -|x| keeps each row's lowest-index ties
            above = mag > threshold
            ties = keep ^ above
            room = k - np.count_nonzero(above, axis=1, keepdims=True)
            keep = above | (ties & (np.cumsum(ties, axis=1) <= room))
        out.fill(0.0)
        np.copyto(out, X, where=keep.T)
        return _all_sent(X)


@dataclass(frozen=True)
class Qsgd(CompressionSpec):
    s: int = 1
    node_major: ClassVar[bool] = True
    form: ClassVar[str] = "qsgd:<s>"

    def __post_init__(self):
        super().__post_init__()
        if self.s < 1:
            raise ValueError(f"s must be a positive level count, got {self.s}")

    @classmethod
    def from_arg(cls, arg, d):
        return cls(int(arg))

    def omega(self, d):
        return 1.0 / qsgd_tau(self.s, d)

    def message_bits(self, d):
        return d * (1 + _index_bits(self.s)) + self.value_bits

    def natural_tau(self, d):
        return qsgd_tau(self.s, d)

    def apply(self, X, rng_for, out, scratch):
        d, n = X.shape
        norms = _column_norms(X, scratch)
        live = norms > 0.0
        for i in np.flatnonzero(live):  # a zero column draws nothing
            _rng(rng_for, i, self).random(out=scratch[i])
        norms[~live] = 1.0
        # levels = floor(s |x| / norm + xi), step by step in that order; the
        # columns that drew nothing are zeroed at the end
        q = np.abs(X, out=out)
        q *= self.s
        q /= norms
        q += scratch.T
        np.floor(q, out=q)
        # (sign(x) * scale) * levels equals copysign(scale * levels, x) bit
        # for bit, because levels >= 0 and np.sign maps -0.0 to +0.0, as
        # x + 0.0 does
        q *= norms / (self.s * qsgd_tau(self.s, d))
        np.copysign(q, np.add(X.T, 0.0, out=scratch).T, out=q)
        q[:, ~live] = 0.0  # the norm also underflows to zero for tiny nonzero x
        return _all_sent(X)


@dataclass(frozen=True)
class RandGossip(CompressionSpec):
    p: float = 1.0
    form: ClassVar[str] = "rand_gossip:<p>"

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")

    @classmethod
    def from_arg(cls, arg, d):
        return cls(float(arg))

    def omega(self, d):
        return self.p

    def message_bits(self, d):
        return d * self.value_bits

    def natural_tau(self, d):
        return 1.0 / self.p

    def apply(self, X, rng_for, out, scratch):
        sent = np.array([_rng(rng_for, i, self).random() < self.p for i in range(X.shape[1])])
        out.fill(0.0)
        np.copyto(out, X, where=sent)
        return sent


@dataclass(frozen=True)
class RescaledUnbiased(CompressionSpec):
    inner: CompressionSpec = Identity()
    unbiased: ClassVar[bool] = True
    form: ClassVar[str] = "unbiased:<inner>"

    def __post_init__(self):
        super().__post_init__()
        if type(self.inner).natural_tau is CompressionSpec.natural_tau:
            raise ValueError(f"inner operator {type(self.inner).__name__} has no unbiased "
                             "rescaling")
        if self.value_bits != self.inner.value_bits:  # message_bits bills the inner operator
            raise ValueError(f"value_bits {self.value_bits}, but inner has {self.inner.value_bits}")

    @property
    def node_major(self):
        return self.inner.node_major

    def omega(self, d):
        return 1.0 / self.inner.natural_tau(d)

    def message_bits(self, d):
        return self.inner.message_bits(d)

    def apply(self, X, rng_for, out, scratch):
        sent = self.inner.apply(X, rng_for, out, scratch)
        out *= self.inner.natural_tau(X.shape[0])
        return sent


# Each operator string's lower-case name to its class; identity also answers to none and exact.
OPERATORS = {cls.form.partition(":")[0]: cls
             for cls in (Identity, RandK, TopK, Qsgd, RandGossip, RescaledUnbiased)}
OPERATORS.update(none=Identity, exact=Identity)


def qsgd_tau(s: int, d: int) -> float:
    """Second-moment constant ``1 + min(d/s^2, sqrt(d)/s)`` of s-level dithering."""
    return 1.0 + min(d / s**2, math.sqrt(d) / s)


def _index_bits(d: int) -> int:
    return (d - 1).bit_length() if d > 1 else 0


def compress_columns(spec: CompressionSpec, X: np.ndarray,
                     rng_for: RngFor | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Compress column ``i`` of ``X`` as node ``i``'s message, for every i.

    Parameters
    ----------
    spec : CompressionSpec
        Operator to apply; must be valid for ``d = X.shape[0]``.
    X : ndarray
        Finite nonempty ``d x n`` matrix, one column per node.
    rng_for : callable, optional
        ``i -> Generator``; required for the random operators.  It is called
        once per column that draws, in column order, and the generator is
        used up before the next call, so a re-keyed pool handle is safe.

    Returns
    -------
    Q : ndarray
        The ``d x n`` reconstructions, a new array in the memory order of ``X``.
    bits : ndarray
        Modeled cost of each column's message: ``spec.message_bits(d)``,
        which is at least 1, or 0 when the column sent nothing.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size < 1:
        raise ValueError(f"X must be a nonempty d x n matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        column = np.flatnonzero(~np.isfinite(X).all(axis=0))[0]
        raise ValueError(f"x contains nonfinite entries (column {column})")
    cost = spec.message_bits(X.shape[0])
    q = np.empty_like(X)
    sent = spec.apply(X, rng_for, q, np.empty(X.shape[::-1]) if spec.node_major else None)
    return q, np.where(sent, cost, 0)


def _rng(rng_for: RngFor | None, i: int, who: object) -> np.random.Generator:
    """Node ``i``'s generator for ``who``, an operator or oracle, which a ``ValueError`` names."""
    rng = None if rng_for is None else rng_for(i)
    if rng is None:
        raise ValueError(f"{who} needs an rng")
    return rng


def _column_norms(X: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X[:, i])`` for every column i, bit for bit: the same
    unit-stride dot and square root, over the node-major copy of ``X`` that
    this leaves in ``scratch``."""
    np.copyto(scratch, X.T)
    return np.sqrt(np.matmul(scratch[:, None, :], scratch[:, :, None]).reshape(X.shape[1]))


def _all_sent(X: np.ndarray) -> np.ndarray:
    return np.ones(X.shape[1], dtype=bool)

