"""Message compression operators and their bit-cost model.

Each operator ``Q`` maps a vector to a cheaper-to-transmit surrogate and
contracts the error in expectation::

    E ||Q(x) - x||^2  <=  (1 - omega) ||x||^2,      0 < omega <= 1,

where ``omega`` is the quality factor returned by :func:`omega`
(``omega = 1`` means lossless).  Implemented operators:

* ``Identity`` -- no compression.
* ``RandK(k)`` -- keep k coordinates chosen uniformly without replacement
  (``omega = k/d``).
* ``TopK(k)`` -- keep the k largest-magnitude coordinates, deterministic
  (``omega = k/d``); ties go to the lower index.
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

Every simulation round compresses one message per node, so the operators
work on a whole ``d x n`` matrix at once: :func:`compress_columns` treats
column ``i`` as node ``i``'s message and returns the reconstructions, the
bit cost of each message and whether it was sent.  Random operators draw
column ``i``'s numbers only from ``rng_for(i)``, one column after another in
node order, exactly as many as one message needs.  The simulators key
``rng_for(i)`` to the ``(seed, i, t, "compress")`` stream, so a node's
message does not depend on the other columns or on batching them.
:func:`compress` is the one-vector case of the same kernel.

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
    "Identity",
    "RandK",
    "TopK",
    "Qsgd",
    "RandGossip",
    "RescaledUnbiased",
    "CompressedMessage",
    "compress",
    "compress_columns",
    "omega",
    "payload_bits",
    "qsgd_tau",
    "resolve_k",
]

RngFor = Callable[[int], "np.random.Generator | None"]


@dataclass(frozen=True)
class CompressionSpec:
    """Base for all operator specs; carries the bit-accounting knob.

    Subclasses implement ``omega``, ``message_bits`` and ``apply``; those
    that consume random draws set ``random``, those that may send nothing
    set ``skips``, and those with ``E Q(x) = x`` set ``unbiased``.
    """

    value_bits: int = field(default=32, kw_only=True)
    random: ClassVar[bool] = False
    skips: ClassVar[bool] = False
    unbiased: ClassVar[bool] = False

    def __post_init__(self):
        if self.value_bits < 1:
            raise ValueError(f"value_bits must be >= 1, got {self.value_bits}")

    def omega(self, d: int) -> float:
        """Contraction quality at dimension ``d``."""
        raise TypeError(f"unknown compression spec {self!r}")

    def message_bits(self, d: int) -> int:
        """Modeled cost of one sent message at dimension ``d``."""
        raise TypeError(f"unknown compression spec {self!r}")

    def natural_tau(self, d: int) -> float:
        """Scale that lifts the operator to its unbiased estimator."""
        raise ValueError(f"no unbiased rescaling for {type(self).__name__}")

    def apply(self, X: np.ndarray, rng_for: RngFor | None) -> tuple[np.ndarray, np.ndarray]:
        """Compress every column of the finite ``d x n`` matrix ``X``;
        returns the reconstructions and a per-column sent mask."""
        raise TypeError(f"unknown compression spec {self!r}")


@dataclass(frozen=True)
class Identity(CompressionSpec):
    unbiased: ClassVar[bool] = True

    def omega(self, d):
        return 1.0

    def message_bits(self, d):
        return d * self.value_bits

    def natural_tau(self, d):
        return 1.0

    def apply(self, X, rng_for):
        return X.copy(order="K"), _all_sent(X)


@dataclass(frozen=True)
class RandK(CompressionSpec):
    k: int = 1
    random: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1:
            raise ValueError(f"k must be a positive count, got {self.k}")

    def omega(self, d):
        _check_k(self.k, d)
        return self.k / d

    def message_bits(self, d):
        _check_k(self.k, d)
        return self.k * (self.value_bits + _index_bits(d))

    def natural_tau(self, d):
        _check_k(self.k, d)
        return d / self.k

    def apply(self, X, rng_for):
        d, n = X.shape
        _check_k(self.k, d)
        rows = np.stack(
            [_rng(rng_for, i, self).choice(d, size=self.k, replace=False) for i in range(n)]
        )
        return _keep_rows(X, rows), _all_sent(X)


@dataclass(frozen=True)
class TopK(CompressionSpec):
    k: int = 1

    def __post_init__(self):
        super().__post_init__()
        if self.k < 1:
            raise ValueError(f"k must be a positive count, got {self.k}")

    def omega(self, d):
        _check_k(self.k, d)
        return self.k / d

    def message_bits(self, d):
        _check_k(self.k, d)
        return self.k * (self.value_bits + _index_bits(d))

    def apply(self, X, rng_for):
        d, n = X.shape
        k = self.k
        _check_k(k, d)
        mag = np.abs(X.T, order="C")  # one row per node
        rows = np.argpartition(mag, d - k, axis=1)[:, d - k:]
        # rows[:, 0] holds each node's k-th largest magnitude
        threshold = np.take_along_axis(mag, rows[:, :1], axis=1)
        tied = np.count_nonzero(mag >= threshold, axis=1) > k
        for i in np.flatnonzero(tied):
            # a stable sort of -|x| keeps the lowest-index ties
            above = np.flatnonzero(mag[i] > threshold[i])
            level = np.flatnonzero(mag[i] == threshold[i])
            rows[i] = np.concatenate([above, level[: k - above.size]])
        return _keep_rows(X, rows), _all_sent(X)


@dataclass(frozen=True)
class Qsgd(CompressionSpec):
    s: int = 1
    random: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if self.s < 1:
            raise ValueError(f"s must be a positive level count, got {self.s}")

    def omega(self, d):
        return 1.0 / qsgd_tau(self.s, d)

    def message_bits(self, d):
        level_bits = (self.s - 1).bit_length() if self.s > 1 else 0
        return d * (1 + level_bits) + self.value_bits

    def natural_tau(self, d):
        return qsgd_tau(self.s, d)

    def apply(self, X, rng_for):
        d, n = X.shape
        norms = np.array([np.linalg.norm(X[:, i]) for i in range(n)])
        live = norms > 0.0
        dither = np.zeros((n, d))
        for i in np.flatnonzero(live):  # a zero column draws nothing
            _rng(rng_for, i, self).random(out=dither[i])
        norms[~live] = 1.0
        # levels = floor(s |x| / norm + xi), step by step in that order
        q = np.abs(X)
        q *= self.s
        q /= norms
        q += dither.T
        np.floor(q, out=q)
        # (sign(x) * scale) * levels equals copysign(scale * levels, x) bit
        # for bit, because levels >= 0 and np.sign maps -0.0 to +0.0
        q *= norms / (self.s * qsgd_tau(self.s, d))
        np.copysign(q, X, out=q, where=X != 0.0)
        q[:, ~live] = 0.0  # the norm also underflows to zero for tiny nonzero x
        return q, _all_sent(X)


@dataclass(frozen=True)
class RandGossip(CompressionSpec):
    p: float = 1.0
    random: ClassVar[bool] = True
    skips: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 < self.p <= 1.0:
            raise ValueError(f"p must lie in (0, 1], got {self.p}")

    def omega(self, d):
        return self.p

    def message_bits(self, d):
        return d * self.value_bits

    def natural_tau(self, d):
        return 1.0 / self.p

    def apply(self, X, rng_for):
        sent = np.array([_rng(rng_for, i, self).random() < self.p for i in range(X.shape[1])])
        q = np.zeros_like(X)
        q[:, sent] = X[:, sent]
        return q, sent


@dataclass(frozen=True)
class RescaledUnbiased(CompressionSpec):
    inner: CompressionSpec = Identity()
    unbiased: ClassVar[bool] = True

    def __post_init__(self):
        super().__post_init__()
        if isinstance(self.inner, (TopK, RescaledUnbiased)):
            raise ValueError(
                f"inner operator {type(self.inner).__name__} has no unbiased rescaling"
            )

    @property
    def random(self):
        return self.inner.random

    @property
    def skips(self):
        return self.inner.skips

    def omega(self, d):
        return 1.0 / self.inner.natural_tau(d)

    def message_bits(self, d):
        return self.inner.message_bits(d)

    def apply(self, X, rng_for):
        q, sent = self.inner.apply(X, rng_for)
        q *= self.inner.natural_tau(X.shape[0])
        return q, sent


@dataclass(frozen=True)
class CompressedMessage:
    """Reconstructed payload plus its modeled transmission cost in bits."""

    dense_value: np.ndarray
    payload_bits: int
    transmitted: bool = True


def qsgd_tau(s: int, d: int) -> float:
    """Second-moment constant ``1 + min(d/s^2, sqrt(d)/s)`` of s-level dithering."""
    return 1.0 + min(d / s**2, math.sqrt(d) / s)


def resolve_k(fraction: float, d: int) -> int:
    """Turn a coordinate fraction into a count, ``k = ceil(fraction * d)``."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"k fraction must lie in (0, 1], got {fraction}")
    return max(1, math.ceil(fraction * d))


def _check_k(k: int, d: int):
    if k > d:
        raise ValueError(f"k = {k} exceeds the dimension d = {d}")


def _index_bits(d: int) -> int:
    return (d - 1).bit_length() if d > 1 else 0


def omega(spec: CompressionSpec, d: int) -> float:
    """Contraction quality of ``spec`` at dimension ``d``; always in (0, 1]."""
    if d < 1:
        raise ValueError(f"dimension d must be >= 1, got {d}")
    return spec.omega(d)


def payload_bits(spec: CompressionSpec, d: int, message: CompressedMessage | None = None) -> int:
    """Modeled cost in bits of one message produced by ``spec`` at dimension d.

    ``RandGossip`` costs depend on whether the draw transmitted anything, so
    the message must be supplied for it.
    """
    bits = spec.message_bits(d)
    if message is None:
        if spec.skips:
            raise ValueError(f"{type(spec).__name__} cost depends on the message; pass one")
        return bits
    return bits if message.transmitted else 0


def compress_columns(
    spec: CompressionSpec, X: np.ndarray, rng_for: RngFor | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
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
        The ``d x n`` reconstructions, in the memory order of ``X``.
    bits : ndarray
        Modeled cost of each column's message (0 when nothing was sent).
    transmitted : ndarray
        Boolean mask of the columns that sent a message.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.size < 1:
        raise ValueError(f"X must be a nonempty d x n matrix, got shape {X.shape}")
    if not np.isfinite(X).all():
        column = np.flatnonzero(~np.isfinite(X).all(axis=0))[0]
        raise ValueError(f"x contains nonfinite entries (column {column})")
    cost = spec.message_bits(X.shape[0])
    q, sent = spec.apply(X, rng_for)
    return q, np.where(sent, cost, 0), sent


def compress(
    spec: CompressionSpec, x: np.ndarray, rng: np.random.Generator | None = None
) -> CompressedMessage:
    """Apply the operator to ``x`` and return the reconstruction with its cost.

    Parameters
    ----------
    spec : CompressionSpec
        Operator to apply; must be valid for ``d = len(x)``.
    x : ndarray
        Finite one-dimensional input vector.
    rng : numpy Generator, optional
        Source of randomness; required for the random operators.  One call
        consumes exactly the draws of one message, so passing streams keyed
        per (node, round) makes simulations reproducible and thread safe.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 1 or x.size < 1:
        raise ValueError(f"x must be a nonempty 1-d vector, got shape {x.shape}")
    q, bits, sent = compress_columns(spec, x[:, None], lambda i: rng)
    return CompressedMessage(dense_value=q[:, 0], payload_bits=int(bits[0]),
                             transmitted=bool(sent[0]))


def _rng(rng_for: RngFor | None, i: int, spec: CompressionSpec) -> np.random.Generator:
    rng = None if rng_for is None else rng_for(i)
    if rng is None:
        raise ValueError(f"{type(spec).__name__} is random; an rng is required")
    return rng


def _all_sent(X: np.ndarray) -> np.ndarray:
    return np.ones(X.shape[1], dtype=bool)


def _keep_rows(X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Zeros except ``X[rows[i], i]`` for every column i."""
    cols = np.repeat(np.arange(X.shape[1]), rows.shape[1])
    rows = rows.ravel()
    q = np.zeros_like(X)
    q[rows, cols] = X[rows, cols]
    return q
