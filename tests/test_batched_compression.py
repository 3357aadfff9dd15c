"""The batched kernel against a per-column reference, and its input checks.

The reference below compresses one column at a time the way a single node
would, with ``top_k`` defined by a stable sort of ``-|x|``.  The kernel must
reproduce it bit for bit, including the sign of zeros, the bit costs (0 for
a column that sent nothing), and how far every random stream was consumed.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gossipsim.compression import (
    Identity,
    Qsgd,
    RandGossip,
    RandK,
    RescaledUnbiased,
    TopK,
    compress_columns,
)
from gossipsim.consensus import DivergenceError, Gossip, GossipScheme
from gossipsim.optimize import TrackingAveraging
from gossipsim.streams import stream
from gossipsim.topology import Ring, build_gossip_matrix


def reference_column(spec, x, rng):
    """One node's message: ``(dense value, transmitted)``."""
    d = x.size
    if isinstance(spec, Identity):
        return x.copy(), True
    if isinstance(spec, RandK):
        idx = rng.choice(d, size=spec.k, replace=False)
        out = np.zeros(d)
        out[idx] = x[idx]
        return out, True
    if isinstance(spec, TopK):
        idx = np.argsort(-np.abs(x), kind="stable")[: spec.k]
        out = np.zeros(d)
        out[idx] = x[idx]
        return out, True
    if isinstance(spec, Qsgd):
        norm = float(np.linalg.norm(x))
        if norm == 0.0:
            return np.zeros(d), True
        xi = rng.random(d)
        levels = np.floor(spec.s * np.abs(x) / norm + xi)
        tau = 1.0 + min(d / spec.s**2, math.sqrt(d) / spec.s)
        return np.sign(x) * (norm / (spec.s * tau)) * levels, True
    if isinstance(spec, RandGossip):
        if rng.random() < spec.p:
            return x.copy(), True
        return np.zeros(d), False
    if isinstance(spec, RescaledUnbiased):
        dense, sent = reference_column(spec.inner, x, rng)
        inner = spec.inner
        if isinstance(inner, RandK):
            tau = d / inner.k
        elif isinstance(inner, Qsgd):
            tau = 1.0 + min(d / inner.s**2, math.sqrt(d) / inner.s)
        else:
            tau = 1.0 / inner.p
        return tau * dense, sent
    raise TypeError(spec)


def reference_bits(spec, d, sent):
    index_bits = math.ceil(math.log2(d)) if d > 1 else 0
    if isinstance(spec, RescaledUnbiased):
        return reference_bits(spec.inner, d, sent)
    if isinstance(spec, (RandK, TopK)):
        return spec.k * (32 + index_bits)
    if isinstance(spec, Qsgd):
        return d * (1 + (math.ceil(math.log2(spec.s)) if spec.s > 1 else 0)) + 32
    return d * 32 if sent else 0


def reference(spec, X, rng_for):
    q = np.empty_like(X)
    bits = []
    for i in range(X.shape[1]):
        q[:, i], ok = reference_column(spec, X[:, i], rng_for(i))
        bits.append(reference_bits(spec, X.shape[0], ok))
    return q, bits


def same_bits(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# few distinct magnitudes, so ties, signed zeros, zero columns and norms
# that underflow to zero are common
VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 2.0, 1e-170, -5e-324]),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@st.composite
def cases(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 5))
    X = draw(arrays(np.float64, (d, n), elements=VALUES))
    for j in draw(st.sets(st.integers(0, n - 1), max_size=n)):
        X[:, j] = 0.0
    k = draw(st.integers(1, d))
    s = draw(st.sampled_from([1, 3, 256]))
    p = draw(st.sampled_from([0.3, 0.7, 1.0]))
    spec = draw(st.sampled_from([
        Identity(), RandK(k), TopK(k), Qsgd(s), RandGossip(p),
        RescaledUnbiased(RandK(k)), RescaledUnbiased(Qsgd(s)),
        RescaledUnbiased(RandGossip(p)),
    ]))
    return spec, X, draw(st.integers(0, 2**32))


@settings(max_examples=400, deadline=None)
@given(cases())
def test_kernel_matches_per_column_reference_with_node_streams(case):
    spec, X, seed = case
    n = X.shape[1]
    streams = [stream(seed, node=i, tag="compress") for i in range(n)]
    q, bits = compress_columns(spec, X, streams.__getitem__)
    replay = [stream(seed, node=i, tag="compress") for i in range(n)]
    want_q, want_bits = reference(spec, X, replay.__getitem__)
    assert same_bits(q, want_q)
    assert np.array_equal(bits, want_bits)
    # every node's stream was consumed exactly as far as its reference
    assert [g.random() for g in streams] == [g.random() for g in replay]


@settings(max_examples=400, deadline=None)
@given(cases())
def test_kernel_consumes_a_shared_generator_in_node_order(case):
    spec, X, seed = case
    shared, replay = stream(seed), stream(seed)
    q, bits = compress_columns(spec, X, lambda i: shared)
    want_q, want_bits = reference(spec, X, lambda i: replay)
    assert same_bits(q, want_q)
    assert np.array_equal(bits, want_bits)
    # both consumed exactly the same draws
    assert shared.random() == replay.random()


def test_top_k_ties_go_to_lower_indices():
    X = np.array([[1.0, 0.0], [-2.0, 0.0], [2.0, -0.0], [-1.0, 0.0]])
    q, _ = compress_columns(TopK(2), X)
    assert same_bits(q[:, 0], np.array([0.0, -2.0, 2.0, 0.0]))
    assert same_bits(q[:, 1], np.array([0.0, 0.0, 0.0, 0.0]))
    q, _ = compress_columns(TopK(3), X)
    assert same_bits(q[:, 0], np.array([1.0, -2.0, 2.0, 0.0]))
    assert same_bits(q[:, 1], np.array([0.0, 0.0, -0.0, 0.0]))


def test_qsgd_zero_norm_columns_map_to_positive_zero():
    # x * x underflows, so these nonzero columns have norm 0 like a zero one
    X = np.array([[-2.2e-308, 0.0, 1.0], [1e-170, -0.0, -1.0]])
    q, _ = compress_columns(Qsgd(4), X, lambda i: stream(3, node=i))
    assert same_bits(q[:, :2], np.zeros((2, 2)))
    assert same_bits(q[:, 2], reference_column(Qsgd(4), X[:, 2], stream(3, node=2))[0])


RING5 = build_gossip_matrix(Ring(5))
DIVERGED_AT_0 = "^" + re.escape("run diverged at iteration 0 (error inf)") + "$"


def poisoned(bad, column):
    X = stream(31).standard_normal((6, 5))
    X[2, column] = bad
    return X


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("column", [0, 2, 4])
class TestNonfiniteInputRejected:
    def test_kernel(self, bad, column):
        with pytest.raises(ValueError, match=f"nonfinite.*column {column}"):
            compress_columns(TopK(2), poisoned(bad, column))

    # the gossip kernel's rule: a round whose sent vector is not finite diverged
    def test_step_tracking(self, bad, column):
        gossip = Gossip(GossipScheme.TRACKING, RING5, 0.5, RandK(2), seed=1)
        with pytest.raises(DivergenceError, match=DIVERGED_AT_0):
            gossip.apply(poisoned(bad, column), 0)

    def test_tracking_averaging(self, bad, column):
        scheme = TrackingAveraging(RING5, 0.5, Qsgd(4), seed=1)
        with pytest.raises(DivergenceError, match=DIVERGED_AT_0):
            scheme.apply(poisoned(bad, column), 0)

    def test_one_vector(self, bad, column):
        # one node's vector alone, as a single-node graph passes it
        with pytest.raises(ValueError, match="nonfinite.*column 0"):
            compress_columns(Identity(), poisoned(bad, column)[:, [column]])


def test_kernel_rejects_non_matrix_input():
    for X in (np.ones(3), np.ones((0, 2)), np.ones((2, 2, 2))):
        with pytest.raises(ValueError, match="d x n"):
            compress_columns(Identity(), X)
