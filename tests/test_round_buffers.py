"""The gossip kernel's round buffers: no allocation per round, a bounded live
set, and the same bytes as the allocating code.

``Gossip`` owns every ``d x n`` array a round touches and the operators
write into them, so after round 0 a round allocates nothing of that size.
tracemalloc sees numpy's array data, so the guards below count the bytes a
round or a whole run allocates in units of one ``d x n`` float array.  The
logistic objective likewise keeps no Python object per dataset row: what it
holds beyond its dataset is a few arrays of one entry per row.
"""

import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
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
    _column_norms,
    compress_columns,
)
from gossipsim.consensus import ConsensusConfig, Gossip, GossipScheme, run_consensus
from gossipsim.harness import build_topology, gaussian_init, parse_compression
from gossipsim.objectives import Dataset, LogisticObjective, partition
from gossipsim.streams import stream

EXACT, DIRECT, PAIRED, TRACKING = GossipScheme
D = 2000
RING25 = build_topology("ring", 25)
TORUS8 = build_topology("torus", None, 8, 8)


def traced_peak(fn):
    """Peak bytes ``fn`` allocates on top of what is already live."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


ROUNDS = [
    (TRACKING, Identity()),
    (TRACKING, RandK(20)),
    (TRACKING, TopK(20)),
    (TRACKING, Qsgd(256)),
    (TRACKING, RandGossip(0.5)),
    (TRACKING, RescaledUnbiased(RandK(20))),
    (EXACT, Identity()),
    (DIRECT, RescaledUnbiased(Qsgd(16))),
    (PAIRED, RescaledUnbiased(RandK(20))),
]


@pytest.mark.parametrize("scheme, spec", ROUNDS, ids=lambda v: getattr(v, "value", repr(v)))
def test_a_round_after_round_zero_allocates_no_array(scheme, spec):
    gossip = Gossip(scheme, RING25, 0.05, spec, seed=1)
    x = gaussian_init(D, RING25.n, 1)

    def one_round(t):
        received, own, _ = gossip.exchange(x, t)
        x.__iadd__(gossip.move(received, own))

    one_round(0)
    one_round(1)
    assert traced_peak(lambda: one_round(2)) / x.nbytes < 0.5


# (graph, scheme, operator, gamma, the earlier code's peak live set)
RUNS = [
    (RING25, "tracking", "qsgd:256", 1.0, 6.24),
    (RING25, "tracking", "top_k:0.01", 0.046, 7.19),
    (TORUS8, "exact", "identity", 1.0, 3.02),
    (TORUS8, "tracking", "rand_k:0.01", 0.011, 6.03),
]


@pytest.mark.parametrize("matrix, scheme, spec, gamma, bound", RUNS,
                         ids=[f"{r[1]}-{r[2]}" for r in RUNS])
def test_run_consensus_peak_live_set(matrix, scheme, spec, gamma, bound):
    config = ConsensusConfig(
        scheme=GossipScheme(scheme), matrix=matrix, gamma=gamma,
        compression=parse_compression(spec, D), iters=30, seed=1,
    )
    x0 = gaussian_init(D, matrix.n, 1)
    run_consensus(config, x0)  # first-call caches are not part of a run
    # counts run_consensus's own copy of x0
    assert traced_peak(lambda: run_consensus(config, x0)) / x0.nbytes <= bound


# ---------------------------------------------------------------------------
# buffered and fresh compress_columns, byte for byte

# zeros of both signs, subnormals and magnitudes whose squares under- or
# overflow next to ordinary values
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-160, 1e-160, 1e154,
                         -3e200, 1.0, -1.0, 0.5])
ELEMENTS = st.one_of(EDGES, st.floats(-1e3, 1e3, allow_nan=False))


def laid_out(X, layout):
    if layout == "strided":
        wide = np.full((X.shape[0], 2 * X.shape[1]), np.nan)
        wide[:, ::2] = X
        return wide[:, ::2]
    return np.asarray(X, order=layout)


@st.composite
def matrices(draw, max_d=9, max_n=5):
    d = draw(st.one_of(st.just(1), st.integers(1, max_d)))
    n = draw(st.one_of(st.just(1), st.integers(1, max_n)))
    X = draw(arrays(np.float64, (d, n), elements=ELEMENTS))
    if draw(st.booleans()):
        X[:, draw(st.integers(0, n - 1))] = 0.0  # a column that draws nothing
    return laid_out(X, draw(st.sampled_from(["C", "F", "strided"])))


@st.composite
def specs(draw, d):
    k = st.integers(1, d)
    primitive = st.one_of(
        st.just(Identity()), k.map(RandK), k.map(TopK), st.integers(1, 300).map(Qsgd),
        st.floats(0.05, 1.0).map(RandGossip),
    )
    spec = draw(primitive)
    if not isinstance(spec, TopK) and draw(st.booleans()):
        spec = RescaledUnbiased(spec)
    return spec


def streams_for(seed):
    return lambda i: stream(seed, node=i, round_=3, tag="compress")


def same_bits(a, b):
    return (a.dtype == b.dtype and a.shape == b.shape and a.strides == b.strides
            and a.tobytes() == b.tobytes())


def buffered_equals_fresh(spec, X, other, seed):
    with np.errstate(over="ignore", invalid="ignore"):  # norms that overflow
        want, want_bits = compress_columns(spec, X, streams_for(seed))
        before = X.tobytes()
        out = np.full_like(X, np.nan)
        scratch = np.full(X.shape[::-1], np.nan)
        # buffers left dirty by an earlier call
        compress_columns(spec, other, streams_for(seed + 1), out, scratch)
        q, bits = compress_columns(spec, X, streams_for(seed), out, scratch)
    assert q is out
    assert same_bits(q, want)
    assert same_bits(bits, want_bits)
    assert X.tobytes() == before  # the input is never a buffer


@settings(max_examples=400, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_buffered_compress_equals_fresh(data, seed):
    X = data.draw(matrices())
    spec = data.draw(specs(X.shape[0]))
    other = data.draw(arrays(np.float64, X.shape, elements=ELEMENTS))
    buffered_equals_fresh(spec, X, other, seed)


@pytest.mark.parametrize("spec", [Qsgd(4), TopK(2), RescaledUnbiased(Qsgd(2))])
def test_single_node_input_is_not_the_scratch(spec):
    # for n = 1, X.T of a C-ordered X is itself C-ordered: a view, not a copy
    X = np.array([[3.0], [-1.0], [0.0], [2.0]])
    buffered_equals_fresh(spec, X, np.ones_like(X), seed=5)


@settings(max_examples=400, deadline=None)
@given(X=matrices(max_d=40, max_n=6))
def test_qsgd_norms_equal_linalg_norm(X):
    with np.errstate(over="ignore"):
        norms = _column_norms(X, np.empty(X.shape[::-1]))
        want = np.array([np.linalg.norm(X[:, i]) for i in range(X.shape[1])])
    assert same_bits(norms, want)


def test_logistic_objective_keeps_no_object_per_row():
    # 60k rows of 0 to 3 entries, which no (m, w) table holds
    m, d = 60_000, 8
    sizes = np.arange(m) % 4
    indptr = np.concatenate([[0], np.cumsum(sizes)])
    indices = np.arange(indptr[-1]) - np.repeat(indptr[:-1], sizes)  # columns 0, 1, ...
    features = sp.csr_matrix((np.ones(indptr[-1]), indices, indptr), shape=(m, d))
    dataset = Dataset(features=features, labels=np.where(sizes % 2, 1.0, -1.0))
    shards = partition(dataset, 9, "sorted")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        objective = LogisticObjective(dataset, shards)
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert objective.stochastic_gradients(np.zeros((d, 9)), lambda i: stream(1)).shape == (d, 9)
    assert kept <= 2**20  # the concatenated shards are 8 bytes a row, 480 kB here
