"""The batched gradient oracles against a per-node reference.

The reference below computes one node's stochastic gradient at a time, the
way the simulator did before the oracles were batched.  Column i of
``stochastic_gradients`` must reproduce it bit for bit, drawing from
``rng_for(i)`` only, in node order, exactly as many numbers as one node
needs.  The logistic oracle has two paths, one for datasets whose rows
differ in length and one for datasets whose rows all hold the same number
of entries; each has its own cases, and the second runs on ``X`` in every
memory layout.
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from gossipsim.objectives import Dataset, LogisticObjective, QuadraticObjective
from gossipsim.streams import stream

FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


def reference_quadratic(objective, i, x, rng):
    g = x - objective.targets[:, i]
    if objective.noise_sigma > 0.0:
        d = x.size
        g = g + objective.noise_sigma * rng.standard_normal(d) / math.sqrt(d)
    return g


def reference_logistic(objective, i, x, rng):
    shard = objective.shards[i]
    j = int(shard[rng.integers(len(shard))])
    csr = objective.dataset.features
    cols = csr.indices[csr.indptr[j]:csr.indptr[j + 1]]
    vals = csr.data[csr.indptr[j]:csr.indptr[j + 1]]
    b = objective.dataset.labels[j]
    coef = -b * float(expit(-b * float(vals @ x[cols])))
    g = 2.0 * (1.0 / (2 * objective.dataset.m)) * x
    g[cols] += coef * vals
    return g


def check_columns(objective, X, reference, seed):
    """Node streams and one shared generator both match the reference."""
    G = objective.stochastic_gradients(X, lambda i: stream(seed, node=i, tag="grad"))
    assert G.shape == X.shape
    for i in range(X.shape[1]):
        want = reference(objective, i, X[:, i], stream(seed, node=i, tag="grad"))
        assert G[:, i].tobytes() == want.tobytes()

    shared, replay = stream(seed), stream(seed)
    G = objective.stochastic_gradients(X, lambda i: shared)
    for i in range(X.shape[1]):
        assert G[:, i].tobytes() == reference(objective, i, X[:, i], replay).tobytes()
    assert shared.random() == replay.random()  # same draws consumed


@st.composite
def quadratic_cases(draw, sigma):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 6))
    targets = draw(arrays(np.float64, (d, n), elements=FLOATS))
    X = draw(arrays(np.float64, (d, n), elements=FLOATS))
    return QuadraticObjective(targets, noise_sigma=sigma), X, draw(st.integers(0, 2**32))


@settings(max_examples=200, deadline=None)
@given(quadratic_cases(sigma=0.0))
def test_noiseless_quadratic_draws_nothing(case):
    objective, X, _ = case

    def rng_for(i):
        raise AssertionError(f"rng_for({i}) called without noise")

    G = objective.stochastic_gradients(X, rng_for)
    for i in range(X.shape[1]):
        assert G[:, i].tobytes() == reference_quadratic(objective, i, X[:, i], None).tobytes()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([1e-3, 0.5, 1.0, 7.0]).flatmap(quadratic_cases))
def test_noisy_quadratic_matches_per_node_reference(case):
    objective, X, seed = case
    check_columns(objective, X, reference_quadratic, seed)


def labeled_and_sharded(draw, features, n):
    """An objective over ``features`` with drawn labels and n shards, each a
    contiguous slice of a permutation, cut at arbitrary points."""
    m = features.shape[0]
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    order = np.array(draw(st.permutations(range(m))))
    cuts = []
    if n > 1:
        cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=n - 1, max_size=n - 1)))
    return LogisticObjective(Dataset(features=features, labels=labels), np.split(order, cuts))


@st.composite
def logistic_cases(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 12))
    # each row keeps a random subset of the features, possibly none
    mask = draw(arrays(np.bool_, (m, d)))
    dense = np.where(mask, draw(arrays(np.float64, (m, d), elements=FLOATS)), 0.0)
    objective = labeled_and_sharded(draw, sp.csr_matrix(dense), n)
    X = draw(arrays(np.float64, (d, n), elements=st.floats(-5, 5)))
    return objective, X, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(logistic_cases())
def test_logistic_matches_per_node_reference(case):
    objective, X, seed = case
    check_columns(objective, X, reference_logistic, seed)


def laid_out(X, layout):
    if layout == "strided":
        wide = np.zeros((X.shape[0], 2 * X.shape[1]))
        wide[:, ::2] = X
        return wide[:, ::2]
    return np.asarray(X, order=layout)


@st.composite
def equal_length_logistic_cases(draw):
    """Every row stores the same number ``w >= 1`` of entries, explicit zero
    values included, at sorted or unsorted columns; ``X`` is C-ordered,
    F-ordered or a strided view.  Rows of 17 to 40 entries, with values
    scaled by 1/3 so that their products round, show a dot that sums in
    another order than the BLAS one."""
    d = draw(st.one_of(st.integers(1, 6), st.integers(17, 40)))
    w = draw(st.integers(1, d))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 12))
    columns = st.permutations(range(d)).map(lambda p: p[:w])
    indices = np.array([draw(columns) for _ in range(m)], dtype=np.int32)
    values = draw(arrays(np.float64, (m, w), elements=st.one_of(st.just(0.0), FLOATS)))
    values *= draw(st.sampled_from([1.0, 1 / 3]))
    features = sp.csr_matrix((values.ravel(), indices.ravel(), np.arange(m + 1) * w), shape=(m, d))
    assert features.nnz == m * w  # the CSR keeps its explicit zeros
    objective = labeled_and_sharded(draw, features, n)
    X = draw(arrays(np.float64, (d, n), elements=st.floats(-5, 5)))
    return objective, laid_out(X, draw(st.sampled_from(["C", "F", "strided"]))), draw(
        st.integers(0, 2**32))


def one_node_case(layout):
    features = sp.csr_matrix(([0.5, 0.0, -1.5, 2.0], [2, 0, 1, 2], [0, 2, 4]), shape=(2, 3))
    objective = LogisticObjective(Dataset(features=features, labels=np.array([1.0, -1.0])),
                                  [np.array([1, 0])])
    return objective, laid_out(np.array([[1.0], [-2.0], [3.0]]), layout), 5


@settings(max_examples=300, deadline=None)
@given(equal_length_logistic_cases())
@example(one_node_case("C"))
@example(one_node_case("F"))
@example(one_node_case("strided"))
def test_equal_length_logistic_matches_per_node_reference(case):
    objective, X, seed = case
    check_columns(objective, X, reference_logistic, seed)
