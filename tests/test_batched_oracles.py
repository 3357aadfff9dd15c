"""The batched gradient oracles against a per-node reference.

The reference below computes one node's stochastic gradient at a time, the
way the simulator did before the oracles were batched.  Column i of
``stochastic_gradients`` must reproduce it bit for bit, drawing from
``rng_for(i)`` only, in node order, exactly as many numbers as one node
needs.
"""

import math

import numpy as np
import scipy.sparse as sp
from hypothesis import given, settings
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


@st.composite
def logistic_cases(draw):
    d = draw(st.integers(1, 6))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(n, 12))
    # each row keeps a random subset of the features, possibly none
    mask = draw(arrays(np.bool_, (m, d)))
    dense = np.where(mask, draw(arrays(np.float64, (m, d), elements=FLOATS)), 0.0)
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    dataset = Dataset(features=sp.csr_matrix(dense), labels=labels)
    # contiguous slices of a permutation, cut at arbitrary points
    order = np.array(draw(st.permutations(range(m))))
    cuts = []
    if n > 1:
        cuts = sorted(draw(st.sets(st.integers(1, m - 1), min_size=n - 1, max_size=n - 1)))
    shards = np.split(order, cuts)
    X = draw(arrays(np.float64, (d, n), elements=st.floats(-5, 5)))
    return LogisticObjective(dataset, shards), X, draw(st.integers(0, 2**32))


@settings(max_examples=300, deadline=None)
@given(logistic_cases())
def test_logistic_matches_per_node_reference(case):
    objective, X, seed = case
    check_columns(objective, X, reference_logistic, seed)
