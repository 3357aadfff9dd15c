"""Properties of the gossip kernel over generated graphs, stepsizes and operators.

Every property runs a few rounds of :class:`gossipsim.consensus.Gossip` on
a generated ring, torus or complete graph with a generated ``gamma``,
operator and initial matrix; tolerances are relative to the largest
magnitude the run produced, since the rescaled unbiased operators blow
values up.  A whole run's bytes depend on the values of ``X0`` alone, not on
its memory layout.
"""

import functools

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gossipsim.compression import Identity, Qsgd, RandGossip, RandK, RescaledUnbiased, TopK
from gossipsim.consensus import Gossip, GossipScheme, run_consensus
from gossipsim.optimize import TrackingAveraging
from gossipsim.topology import FullyConnected, Ring, Torus, build_gossip_matrix
from test_round_identity import diverging_gossip_case, gossip_cases, laid_out, outcome

EXACT, DIRECT, PAIRED, TRACKING = GossipScheme

GRAPHS = st.one_of(
    st.integers(1, 10).map(Ring),
    st.tuples(st.integers(3, 5), st.integers(3, 5)).map(lambda rc: Torus(*rc)),
    st.integers(1, 8).map(FullyConnected),
)
GAMMAS = st.floats(1e-3, 1.0)
ROUNDS = st.integers(1, 6)
SEEDS = st.integers(0, 2**32 - 1)


@functools.lru_cache(maxsize=None)
def matrix_of(kind):
    return build_gossip_matrix(kind)


def operators(d, unbiased=False):
    """Every operator valid at dimension d; only the unbiased ones if asked."""
    k = st.integers(1, d)
    primitives = st.one_of(
        k.map(RandK), st.integers(1, 64).map(Qsgd), st.floats(0.05, 1.0).map(RandGossip)
    )
    rescaled = primitives.map(RescaledUnbiased)
    if unbiased:
        return st.one_of(st.just(Identity()), rescaled)
    return st.one_of(st.just(Identity()), primitives, k.map(TopK), rescaled)


@st.composite
def runs(draw, scheme, bound=100.0):
    """``(gossip, x0, rounds)`` for one generated run of ``scheme``."""
    matrix = matrix_of(draw(GRAPHS))
    d = draw(st.integers(1, 8))
    # exact gossip sends its iterates and takes only the identity operator
    spec = Identity() if scheme == EXACT else draw(operators(d, scheme in (DIRECT, PAIRED)))
    x0 = draw(arrays(float, (d, matrix.n), elements=st.floats(-bound, bound)))
    gossip = Gossip(scheme, matrix, draw(GAMMAS), spec, draw(SEEDS))
    return gossip, x0, draw(ROUNDS)


def scale(*mats):
    return max(1.0, *(float(np.max(np.abs(m))) for m in mats))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), scheme=st.sampled_from([EXACT, PAIRED, TRACKING]))
def test_average_preserving_schemes_keep_the_column_mean(data, scheme):
    gossip, x, rounds = data.draw(runs(scheme))
    mean0, seen = x.mean(axis=1), scale(x)
    for t in range(rounds):
        received, own, _ = gossip.exchange(x, t)
        x = x + gossip.gamma * (received - own)
        seen = max(seen, scale(x, received, own))
        np.testing.assert_allclose(x.mean(axis=1), mean0, rtol=0, atol=1e-12 * seen)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tracking_aggregates_equal_estimates_times_w(data):
    gossip, x, rounds = data.draw(runs(TRACKING))
    weights = gossip.matrix.weights
    for t in range(rounds):
        x, _ = gossip.apply(x, t)
        recon = gossip.x_hat @ weights
        np.testing.assert_allclose(gossip.s, recon, rtol=0, atol=1e-12 * scale(gossip.x_hat))


@settings(max_examples=60, deadline=None)
@given(graph=GRAPHS, gamma=GAMMAS, rounds=st.integers(1, 30), d=st.integers(1, 8),
       data=st.data())
def test_identity_tracking_equals_exact_every_round(graph, gamma, rounds, d, data):
    matrix = matrix_of(graph)
    x = data.draw(arrays(float, (d, matrix.n), elements=st.floats(-1.0, 1.0)))
    exact, tracking = Gossip(EXACT, matrix, gamma), Gossip(TRACKING, matrix, gamma)
    x_exact = x_tracking = x
    for t in range(rounds):
        x_exact, bits_exact = exact.apply(x_exact, t)
        x_tracking, bits_tracking = tracking.apply(x_tracking, t)
        assert np.max(np.abs(x_exact - x_tracking)) <= 1e-12
        np.testing.assert_array_equal(bits_exact, bits_tracking)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_tracking_averaging_is_tracking_gossip(data):
    gossip, x, rounds = data.draw(runs(TRACKING))
    averaging = TrackingAveraging(gossip.matrix, gossip.gamma, gossip.compression, gossip.seed)
    for t in range(rounds):
        got, got_bits = averaging.apply(x, t)
        want, want_bits = gossip.apply(x, t)
        # both advance the same estimates; only the final association differs
        np.testing.assert_array_equal(averaging.x_hat, gossip.x_hat)
        np.testing.assert_array_equal(averaging.s, gossip.s)
        np.testing.assert_array_equal(got_bits, want_bits)
        tol = 1e-12 * scale(x, gossip.x_hat, gossip.s)
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        x = want


@settings(max_examples=150, deadline=None)
@given(gossip_cases())
@example(diverging_gossip_case(DIRECT, layout="F"))
def test_run_consensus_bytes_do_not_depend_on_the_layout_of_x0(case):
    config, x0 = case

    def run(layout):
        with np.errstate(over="ignore", invalid="ignore"):
            result = outcome(run_consensus, config, laid_out(x0, layout))
        if isinstance(result, tuple):  # the divergence it raised
            return result
        return repr(result.records), result.final_x.tobytes(), result.final_x.strides

    c_run = run("C")
    assert run("F") == c_run
    assert run("strided") == c_run
