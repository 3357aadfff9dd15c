"""Metamorphic relations of the run loops, which hold whatever bytes a run pins.

* Cadence: the evaluation cadence changes only which iterations are recorded.
  Runs with ``eval_every`` 1 and k agree at every iteration both record, and
  a consensus run ends in the same ``final_x``.
* Horizon prefix: a run of T' <= T rounds records what the T-round run
  records at the same iterations, its final record included: the T-round
  run records every iteration.
* Power-of-two scaling: a consensus run from ``8 X0`` ends in ``8 final_x``,
  with ``error`` and ``lyapunov`` times 64, ``mean_drift`` times 8 and the
  same ``bits``.  Scaling by 8 is exact unless a value is subnormal, so no
  nonzero entry of ``X0`` is below 1e-100, whose squares would underflow.
* Node relabeling: relabeling a regular graph's nodes by a permutation and
  permuting ``X0``'s columns alike permutes ``final_x`` and leaves the
  records, up to rounding: the products ``X W`` sum in another order.  The
  operators that draw random numbers key their streams by node, so only
  ``exact`` and ``tracking`` with ``identity`` or ``top_k`` are relabeled.

A case in which either run raises is skipped: divergence is checked only on
evaluated rounds, so the cadence can move it, and its limit ``1e6 max(e0,
1)`` does not scale.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.compression import Identity, TopK
from gossipsim.consensus import ConsensusConfig, GossipScheme, run_consensus, tracking_stepsize
from gossipsim.optimize import run_optimization
from gossipsim.streams import stream
from gossipsim.topology import FullyConnected, Graph, Ring, Torus, build_gossip_matrix
from test_round_identity import gossip_cases, outcome, same_bits, sgd_cases


def agree(records, others):
    """The two record lists match at every iteration both record."""
    mine, theirs = ({rec.iter: repr(rec) for rec in recs} for recs in (records, others))
    common = mine.keys() & theirs.keys()
    assert 0 in common
    assert [mine[t] for t in sorted(common)] == [theirs[t] for t in sorted(common)]


def runs(run, case, *changes):
    """The case's runs, one per dict of ``changes`` to its config, or None if
    any raised."""
    config, *inputs = case
    got = [outcome(run, dataclasses.replace(config, **change), *inputs) for change in changes]
    return None if any(isinstance(result, tuple) for result in got) else got


@settings(max_examples=100, deadline=None)
@given(gossip_cases(), st.integers(2, 9))
def test_consensus_cadence_changes_only_what_is_recorded(case, every):
    if results := runs(run_consensus, case, {"eval_every": 1}, {"eval_every": every}):
        dense, sparse = results
        agree(sparse.records, dense.records)
        assert same_bits(sparse.final_x, dense.final_x)


@settings(max_examples=100, deadline=None)
@given(gossip_cases(), st.data())
def test_consensus_shorter_horizon_is_a_prefix(case, data):
    shorter = data.draw(st.integers(1, case[0].iters))
    if results := runs(run_consensus, case, {"eval_every": 1},
                       {"eval_every": 1, "iters": shorter}):
        agree(results[1].records, results[0].records)


@settings(max_examples=100, deadline=None)
@given(gossip_cases())
def test_consensus_scales_by_a_power_of_two(case):
    config, x0 = case
    x0 = np.where(np.abs(x0) < 1e-100, 0.0, x0)
    base, scaled = outcome(run_consensus, config, x0), outcome(run_consensus, config, 8 * x0)
    if isinstance(base, tuple) or isinstance(scaled, tuple):
        return
    assert same_bits(scaled.final_x, 8 * base.final_x)
    assert len(scaled.records) == len(base.records)
    for got, want in zip(scaled.records, base.records):
        assert (got.iter, got.bits) == (want.iter, want.bits)
        assert (got.error, got.lyapunov, got.mean_drift) == (
            64 * want.error, 64 * want.lyapunov, 8 * want.mean_drift)


@settings(max_examples=50, deadline=None)
@given(sgd_cases(), st.integers(2, 9))
def test_sgd_cadence_changes_only_what_is_recorded(case, every):
    if results := runs(run_optimization, case, {"eval_every": 1}, {"eval_every": every}):
        agree(results[1].records, results[0].records)


@settings(max_examples=50, deadline=None)
@given(sgd_cases(), st.data())
def test_sgd_shorter_horizon_is_a_prefix(case, data):
    shorter = data.draw(st.integers(1, case[0].iters))
    if results := runs(run_optimization, case, {"eval_every": 1},
                       {"eval_every": 1, "iters": shorter}):
        agree(results[1].records, results[0].records)


@st.composite
def relabeled_cases(draw):
    """``(config, x0, perm, relabeled config, relabeled x0)``: node i of the
    case is node ``perm[i]`` of its relabeled copy."""
    graph = draw(st.one_of(
        st.integers(3, 9).map(Ring),
        st.tuples(st.integers(3, 4), st.integers(3, 4)).map(lambda rc: Torus(*rc)),
        st.integers(2, 6).map(FullyConnected),
    ))
    perm = draw(st.permutations(range(graph.n)))
    matrix = build_gossip_matrix(graph)
    moved = build_gossip_matrix(Graph(graph.n, tuple((perm[i], perm[j]) for i, j in graph.edges)))
    d = draw(st.integers(1, 40))
    scheme = draw(st.sampled_from([GossipScheme.EXACT, GossipScheme.TRACKING]))
    if scheme is GossipScheme.EXACT:
        spec, gamma = Identity(), draw(st.sampled_from([0.5, 1.0]))
    else:  # one gamma for both runs: delta and beta may differ in their last bits
        spec = draw(st.sampled_from([Identity(), TopK(draw(st.integers(1, d)))]))
        gamma = tracking_stepsize(matrix.delta, spec.omega(d), matrix.beta)
    common = dict(scheme=scheme, gamma=gamma, compression=spec,
                  iters=draw(st.integers(1, 60)), eval_every=draw(st.integers(1, 7)))
    x0 = stream(draw(st.integers(0, 2**32)), tag="init").standard_normal((d, graph.n))
    moved_x0 = np.empty_like(x0)
    moved_x0[:, perm] = x0
    return (ConsensusConfig(matrix=matrix, **common), x0, list(perm),
            ConsensusConfig(matrix=moved, **common), moved_x0)


@settings(max_examples=100, deadline=None)
@given(relabeled_cases())
def test_consensus_commutes_with_relabeling_nodes(case):
    config, x0, perm, moved_config, moved_x0 = case
    base, moved = run_consensus(config, x0), run_consensus(moved_config, moved_x0)
    gap = np.max(np.abs(moved.final_x[:, perm] - base.final_x))
    assert gap <= 1e-12 * np.max(np.abs(base.final_x))
    # relative to the first error, not to each record's own, which falls to
    # its rounding floor, where the two orders of summation differ most
    tol = 1e-12 * base.records[0].error
    assert len(moved.records) == len(base.records)
    for got, want in zip(moved.records, base.records):
        assert (got.iter, got.bits) == (want.iter, want.bits)
        assert abs(got.error - want.error) <= tol
        assert abs(got.lyapunov - want.lyapunov) <= tol
