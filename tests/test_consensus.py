import re

import numpy as np
import pytest

from gossipsim.compression import Identity, Qsgd, RandGossip, RandK, RescaledUnbiased, TopK
from gossipsim.consensus import (
    ConsensusConfig,
    DivergenceError,
    Gossip,
    GossipScheme,
    run_consensus,
    tracking_stepsize,
)
from gossipsim.streams import stream
from gossipsim.topology import FullyConnected, Ring, build_gossip_matrix

RING9 = build_gossip_matrix(Ring(9))
FC5 = build_gossip_matrix(FullyConnected(5))
EXACT, DIRECT, PAIRED, TRACKING = GossipScheme


def gaussian_x(d, matrix, seed):
    return stream(seed, tag="init").standard_normal((d, matrix.n))


def one_round(scheme, x, gamma, matrix, compression=Identity(), seed=0):
    """Round 0 of a fresh kernel: the new iterates."""
    return Gossip(scheme, matrix, gamma, compression, seed).apply(x, 0)[0]


def consensus_error(x, target):
    return float(np.sum((x - target[:, None]) ** 2))


class TestTrackingStepsize:
    def test_unit_inputs(self):
        assert tracking_stepsize(1.0, 1.0, 1.0) == pytest.approx(1.0 / 15.0, rel=1e-15)

    def test_worst_case_beta(self):
        assert tracking_stepsize(1.0, 1.0, 2.0) == pytest.approx(1.0 / 33.0, rel=1e-15)

    def test_ring4_with_heavy_compression(self):
        # direct evaluation of the formula at delta=2/3, omega=0.01, beta=4/3
        got = tracking_stepsize(2.0 / 3.0, 0.01, 4.0 / 3.0)
        assert got == pytest.approx(3.0 / 13864.0, rel=1e-12)
        assert got == pytest.approx(2.1638776687824584e-4, rel=1e-12)

    def test_always_in_unit_interval(self):
        for delta in (0.01, 0.2, 1.0):
            for om in (0.01, 0.5, 1.0):
                for beta in (0.0, 1.0, 2.0):
                    assert 0.0 < tracking_stepsize(delta, om, beta) <= 1.0

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            tracking_stepsize(0.0, 0.5, 1.0)
        with pytest.raises(ValueError):
            tracking_stepsize(0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            tracking_stepsize(0.5, 0.5, 2.5)


class TestStepExact:
    def test_fully_connected_one_step(self):
        x = gaussian_x(6, FC5, seed=1)
        target = x.mean(axis=1)
        out = one_round(EXACT, x, 1.0, FC5)
        np.testing.assert_allclose(out, np.tile(target[:, None], (1, 5)), atol=1e-12)

    def test_consensus_is_fixed_point(self):
        x = np.tile(stream(2).standard_normal(4)[:, None], (1, 9))
        out = one_round(EXACT, x, 0.7, RING9)
        np.testing.assert_allclose(out, x, atol=1e-14)

    def test_average_preserved(self):
        x = gaussian_x(8, RING9, seed=3)
        out = one_round(EXACT, x, 0.6, RING9)
        np.testing.assert_allclose(out.mean(axis=1), x.mean(axis=1), atol=1e-14)

    def test_ring4_per_step_error_ratio(self):
        # d=1, x=(1,0,0,0): with |lambda_2| = 1/3 the squared-error ratio is
        # at most (1-delta)^2 = 1/9 every step
        m = build_gossip_matrix(Ring(4))
        gossip = Gossip(EXACT, m, 1.0)
        x = np.array([[1.0, 0.0, 0.0, 0.0]])
        target = x.mean(axis=1)
        prev = consensus_error(x, target)
        for t in range(20):
            x, _ = gossip.apply(x, t)
            cur = consensus_error(x, target)
            assert cur <= prev / 9.0 + 1e-15
            prev = cur

    def test_pays_full_precision_messages(self):
        x = gaussian_x(6, RING9, seed=1)
        _, bits = Gossip(EXACT, RING9, 1.0, Identity(value_bits=16)).apply(x, 0)
        np.testing.assert_array_equal(bits, np.full(9, 6 * 16))

    def test_rejects_an_operator_it_would_not_apply(self):
        for spec in (TopK(3), Qsgd(256), RescaledUnbiased(Qsgd(16))):
            with pytest.raises(ValueError, match="exact gossip takes the identity operator"):
                ConsensusConfig(scheme=EXACT, matrix=RING9, compression=spec)
            with pytest.raises(ValueError, match="exact gossip takes the identity operator"):
                Gossip(EXACT, RING9, 1.0, spec)


class TestQuantizedBaselines:
    def test_identity_reduces_to_exact(self):
        x = gaussian_x(5, RING9, seed=4)
        want = one_round(EXACT, x, 1.0, RING9)
        np.testing.assert_allclose(one_round(DIRECT, x, 1.0, RING9), want, atol=1e-14)
        np.testing.assert_allclose(one_round(PAIRED, x, 1.0, RING9), want, atol=1e-14)

    def test_paired_preserves_average_exactly(self):
        x = gaussian_x(30, RING9, seed=5)
        out = one_round(PAIRED, x, 1.0, RING9, RescaledUnbiased(Qsgd(16)), seed=6)
        np.testing.assert_allclose(out.mean(axis=1), x.mean(axis=1), atol=1e-12)

    def test_direct_breaks_average(self):
        x = gaussian_x(30, RING9, seed=7)
        out = one_round(DIRECT, x, 1.0, RING9, RescaledUnbiased(Qsgd(16)), seed=8)
        drift = np.linalg.norm(out.mean(axis=1) - x.mean(axis=1))
        assert drift > 1e-8

    def test_unbiased_compression_required(self):
        with pytest.raises(ValueError, match="unbiased"):
            ConsensusConfig(scheme=GossipScheme.DIRECT, matrix=RING9, compression=TopK(3))
        with pytest.raises(ValueError, match="unbiased"):
            Gossip(GossipScheme.PAIRED, RING9, 1.0, TopK(3))


class TestStepTracking:
    def test_state_invariants_hold_every_round(self):
        # the incrementally kept aggregate stays s = x_hat W, and the round
        # x + gamma (s - x_hat) leaves the column average where it was
        for spec in (Identity(), RandK(3), TopK(3), Qsgd(4), RandGossip(0.5)):
            gossip = Gossip(TRACKING, RING9, 0.3, spec, seed=5)
            x = stream(5, tag="init").standard_normal((12, 9))
            for t in range(50):
                mean = x.mean(axis=1)
                x, _ = gossip.apply(x, t)
                recon = gossip.x_hat @ RING9.weights
                scale = max(1.0, float(np.max(np.abs(recon))))
                assert np.max(np.abs(gossip.s - recon)) <= 1e-10 * scale, (spec, t)
                assert np.max(np.abs(x.mean(axis=1) - mean)) <= 1e-10 * scale, (spec, t)

    def test_identity_matches_exact_trajectory(self):
        exact, tracking = Gossip(EXACT, RING9, 1.0), Gossip(TRACKING, RING9, 1.0)
        x_a = x_b = gaussian_x(6, RING9, seed=9)
        for t in range(50):
            x_a, _ = exact.apply(x_a, t)
            x_b, _ = tracking.apply(x_b, t)
            assert np.max(np.abs(x_a - x_b)) <= 1e-12

    def test_consensus_with_converged_estimates_is_fixed_point(self):
        xbar = stream(10).standard_normal(4)
        x = np.tile(xbar[:, None], (1, 9))
        gossip = Gossip(TRACKING, RING9, 0.5, TopK(1))
        gossip.x_hat, gossip.s = x.copy(), x.copy()
        out, _ = gossip.apply(x, 0)
        np.testing.assert_array_equal(out, x)
        np.testing.assert_array_equal(gossip.x_hat, x)
        np.testing.assert_array_equal(gossip.s, x)

    def test_aggregate_tracks_estimates(self):
        x = gaussian_x(7, RING9, seed=11)
        gossip = Gossip(TRACKING, RING9, 0.3, RandK(2), seed=12)
        for t in range(30):
            x, _ = gossip.apply(x, t)
            np.testing.assert_allclose(gossip.s, gossip.x_hat @ RING9.weights, atol=1e-10)

    def test_average_preserved(self):
        x = gaussian_x(7, RING9, seed=13)
        mean0 = x.mean(axis=1)
        gossip = Gossip(TRACKING, RING9, 0.2, TopK(2))
        for t in range(100):
            x, _ = gossip.apply(x, t)
        np.testing.assert_allclose(x.mean(axis=1), mean0, atol=1e-12)


class TestRunConsensus:
    def test_fully_connected_exact_reaches_mean_at_t1(self):
        config = ConsensusConfig(scheme=GossipScheme.EXACT, matrix=FC5, gamma=1.0, iters=1)
        result = run_consensus(config, stream(14, tag="init").standard_normal((6, 5)))
        assert result.records[-1].iter == 1
        assert result.records[-1].error <= 1e-25

    def test_tracking_rate_bound_random_rand_k_on_seed_mean(self):
        # random operators satisfy the bound in expectation: check the mean
        # over 20 seeds with 20% slack
        m = build_gossip_matrix(Ring(8))
        d, iters = 16, 400
        spec = RandK(2)
        om = spec.omega(d)
        gamma = tracking_stepsize(m.delta, om, m.beta)
        rate = 1.0 - m.delta**2 * om / 82.0
        x0 = stream(21, tag="init").standard_normal((d, 8))
        curves = []
        for seed in range(20):
            config = ConsensusConfig(
                scheme=GossipScheme.TRACKING, matrix=m, gamma=gamma, compression=spec,
                iters=iters, seed=seed, eval_every=10,
            )
            result = run_consensus(config, x0)
            curves.append([rec.lyapunov for rec in result.records])
        mean_curve = np.mean(np.array(curves), axis=0)
        iters_axis = [rec.iter for rec in result.records]
        for t, value in zip(iters_axis, mean_curve):
            assert value <= 1.2 * (rate**t * mean_curve[0]) + 1e-9

    def test_lyapunov_pairs_iterate_with_next_estimate(self):
        config = ConsensusConfig(
            scheme=GossipScheme.TRACKING, matrix=RING9, gamma=0.4, compression=TopK(3),
            iters=3, seed=2,
        )
        x0 = stream(2, tag="init").standard_normal((10, 9))
        result = run_consensus(config, x0)
        first = result.records[0]
        # replay round 0 by hand: x_hat^(1) = Q(x0 - 0)
        q = np.stack(
            [
                _topk_column(x0[:, i], 3)
                for i in range(9)
            ],
            axis=1,
        )
        target = x0.mean(axis=1)
        want = consensus_error(x0, target) + float(np.sum((x0 - q) ** 2))
        assert first.lyapunov == pytest.approx(want, rel=1e-12)
        assert first.error == pytest.approx(consensus_error(x0, target), rel=1e-12)

    def test_average_preservation_over_thousand_iters(self):
        x0 = stream(3, tag="init").standard_normal((20, 9))
        mean_norm = np.linalg.norm(x0.mean(axis=1))
        cases = [
            (GossipScheme.EXACT, Identity(), 1.0),
            (GossipScheme.PAIRED, RescaledUnbiased(Qsgd(256)), 1.0),
            (GossipScheme.TRACKING, RandK(2), 0.05),
        ]
        for scheme, spec, gamma in cases:
            config = ConsensusConfig(
                scheme=scheme, matrix=RING9, gamma=gamma, compression=spec,
                iters=1000, seed=3, eval_every=100,
            )
            result = run_consensus(config, x0)
            worst = max(rec.mean_drift for rec in result.records)
            assert worst / mean_norm <= 1e-10, scheme

    def test_direct_violates_average_by_iteration_100(self):
        config = ConsensusConfig(
            scheme=GossipScheme.DIRECT, matrix=RING9, gamma=1.0,
            compression=RescaledUnbiased(RandK(2)), iters=100, seed=3, eval_every=10,
        )
        x0 = stream(3, tag="init").standard_normal((200, 9))
        result = run_consensus(config, x0)
        rel_drift = result.records[-1].mean_drift / np.linalg.norm(x0.mean(axis=1))
        assert rel_drift >= 1e-6

    def test_quantized_tracking_keeps_exact_rate_at_larger_scale(self):
        # 25-node ring, d=2000, 8-bit quantization: same iteration count to
        # 1e-10 as exact gossip within a factor of two
        m = build_gossip_matrix(Ring(25))
        x0 = stream(19, tag="init").standard_normal((2000, 25))
        exact = run_consensus(
            ConsensusConfig(scheme=GossipScheme.EXACT, matrix=m, gamma=1.0,
                            iters=2500, seed=19, eval_every=25),
            x0,
        )
        hit_exact = next(r for r in exact.records if r.error <= 1e-10)
        tracked = run_consensus(
            ConsensusConfig(scheme=GossipScheme.TRACKING, matrix=m, gamma=1.0,
                            compression=Qsgd(256), iters=2 * hit_exact.iter, seed=19,
                            eval_every=25),
            x0,
        )
        hit_tracked = next((r for r in tracked.records if r.error <= 1e-10), None)
        assert hit_tracked is not None
        assert hit_tracked.iter <= 2 * hit_exact.iter

    def test_seed_determinism_bit_for_bit(self):
        config = ConsensusConfig(
            scheme=GossipScheme.TRACKING, matrix=RING9, gamma=0.05,
            compression=RandK(2), iters=200, seed=17, eval_every=20,
        )
        x0 = stream(17, tag="init").standard_normal((50, 9))
        a = run_consensus(config, x0)
        b = run_consensus(config, x0)
        assert a.records == b.records
        assert np.array_equal(a.final_x, b.final_x)

    def test_bits_accounting_per_directed_edge(self):
        spec = TopK(2)
        config = ConsensusConfig(
            scheme=GossipScheme.TRACKING, matrix=RING9, gamma=0.4, compression=spec,
            iters=5, seed=1,
        )
        x0 = stream(1, tag="init").standard_normal((16, 9))
        result = run_consensus(config, x0)
        per_message = 2 * (32 + 4)  # k * (value_bits + ceil(log2 16))
        per_round = RING9.n * RING9.degree * per_message
        for rec in result.records:
            assert rec.bits == rec.iter * per_round

    def test_divergence_guard(self):
        # paired gossip with aggressively rescaled sparsification blows up
        config = ConsensusConfig(
            scheme=GossipScheme.PAIRED, matrix=RING9, gamma=1.0,
            compression=RescaledUnbiased(RandK(2)), iters=500, seed=3, eval_every=10,
        )
        x0 = stream(3, tag="init").standard_normal((200, 9))
        with pytest.raises(DivergenceError):
            run_consensus(config, x0)

    @pytest.mark.parametrize("shape", [(9,), (4, 8), (2, 4, 9)])
    def test_initial_x_must_be_d_by_n(self, shape):
        config = ConsensusConfig(scheme=EXACT, matrix=RING9, iters=5)
        with pytest.raises(ValueError, match=re.escape(f"initial X must be d x 9, got shape {shape}")):
            run_consensus(config, np.zeros(shape))

    def test_initial_x_must_have_rows(self):
        config = ConsensusConfig(scheme=EXACT, matrix=RING9, iters=5)
        with pytest.raises(ValueError, match=re.escape("d >= 1 rows, got shape (0, 9)")):
            run_consensus(config, np.zeros((0, 9)))

    def test_rejects_gamma_out_of_range(self):
        with pytest.raises(ValueError):
            ConsensusConfig(scheme=GossipScheme.EXACT, matrix=RING9, gamma=0.0)
        with pytest.raises(ValueError):
            ConsensusConfig(scheme=GossipScheme.EXACT, matrix=RING9, gamma=1.5)


def _topk_column(col, k):
    idx = np.argsort(-np.abs(col), kind="stable")[:k]
    out = np.zeros_like(col)
    out[idx] = col[idx]
    return out
