import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gossipsim.compression import (
    CompressionSpec,
    Identity,
    Qsgd,
    RandGossip,
    RandK,
    RescaledUnbiased,
    TopK,
    compress_columns,
    qsgd_tau,
    resolve_k,
)
from gossipsim.streams import stream

MC_DRAWS = 10_000


def copies(x, count):
    """A ``d x count`` matrix whose every column is ``x``."""
    return np.tile(x, (count, 1)).T


def one_column(spec, x, rng=None):
    """``Q(x)`` and its bits for one node's vector ``x``."""
    q, bits = compress_columns(spec, x[:, None], lambda i: rng)
    return q[:, 0], bits[0]


def mc_distortion(spec, x, rng, draws=MC_DRAWS, chunk=500):
    """Monte-Carlo oracle for E||Q(x) - x||^2 / ||x||^2, ``chunk`` draws per
    kernel call."""
    X = copies(x, chunk)
    errors = [
        np.sum((compress_columns(spec, X, lambda i: rng)[0].T - x) ** 2, axis=1)
        for _ in range(draws // chunk)
    ]
    ratios = np.concatenate(errors) / np.dot(x, x)
    return float(np.mean(ratios)), float(np.std(ratios) / math.sqrt(draws))


class TestOmega:
    def test_rand_k_one_percent(self):
        assert RandK(20).omega(2000) == pytest.approx(0.01)

    def test_rand_gossip_is_p(self):
        assert RandGossip(0.25).omega(2000) == 0.25

    def test_qsgd_256_high_dim(self):
        # direct evaluation of tau = 1 + min(d/s^2, sqrt(d)/s)
        assert Qsgd(256).omega(2000) == pytest.approx(0.97038616441601522, abs=1e-15)

    def test_identity_is_one(self):
        assert Identity().omega(17) == 1.0

    def test_top_k_fraction(self):
        assert TopK(5).omega(50) == pytest.approx(0.1)

    def test_rescaled_unbiased_reports_inverse_tau(self):
        assert RescaledUnbiased(RandK(20)).omega(2000) == pytest.approx(0.01)
        assert RescaledUnbiased(Qsgd(256)).omega(2000) == pytest.approx(
            0.97038616441601522, abs=1e-15
        )

    @pytest.mark.parametrize(
        "spec,d",
        [
            (RandK(3), 30),
            (TopK(3), 30),
            (Qsgd(4), 30),
            (RandGossip(0.5), 30),
            (Identity(), 30),
            (RescaledUnbiased(RandGossip(0.5)), 30),
        ],
    )
    def test_always_in_unit_interval(self, spec, d):
        assert 0.0 < spec.omega(d) <= 1.0

    def test_k_larger_than_d_rejected(self):
        with pytest.raises(ValueError, match="k"):
            RandK(31).omega(30)


class TestCompress:
    def test_top_k_magnitude_selection(self):
        q, _ = one_column(TopK(2), np.array([3.0, -5.0, 1.0, 0.0]))
        assert np.array_equal(q, [3.0, -5.0, 0.0, 0.0])

    def test_qsgd_zero_vector_maps_to_zero(self):
        for s in (1, 4, 256):
            q, _ = one_column(Qsgd(s), np.zeros(6), stream(0))
            assert np.array_equal(q, np.zeros(6))

    def test_identity_roundtrip(self):
        x = stream(3).standard_normal(40)
        q, bits = one_column(Identity(), x)
        assert np.array_equal(q, x)
        assert bits == 40 * 32

    def test_rand_k_keeps_exactly_k(self):
        x = stream(4).standard_normal(100) + 0.5
        q, _ = one_column(RandK(7), x, stream(5))
        assert int(np.count_nonzero(q)) == 7
        kept = q != 0
        assert np.array_equal(q[kept], x[kept])

    def test_rand_k_without_replacement_uniform_mean(self):
        # sampling without replacement makes E Q(x) = (k/d) x
        x = np.arange(1.0, 9.0)
        rng = stream(6)
        q, _ = compress_columns(RandK(2), copies(x, MC_DRAWS), lambda i: rng)
        np.testing.assert_allclose(q.mean(axis=1), x * 0.25, atol=0.05)

    def test_rand_gossip_all_or_nothing(self):
        x = stream(7).standard_normal(12)
        rng = stream(8)
        q, bits = compress_columns(RandGossip(0.5), copies(x, 200), lambda i: rng)
        sent = bits > 0
        assert np.array_equal(q[:, sent], copies(x, np.count_nonzero(sent)))
        assert np.array_equal(q[:, ~sent], np.zeros((12, np.count_nonzero(~sent))))
        assert sent.any() and not sent.all()

    def test_qsgd_matches_elementwise_formula(self):
        x = np.array([1.0, -2.0, 0.0, 0.5])
        s, d = 4, 4
        rng = stream(9)
        xi = stream(9).random(d)  # replay the dither draw
        out, _ = one_column(Qsgd(s), x, rng)
        norm = np.linalg.norm(x)
        tau = qsgd_tau(s, d)
        want = np.sign(x) * (norm / (s * tau)) * np.floor(s * np.abs(x) / norm + xi)
        np.testing.assert_array_equal(out, want)
        assert out[2] == 0.0  # sign(0) = 0

    def test_rescaled_unbiased_scales_inner(self):
        x = stream(10).standard_normal(20)
        raw, _ = one_column(RandK(4), x, stream(11))
        lifted, _ = one_column(RescaledUnbiased(RandK(4)), x, stream(11))
        np.testing.assert_allclose(lifted, raw * 5.0)

    def test_determinism_bit_for_bit(self):
        x = stream(12).standard_normal(64)
        for spec in (RandK(5), Qsgd(8), RandGossip(0.3), RescaledUnbiased(RandK(5))):
            a, a_bits = one_column(spec, x, stream(13, tag="q"))
            b, b_bits = one_column(spec, x, stream(13, tag="q"))
            assert np.array_equal(a, b)
            assert a_bits == b_bits

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="x"):
            one_column(Identity(), np.array([1.0, np.nan]))

    def test_k_exceeding_dimension_rejected(self):
        with pytest.raises(ValueError, match="k"):
            one_column(TopK(5), np.ones(3))

    def test_random_spec_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            one_column(RandK(1), np.ones(3), None)


class TestPayloadBits:
    def test_identity_cost(self):
        assert Identity().message_bits(100) == 3200

    def test_qsgd_cost(self):
        # sign + level bits per coordinate plus one norm scalar
        assert Qsgd(16).message_bits(2000) == 2000 * (1 + 4) + 32 == 10032

    def test_top_k_cost(self):
        assert TopK(20).message_bits(2000) == 20 * (32 + 11) == 860

    def test_value_bits_configurable(self):
        assert Identity(value_bits=64).message_bits(10) == 640
        assert TopK(2, value_bits=64).message_bits(16) == 2 * (64 + 4)

    def test_rand_gossip_depends_on_transmission(self):
        # a column that sent nothing costs 0 bits and arrives as zeros
        rng = stream(16)
        q, bits = compress_columns(RandGossip(0.5), np.ones((8, 50)), lambda i: rng)
        sent = q.any(axis=0)
        assert sent.any() and not sent.all()
        assert np.array_equal(bits, np.where(sent, 8 * 32, 0))

    def test_rescaled_costs_like_inner(self):
        assert RescaledUnbiased(RandK(4)).message_bits(64) == RandK(4).message_bits(64)

    def test_message_field_agrees_with_function(self):
        X = stream(14).standard_normal((50, 3))
        for spec in (Identity(), RandK(3), TopK(3), Qsgd(4), RescaledUnbiased(RandGossip(1.0))):
            _, bits = compress_columns(spec, X, lambda i: stream(15, node=i))
            assert np.array_equal(bits, np.full(3, spec.message_bits(50)))


@pytest.fixture(scope="module")
def x():
    return stream(2024, tag="omega-fixture").standard_normal(2000)


class TestContraction:
    """Monte-Carlo verification of the omega contract on a fixed input."""

    def test_rand_k_one_percent_distortion(self, x):
        mean, se = mc_distortion(RandK(20), x, stream(1, tag="mc"))
        # uniform subsets give exactly 1 - omega in expectation
        assert abs(mean - 0.99) <= 4 * se

    @pytest.mark.parametrize(
        "spec",
        [RandK(200), Qsgd(16), Qsgd(256), RandGossip(0.25)],
        ids=["rand_k_10pct", "qsgd16", "qsgd256", "rand_gossip"],
    )
    def test_random_operators_contract(self, spec, x):
        om = spec.omega(x.size)
        mean, se = mc_distortion(spec, x, stream(2, tag="mc"), draws=2000)
        assert mean <= (1.0 - om) + 4 * se

    def test_top_k_contracts_per_sample(self):
        X = stream(3, tag="mc").standard_normal((200, 2000)).T
        q, _ = compress_columns(TopK(20), X)
        for qi, xi in zip(q.T, X.T):
            assert np.sum((qi - xi) ** 2) <= (1.0 - 0.01) * np.dot(xi, xi) + 1e-12

    def test_rescaled_unbiased_mean_recovers_input(self):
        # E Q'(x) = x coordinate-wise within 4 standard errors
        x = stream(4, tag="mc").standard_normal(50)
        rng = stream(5, tag="mc")
        q, _ = compress_columns(RescaledUnbiased(RandK(5)), copies(x, MC_DRAWS), lambda i: rng)
        draws = q.T
        se = draws.std(axis=0) / math.sqrt(MC_DRAWS)
        assert np.all(np.abs(draws.mean(axis=0) - x) <= 4 * se + 1e-12)

    def test_rescaled_unbiased_second_moment_bound(self):
        # E||Q'(x)||^2 <= tau ||x||^2 for the lifted operator
        x = stream(6, tag="mc").standard_normal(50)
        rng = stream(7, tag="mc")
        spec = RescaledUnbiased(RandK(5))
        tau = RandK(5).natural_tau(50)
        q, _ = compress_columns(spec, copies(x, MC_DRAWS), lambda i: rng)
        norms = np.sum(q**2, axis=0)
        se = norms.std() / math.sqrt(MC_DRAWS)
        assert norms.mean() <= tau * np.dot(x, x) + 4 * se


class TestContractionProperties:
    """``||Q(x) - x||^2 <= (1 - omega) ||x||^2`` over generated vectors: per
    sample for the deterministic ``top_k``, and for the mean over
    ``PROPERTY_DRAWS`` draws for the random operators, drawn in one
    ``compress_columns`` call over that many copies of ``x``."""

    PROPERTY_DRAWS = 2000
    # rounding of the two sums of squares
    ROUNDING = 1e-12
    # the random bounds hold with equality for rand_k and rand_gossip, so the
    # mean may exceed them by sampling error; 6 standard errors of the mean
    # leave a false failure about once in 10^9 examples
    STANDARD_ERRORS = 6.0

    VECTORS = st.integers(1, 40).flatmap(
        lambda d: arrays(np.float64, d, elements=st.floats(-1e3, 1e3, allow_nan=False))
    ).filter(lambda x: np.dot(x, x) > 0.0)

    @settings(max_examples=300, deadline=None)
    @given(VECTORS, st.data())
    def test_top_k_contracts_every_sample(self, x, data):
        k = data.draw(st.integers(1, x.size))
        q, _ = one_column(TopK(k), x)
        bound = (1.0 - k / x.size) * np.dot(x, x)
        assert np.sum((q - x) ** 2) <= bound + self.ROUNDING * np.dot(x, x)

    @settings(max_examples=60, deadline=None)
    @given(VECTORS, st.data(), st.integers(0, 2**32))
    def test_random_operators_contract_in_the_mean(self, x, data, seed):
        d = x.size
        spec = data.draw(st.one_of(
            st.integers(1, d).map(RandK),
            st.sampled_from([1, 2, 16, 256]).map(Qsgd),
            st.sampled_from([0.1, 0.5, 0.9, 1.0]).map(RandGossip),
        ))
        self.check_mean_contraction(x, spec, seed)

    def test_tiny_vector_keeps_its_sampling_allowance(self):
        # the raw errors' squared deviations underflow to 0 here
        self.check_mean_contraction(np.array([7.05726259e-83, 0.0, 0.0]), RandK(2), 0)

    def check_mean_contraction(self, x, spec, seed):
        rng = stream(seed, tag="omega")  # one generator, consumed column by column
        X = copies(x, self.PROPERTY_DRAWS)
        q, _ = compress_columns(spec, X, lambda i: rng)
        # relative to ||x||^2, so tiny vectors keep a nonzero standard error
        ratios = np.sum((q - X) ** 2, axis=0) / np.dot(x, x)
        se = ratios.std() / math.sqrt(self.PROPERTY_DRAWS)
        bound = 1.0 - spec.omega(x.size)
        assert ratios.mean() <= bound + self.STANDARD_ERRORS * se + self.ROUNDING


class TestSpecValidation:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            RandK(0)
        with pytest.raises(ValueError):
            Qsgd(0)
        with pytest.raises(ValueError):
            RandGossip(0.0)
        with pytest.raises(ValueError):
            RandGossip(1.5)
        with pytest.raises(ValueError):
            RescaledUnbiased(TopK(3))
        with pytest.raises(ValueError):
            Identity(value_bits=0)

    def test_rescaling_needs_the_inner_natural_tau(self):
        class Halve(CompressionSpec):  # a contraction with no unbiased rescaling
            def omega(self, d):
                return 0.75

        for inner in (TopK(3), Halve(), RescaledUnbiased(RandK(2))):
            with pytest.raises(ValueError,
                               match=f"inner operator {type(inner).__name__} has no unbiased"):
                RescaledUnbiased(inner)
        assert RescaledUnbiased(Qsgd(4)).omega(16) == 1.0 / qsgd_tau(4, 16)

    def test_rescaling_keeps_the_inner_value_bits(self):
        # the wrapper bills its inner operator's message, so a second width would go unused
        with pytest.raises(ValueError, match="^value_bits 8, but inner has 32$"):
            RescaledUnbiased(Qsgd(16), value_bits=8)
        spec = RescaledUnbiased(Qsgd(16, value_bits=8), value_bits=8)
        assert spec.message_bits(100) == Qsgd(16, value_bits=8).message_bits(100) == 508

    def test_top_k_has_no_natural_tau(self):
        with pytest.raises(ValueError, match="no unbiased rescaling for TopK"):
            TopK(2).natural_tau(8)

    def test_helpers(self):
        assert resolve_k(0.01, 2000) == 20
        assert resolve_k(0.001, 50) == 1
        assert Identity().unbiased and RescaledUnbiased(RandK(2)).unbiased
        assert not RandK(2).unbiased
