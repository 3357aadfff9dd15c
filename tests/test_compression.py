import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gossipsim.compression import (
    CompressedMessage,
    Identity,
    Qsgd,
    RandGossip,
    RandK,
    RescaledUnbiased,
    TopK,
    compress,
    compress_columns,
    omega,
    payload_bits,
    qsgd_tau,
    resolve_k,
)
from gossipsim.streams import stream

MC_DRAWS = 10_000


def mc_distortion(spec, x, rng, draws=MC_DRAWS):
    """Monte-Carlo oracle for E||Q(x) - x||^2 / ||x||^2."""
    xnorm2 = float(np.dot(x, x))
    ratios = np.empty(draws)
    for i in range(draws):
        q = compress(spec, x, rng).dense_value
        ratios[i] = float(np.sum((q - x) ** 2)) / xnorm2
    return float(np.mean(ratios)), float(np.std(ratios) / math.sqrt(draws))


class TestOmega:
    def test_rand_k_one_percent(self):
        assert omega(RandK(20), 2000) == pytest.approx(0.01)

    def test_rand_gossip_is_p(self):
        assert omega(RandGossip(0.25), 2000) == 0.25

    def test_qsgd_256_high_dim(self):
        # direct evaluation of tau = 1 + min(d/s^2, sqrt(d)/s)
        assert omega(Qsgd(256), 2000) == pytest.approx(0.97038616441601522, abs=1e-15)

    def test_identity_is_one(self):
        assert omega(Identity(), 17) == 1.0

    def test_top_k_fraction(self):
        assert omega(TopK(5), 50) == pytest.approx(0.1)

    def test_rescaled_unbiased_reports_inverse_tau(self):
        assert omega(RescaledUnbiased(RandK(20)), 2000) == pytest.approx(0.01)
        assert omega(RescaledUnbiased(Qsgd(256)), 2000) == pytest.approx(
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
        assert 0.0 < omega(spec, d) <= 1.0

    def test_k_larger_than_d_rejected(self):
        with pytest.raises(ValueError, match="k"):
            omega(RandK(31), 30)


class TestCompress:
    def test_top_k_magnitude_selection(self):
        out = compress(TopK(2), np.array([3.0, -5.0, 1.0, 0.0]))
        assert np.array_equal(out.dense_value, [3.0, -5.0, 0.0, 0.0])

    def test_qsgd_zero_vector_maps_to_zero(self):
        for s in (1, 4, 256):
            out = compress(Qsgd(s), np.zeros(6), stream(0))
            assert np.array_equal(out.dense_value, np.zeros(6))

    def test_identity_roundtrip(self):
        x = stream(3).standard_normal(40)
        out = compress(Identity(), x)
        assert np.array_equal(out.dense_value, x)
        assert out.payload_bits == 40 * 32

    def test_rand_k_keeps_exactly_k(self):
        x = stream(4).standard_normal(100) + 0.5
        out = compress(RandK(7), x, stream(5))
        assert int(np.count_nonzero(out.dense_value)) == 7
        kept = out.dense_value != 0
        assert np.array_equal(out.dense_value[kept], x[kept])

    def test_rand_k_without_replacement_uniform_mean(self):
        # sampling without replacement makes E Q(x) = (k/d) x
        x = np.arange(1.0, 9.0)
        rng = stream(6)
        acc = np.zeros(8)
        for _ in range(MC_DRAWS):
            acc += compress(RandK(2), x, rng).dense_value
        np.testing.assert_allclose(acc / MC_DRAWS, x * 0.25, atol=0.05)

    def test_rand_gossip_all_or_nothing(self):
        x = stream(7).standard_normal(12)
        rng = stream(8)
        saw = {True: 0, False: 0}
        for _ in range(200):
            out = compress(RandGossip(0.5), x, rng)
            if out.transmitted:
                assert np.array_equal(out.dense_value, x)
            else:
                assert np.array_equal(out.dense_value, np.zeros(12))
            saw[out.transmitted] += 1
        assert saw[True] > 0 and saw[False] > 0

    def test_qsgd_matches_elementwise_formula(self):
        x = np.array([1.0, -2.0, 0.0, 0.5])
        s, d = 4, 4
        rng = stream(9)
        xi = stream(9).random(d)  # replay the dither draw
        out = compress(Qsgd(s), x, rng).dense_value
        norm = np.linalg.norm(x)
        tau = qsgd_tau(s, d)
        want = np.sign(x) * (norm / (s * tau)) * np.floor(s * np.abs(x) / norm + xi)
        np.testing.assert_array_equal(out, want)
        assert out[2] == 0.0  # sign(0) = 0

    def test_rescaled_unbiased_scales_inner(self):
        x = stream(10).standard_normal(20)
        raw = compress(RandK(4), x, stream(11)).dense_value
        lifted = compress(RescaledUnbiased(RandK(4)), x, stream(11)).dense_value
        np.testing.assert_allclose(lifted, raw * 5.0)

    def test_determinism_bit_for_bit(self):
        x = stream(12).standard_normal(64)
        for spec in (RandK(5), Qsgd(8), RandGossip(0.3), RescaledUnbiased(RandK(5))):
            a = compress(spec, x, stream(13, tag="q"))
            b = compress(spec, x, stream(13, tag="q"))
            assert np.array_equal(a.dense_value, b.dense_value)
            assert a.payload_bits == b.payload_bits

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError, match="x"):
            compress(Identity(), np.array([1.0, np.nan]))

    def test_k_exceeding_dimension_rejected(self):
        with pytest.raises(ValueError, match="k"):
            compress(TopK(5), np.ones(3))

    def test_random_spec_requires_rng(self):
        with pytest.raises(ValueError, match="rng"):
            compress(RandK(1), np.ones(3), None)


class TestPayloadBits:
    def test_identity_cost(self):
        assert payload_bits(Identity(), 100) == 3200

    def test_qsgd_cost(self):
        # sign + level bits per coordinate plus one norm scalar
        assert payload_bits(Qsgd(16), 2000) == 2000 * (1 + 4) + 32 == 10032

    def test_top_k_cost(self):
        assert payload_bits(TopK(20), 2000) == 20 * (32 + 11) == 860

    def test_value_bits_configurable(self):
        assert payload_bits(Identity(value_bits=64), 10) == 640
        assert payload_bits(TopK(2, value_bits=64), 16) == 2 * (64 + 4)

    def test_rand_gossip_depends_on_transmission(self):
        spec = RandGossip(0.5)
        sent = CompressedMessage(np.ones(8), 0, transmitted=True)
        skipped = CompressedMessage(np.zeros(8), 0, transmitted=False)
        assert payload_bits(spec, 8, sent) == 8 * 32
        assert payload_bits(spec, 8, skipped) == 0
        with pytest.raises(ValueError):
            payload_bits(spec, 8, None)

    def test_rescaled_costs_like_inner(self):
        assert payload_bits(RescaledUnbiased(RandK(4)), 64) == payload_bits(RandK(4), 64)

    def test_message_field_agrees_with_function(self):
        x = stream(14).standard_normal(50)
        for spec in (Identity(), RandK(3), TopK(3), Qsgd(4), RandGossip(0.4)):
            msg = compress(spec, x, stream(15))
            assert msg.payload_bits == payload_bits(spec, 50, msg)


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
        om = omega(spec, x.size)
        mean, se = mc_distortion(spec, x, stream(2, tag="mc"), draws=2000)
        assert mean <= (1.0 - om) + 4 * se

    def test_top_k_contracts_per_sample(self):
        spec = TopK(20)
        rng = stream(3, tag="mc")
        for _ in range(200):
            x = rng.standard_normal(2000)
            q = compress(spec, x).dense_value
            assert np.sum((q - x) ** 2) <= (1.0 - 0.01) * np.dot(x, x) + 1e-12

    def test_rescaled_unbiased_mean_recovers_input(self):
        # E Q'(x) = x coordinate-wise within 4 standard errors
        x = stream(4, tag="mc").standard_normal(50)
        rng = stream(5, tag="mc")
        draws = np.empty((MC_DRAWS, 50))
        for i in range(MC_DRAWS):
            draws[i] = compress(RescaledUnbiased(RandK(5)), x, rng).dense_value
        se = draws.std(axis=0) / math.sqrt(MC_DRAWS)
        assert np.all(np.abs(draws.mean(axis=0) - x) <= 4 * se + 1e-12)

    def test_rescaled_unbiased_second_moment_bound(self):
        # E||Q'(x)||^2 <= tau ||x||^2 for the lifted operator
        x = stream(6, tag="mc").standard_normal(50)
        rng = stream(7, tag="mc")
        spec = RescaledUnbiased(RandK(5))
        tau = RandK(5).natural_tau(50)
        norms = np.array(
            [np.sum(compress(spec, x, rng).dense_value ** 2) for _ in range(MC_DRAWS)]
        )
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
        q = compress(TopK(k), x).dense_value
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
        X = np.tile(x[:, None], (1, self.PROPERTY_DRAWS))
        q, _, _ = compress_columns(spec, X, lambda i: rng)
        # relative to ||x||^2, so tiny vectors keep a nonzero standard error
        ratios = np.sum((q - X) ** 2, axis=0) / np.dot(x, x)
        se = ratios.std() / math.sqrt(self.PROPERTY_DRAWS)
        bound = 1.0 - omega(spec, x.size)
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

    def test_helpers(self):
        assert resolve_k(0.01, 2000) == 20
        assert resolve_k(0.001, 50) == 1
        assert Identity().unbiased and RescaledUnbiased(RandK(2)).unbiased
        assert not RandK(2).unbiased
        assert RandK(2).random and RescaledUnbiased(Qsgd(4)).random
        assert not TopK(2).random and not Identity().random
