import math

import numpy as np
import pytest

from gossipsim.topology import (
    Custom,
    FullyConnected,
    GossipMatrix,
    Ring,
    Torus,
    build_gossip_matrix,
    mixing_contraction,
    read_edge_list,
    spectral_quantities,
)


def ring_circulant_eigs(n):
    """Independent oracle: eigenvalues of the uniform ring are
    (1 + 2 cos(2 pi j / n)) / 3."""
    return np.array([(1.0 + 2.0 * math.cos(2.0 * math.pi * j / n)) / 3.0 for j in range(n)])


class TestBuild:
    def test_fully_connected_is_uniform(self):
        m = build_gossip_matrix(FullyConnected(5))
        np.testing.assert_allclose(m.weights, np.full((5, 5), 0.2))
        assert m.delta == pytest.approx(1.0, abs=1e-12)
        assert m.beta == pytest.approx(1.0, abs=1e-12)

    def test_ring3_equals_fully_connected(self):
        m = build_gossip_matrix(Ring(3))
        np.testing.assert_allclose(m.weights, np.full((3, 3), 1.0 / 3.0))
        assert m.delta == pytest.approx(1.0, abs=1e-12)

    def test_ring4_circulant_values(self):
        m = build_gossip_matrix(Ring(4))
        eigs = ring_circulant_eigs(4)
        assert m.delta == pytest.approx(1.0 - np.sort(np.abs(eigs))[-2], abs=1e-12)
        assert m.delta == pytest.approx(2.0 / 3.0, abs=1e-12)
        assert m.beta == pytest.approx(4.0 / 3.0, abs=1e-12)

    @pytest.mark.parametrize("n", [5, 8, 16, 25])
    def test_ring_matches_circulant_oracle(self, n):
        m = build_gossip_matrix(Ring(n))
        eigs = ring_circulant_eigs(n)
        assert m.delta == pytest.approx(1.0 - np.sort(np.abs(eigs))[-2], abs=1e-9)
        assert m.beta == pytest.approx(np.max(np.abs(1.0 - eigs)), abs=1e-9)

    def test_ring_spectral_gap_scales_inverse_square(self):
        d16 = build_gossip_matrix(Ring(16)).delta
        d32 = build_gossip_matrix(Ring(32)).delta
        assert 3.5 <= d16 / d32 <= 4.5

    def test_single_node_convention(self):
        m = build_gossip_matrix(Ring(1))
        assert m.weights.shape == (1, 1) and m.weights[0, 0] == 1.0
        assert m.delta == 1.0 and m.beta == 0.0 and m.edges == ()

    def test_two_node_ring(self):
        m = build_gossip_matrix(Ring(2))
        np.testing.assert_allclose(m.weights, np.full((2, 2), 0.5))
        assert m.degrees == (1, 1)

    def test_torus_structure(self):
        m = build_gossip_matrix(Torus(3, 4))
        assert m.n == 12
        assert m.degrees == tuple([4] * 12)
        np.testing.assert_allclose(m.weights.sum(axis=0), np.ones(12), atol=1e-12)
        np.testing.assert_allclose(np.diag(m.weights), np.full(12, 0.2))

    def test_torus_requires_three_per_side(self):
        with pytest.raises(ValueError):
            Torus(2, 5)

    def test_delta_ordering_full_torus_ring(self):
        for n, dims in ((9, (3, 3)), (16, (4, 4)), (25, (5, 5))):
            d_full = build_gossip_matrix(FullyConnected(n)).delta
            d_torus = build_gossip_matrix(Torus(*dims)).delta
            d_ring = build_gossip_matrix(Ring(n)).delta
            assert d_full >= d_torus >= d_ring > 0
            assert d_full == pytest.approx(1.0, abs=1e-12)

    def test_custom_regular_graph(self):
        # 4-cycle given as an explicit edge list
        m = build_gossip_matrix(Custom(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
        ring = build_gossip_matrix(Ring(4))
        np.testing.assert_allclose(m.weights, ring.weights)

    def test_custom_irregular_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            build_gossip_matrix(Custom(3, ((0, 1), (1, 2))))

    def test_custom_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            build_gossip_matrix(Custom(4, ((0, 1), (2, 3))))

    def test_weights_are_read_only(self):
        m = build_gossip_matrix(Ring(5))
        with pytest.raises(ValueError):
            m.weights[0, 0] = 2.0


class TestInvariants:
    @pytest.mark.parametrize(
        "kind",
        [Ring(4), Ring(9), Ring(16), Torus(3, 3), Torus(4, 4), FullyConnected(9)],
        ids=str,
    )
    def test_symmetric_doubly_stochastic(self, kind):
        m = build_gossip_matrix(kind)
        assert np.array_equal(m.weights, m.weights.T)
        np.testing.assert_allclose(m.weights.sum(axis=1), np.ones(m.n), atol=1e-12)
        np.testing.assert_allclose(m.weights.sum(axis=0), np.ones(m.n), atol=1e-12)
        assert 0.0 < m.delta <= 1.0
        assert 0.0 <= m.beta <= 2.0

    @pytest.mark.parametrize(
        "kind",
        [Ring(4), Ring(9), Ring(16), Torus(3, 3), Torus(4, 4), FullyConnected(9)],
        ids=str,
    )
    def test_cached_spectrum_matches_eigensolve(self, kind):
        m = build_gossip_matrix(kind)
        eigs = np.linalg.eigvalsh(m.weights)
        mags = np.sort(np.abs(eigs))[::-1]
        assert m.delta == pytest.approx(1.0 - mags[1], abs=1e-9)
        assert m.beta == pytest.approx(np.max(np.abs(1.0 - eigs)), abs=1e-9)


class TestSpectralQuantities:
    def test_averaging_matrix(self):
        n = 6
        delta, beta = spectral_quantities(np.full((n, n), 1.0 / n))
        assert delta == 1.0 and beta == 1.0

    @pytest.mark.parametrize(
        "kind", [FullyConnected(4), FullyConnected(9), FullyConnected(16), Ring(2), Ring(3)],
        ids=str,
    )
    def test_complete_graph_gap_is_exactly_one(self, kind):
        m = build_gossip_matrix(kind)  # W is the averaging matrix
        assert m.delta == 1.0 and m.beta == 1.0

    def test_identity_has_zero_gap(self):
        delta, beta = spectral_quantities(np.eye(5))
        assert delta == 0.0 and beta == 0.0

    def test_rejects_asymmetric(self):
        w = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError, match="symmetric"):
            spectral_quantities(w)

    def test_rejects_non_stochastic(self):
        with pytest.raises(ValueError, match="sum"):
            spectral_quantities(np.eye(3) * 0.5)


class TestMixingContraction:
    def test_power_zero_is_one(self):
        m = build_gossip_matrix(Ring(6))
        assert mixing_contraction(m.weights, 0) == pytest.approx(1.0, abs=1e-12)

    def test_fully_connected_power_one_is_zero(self):
        m = build_gossip_matrix(FullyConnected(7))
        assert mixing_contraction(m.weights, 1) == pytest.approx(0.0, abs=1e-12)

    def test_ring4_third_power(self):
        m = build_gossip_matrix(Ring(4))
        assert mixing_contraction(m.weights, 3) <= (1.0 / 3.0) ** 3 + 1e-9

    @pytest.mark.parametrize(
        "kind",
        [Ring(4), Ring(8), Ring(16), Torus(3, 3), Torus(4, 4), FullyConnected(9)],
        ids=str,
    )
    def test_bounded_by_contraction_rate(self, kind):
        m = build_gossip_matrix(kind)
        for k in range(0, 51, 5):
            assert mixing_contraction(m.weights, k) <= (1.0 - m.delta) ** k + 1e-9


def test_read_edge_list(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# square\n0 1\n1 2\n2 3\n3 0\n")
    kind = read_edge_list(path)
    assert kind == Custom(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
    m = build_gossip_matrix(kind)
    assert isinstance(m, GossipMatrix) and m.n == 4


def test_read_edge_list_errors(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\n1 two\n")
    with pytest.raises(ValueError, match="bad.txt:2"):
        read_edge_list(bad)
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no edges"):
        read_edge_list(empty)
