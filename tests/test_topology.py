import inspect
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.topology import (
    FullyConnected,
    GossipMatrix,
    Graph,
    Ring,
    Torus,
    build_gossip_matrix,
    mixing_contraction,
    read_edge_list,
    spectral_quantities,
)


def graphs(*calls):
    """One param per ``(constructor, *args)``, named by the call, e.g. ``Ring(n=4)``."""
    def name(ctor, args):
        params = inspect.signature(ctor).parameters
        return f"{ctor.__name__}({', '.join(f'{p}={a}' for p, a in zip(params, args))})"

    return [pytest.param(ctor(*args), id=name(ctor, args)) for ctor, *args in calls]


STANDARD = graphs((Ring, 4), (Ring, 9), (Ring, 16), (Torus, 3, 3), (Torus, 4, 4),
                  (FullyConnected, 9))


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

    # n = 1000 has delta = 1.3e-5, far above the EIG_TOL connectivity threshold
    @pytest.mark.parametrize("n", [5, 8, 16, 25, 1000])
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
        assert m.delta == 1.0 and m.beta == 0.0 and m.degree == 0

    def test_two_node_ring(self):
        m = build_gossip_matrix(Ring(2))
        np.testing.assert_allclose(m.weights, np.full((2, 2), 0.5))
        assert m.degree == 1

    def test_torus_structure(self):
        m = build_gossip_matrix(Torus(3, 4))
        assert m.n == 12
        assert m.degree == 4
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
        m = build_gossip_matrix(Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0))))
        ring = build_gossip_matrix(Ring(4))
        np.testing.assert_allclose(m.weights, ring.weights)

    def test_custom_irregular_rejected(self):
        with pytest.raises(ValueError, match="regular"):
            build_gossip_matrix(Graph(3, ((0, 1), (1, 2))))

    def test_custom_disconnected_rejected(self):
        with pytest.raises(ValueError, match="disconnected"):
            build_gossip_matrix(Graph(4, ((0, 1), (2, 3))))

    @pytest.mark.parametrize("copies, size", [(2, 30), (2, 50), (3, 40), (4, 4), (3, 1)])
    def test_disconnected_regular_graph_has_no_gap(self, copies, size):
        # disjoint copies of a ring: W's eigenvalue 1 repeats, so delta is 0 up to rounding
        edges = tuple((c * size + i, c * size + (i + 1) % size)
                      for c in range(copies) for i in range(size))
        with pytest.raises(ValueError, match=r"^graph is disconnected: spectral gap "):
            build_gossip_matrix(Graph(copies * size, edges))

    def test_disconnected_irregular_graph_reports_irregular(self):
        with pytest.raises(ValueError, match="not regular"):
            build_gossip_matrix(Graph(5, ((0, 1), (2, 3), (3, 4))))

    @pytest.mark.parametrize("edge", [(0, 4), (-1, 2)])
    def test_edge_out_of_range_rejected(self, edge):
        # numpy would wrap the negative index, so the range is checked first
        with pytest.raises(ValueError, match=re.escape(f"edge {edge} out of range for n = 4")):
            build_gossip_matrix(Graph(4, ((0, 1), edge, (2, 3))))

    @pytest.mark.parametrize("n", [0, -1])
    def test_node_count_below_one_rejected(self, n):
        with pytest.raises(ValueError, match=re.escape(f"graph needs n >= 1, got {n}")):
            build_gossip_matrix(Graph(n, ()))
        for ctor in (Ring, FullyConnected):  # the constructors leave the check to Graph
            with pytest.raises(ValueError, match=re.escape(f"graph needs n >= 1, got {n}")):
                ctor(n)

    def test_weights_are_read_only(self):
        m = build_gossip_matrix(Ring(5))
        with pytest.raises(ValueError):
            m.weights[0, 0] = 2.0


class TestInvariants:
    @pytest.mark.parametrize("kind", STANDARD)
    def test_symmetric_doubly_stochastic(self, kind):
        m = build_gossip_matrix(kind)
        assert np.array_equal(m.weights, m.weights.T)
        np.testing.assert_allclose(m.weights.sum(axis=1), np.ones(m.n), atol=1e-12)
        np.testing.assert_allclose(m.weights.sum(axis=0), np.ones(m.n), atol=1e-12)
        assert 0.0 < m.delta <= 1.0
        assert 0.0 <= m.beta <= 2.0

    @pytest.mark.parametrize("kind", STANDARD)
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

    @pytest.mark.parametrize("kind", graphs((FullyConnected, 4), (FullyConnected, 9),
                                            (FullyConnected, 16), (Ring, 2), (Ring, 3)))
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

    @pytest.mark.parametrize("w, message", [
        (np.ones((2, 3)), "weights must be square, got shape (2, 3)"),
        ([[1.5, -0.5], [-0.5, 1.5]], "principal eigenvalue is 2.0, expected 1"),
        # symmetric and row-stochastic within 1e-10, but the first column sums to 1 + 1.8e-10
        ([[0.5 + 0.9e-10, 0.5], [0.5 + 0.9e-10, 0.5 - 0.9e-10]], "columns do not sum to 1"),
    ])
    def test_rejection_is_named(self, w, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            spectral_quantities(w)


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

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="^power k must be >= 0, got -1$"):
            mixing_contraction(build_gossip_matrix(Ring(4)).weights, -1)

    @pytest.mark.parametrize("kind", graphs((Ring, 4), (Ring, 8), (Ring, 16), (Torus, 3, 3),
                                            (Torus, 4, 4), (FullyConnected, 9)))
    def test_bounded_by_contraction_rate(self, kind):
        m = build_gossip_matrix(kind)
        for k in range(0, 51, 5):
            assert mixing_contraction(m.weights, k) <= (1.0 - m.delta) ** k + 1e-9


@st.composite
def scrambled(draw):
    """A standard graph and the same graph with its edges shuffled, flipped,
    repeated and mixed with self-loops."""
    graph = draw(st.one_of(
        st.integers(1, 12).map(Ring),
        st.tuples(st.integers(3, 5), st.integers(3, 5)).map(lambda rc: Torus(*rc)),
        st.integers(1, 8).map(FullyConnected),
    ))
    edges = list(graph.edges)
    if edges:
        edges += draw(st.lists(st.sampled_from(graph.edges), max_size=6))
    edges += [(i, i) for i in draw(st.lists(st.integers(0, graph.n - 1), max_size=3))]
    flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    edges = [(j, i) if flip else (i, j) for (i, j), flip in zip(edges, flips)]
    return graph, Graph(graph.n, tuple(draw(st.permutations(edges))))


def loop_reference(graph):
    """Normalized edges, degrees and uniform weights of ``graph``, one edge at a time."""
    edges = sorted({(min(i, j), max(i, j)) for i, j in graph.edges if i != j})
    degrees = [0] * graph.n
    for i, j in edges:
        degrees[i] += 1
        degrees[j] += 1
    weights = np.zeros((graph.n, graph.n))
    for i, j in edges:
        weights[i, j] = weights[j, i] = 1.0 / (degrees[i] + 1)
    for i in range(graph.n):
        weights[i, i] = 1.0 / (degrees[i] + 1)
    return tuple(edges), tuple(degrees), weights


@settings(max_examples=60, deadline=None)
@given(scrambled())
def test_edge_list_normalization(pair):
    graph, variant = pair
    m, v = build_gossip_matrix(graph), build_gossip_matrix(variant)
    assert v.weights.tobytes() == m.weights.tobytes()
    assert (v.delta, v.beta, v.degree) == (m.delta, m.beta, m.degree)
    edges, degrees, weights = loop_reference(variant)
    assert (v.degree,) * v.n == degrees
    assert v.weights.tobytes() == weights.tobytes()
    # the normalized reference graph itself builds the same matrix
    r = build_gossip_matrix(Graph(variant.n, edges))
    assert (r.weights.tobytes(), r.degree) == (v.weights.tobytes(), v.degree)


def test_read_edge_list(tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text("# square\n0 1\n1 2\n2 3\n3 0\n")
    kind = read_edge_list(path)
    assert kind == Graph(4, ((0, 1), (1, 2), (2, 3), (3, 0)))
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


@pytest.mark.parametrize("text, message", [
    ("0 1\n1 2 3\n", "expected 'i j', got '1 2 3'"),
    ("0 1\n1 -2\n", "node ids must be >= 0"),
])
def test_read_edge_list_rejects_line(text, message, tmp_path):
    path = tmp_path / "edges.txt"
    path.write_text(text)
    with pytest.raises(ValueError, match=re.escape(f"{path}:2: {message}")):
        read_edge_list(path)
