import io
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim.objectives import (
    Dataset,
    LogisticObjective,
    QuadraticObjective,
    parse_libsvm,
    partition,
    power_iteration,
    serialize_libsvm,
    sigma_bar_squared,
    solve_reference,
    synthetic_classification,
)
from gossipsim.streams import stream

TEN_LINE_FIXTURE = """\
+1 1:0.5 3:2
-1 2:-1.25 4:0.75
+1 1:1 2:1 3:1
0 2:1
1 4:-0.5
-1 1:3.5
+1 3:0.125
0 1:-2 4:4
-1 2:0.0625 3:-7
+1 1:0.25 2:-0.25 3:0.25 4:-0.25
"""


def finite_difference_gradient(f, x, h=1e-5):
    """Central-difference oracle, coordinate by coordinate."""
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def small_logistic(n_nodes=2, mode="shuffled", seed=0):
    ds = parse_libsvm(io.StringIO(TEN_LINE_FIXTURE))
    shards = partition(ds, n_nodes, mode, seed=seed)
    return LogisticObjective(ds, shards)


class Pick:
    """Stands in for a node's generator: its sample draw returns ``pos``."""

    def __init__(self, pos):
        self.pos = pos

    def integers(self, high):
        return self.pos


def shard_gradients(obj, node, x):
    """The oracle's gradient at ``x`` for every sample of ``node``'s shard."""
    X = np.tile(x[:, None], (1, obj.n_nodes))
    return [
        obj.stochastic_gradients(X, lambda i: Pick(pos if i == node else 0))[:, node]
        for pos in range(len(obj.shards[node]))
    ]


class TestParseLibsvm:
    def test_basic_line(self):
        ds = parse_libsvm(io.StringIO("+1 1:0.5 3:2.0\n"))
        assert ds.m == 1 and ds.d == 3
        np.testing.assert_array_equal(ds.features.toarray(), [[0.5, 0.0, 2.0]])
        assert ds.labels[0] == 1.0

    def test_zero_label_remapped(self):
        ds = parse_libsvm(io.StringIO("0 2:1.0\n"))
        assert ds.labels[0] == -1.0

    def test_one_based_indices(self):
        ds = parse_libsvm(io.StringIO("+1 2:7.0\n"))
        np.testing.assert_array_equal(ds.features.toarray(), [[0.0, 7.0]])

    def test_n_features_override(self):
        ds = parse_libsvm(io.StringIO("+1 1:1.0\n"), n_features=5)
        assert ds.d == 5

    def test_round_trip_canonical_form(self):
        ds = parse_libsvm(io.StringIO(TEN_LINE_FIXTURE))
        text = serialize_libsvm(ds)
        again = parse_libsvm(io.StringIO(text))
        assert np.array_equal(ds.labels, again.labels)
        assert (ds.features != again.features).nnz == 0
        assert serialize_libsvm(again) == text

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_serialize_then_parse_round_trips(self, data):
        d = data.draw(st.integers(1, 8))
        m = data.draw(st.integers(1, 6))
        values = st.floats(allow_nan=False, allow_infinity=False)
        data_, indices, indptr = [], [], [0]
        for _ in range(m):
            # any subset of the features, explicit zeros and -0.0 included
            row = sorted(data.draw(st.sets(st.integers(0, d - 1))))
            indices += row
            data_ += [data.draw(values) for _ in row]
            indptr.append(len(indices))
        features = sp.csr_matrix(
            (np.array(data_, dtype=float), np.array(indices, dtype=np.int64), indptr),
            shape=(m, d),
        )
        labels = np.array(data.draw(st.lists(st.sampled_from([-1.0, 1.0]),
                                             min_size=m, max_size=m)))
        ds = Dataset(features=features, labels=labels)
        again = parse_libsvm(io.StringIO(serialize_libsvm(ds)), n_features=d)
        assert again.labels.tobytes() == labels.tobytes()
        assert again.features.shape == (m, d)
        assert np.array_equal(again.features.indptr, features.indptr)
        assert np.array_equal(again.features.indices, features.indices)
        assert again.features.data.tobytes() == features.data.tobytes()

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_libsvm(io.StringIO(""))

    @pytest.mark.parametrize(
        "line,match",
        [
            ("+1 3:1.0 2:5.0\n", "line 1.*increasing"),
            ("+1 0:1.0\n", "line 1.*1-based"),
            ("+1 1:abc\n", "line 1.*malformed"),
            ("+2 1:1.0\n", "line 1.*label"),
            ("spam 1:1.0\n", "line 1.*label"),
        ],
    )
    def test_malformed_lines_name_the_line(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_libsvm(io.StringIO(line))
        with pytest.raises(ValueError, match=match.replace("line 1", "line 2")):
            parse_libsvm(io.StringIO("+1 1:1.0\n" + line))

    def test_comments_and_blanks_skipped(self):
        ds = parse_libsvm(io.StringIO("# header\n\n+1 1:1.0\n"))
        assert ds.m == 1


class TestPartition:
    @pytest.fixture
    def dataset(self):
        labels = np.array([1, 1, -1, 1, -1, -1, 1, -1, 1, 1, -1, -1], dtype=float)
        feats = sp.csr_matrix(np.arange(24, dtype=float).reshape(12, 2))
        return Dataset(features=feats, labels=labels)

    def test_single_shard_covers_everything(self, dataset):
        for mode in ("shuffled", "sorted"):
            shards = partition(dataset, 1, mode, seed=0)
            assert len(shards) == 1
            assert sorted(shards[0].tolist()) == list(range(12))

    def test_sorted_two_nodes_split_by_label(self, dataset):
        shards = partition(dataset, 2, "sorted", seed=0)
        assert np.all(dataset.labels[shards[0]] == 1.0)
        assert np.all(dataset.labels[shards[1]] == -1.0)

    def test_shuffled_golden_assignment(self, dataset):
        # frozen output of the seeded permutation stream (seed 7)
        shards = partition(dataset, 3, "shuffled", seed=7)
        assert [s.tolist() for s in shards] == [
            [8, 5, 3, 7],
            [11, 1, 9, 0],
            [2, 4, 10, 6],
        ]

    def test_disjoint_cover_and_balance(self, dataset):
        for mode in ("shuffled", "sorted"):
            for n in (2, 3, 5, 7):
                shards = partition(dataset, n, mode, seed=1)
                all_idx = np.concatenate(shards)
                assert sorted(all_idx.tolist()) == list(range(12))
                sizes = [len(s) for s in shards]
                assert max(sizes) - min(sizes) <= 1

    def test_sorted_keeps_labels_contiguous(self, dataset):
        shards = partition(dataset, 4, "sorted", seed=0)
        signs = []
        for s in shards:
            labels = dataset.labels[s]
            # each shard holds at most one sign change
            flips = int(np.sum(labels[1:] != labels[:-1]))
            assert flips <= 1
            signs.extend(labels.tolist())
        # global order is +1 block then -1 block
        flips = int(np.sum(np.array(signs[1:]) != np.array(signs[:-1])))
        assert flips == 1

    def test_more_nodes_than_samples_rejected(self, dataset):
        with pytest.raises(ValueError):
            partition(dataset, 13, "shuffled", seed=0)


class TestQuadratic:
    def test_gradient_zero_at_target(self):
        targets = stream(1, tag="targets").standard_normal((6, 4))
        obj = QuadraticObjective(targets)
        G = obj.stochastic_gradients(targets.copy(), lambda i: None)
        np.testing.assert_array_equal(G, np.zeros((6, 4)))

    def test_minimized_at_target_mean(self):
        targets = stream(2, tag="targets").standard_normal((5, 3))
        obj = QuadraticObjective(targets)
        mean = targets.mean(axis=1)
        rng = stream(3)
        for _ in range(10):
            assert obj.value(mean) <= obj.value(mean + 0.1 * rng.standard_normal(5))

    def test_constants(self):
        obj = QuadraticObjective(np.zeros((3, 2)))
        assert obj.constants() == (1.0, 1.0)

    def test_noise_has_configured_scale(self):
        obj = QuadraticObjective(np.zeros((50, 4000)), noise_sigma=2.0)
        rng = stream(4)
        norms = np.sum(obj.stochastic_gradients(np.zeros((50, 4000)), lambda i: rng) ** 2, axis=0)
        assert np.mean(norms) == pytest.approx(4.0, rel=0.1)


class TestLogistic:
    def test_value_at_zero_is_log_two(self):
        obj = small_logistic()
        assert obj.value(np.zeros(obj.dim)) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_gradient_at_zero_halves_sample(self):
        ds = parse_libsvm(io.StringIO("+1 1:2.0 3:-1.0\n"))
        obj = LogisticObjective(ds, partition(ds, 1, "sorted"))
        g = obj.stochastic_gradients(np.zeros((3, 1)), lambda i: stream(5))[:, 0]
        np.testing.assert_allclose(g, np.array([-1.0, 0.0, 0.5]))

    def test_stochastic_gradient_unbiased_by_enumeration(self):
        obj = small_logistic(n_nodes=2, mode="sorted")
        x = stream(6).standard_normal(obj.dim)
        for node in range(obj.n_nodes):
            mean = np.mean(shard_gradients(obj, node, x), axis=0)
            np.testing.assert_allclose(mean, obj.local_gradient(node, x), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        obj = small_logistic(n_nodes=3)
        rng = stream(7)
        for _ in range(5):
            x = rng.standard_normal(obj.dim)
            fd = finite_difference_gradient(lambda z: obj.value(z), x)
            np.testing.assert_allclose(obj.gradient(x), fd, atol=1e-6)
            fd_local = finite_difference_gradient(lambda z: obj.local_value(1, z), x)
            np.testing.assert_allclose(obj.local_gradient(1, x), fd_local, atol=1e-6)

    def test_constants_single_sample(self):
        ds = parse_libsvm(io.StringIO("+1 1:2.0\n"), n_features=2)
        obj = LogisticObjective(ds, partition(ds, 1, "sorted"))
        mu, big_l = obj.constants()
        assert mu == pytest.approx(1.0)
        assert big_l == pytest.approx(2.0, abs=1e-5)

    def test_l_at_least_mu(self):
        obj = small_logistic()
        mu, big_l = obj.constants()
        assert big_l >= mu > 0

    def test_shards_must_partition(self):
        ds = parse_libsvm(io.StringIO(TEN_LINE_FIXTURE))
        shards = partition(ds, 2, "shuffled", seed=0)
        with pytest.raises(ValueError):
            LogisticObjective(ds, shards[:1])

    def test_empty_shard_rejected(self):
        ds = parse_libsvm(io.StringIO(TEN_LINE_FIXTURE))
        shards = partition(ds, 2, "shuffled", seed=0)
        broken = [np.concatenate(shards), np.array([], dtype=int)]
        with pytest.raises(ValueError, match="empty shard"):
            LogisticObjective(ds, broken)

    def test_stable_for_huge_margins(self):
        ds = parse_libsvm(io.StringIO("+1 1:1.0\n-1 1:1.0\n"))
        obj = LogisticObjective(ds, partition(ds, 1, "sorted"))
        x = np.array([1e4])
        assert np.isfinite(obj.value(x))
        assert np.isfinite(obj.local_gradient(0, x)).all()
        assert all(np.isfinite(g).all() for g in shard_gradients(obj, 0, x))


class TestPowerIteration:
    def test_matches_dense_eigensolve(self):
        rng = stream(8)
        a = rng.standard_normal((12, 12))
        mat = a @ a.T
        want = float(np.max(np.linalg.eigvalsh(mat)))
        got = power_iteration(lambda v: mat @ v, 12, tol=1e-9)
        assert got == pytest.approx(want, rel=1e-6)

    def test_rank_one(self):
        v = np.array([2.0, 0.0])
        mat = np.outer(v, v)
        assert power_iteration(lambda z: mat @ z, 2) == pytest.approx(4.0, rel=1e-6)

    def test_nonconvergence_raises(self):
        mat = np.diag([1.0, 0.99])
        with pytest.raises(RuntimeError, match="converge"):
            power_iteration(lambda v: mat @ v, 2, tol=0.0, max_iters=5)


class TestSolveReference:
    def test_quadratic_reaches_target_mean(self):
        targets = stream(9, tag="targets").standard_normal((4, 5))
        obj = QuadraticObjective(targets)
        x_star, f_star = solve_reference(obj)
        np.testing.assert_allclose(x_star, targets.mean(axis=1), atol=1e-10)
        assert f_star == pytest.approx(obj.value(targets.mean(axis=1)), rel=1e-12)

    def test_logistic_beats_origin_on_separable_fixture(self):
        ds = parse_libsvm(io.StringIO("+1 1:1.0\n-1 1:-1.0\n"))
        obj = LogisticObjective(ds, partition(ds, 1, "sorted"))
        x_star, f_star = solve_reference(obj)
        assert f_star < math.log(2.0)
        assert np.linalg.norm(obj.gradient(x_star)) <= 1e-10

    def test_gradient_norm_contract_on_fixture(self):
        obj = small_logistic(n_nodes=2)
        x_star, f_star = solve_reference(obj, tolerance=1e-10)
        assert np.linalg.norm(obj.gradient(x_star)) <= 1e-10
        fd = finite_difference_gradient(lambda z: obj.value(z), x_star)
        assert np.max(np.abs(fd)) <= 1e-6


def test_sigma_bar_matches_brute_force():
    obj = small_logistic(n_nodes=2)
    x = stream(10).standard_normal(obj.dim)
    got = sigma_bar_squared(obj, x)
    total = 0.0
    for i in range(obj.n_nodes):
        grads = shard_gradients(obj, i, x)
        mean = obj.local_gradient(i, x)
        total += np.mean([np.sum((g - mean) ** 2) for g in grads])
    assert got == pytest.approx(total / 2.0, rel=1e-12)
    assert sigma_bar_squared(QuadraticObjective(np.zeros((2, 2)), noise_sigma=3.0), x[:2]) == 9.0


def test_synthetic_classification_properties():
    ds = synthetic_classification(300, 20, seed=1, flip=0.1)
    assert ds.m == 300 and ds.d == 20
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    # roughly balanced and mostly separable by construction
    assert 0.3 <= np.mean(ds.labels > 0) <= 0.7
    again = synthetic_classification(300, 20, seed=1, flip=0.1)
    assert (ds.features != again.features).nnz == 0
    assert np.array_equal(ds.labels, again.labels)
