import io
import math
import re
from decimal import ROUND_CEILING, ROUND_FLOOR, Context, Decimal

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import expit

from gossipsim import objectives
from gossipsim.objectives import (
    Dataset,
    LogisticObjective,
    QuadraticObjective,
    parse_libsvm,
    partition,
    _sigmoid_neg,
    power_iteration,
    serialize_libsvm,
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


def shard_rows(obj, node):
    idx = obj.shards[node]
    return obj.dataset.features[idx].toarray(), obj.dataset.labels[idx]


def shard_value(obj, node, x):
    """``node``'s shard-local objective: mean logistic loss over its shard
    plus the full regularizer."""
    a, b = shard_rows(obj, node)
    return float(np.mean(np.logaddexp(0.0, -b * (a @ x))) + obj.l2 * np.dot(x, x))


def shard_gradient(obj, node, x):
    """Gradient of :func:`shard_value`: ``mean_j -b_j sigma(-b_j <a_j, x>) a_j + 2 l2 x``."""
    a, b = shard_rows(obj, node)
    return a.T @ (-b * expit(-b * (a @ x))) / len(b) + 2.0 * obj.l2 * x


def parse_libsvm_per_token(source, n_features=None):
    """``parse_libsvm`` as it was before typed buffers: every token is split,
    converted and checked on its own, and the nonzeros are Python lists.
    A line's first non-finite value is reported after its other checks."""

    def parse_label(token, lineno):
        try:
            value = float(token)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad label {token!r}") from exc
        if value in (1.0, -1.0):
            return value
        if value == 0.0:
            return -1.0
        raise ValueError(f"line {lineno}: label must be +/-1 or 0, got {token!r}")

    data, indices, indptr, labels = [], [], [0], []
    max_index = 0
    for lineno, raw in enumerate(source, start=1):
        line = raw.partition("#")[0].strip()  # a comment runs from '#' to the end of the line
        if not line:
            continue
        parts = line.split()
        label = parse_label(parts[0], lineno)
        prev = 0
        nonfinite = None
        for token in parts[1:]:
            try:
                idx_s, val_s = token.split(":", 1)
                idx = int(idx_s)
                val = float(val_s)
            except ValueError as exc:
                raise ValueError(f"line {lineno}: malformed feature {token!r}") from exc
            if idx < 1:
                raise ValueError(f"line {lineno}: indices are 1-based, got {idx}")
            if idx <= prev:
                raise ValueError(f"line {lineno}: indices must be strictly increasing")
            if nonfinite is None and not math.isfinite(val):
                nonfinite = token
            prev = idx
            indices.append(idx - 1)
            data.append(val)
        if nonfinite is not None:
            raise ValueError(f"line {lineno}: non-finite feature value {nonfinite!r}")
        max_index = max(max_index, prev)
        labels.append(label)
        indptr.append(len(data))
    if not labels:
        raise ValueError("empty LIBSVM stream")
    d = n_features if n_features is not None else max_index
    if d < max_index:
        raise ValueError(f"n_features = {d} is below the largest index {max_index}")
    if d < 1:
        raise ValueError("dataset has no features; pass n_features")
    features = sp.csr_matrix(
        (np.array(data), np.array(indices, dtype=np.int64), np.array(indptr, dtype=np.int64)),
        shape=(len(labels), d),
    )
    return Dataset(features=features, labels=np.array(labels, dtype=float))


LABELS = ["+1", "-1", "1", "0", "1.0", "-1e0", "0.0"]
BAD_LABELS = ["+2", "spam", "nan", "1:1"]
EXACT = Context(prec=2000)  # holds the sum of any two doubles exactly


def halfway(x):
    """The decimal exactly halfway between the double ``x`` and the next one up."""
    return EXACT.divide(EXACT.add(Decimal(x), Decimal(math.nextafter(x, math.inf))), 2)


# Decimals that float64 rounding finds hard: those exactly halfway between two
# doubles (ties, rounded to even), and those 17-20 significant digits from it,
# where one rounding to a wider format can land on the tie.  Below a power of
# two the gap to the next double down is half the gap up.
HALFWAY = st.one_of(
    st.floats(0.0, 1e308),
    st.floats(2.0**53, 2.0**64),  # halfway points of at most 20 digits
    st.integers(-100, 200).map(lambda k: math.nextafter(2.0**k, 0.0)),  # just below 2**k
).map(halfway)
NEAR_HALFWAY = st.builds(lambda h, digits, rounding: Context(digits, rounding).plus(h),
                         HALFWAY, st.integers(17, 20), st.sampled_from([ROUND_FLOOR, ROUND_CEILING]))


@st.composite
def long_decimals(draw):
    """17-20 significant digits, a point anywhere and an exponent from -30 to 30."""
    digits = str(draw(st.integers(1, 9))) + draw(st.text("0123456789", min_size=16, max_size=19))
    point = draw(st.integers(0, len(digits)))
    return f"{digits[:point]}.{digits[point:]}e{draw(st.integers(-30, 30))}"


# each a value that a wider-format rounding once got wrong, or a corner of the syntax
HARD_DECIMALS = [
    "-0.09528073502",  # one rounding to long double lands on a float64 tie
    "9007199254740993",  # an exact tie, 2**53 + 1
    "0.06249999999999999653",  # just below the tie under 2**-4
    "8589934591.999999523",  # ... under 2**33
    "8.112963841460667719E+31",  # ... under 2**106
    "12345678901234567890", "1e-30", "1e30", "-0", "1E+5", "+.5e-3", "5.", "007.50",
    "-000.25e1", "0e0",
]
# values outside the plain ``[sign]digits.digits[e[sign]digits]`` form, that float
# reads or rejects
ODD_VALUES = ["1_0", "\u0661\u0662", "infinity", "1.2.3", "--1", "+-1", "1-1", "1e", "e5", ".",
              "+", "1e+", ".e1", "1e1.5", "1e+-1", "1e5e5", "0x10", "1__0", "5:6"]
VALUES = st.one_of(
    st.floats().map(repr),
    st.integers(-9, 9).map(str),
    st.sampled_from(["-0", ".5", "1e3", "-inf", "+2.5E-3", *HARD_DECIMALS, *ODD_VALUES]),
    st.builds("{}{}".format, st.sampled_from(["", "-", "+"]), long_decimals()),
    st.builds("{}{}".format, st.sampled_from(["", "-"]), st.one_of(HALFWAY, NEAR_HALFWAY)),
)
# each replaces or joins a well-formed token: extra or missing halves and
# colons, a zero or negative index, an unparsable index or value
BAD_TOKENS = ["1:2:3", "3:", ":4", ":", "5", "0:1", "-2:1", "x:1", "2:abc", "2:1:"]


@st.composite
def libsvm_lines(draw):
    """One LIBSVM line: blank, a comment, or a sample with features whose
    tokens may be corrupted, joined by spaces and tabs, and maybe followed by a
    comment."""
    kind = draw(st.sampled_from(["blank", "comment", "sample", "sample", "sample"]))
    if kind == "blank":
        return draw(st.sampled_from(["", " ", "\t"]))
    if kind == "comment":
        return draw(st.sampled_from(["#", "# a comment", " #1:1"]))
    label = draw(st.sampled_from(LABELS * 4 + BAD_LABELS))
    indices = sorted(draw(st.sets(st.integers(1, 12), max_size=6)))
    tokens = [f"{i}:{draw(VALUES)}" for i in indices]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at = draw(st.integers(0, len(tokens)))
        how = draw(st.sampled_from(["insert", "repeat", "swap"]))
        if how == "insert":
            tokens.insert(at, draw(st.sampled_from(BAD_TOKENS)))
        elif how == "repeat" and tokens:  # the same index twice
            at = min(at, len(tokens) - 1)
            tokens.insert(at, tokens[at].split(":")[0] + ":1")
        elif how == "swap" and len(tokens) > 1:  # a decreasing pair
            at = min(at, len(tokens) - 2)
            tokens[at], tokens[at + 1] = tokens[at + 1], tokens[at]
    seps = st.sampled_from([" ", "\t", "  ", " \t "])
    line = label + "".join(draw(seps) + token for token in tokens)
    comment = draw(st.sampled_from(["", "", "#", " # info", "\t#1:x", "# 0:1 spam"]))
    return (draw(st.sampled_from(["", " ", "\t"])) + line + draw(st.sampled_from(["", " ", "\t"]))
            + comment)


def parsed_or_error(parse, lines, n_features):
    try:
        ds = parse(lines, n_features=n_features)
    except ValueError as exc:
        return str(exc)
    f = ds.features
    return [(a.dtype.str, a.tobytes()) for a in (f.data, f.indices, f.indptr, ds.labels)], f.shape


class TestParseLibsvm:
    @settings(max_examples=600, deadline=None)
    @given(st.lists(libsvm_lines(), max_size=6), st.one_of(st.none(), st.integers(0, 14)))
    def test_matches_the_per_token_parser(self, lines, n_features):
        # the same Dataset bytes, or the same first error message
        assert (parsed_or_error(parse_libsvm, lines, n_features)
                == parsed_or_error(parse_libsvm_per_token, lines, n_features))

    @settings(max_examples=1000, deadline=None)
    @given(VALUES)
    @example("1_0")
    def test_stores_what_float_reads(self, text):
        line = ["+1 1:" + text]
        try:
            want = float(text)
        except ValueError:
            with pytest.raises(ValueError, match=f"^line 1: malformed feature {re.escape(repr(line[0][3:]))}$"):
                parse_libsvm(line)
            return
        if not math.isfinite(want):
            with pytest.raises(ValueError, match="^line 1: non-finite feature value"):
                parse_libsvm(line)
            return
        assert parse_libsvm(line).features.data.tobytes() == np.array([want]).tobytes()

    @pytest.mark.parametrize("token", ["+5:1", "\u0663:1", "1_0:1", "0005:1", "5:1_0", "5:inf",
                                       "5:\u0661", "5:1e-400", "5:-0", "9223372036854775807:1"])
    def test_tokens_outside_the_plain_form_read_as_one_at_a_time(self, token):
        line = [f"+1 {token}"]
        assert parsed_or_error(parse_libsvm, line, None) == parsed_or_error(
            parse_libsvm_per_token, line, None)

    @pytest.mark.parametrize("text", HARD_DECIMALS)
    def test_stores_what_float_reads_for_hard_decimals(self, text):
        assert parse_libsvm(["+1 1:" + text]).features.data.tobytes() == np.float64(text).tobytes()

    def test_without_a_64_bit_long_double_the_same_bytes(self, monkeypatch):
        # a platform whose long double is shorter reads every value with float
        lines = serialize_libsvm(synthetic_classification(40, 6, seed=2)).splitlines()
        lines += [f"-1 {i + 1}:{text}" for i, text in enumerate(HARD_DECIMALS)]
        want = parsed_or_error(parse_libsvm, lines, None)
        monkeypatch.setattr(objectives, "_EXACT_LONG_DOUBLE", False)
        assert parsed_or_error(parse_libsvm, lines, None) == want

    @pytest.mark.parametrize("line, message", [
        ("-1 2:1 2:2", "indices must be strictly increasing"),
        ("+1 1:0.5 3:x", "malformed feature '3:x'"),
        ("+2 1:1", "label must be +/-1 or 0, got '+2'"),
        ("+1 1:1e999", "non-finite feature value '1:1e999'"),
        ("+1 0:1", "indices are 1-based, got 0"),
    ])
    def test_bad_line_after_ten_thousand_good_ones_is_named(self, line, message):
        # a comment, 10,000 good lines and a blank one come first; a later bad line is not read
        good = ["+1 1:0.5 3:-1.25e-3 7:12345678901234567890", "-1 2:7", "0"] * 3334
        with pytest.raises(ValueError, match=f"^line 10003: {re.escape(message)}$"):
            parse_libsvm(["# header", *good[:10_000], "", line, "+1 x"])

    def test_index_beyond_int64_rejected(self):
        # the per-token parser raised numpy's OverflowError once the file ended
        big = 2**63
        with pytest.raises(ValueError, match=f"line 2: index {big} is above {big - 1}"):
            parse_libsvm(io.StringIO(f"+1 1:1.0\n-1 3:1.0 {big}:2.0\n+1 x\n"))

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
            ("+1 1:nan 2:1\n", "line 1: non-finite feature value '1:nan'"),
            ("+1 1:1 2:-inf\n", "line 1: non-finite feature value '2:-inf'"),
            ("+1 1:inf 3:x\n", "line 1: malformed feature '3:x'"),  # its line's checks first
        ],
    )
    def test_malformed_lines_name_the_line(self, line, match):
        with pytest.raises(ValueError, match=match):
            parse_libsvm(io.StringIO(line))
        with pytest.raises(ValueError, match=match.replace("line 1", "line 2")):
            parse_libsvm(io.StringIO("+1 1:1.0\n" + line))

    def test_finite_values_whose_sum_overflows_accepted(self):
        ds = parse_libsvm(io.StringIO("+1 1:1e308 2:1e308\n"))
        assert ds.features.data.tolist() == [1e308, 1e308]

    def test_comments_and_blanks_skipped(self):
        ds = parse_libsvm(io.StringIO("# header\n\n+1 1:1.0 # qid:3\n-1 2:2.0#\n"))
        assert ds.m == 2 and ds.features.data.tolist() == [1.0, 2.0]


class TestDataset:
    @pytest.mark.parametrize("rows, labels, message", [
        (2, [1.0], "feature rows and labels disagree in length"),
        (0, [], "dataset must contain at least one sample"),
        (2, [1.0, 0.0], "labels must be -1 or +1"),
    ])
    def test_rejection_is_named(self, rows, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Dataset(features=sp.csr_matrix((rows, 3)), labels=np.array(labels))


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

    @pytest.mark.parametrize("n, mode, message", [
        (0, "sorted", "need at least one shard"),
        (2, "banana", "unknown partition mode 'banana'"),
    ])
    def test_bad_shard_count_or_mode_rejected(self, dataset, n, mode, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            partition(dataset, n, mode, seed=0)


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

    def test_targets_must_be_a_matrix(self):
        with pytest.raises(ValueError, match=re.escape("targets must be d x n, got shape (3,)")):
            QuadraticObjective(np.zeros(3))

    def test_noisy_oracle_needs_an_rng(self):
        obj = QuadraticObjective(np.zeros((3, 2)), noise_sigma=1.0)
        with pytest.raises(ValueError, match="^noisy quadratic oracle needs an rng$"):
            obj.stochastic_gradients(np.zeros((3, 2)), lambda i: None)

    def test_noise_has_configured_scale(self):
        obj = QuadraticObjective(np.zeros((50, 4000)), noise_sigma=2.0)
        rng = stream(4)
        norms = np.sum(obj.stochastic_gradients(np.zeros((50, 4000)), lambda i: rng) ** 2, axis=0)
        assert np.mean(norms) == pytest.approx(4.0, rel=0.1)


class TestLogistic:
    def test_oracle_needs_an_rng(self):
        obj = small_logistic()
        with pytest.raises(ValueError, match="^logistic oracle needs an rng$"):
            obj.stochastic_gradients(np.zeros((obj.dim, 2)), lambda i: None)

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
            np.testing.assert_allclose(mean, shard_gradient(obj, node, x), atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        obj = small_logistic(n_nodes=3)
        rng = stream(7)
        for _ in range(5):
            x = rng.standard_normal(obj.dim)
            fd = finite_difference_gradient(lambda z: obj.value(z), x)
            np.testing.assert_allclose(obj.gradient(x), fd, atol=1e-6)
            fd_local = finite_difference_gradient(lambda z: shard_value(obj, 1, z), x)
            np.testing.assert_allclose(shard_gradient(obj, 1, x), fd_local, atol=1e-6)

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

    def test_shards_required(self):
        ds = parse_libsvm(io.StringIO(TEN_LINE_FIXTURE))
        with pytest.raises(ValueError, match="^at least one shard is required$"):
            LogisticObjective(ds, [])

    def test_empty_shard_rejected(self):
        ds = parse_libsvm(io.StringIO(TEN_LINE_FIXTURE))
        shards = partition(ds, 2, "shuffled", seed=0)
        broken = [np.concatenate(shards), np.array([], dtype=int)]
        with pytest.raises(ValueError, match="empty shard"):
            LogisticObjective(ds, broken)

    def test_oracle_coefficients_are_expit_bits(self):
        # every coefficient -b * sigma(-b * margin) against SciPy's float64
        # expit; the second feature reads the coefficient out exactly
        edge = math.log(np.finfo(float).max)  # exp overflows just above it
        near = edge + np.arange(-3, 4) * np.spacing(edge)
        margins = [0.0, 0.5, 1.0, 10.0, 36.8, 745.2, 1e3, 1e308, 1e-300, *near.tolist()]
        margins += [-t for t in margins]
        for label in (1.0, -1.0):
            for margin in margins:
                features = sp.csr_matrix(np.array([[margin, 1.0]]))
                ds = Dataset(features=features, labels=np.array([label]))
                obj = LogisticObjective(ds, partition(ds, 1, "sorted"))
                x = np.array([1.0, 0.0])
                want = float(-label * expit(-label * np.float64(margin))) + 0.0  # 0 + -0 is 0
                got = (obj.gradient(x)[1],
                       obj.stochastic_gradients(x[:, None], lambda i: Pick(0))[1, 0])
                assert [g.hex() for g in got] == [want.hex()] * 2, (label, margin)

    @pytest.mark.parametrize("overflow", [[], [745.2, 1e3]])
    def test_full_gradient_coefficients_are_expit_bits(self, overflow):
        # many rows in one call: with no exp overflow the coefficients are
        # computed in bulk, with one the call falls back per margin; row j's
        # own feature j + 1 reads its coefficient out exactly
        margins = stream(12).uniform(-700.0, 700.0, 300).tolist() + overflow
        m = len(margins)
        labels = np.where(np.arange(m) % 2 == 0, 1.0, -1.0)
        dense = np.zeros((m, m + 1))
        dense[:, 0] = margins
        dense[np.arange(m), np.arange(m) + 1] = 1.0
        ds = Dataset(features=sp.csr_matrix(dense), labels=labels)
        obj = LogisticObjective(ds, partition(ds, 1, "sorted"))
        x = np.zeros(m + 1)
        x[0] = 1.0
        want = (-labels * expit(-labels * np.array(margins))) / m + 0.0
        assert obj.gradient(x)[1:].tobytes() == want.tobytes()

    def test_sigmoid_is_expit_bit_for_bit(self):
        rng = stream(11)
        t = np.concatenate([
            rng.choice([-1.0, 1.0], 20_000) * 10.0 ** rng.uniform(-300, 308, 20_000),
            rng.uniform(-750.0, 750.0, 20_000),
            math.log(np.finfo(float).max) + np.arange(-2000, 2001) * np.spacing(709.0),
            [0.0, -0.0, np.inf, -np.inf, np.finfo(float).max, -np.finfo(float).max],
        ])
        got = np.array([_sigmoid_neg(v) for v in t.tolist()])
        assert got.tobytes() == expit(-t).tobytes()

    def test_stable_for_huge_margins(self):
        ds = parse_libsvm(io.StringIO("+1 1:1.0\n-1 1:1.0\n"))
        obj = LogisticObjective(ds, partition(ds, 1, "sorted"))
        x = np.array([1e4])
        assert np.isfinite(obj.value(x))
        assert np.isfinite(obj.gradient(x)).all()
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

    def test_one_product_per_iteration(self):
        diag = np.array([3.0, 2.0, 1.0, 0.5])
        calls = []

        def matvec(v):
            calls.append(v)
            return diag * v

        # the loop that took two products per iteration, one of them repeated
        v = np.random.Generator(np.random.Philox(np.random.SeedSequence(0))).standard_normal(4)
        v /= np.linalg.norm(v)
        lam, iterations = 0.0, 0
        while True:
            iterations += 1
            w = diag * v
            v = w / np.linalg.norm(w)
            lam_new = float(v @ (diag * v))
            if abs(lam_new - lam) <= 1e-6 * max(1.0, abs(lam_new)):
                break
            lam = lam_new
        got = power_iteration(matvec, 4)
        assert got.hex() == lam_new.hex() == "0x1.7fffeee1b5cfcp+1"
        assert len(calls) == iterations + 1

    def test_zero_operator_has_eigenvalue_zero(self):
        assert power_iteration(lambda v: 0.0 * v, 3) == 0.0

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

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_tolerance_must_be_positive(self, tol):
        # a tolerance that can never be met would run all max_iters steps
        obj = QuadraticObjective(stream(9, tag="targets").standard_normal((4, 5)))
        with pytest.raises(ValueError, match=f"fstar_tol must be finite and > 0, got {tol}"):
            solve_reference(obj, tol)

    def test_gradient_norm_contract_on_fixture(self):
        obj = small_logistic(n_nodes=2)
        x_star, f_star = solve_reference(obj, tolerance=1e-10)
        assert np.linalg.norm(obj.gradient(x_star)) <= 1e-10
        fd = finite_difference_gradient(lambda z: obj.value(z), x_star)
        assert np.max(np.abs(fd)) <= 1e-6


def test_synthetic_classification_properties():
    ds = synthetic_classification(300, 20, seed=1)
    assert ds.m == 300 and ds.d == 20
    assert set(np.unique(ds.labels)) == {-1.0, 1.0}
    # roughly balanced and mostly separable by construction
    assert 0.3 <= np.mean(ds.labels > 0) <= 0.7
    again = synthetic_classification(300, 20, seed=1)
    assert (ds.features != again.features).nnz == 0
    assert np.array_equal(ds.labels, again.labels)
