"""The rounds, their loops and ``top_k`` against copies of the code they replaced.

``argpartition_top_k`` is the index-based selection that ``TopK.apply``
replaced with a threshold; ``per_column_logistic`` is the logistic oracle
with one scatter per column; ``reference_sgd_round`` and ``reference_run``
spell the round and the loop with the ``mean`` and ``np.all`` calls and the
``AveragedIterate`` class they used before.  ``AllocatingGossip`` and ``allocating_run_consensus`` are the gossip
kernel and the consensus loop from before the kernel owned its round
buffers: every operator and every expression allocates its result.  The
current code must match each byte for byte, memory order included, so no
output of a run can move.
"""

import dataclasses

import numpy as np
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import expit

from gossipsim.compression import (
    Identity,
    Qsgd,
    RandGossip,
    RandK,
    RescaledUnbiased,
    TopK,
    compress_columns,
    qsgd_tau,
)
from gossipsim.consensus import (
    DIVERGENCE_FACTOR,
    ConsensusConfig,
    DivergenceError,
    Gossip,
    GossipScheme,
    run_consensus,
)
from gossipsim.objectives import Dataset, LogisticObjective, QuadraticObjective
from gossipsim.optimize import (
    ExactAveraging,
    PracticalSchedule,
    SgdConfig,
    TrackingAveraging,
    run_optimization,
    sgd_round,
)
from gossipsim.records import ConsensusRecord, OptimizeRecord
from gossipsim.streams import stream
from gossipsim.topology import FullyConnected, Ring, Torus, build_gossip_matrix


def argpartition_top_k(X, k):
    d = X.shape[0]
    mag = np.abs(X.T, order="C")
    rows = np.argpartition(mag, d - k, axis=1)[:, d - k:]
    threshold = np.take_along_axis(mag, rows[:, :1], axis=1)
    tied = np.count_nonzero(mag >= threshold, axis=1) > k
    for i in np.flatnonzero(tied):
        above = np.flatnonzero(mag[i] > threshold[i])
        level = np.flatnonzero(mag[i] == threshold[i])
        rows[i] = np.concatenate([above, level[: k - above.size]])
    cols = np.repeat(np.arange(X.shape[1]), k)
    rows = rows.ravel()
    q = np.zeros_like(X)
    q[rows, cols] = X[rows, cols]
    return q


class ArgpartitionTopK(TopK):
    def apply(self, X, rng_for, out, scratch):
        return argpartition_top_k(X, self.k), np.ones(X.shape[1], dtype=bool)


def same_bits(a, b):
    return a.shape == b.shape and a.strides == b.strides and a.tobytes() == b.tobytes()


# few distinct magnitudes, so ties at the threshold and signed zeros are common
TIES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, -2.0, 0.5])
LAYOUTS = st.sampled_from(["C", "F", "strided"])


def laid_out(X, layout):
    if layout == "strided":
        wide = np.zeros((X.shape[0], 2 * X.shape[1]))
        wide[:, ::2] = X
        return wide[:, ::2]
    return np.asarray(X, order=layout)


@st.composite
def top_k_cases(draw):
    d = draw(st.integers(1, 12))
    n = draw(st.integers(1, 5))
    elements = st.one_of(TIES, st.floats(-1e3, 1e3, allow_nan=False))
    X = draw(arrays(np.float64, (d, n), elements=elements))
    k = draw(st.one_of(st.just(d), st.integers(1, d)))
    return laid_out(X, draw(LAYOUTS)), k


@settings(max_examples=500, deadline=None)
@given(top_k_cases())
@example((np.array([[1.0], [-1.0], [1.0], [2.0], [-1.0]]), 2))  # three tie at the threshold
@example((np.array([[0.0, -0.0], [-0.0, 0.0], [0.0, -0.0]]), 3))  # k = d over signed zeros
@example((np.array([[0.0, 1.0], [-0.0, -1.0], [2.0, 1.0]]), 1))
@example((np.asfortranarray([[-2.0, 0.0], [2.0, -0.0], [-2.0, 0.0]]), 2))
def test_top_k_threshold_equals_argpartition_selection(case):
    X, k = case
    q, _ = compress_columns(TopK(k), X)
    assert same_bits(q, argpartition_top_k(X, k))


def per_column_logistic(objective, X, rng_for):
    samples = []
    for i, shard in enumerate(objective.shards):
        samples.append(int(shard[rng_for(i).integers(len(shard))]))
    G = 2.0 * objective.l2 * X
    csr = objective.dataset.features
    rows = [
        (csr.indices[csr.indptr[j]:csr.indptr[j + 1]], csr.data[csr.indptr[j]:csr.indptr[j + 1]])
        for j in samples
    ]
    dots = np.array([vals @ X[idx, c] for c, (idx, vals) in enumerate(rows)])
    b = objective.dataset.labels[samples]
    coef = -b * expit(-b * dots)
    for c, (idx, vals) in enumerate(rows):
        G[idx, c] += coef[c] * vals
    return G


def reference_sgd_round(x, objective, eta, averaging, t):
    def rng_for(i):
        return stream(averaging.seed, node=i, round_=t, tag="grad")

    if isinstance(objective, LogisticObjective):
        grads = per_column_logistic(objective, x, rng_for)
    else:
        grads = objective.stochastic_gradients(x, rng_for)
    x_half = x - eta * grads
    x_new, payloads = averaging.apply(x_half, t)
    if not np.all(np.isfinite(x_new)):
        raise DivergenceError(t, float("inf"))
    return x_new, payloads


def averaging_for(config):
    """The averaging scheme ``run_optimization`` builds for ``config``."""
    scheme = TrackingAveraging if config.averaging == "tracking" else ExactAveraging
    return scheme(config.matrix, config.gamma, config.compression, config.seed)


class AveragedIterate:
    def __init__(self, a, dim):
        self.a = a
        self.weighted_sum = np.zeros(dim)
        self.weight_total = 0.0

    def update(self, t, xbar):
        w = (self.a + t) ** 2
        self.weighted_sum += w * xbar
        self.weight_total += w

    def value(self):
        return self.weighted_sum / self.weight_total


def reference_run(config, objective, x0):
    x = x0.copy()
    scheme = averaging_for(config)
    averaged = AveragedIterate(config.schedule.a, x.shape[0])
    records, bits = [], 0
    for t in range(config.iters + 1):
        xbar = x.mean(axis=1)
        if t == config.iters or t % config.eval_every == 0:
            records.append(OptimizeRecord(
                t, objective.value(xbar) - config.f_star,
                float(np.sum((x - xbar[:, None]) ** 2)), bits, config.schedule.eta(t),
            ))
        if t == config.iters:
            break
        averaged.update(t, xbar)
        x, payloads = reference_sgd_round(x, objective, config.schedule.eta(t), scheme, t)
        bits += config.matrix.degree * int(payloads.sum())
    x_avg = averaged.value()
    return records, x, x_avg, objective.value(x_avg) - config.f_star, averaged.weight_total


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 5))
    kind = Ring(n) if n >= 3 and draw(st.booleans()) else FullyConnected(n)
    return build_gossip_matrix(kind)


@st.composite
def objectives(draw, n):
    d = draw(st.integers(1, 6))
    values = st.floats(-10, 10, allow_nan=False)
    if draw(st.booleans()):
        targets = draw(arrays(np.float64, (d, n), elements=values))
        sigma = draw(st.sampled_from([0.0, 0.5, 2.0]))
        return QuadraticObjective(targets, noise_sigma=sigma)
    m = draw(st.integers(n, 12))
    mask = draw(arrays(np.bool_, (m, d)))
    dense = np.where(mask, draw(arrays(np.float64, (m, d), elements=values)), 0.0)
    labels = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=m, max_size=m)))
    shards = np.array_split(np.arange(m), n)
    return LogisticObjective(Dataset(features=sp.csr_matrix(dense), labels=labels), shards)


@st.composite
def sgd_cases(draw):
    matrix = draw(graphs())
    objective = draw(objectives(matrix.n))
    d = objective.dim
    averaging = draw(st.sampled_from(["exact", "tracking"]))
    spec = Identity()
    if averaging == "tracking":
        k = draw(st.integers(1, d))
        spec = draw(st.sampled_from([Identity(), TopK(k), RandK(k), Qsgd(4)]))
    config = SgdConfig(
        matrix=matrix,
        schedule=PracticalSchedule(a=draw(st.sampled_from([0.1, 0.5, 2.0])), b=4.0, m=1),
        averaging=averaging,
        gamma=draw(st.sampled_from([0.3, 1.0])),
        compression=spec,
        iters=draw(st.integers(1, 5)),
        seed=draw(st.integers(0, 2**32)),
        eval_every=draw(st.integers(1, 3)),
        f_star=0.0,
    )
    x0 = draw(arrays(np.float64, (d, matrix.n), elements=st.floats(-5, 5, allow_nan=False)))
    return config, objective, x0


def with_argpartition_top_k(config):
    spec = config.compression
    if isinstance(spec, TopK):
        return dataclasses.replace(config, compression=ArgpartitionTopK(spec.k))
    return config


@settings(max_examples=200, deadline=None)
@given(sgd_cases())
def test_sgd_round_matches_earlier_expressions(case):
    config, objective, x = case
    scheme = averaging_for(config)
    reference = averaging_for(with_argpartition_top_k(config))
    want_x = x
    for t in range(config.iters):
        eta = config.schedule.eta(t)
        x, bits = sgd_round(x, objective, eta, scheme, t)
        want_x, want_bits = reference_sgd_round(want_x, objective, eta, reference, t)
        assert same_bits(x, want_x)
        assert same_bits(bits, want_bits)


@settings(max_examples=100, deadline=None)
@given(sgd_cases())
def test_run_optimization_matches_earlier_loop(case):
    config, objective, x0 = case
    result = run_optimization(config, objective, x0)
    records, final_x, x_avg, avg_subopt, s_total = reference_run(
        with_argpartition_top_k(config), objective, x0
    )
    assert repr(result.records) == repr(records)
    assert same_bits(result.final_x, final_x)
    assert same_bits(result.x_avg, x_avg)
    assert repr((result.avg_subopt, result.s_total)) == repr((avg_subopt, s_total))


# ---------------------------------------------------------------------------
# consensus rounds against the allocating kernel


def allocating_compress(spec, X, rng_for):
    """``compress_columns`` as it was before the operators wrote into buffers."""
    d, n = X.shape
    if not np.isfinite(X).all():
        raise ValueError("x contains nonfinite entries")
    sent = np.ones(n, dtype=bool)
    if isinstance(spec, RescaledUnbiased):
        q, bits = allocating_compress(spec.inner, X, rng_for)
        q *= spec.inner.natural_tau(d)
        return q, bits
    if isinstance(spec, Identity):
        q = X.copy(order="K")
    elif isinstance(spec, RandK):
        rows = np.stack([rng_for(i).choice(d, size=spec.k, replace=False) for i in range(n)])
        cols = np.repeat(np.arange(n), spec.k)
        rows = rows.ravel()
        q = np.zeros_like(X)
        q[rows, cols] = X[rows, cols]
    elif isinstance(spec, TopK):
        q = argpartition_top_k(X, spec.k)
    elif isinstance(spec, Qsgd):
        norms = np.array([np.linalg.norm(X[:, i]) for i in range(n)])
        live = norms > 0.0
        dither = np.zeros((n, d))
        for i in np.flatnonzero(live):
            rng_for(i).random(out=dither[i])
        norms[~live] = 1.0
        q = np.abs(X)
        q *= spec.s
        q /= norms
        q += dither.T
        np.floor(q, out=q)
        q *= norms / (spec.s * qsgd_tau(spec.s, d))
        np.copysign(q, X, out=q, where=X != 0.0)
        q[:, ~live] = 0.0
    else:
        assert isinstance(spec, RandGossip)
        sent = np.array([rng_for(i).random() < spec.p for i in range(n)])
        q = np.zeros_like(X)
        q[:, sent] = X[:, sent]
    return q, np.where(sent, spec.message_bits(d), 0)


@st.composite
def operators(draw, d, unbiased=False):
    k = st.integers(1, d)
    primitives = st.one_of(
        k.map(RandK), st.integers(1, 64).map(Qsgd), st.floats(0.05, 1.0).map(RandGossip)
    )
    rescaled = st.one_of(st.just(Identity()), primitives.map(RescaledUnbiased))
    return draw(rescaled if unbiased else st.one_of(rescaled, primitives, k.map(TopK)))


# signed zeros, ties, subnormals and entries whose squares underflow; no
# column norm overflows, where the message would be nan
SMALL = st.one_of(TIES, st.sampled_from([5e-324, -5e-324, 1e-160, -1e-160]),
                  st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=500, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_operators_match_allocating_operators(data, seed):
    d, n = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 5))
    X = laid_out(data.draw(arrays(np.float64, (d, n), elements=SMALL)), data.draw(LAYOUTS))
    spec = data.draw(operators(d))

    def rng_for(i):
        return stream(seed, node=i, round_=0, tag="compress")

    out, scratch = np.full_like(X, np.nan), np.full((n, d), np.nan)
    q, bits = compress_columns(spec, X, rng_for, out, scratch)
    want_q, want_bits = allocating_compress(spec, X, rng_for)
    assert same_bits(q, want_q) and same_bits(bits, want_bits)


class AllocatingGossip:
    def __init__(self, scheme, matrix, gamma, compression, seed):
        self.scheme, self.matrix, self.gamma = scheme, matrix, gamma
        self.compression, self.seed = compression, seed
        self.x_hat = self.s = None

    def messages(self, v, t):
        return allocating_compress(
            self.compression, v, lambda i: stream(self.seed, node=i, round_=t, tag="compress")
        )

    def exchange(self, x, t):
        weights = self.matrix.weights
        if self.scheme is GossipScheme.EXACT:
            bits = np.full(x.shape[1], x.shape[0] * self.compression.value_bits)
            return x @ weights, x, bits
        if self.scheme is GossipScheme.TRACKING:
            if self.x_hat is None:
                self.x_hat, self.s = np.zeros_like(x), np.zeros_like(x)
            q, bits = self.messages(x - self.x_hat, t)
            self.x_hat, self.s = self.x_hat + q, self.s + q @ weights
            return self.s, self.x_hat, bits
        q, bits = self.messages(x, t)
        return q @ weights, x if self.scheme is GossipScheme.DIRECT else q, bits

    def apply(self, x, t):
        received, own, bits = self.exchange(x, t)
        return x + self.gamma * (received - own), bits

    def averaging_apply(self, x_half, t):
        """``TrackingAveraging.apply``'s association."""
        received, own, bits = self.exchange(x_half, t)
        return (x_half - self.gamma * own) + self.gamma * received, bits


def allocating_run_consensus(config, initial_x):
    """``run_consensus``'s loop as it was: returns ``(records, x)``."""
    x = np.array(initial_x, dtype=float, order="C")
    target = x.mean(axis=1)

    def error_of(x):
        return float(np.sum((x - target[:, None]) ** 2))

    limit = DIVERGENCE_FACTOR * max(error_of(x), 1.0)
    tracking = config.scheme == GossipScheme.TRACKING
    gossip = AllocatingGossip(config.scheme, config.matrix, config.gamma, config.compression,
                              config.seed)
    records, bits = [], 0
    for t in range(config.iters + 1):
        final = t == config.iters
        evaluate = final or t % config.eval_every == 0
        error = lyap = drift = None
        if evaluate:
            error = error_of(x)
            drift = float(np.linalg.norm(x.mean(axis=1) - target))
            if not np.isfinite(error) or error > limit:
                raise DivergenceError(t, error)
            lyap = error
        if final:
            if tracking:
                q, _ = gossip.messages(x - gossip.x_hat, t)
                lyap = error + float(np.sum((x - (gossip.x_hat + q)) ** 2))
            records.append(ConsensusRecord(t, error, lyap, bits, drift))
            break
        x_new, payloads = gossip.apply(x, t)
        if evaluate:
            if tracking:
                lyap = error + float(np.sum((x - gossip.x_hat) ** 2))
            records.append(ConsensusRecord(t, error, lyap, bits, drift))
        bits += config.matrix.degree * int(payloads.sum())
        if not np.all(np.isfinite(x_new)):
            raise DivergenceError(t, float("inf"))
        x = x_new
    return records, x


@st.composite
def gossip_cases(draw):
    """``(config, x0)`` over generated graphs, schemes, operators and layouts."""
    matrix = build_gossip_matrix(draw(st.one_of(
        st.integers(3, 9).map(Ring),
        st.tuples(st.integers(3, 4), st.integers(3, 4)).map(lambda rc: Torus(*rc)),
        st.integers(2, 6).map(FullyConnected),
    )))
    d = draw(st.integers(1, 8))
    scheme = draw(st.sampled_from(list(GossipScheme)))
    if scheme is GossipScheme.EXACT:  # it sends its iterates and takes only the identity
        spec = Identity()
    else:
        spec = draw(operators(d, unbiased=scheme in (GossipScheme.DIRECT, GossipScheme.PAIRED)))
    config = ConsensusConfig(
        scheme=scheme, matrix=matrix, gamma=draw(st.sampled_from([0.05, 0.3, 1.0])),
        compression=spec, iters=draw(st.integers(1, 8)), seed=draw(st.integers(0, 2**32)),
        eval_every=draw(st.integers(1, 3)),
    )
    x0 = draw(arrays(np.float64, (d, matrix.n), elements=SMALL))
    return config, laid_out(x0, draw(LAYOUTS))


def outcome(run, *args):
    """The run's result, or the error it raised: a divergence with its
    round and value, a nonfinite message by its type alone."""
    try:
        return run(*args)
    except DivergenceError as exc:
        return DivergenceError, str(exc)
    except ValueError:
        return ValueError, None


@settings(max_examples=300, deadline=None)
@given(gossip_cases())
def test_run_consensus_matches_allocating_loop(case):
    config, x0 = case
    got = outcome(lambda: run_consensus(config, x0))
    want = outcome(allocating_run_consensus, config, x0)
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
        return
    records, x = want
    assert repr(got.records) == repr(records)
    assert same_bits(got.final_x, x)


@settings(max_examples=200, deadline=None)
@given(gossip_cases())
def test_gossip_and_tracking_averaging_rounds_match_allocating_kernel(case):
    config, x = case
    args = (config.matrix, config.gamma, config.compression)
    gossip, want = Gossip(config.scheme, *args, config.seed), AllocatingGossip(
        config.scheme, *args, config.seed)
    tracking = config.scheme is GossipScheme.TRACKING
    if tracking:
        averaging = TrackingAveraging(*args, config.seed)
        want_averaging = AllocatingGossip(config.scheme, *args, config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(config.iters):
            before = x.tobytes()
            got_x, got_bits = gossip.apply(x, t)
            want_x, want_bits = want.apply(x, t)
            assert same_bits(got_x, want_x) and same_bits(got_bits, want_bits)
            if tracking:
                got_avg, _ = averaging.apply(x, t)
                assert same_bits(got_avg, want_averaging.averaging_apply(x, t)[0])
            assert x.tobytes() == before
            if not np.isfinite(want_x).all():
                break
            x = want_x
