"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report including runtimes against the stated budgets.
"""

import math
import time

import numpy as np
import pytest

from gossipsim import cli
from gossipsim.compression import (
    Identity,
    Qsgd,
    RandGossip,
    RandK,
    RescaledUnbiased,
    TopK,
    compress_columns,
)
from gossipsim.consensus import (
    ConsensusConfig,
    DivergenceError,
    GossipScheme,
    run_consensus,
    tracking_stepsize,
)
from gossipsim.objectives import (
    LogisticObjective,
    QuadraticObjective,
    partition,
    solve_reference,
    synthetic_classification,
)
from gossipsim.optimize import (
    ExactAveraging,
    PracticalSchedule,
    SgdConfig,
    TheoreticalSchedule,
    TrackingAveraging,
    run_optimization,
    sgd_round,
)
from gossipsim.streams import StreamPool, stream
from gossipsim.topology import (
    FullyConnected,
    Ring,
    Torus,
    build_gossip_matrix,
    mixing_contraction,
)

RING9 = build_gossip_matrix(Ring(9))


class Budget:
    def __init__(self, num, name, seconds):
        self.num, self.name, self.seconds = num, name, seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        if exc_type is None:
            print(f"\nACCEPTANCE {self.num:02d} {self.name}: PASS ({elapsed:.2f}s / {self.seconds:.0f}s budget)")
            assert elapsed < self.seconds, f"runtime {elapsed:.2f}s exceeded {self.seconds}s"
        else:
            print(f"\nACCEPTANCE {self.num:02d} {self.name}: FAIL after {elapsed:.2f}s")
        return False


def first_crossing(records, target):
    for rec in records:
        if rec.error <= target:
            return rec
    return None


def test_criterion_01_exact_gossip_rate_bound():
    with Budget(1, "exact gossip convergence bound", 1.0):
        matrix = build_gossip_matrix(Ring(16))
        x0 = stream(7, tag="init").standard_normal((32, 16))
        for gamma in (0.5, 1.0):
            config = ConsensusConfig(
                scheme=GossipScheme.EXACT, matrix=matrix, gamma=gamma, iters=500, seed=7
            )
            result = run_consensus(config, x0)
            e0 = result.records[0].error
            for rec in result.records:
                bound = (1.0 - gamma * matrix.delta) ** (2 * rec.iter) * e0 + 1e-9
                assert rec.error <= bound, (gamma, rec.iter)


def test_criterion_02_tracking_gossip_rate_bound_deterministic():
    with Budget(2, "tracking gossip Lyapunov bound (top-k)", 5.0):
        matrix = build_gossip_matrix(Ring(8))
        d = 16
        spec = TopK(2)  # omega = 0.125, the 0.1-equivalent at d=16
        om = spec.omega(d)
        gamma = tracking_stepsize(matrix.delta, om, matrix.beta)
        config = ConsensusConfig(
            scheme=GossipScheme.TRACKING, matrix=matrix, gamma=gamma, compression=spec,
            iters=5000, seed=11,
        )
        result = run_consensus(config, stream(11, tag="init").standard_normal((d, 8)))
        e0 = result.records[0].lyapunov
        rate = 1.0 - matrix.delta**2 * om / 82.0
        for rec in result.records:
            assert rec.lyapunov <= rate**rec.iter * e0 + 1e-9, rec.iter


def test_criterion_03_average_preservation_and_violation():
    with Budget(3, "average preservation per scheme", 10.0):
        x0 = stream(3, tag="init").standard_normal((50, 9))
        mean_norm = float(np.linalg.norm(x0.mean(axis=1)))
        preserving = [
            (GossipScheme.EXACT, Qsgd(256), 1.0),
            (GossipScheme.PAIRED, RescaledUnbiased(Qsgd(256)), 1.0),
            (GossipScheme.TRACKING, RandK(5), 0.1),
        ]
        for scheme, spec, gamma in preserving:
            config = ConsensusConfig(
                scheme=scheme, matrix=RING9, gamma=gamma, compression=spec,
                iters=1000, seed=3, eval_every=50,
            )
            result = run_consensus(config, x0)
            worst = max(rec.mean_drift for rec in result.records) / mean_norm
            assert worst <= 1e-10, (scheme, worst)
        # the direct scheme must violate preservation on the fixed fixture
        config = ConsensusConfig(
            scheme=GossipScheme.DIRECT, matrix=RING9, gamma=1.0,
            compression=RescaledUnbiased(RandK(5)), iters=100, seed=3, eval_every=10,
        )
        result = run_consensus(config, x0)
        violation = result.records[-1].mean_drift / mean_norm
        assert violation >= 1e-6, violation


def test_criterion_04_qsgd_replica_matches_exact_and_baselines_stall():
    with Budget(4, "8-bit quantized averaging replica", 10.0):
        d = 200
        x0 = stream(3, tag="init").standard_normal((d, 9))
        exact = run_consensus(
            ConsensusConfig(scheme=GossipScheme.EXACT, matrix=RING9, gamma=1.0,
                            iters=400, seed=3),
            x0,
        )
        hit_exact = first_crossing(exact.records, 1e-10)
        assert hit_exact is not None
        tracked = run_consensus(
            ConsensusConfig(scheme=GossipScheme.TRACKING, matrix=RING9, gamma=1.0,
                            compression=Qsgd(256), iters=2 * hit_exact.iter + 10, seed=3),
            x0,
        )
        hit_tracked = first_crossing(tracked.records, 1e-10)
        assert hit_tracked is not None
        assert hit_tracked.iter <= 2 * hit_exact.iter, (hit_tracked.iter, hit_exact.iter)
        # unbiased-quantization baselines stall above 1e-6
        for scheme in (GossipScheme.DIRECT, GossipScheme.PAIRED):
            config = ConsensusConfig(
                scheme=scheme, matrix=RING9, gamma=1.0,
                compression=RescaledUnbiased(Qsgd(256)), iters=2000, seed=3, eval_every=20,
            )
            try:
                result = run_consensus(config, x0)
                floor = min(rec.error for rec in result.records)
            except DivergenceError:
                floor = math.inf
            assert floor >= 1e-6, (scheme, floor)


def test_criterion_05_sparsified_replica_iteration_and_bit_cost():
    with Budget(5, "1-in-20 sparsified averaging replica", 30.0):
        d = 200
        spec = RandK(10)
        om = spec.omega(d)
        assert om == pytest.approx(0.05)
        x0 = stream(3, tag="init").standard_normal((d, 9))
        exact = run_consensus(
            ConsensusConfig(scheme=GossipScheme.EXACT, matrix=RING9, gamma=1.0,
                            iters=300, seed=3),
            x0,
        )
        hit_exact = first_crossing(exact.records, 1e-6)
        tracked = run_consensus(
            ConsensusConfig(scheme=GossipScheme.TRACKING, matrix=RING9, gamma=0.05,
                            compression=spec, iters=6000, seed=3),
            x0,
        )
        hit_tracked = first_crossing(tracked.records, 1e-6)
        assert hit_tracked is not None
        ratio = hit_tracked.iter / hit_exact.iter
        assert 0.3 / om <= ratio <= 3.0 / om, ratio
        assert hit_tracked.bits <= 3.0 * hit_exact.bits, (hit_tracked.bits, hit_exact.bits)


def test_criterion_06_omega_contract_monte_carlo():
    with Budget(6, "compression contraction contract", 5.0):
        d, draws, chunk = 2000, 10_000, 500
        x = stream(2024, tag="omega-fixture").standard_normal(d)
        xnorm2 = float(np.dot(x, x))
        copies = np.tile(x, (chunk, 1)).T  # one column per draw

        def distortions(spec, rng, count):
            """``count`` draws of Q(x), one generator consumed column by column."""
            errors = [
                np.sum((compress_columns(spec, copies, lambda i: rng)[0].T - x) ** 2, axis=1)
                for _ in range(count // chunk)
            ]
            return np.concatenate(errors) / xnorm2

        for spec in (RandK(20), Qsgd(256), RandK(100), Qsgd(16)):
            om = spec.omega(d)
            ratios = distortions(spec, stream(1, tag="mc"), draws // 4)
            se = float(np.std(ratios) / math.sqrt(ratios.size))
            assert np.mean(ratios) <= (1.0 - om) + 4 * se, spec
        # rand-gossip with full draw count
        ratios = distortions(RandGossip(0.25), stream(2, tag="mc"), draws)
        se = float(np.std(ratios) / math.sqrt(draws))
        assert np.mean(ratios) <= 0.75 + 4 * se
        # deterministic top-k contracts on every sample
        samples = stream(3, tag="mc").standard_normal((500, d))
        q, _ = compress_columns(TopK(20), samples.T)
        for qi, sample in zip(q.T, samples):
            assert np.sum((qi - sample) ** 2) <= (1.0 - 0.01) * np.dot(sample, sample) + 1e-12


def test_criterion_07_mixing_matrix_contraction():
    with Budget(7, "mixing power contraction", 10.0):
        kinds = [Ring(n) for n in range(4, 17)] + [Torus(3, 3), Torus(4, 4), FullyConnected(9)]
        for kind in kinds:
            matrix = build_gossip_matrix(kind)
            for k in range(51):
                bound = (1.0 - matrix.delta) ** k + 1e-9
                assert mixing_contraction(matrix.weights, k) <= bound, (kind, k)


def test_criterion_08_identity_tracking_reduces_to_plain():
    with Budget(8, "identity-compression reduction", 10.0):
        d, rounds, seed = 20, 200, 5
        targets = stream(31, tag="targets").standard_normal((d, 9))
        objective = QuadraticObjective(targets, noise_sigma=0.5)
        x0 = stream(seed, tag="init").standard_normal((d, 9))
        sched = PracticalSchedule(a=0.05, b=float(d), m=1)
        plain = ExactAveraging(RING9, gamma=1.0, seed=seed)
        tracked = TrackingAveraging(RING9, 1.0, Identity(), d, seed)
        xp = xt = x0
        pool_a, pool_b = StreamPool(), StreamPool()
        for t in range(rounds):
            eta = sched.eta(t)
            xp, _, _ = sgd_round(xp, objective, eta, plain, t, pool_a)
            xt, _, _ = sgd_round(xt, objective, eta, tracked, t, pool_b)
            assert np.max(np.abs(xp - xt)) <= 1e-12, t


def test_criterion_09_fully_connected_equals_minibatch():
    with Budget(9, "centralized mini-batch equivalence", 10.0):
        d, rounds, seed, n = 20, 200, 9, 9
        matrix = build_gossip_matrix(FullyConnected(n))
        targets = stream(31, tag="targets").standard_normal((d, n))
        objective = QuadraticObjective(targets, noise_sigma=0.5)
        x0 = np.tile(stream(77, tag="init").standard_normal(d)[:, None], (1, n))
        sched = PracticalSchedule(a=0.05, b=float(d), m=1)
        config = SgdConfig(matrix=matrix, schedule=sched, averaging="exact", gamma=1.0,
                           iters=rounds, seed=seed, eval_every=rounds, f_star=0.0)
        result = run_optimization(config, objective, x0)
        w = x0[:, 0].copy()
        for t in range(rounds):
            grads = objective.stochastic_gradients(
                np.tile(w[:, None], (1, n)), lambda i: stream(seed, node=i, round_=t, tag="grad")
            )
            w = w - sched.eta(t) * np.mean(grads, axis=1)
        assert np.max(np.abs(result.final_x - w[:, None])) <= 1e-12


def test_criterion_10_variance_scaling_with_workers():
    with Budget(10, "worker-count variance scaling", 30.0):
        d, big_t = 50, 5000
        sched = TheoreticalSchedule(mu=1.0, a=410.0)
        mean_subopt = {}
        for n in (4, 16):
            matrix = build_gossip_matrix(FullyConnected(n))
            targets = stream(123, tag="targets").standard_normal((d, n)) / math.sqrt(d)
            objective = QuadraticObjective(targets, noise_sigma=1.0)
            f_star = objective.value(targets.mean(axis=1))
            finals = []
            for seed in range(10):
                config = SgdConfig(matrix=matrix, schedule=sched, averaging="exact",
                                   gamma=1.0, iters=big_t, seed=seed, eval_every=big_t,
                                   f_star=f_star)
                finals.append(run_optimization(config, objective, np.zeros((d, n))).avg_subopt)
            mean_subopt[n] = float(np.mean(finals))
        ratio = mean_subopt[4] / mean_subopt[16]
        assert 2.5 <= ratio <= 6.0, ratio


@pytest.fixture(scope="module")
def logistic_fixture():
    dataset = synthetic_classification(1800, 50, seed=42)
    shards = partition(dataset, 9, "sorted", seed=0)
    objective = LogisticObjective(dataset, shards)
    _, f_star = solve_reference(objective)
    return objective, f_star


def test_criterion_11_compressed_sgd_matches_plain_with_fewer_bits(logistic_fixture):
    with Budget(11, "compressed SGD on sorted logistic data", 60.0):
        objective, f_star = logistic_fixture
        d, big_t = 50, 5000
        sched = PracticalSchedule(a=0.3, b=50.0, m=1800)
        x0 = np.zeros((d, 9))
        plain_cfg = SgdConfig(matrix=RING9, schedule=sched, averaging="exact", gamma=1.0,
                              iters=big_t, seed=1, eval_every=big_t, f_star=f_star)
        plain = run_optimization(plain_cfg, objective, x0)
        tracked_cfg = SgdConfig(matrix=RING9, schedule=sched, averaging="tracking",
                                gamma=0.4, compression=TopK(5), iters=big_t, seed=1,
                                eval_every=big_t, f_star=f_star)
        tracked = run_optimization(tracked_cfg, objective, x0)
        plain_final, tracked_final = plain.records[-1], tracked.records[-1]
        assert tracked_final.subopt <= 2.0 * plain_final.subopt, (
            tracked_final.subopt, plain_final.subopt,
        )
        assert tracked_final.bits <= 0.15 * plain_final.bits, (
            tracked_final.bits, plain_final.bits,
        )


def test_criterion_12_gradients_match_finite_differences(logistic_fixture):
    with Budget(12, "analytic vs numeric gradients", 30.0):
        h = 1e-5
        objective, _ = logistic_fixture
        targets = stream(31, tag="targets").standard_normal((20, 9))
        quad = QuadraticObjective(targets)
        rng = stream(8, tag="fd")
        for obj, d in ((quad, 20), (objective, 50)):
            for _ in range(10):
                x = rng.standard_normal(d)
                grad = obj.gradient(x)
                fd = np.zeros(d)
                for i in range(d):
                    e = np.zeros(d)
                    e[i] = h
                    fd[i] = (obj.value(x + e) - obj.value(x - e)) / (2 * h)
                assert np.max(np.abs(grad - fd)) <= 1e-6


def test_criterion_13_byte_identical_reruns(tmp_path):
    with Budget(13, "deterministic CSV emission", 30.0):
        args = [
            "consensus", "--topology", "ring", "--n", "9", "--d", "50",
            "--scheme", "tracking", "--compression", "rand_k:5", "--gamma", "0.1",
            "--iters", "200", "--seed", "12", "--eval-every", "10",
        ]
        paths = [tmp_path / "run_a.csv", tmp_path / "run_b.csv"]
        for path in paths:
            assert cli.main(args + ["--out", str(path)]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()
        reports = [tmp_path / "check_a.csv", tmp_path / "check_b.csv"]
        for path in reports:
            assert cli.main(["check", "--kind", "exact_rate", "--out", str(path)]) == 0
        assert reports[0].read_bytes() == reports[1].read_bytes()
