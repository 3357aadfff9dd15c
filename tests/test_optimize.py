import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

from gossipsim import harness, objectives
from gossipsim.compression import Identity, RandK, TopK
from gossipsim.consensus import DivergenceError, tracking_stepsize
from gossipsim.harness import ExperimentSpec, build_optimize, theory_check
from gossipsim.objectives import (
    LogisticObjective,
    QuadraticObjective,
    serialize_libsvm,
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
    theoretical_a,
)
from gossipsim.streams import stream
from gossipsim.topology import FullyConnected, Ring, build_gossip_matrix
from test_acceptance import minibatch_gap

RING9 = build_gossip_matrix(Ring(9))
FC9 = build_gossip_matrix(FullyConnected(9))


def requirement(mu, big_l, delta, omega):
    """``theoretical_a`` of a run with these constants."""
    objective = SimpleNamespace(constants=lambda: (mu, big_l), dim=1)
    return theoretical_a(objective, SimpleNamespace(delta=delta),
                         SimpleNamespace(omega=lambda d: omega))


def quad_objective(d, n, seed=31, noise=0.0):
    targets = stream(seed, tag="targets").standard_normal((d, n))
    return QuadraticObjective(targets, noise_sigma=noise)


def psi(x, y):
    xbar = x.mean(axis=1, keepdims=True)
    return float(np.sum((x - xbar) ** 2) + np.sum((x - y) ** 2))


class TestSchedules:
    def test_theoretical_formula(self):
        sched = TheoreticalSchedule(mu=2.0, a=100.0)
        assert sched.eta(0) == pytest.approx(4.0 / 200.0)
        assert sched.eta(50) == pytest.approx(4.0 / 300.0)

    def test_practical_formula(self):
        sched = PracticalSchedule(a=0.1, b=10.0, m=500)
        assert sched.eta(0) == pytest.approx(5.0)
        assert sched.eta(90) == pytest.approx(0.5)

    def test_strictly_decreasing(self):
        for sched in (TheoreticalSchedule(1.0, 410.0), PracticalSchedule(0.3, 50.0, 1800)):
            etas = [sched.eta(t) for t in range(100)]
            assert all(a > b for a, b in zip(etas, etas[1:]))

    def test_practical_m_below_one_rejected(self):
        with pytest.raises(ValueError, match="^schedule parameter m must be >= 1, got 0$"):
            PracticalSchedule(a=1, b=1, m=0)


class TestTheoreticalStepsize:
    def test_perfect_network_floor(self):
        a = requirement(1.0, 1.0, 1.0, 1.0)
        assert a == 410.0
        assert TheoreticalSchedule(mu=1.0, a=a).eta(0) == pytest.approx(4.0 / 410.0)

    def test_condition_number_dominates(self):
        assert requirement(1.0, 100.0, 1.0, 1.0) == 1600.0

    def test_compression_raises_requirement(self):
        assert requirement(1.0, 1.0, 0.5, 0.1) == pytest.approx(410.0 / (0.25 * 0.1))

    def test_rejects_nonpositive(self):
        for constants in ((0.0, 1.0, 1.0, 1.0), (1.0, -1.0, 1.0, 1.0), (1.0, 1.0, 0.0, 1.0),
                          (1.0, 1.0, 1.0, 0.0)):
            with pytest.raises(ValueError, match="must be positive"):
                requirement(*constants)

    def test_blackbox_form_agrees_with_tracking_form(self):
        # with the tracking contraction p = delta^2 omega / 82 the generic
        # requirement max(5/p, 16 L/mu) equals max(410/(delta^2 omega), 16 L/mu)
        for delta, om in ((1.0, 1.0), (0.2, 0.05), (0.6, 0.3)):
            p = delta**2 * om / 82.0
            assert requirement(1.0, 1.0, delta, om) == pytest.approx(5.0 / p, rel=1e-12)

    @pytest.mark.parametrize("objective,matrix,averaging,compression,bits", [
        (QuadraticObjective(np.zeros((6, 4))), build_gossip_matrix(FullyConnected(4)),
         "exact", Identity(), "0x1.9a00000000000p+8"),
        (QuadraticObjective(np.zeros((4, 9))), RING9, "tracking", TopK(1),
         "0x1.07577b161d28bp+16"),
        (QuadraticObjective(np.zeros((5, 7))), build_gossip_matrix(Ring(7)), "tracking",
         TopK(1), "0x1.fc659d0a4a3cep+14"),
    ])
    def test_pinned_values(self, objective, matrix, averaging, compression, bits):
        # the theoretical schedule's a reaches every theoretical CSV through
        # eta_t; on ring7 at omega = 1/5, 5/(delta^2 omega/82) and
        # 410/delta^2/omega round differently from 410/(delta^2 omega);
        # ``averaging`` names the run, whose operator carries its omega
        assert theoretical_a(objective, matrix, compression).hex() == bits, averaging


class TestAveragedIterate:
    """The running average ``(1/S_T) sum_t (a + t)^2 xbar_t`` of
    ``run_optimization``, read through ``x_avg`` and ``s_total``."""

    @staticmethod
    def run(a, iters, targets, x0, b=4.0):
        targets = np.asarray(targets, dtype=float)
        config = SgdConfig(
            matrix=build_gossip_matrix(FullyConnected(targets.shape[1])),
            schedule=PracticalSchedule(a=a, b=b, m=1), iters=iters, f_star=0.0,
        )
        return run_optimization(config, QuadraticObjective(targets), np.asarray(x0, dtype=float))

    def test_weight_total_matches_closed_form(self):
        a, big_t = 410, 500
        result = self.run(float(a), big_t, np.zeros((3, 2)), np.zeros((3, 2)), b=1e6)
        closed = big_t * (2 * big_t**2 + 6 * a * big_t - 3 * big_t + 6 * a**2 - 6 * a + 1) // 6
        assert result.s_total == float(closed)  # integer-valued floats stay exact
        assert result.s_total >= big_t**3 / 3.0

    def test_weighted_value(self):
        # eta_0 = m a / b = 0.5 moves xbar from 1 to (1 + 19) / 2 = 10, so
        # x_avg weighs xbar_0 = 1 by a^2 = 4 and xbar_1 = 10 by (a + 1)^2 = 9
        result = self.run(2.0, 2, np.full((1, 2), 19.0), np.ones((1, 2)))
        assert result.s_total == 13.0
        assert result.x_avg[0] == pytest.approx((4.0 + 90.0) / 13.0)

    def test_empty_average_rejected(self):
        # a = 1e-200 gives the only round weight (a + 0)^2, which underflows to 0;
        # the config rejects it before the run
        with pytest.raises(ValueError, match=r"a = 1e-200 makes the one averaging weight "
                                             r"a\^2 underflow to 0"):
            self.run(1e-200, 1, np.zeros((2, 2)), np.zeros((2, 2)))


class TestAveragingSchemes:
    def test_exact_preserves_average_and_contracts(self):
        scheme = ExactAveraging(RING9, gamma=0.7)
        p = 0.7 * RING9.delta  # p = gamma delta
        x = stream(5, tag="psi").standard_normal((24, 9))
        y = np.zeros_like(x)
        for t in range(50):
            x2, payloads = scheme.apply(x, t)
            y2 = x2  # exact gossip publishes the iterates themselves
            np.testing.assert_allclose(x2.mean(axis=1), x.mean(axis=1), atol=1e-12)
            assert psi(x2, y2) <= (1.0 - p) * psi(x, y)
            np.testing.assert_array_equal(payloads, np.full(9, 24 * 32))
            x, y = x2, y2

    def test_tracking_preserves_average(self):
        scheme = TrackingAveraging(RING9, 0.4, TopK(3))
        x = stream(6, tag="psi").standard_normal((24, 9))
        for t in range(50):
            x, payloads = scheme.apply(x, t)
            assert len(payloads) == 9
        np.testing.assert_allclose(
            x.mean(axis=1), stream(6, tag="psi").standard_normal((24, 9)).mean(axis=1), atol=1e-12
        )

    def test_tracking_lyapunov_contraction_deterministic(self):
        d = 24
        spec = TopK(3)
        scheme = TrackingAveraging(RING9, tracking_stepsize(RING9.delta, 3 / 24, RING9.beta), spec)
        p = RING9.delta**2 * (3 / 24) / 82.0  # p = delta^2 omega / 82
        x = stream(7, tag="psi").standard_normal((d, 9))
        y = np.zeros_like(x)
        for t in range(200):
            x2, _ = scheme.apply(x, t)
            y2 = scheme.x_hat
            assert psi(x2, y2) <= (1.0 - p) * psi(x, y) + 1e-12
            x, y = x2, y2

    def test_tracking_lyapunov_contraction_random_mean(self):
        # gradient-free rounds, mean over 20 seeds, 20% slack on p
        d, rounds = 24, 150
        spec = RandK(3)
        gamma = tracking_stepsize(RING9.delta, 3 / 24, RING9.beta)
        ratios = np.zeros(rounds)
        for seed in range(20):
            scheme = TrackingAveraging(RING9, gamma, spec, seed)
            x = stream(seed, tag="psi").standard_normal((d, 9))
            y = np.zeros_like(x)
            for t in range(rounds):
                x2, _ = scheme.apply(x, t)
                y2 = scheme.x_hat
                ratios[t] += psi(x2, y2) / psi(x, y)
                x, y = x2, y2
        ratios /= 20.0
        p = RING9.delta**2 * (3 / 24) / 82.0  # p = delta^2 omega / 82
        assert np.max(ratios) <= 1.0 - 0.8 * p


class TestReductions:
    def test_tracking_identity_equals_plain_every_iterate(self):
        # the d = 12 case of the identity_reduction check: every iterate within 1e-12
        outcomes = {outcome.name: outcome for outcome in theory_check("identity_reduction")}
        assert outcomes["ring9_d12"].passed, outcomes["ring9_d12"].line()

    def test_fully_connected_plain_equals_minibatch_oracle(self):
        assert minibatch_gap(12) <= 1e-12  # acceptance criterion 9's d = 12 case

    def test_single_node_ring_is_serial_sgd(self):
        d, rounds, seed = 6, 100, 3
        matrix = build_gossip_matrix(Ring(1))
        objective = quad_objective(d, 1, noise=1.0)
        x0 = stream(seed, tag="init").standard_normal((d, 1))
        sched = PracticalSchedule(a=0.1, b=float(d), m=1)
        config = SgdConfig(matrix=matrix, schedule=sched, averaging="exact", gamma=1.0,
                           iters=rounds, seed=seed, eval_every=rounds, f_star=0.0)
        result = run_optimization(config, objective, x0)
        w = x0[:, 0].copy()
        for t in range(rounds):
            g = objective.stochastic_gradients(
                w[:, None], lambda i: stream(seed, node=i, round_=t, tag="grad")
            )
            w = w - sched.eta(t) * g[:, 0]
        assert np.array_equal(result.final_x[:, 0], w)

    def test_average_recursion_closed_form(self):
        # on a fully connected graph the node average follows
        # xbar <- xbar - eta (xbar - target_mean + noise_mean) exactly
        d, rounds, seed = 8, 300, 13
        objective = quad_objective(d, 9, noise=1.0)
        tbar = objective.targets.mean(axis=1)
        x0 = stream(seed, tag="init").standard_normal((d, 9))
        sched = PracticalSchedule(a=0.05, b=float(d), m=1)
        config = SgdConfig(matrix=FC9, schedule=sched, averaging="exact", gamma=1.0,
                           iters=rounds, seed=seed, eval_every=1, f_star=0.0)
        result = run_optimization(config, objective, x0)
        xbar = x0.mean(axis=1)
        for t in range(rounds):
            noise = np.mean(
                [
                    stream(seed, node=i, round_=t, tag="grad").standard_normal(d)
                    for i in range(9)
                ],
                axis=0,
            ) / math.sqrt(d)
            xbar = xbar - sched.eta(t) * (xbar - tbar + noise)
        np.testing.assert_allclose(result.final_x.mean(axis=1), xbar, atol=1e-10)


class TestRunOptimization:
    def test_zero_gradient_exact_averaging_fixed_point(self):
        d = 5
        target = stream(1, tag="targets").standard_normal(d)
        objective = QuadraticObjective(np.tile(target[:, None], (1, 9)))
        x0 = np.tile(target[:, None], (1, 9))
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 5.0, 1),
                           averaging="exact", iters=50, seed=0, eval_every=50, f_star=0.0)
        result = run_optimization(config, objective, x0)
        np.testing.assert_allclose(result.final_x, x0, atol=1e-14)

    @pytest.mark.parametrize("targets_shape", [(5, 16), (6, 9)])
    def test_objective_must_match_graph_and_dimension(self, targets_shape):
        objective = QuadraticObjective(np.zeros(targets_shape))
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 5.0, 1),
                           iters=5, f_star=0.0)
        d, n = targets_shape
        with pytest.raises(ValueError, match=f"{n} nodes and dimension {d},.*9 nodes.*dimension 5"):
            run_optimization(config, objective, np.zeros((5, 9)))

    @pytest.mark.parametrize("shape", [(5,), (5, 8), (2, 5, 9)])
    def test_initial_x_must_be_d_by_n(self, shape):
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 5.0, 1),
                           iters=5, f_star=0.0)
        with pytest.raises(ValueError, match=re.escape(f"initial X must be d x 9, got shape {shape}")):
            run_optimization(config, QuadraticObjective(np.zeros((5, 9))), np.zeros(shape))

    def test_initial_x_must_have_rows(self):
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 5.0, 1),
                           iters=5, f_star=0.0)
        with pytest.raises(ValueError, match=re.escape("d >= 1 rows, got shape (0, 9)")):
            run_optimization(config, QuadraticObjective(np.zeros((0, 9))), np.zeros((0, 9)))

    def test_monotone_trend_quadratic(self):
        # suboptimality at T=2000 is below its value at T=1000, averaged
        # over 5 seeds, with the theoretical schedule
        d, n = 10, 9
        objective = quad_objective(d, n, noise=1.0)
        f_star = objective.value(objective.targets.mean(axis=1))
        sched = TheoreticalSchedule(mu=1.0, a=410.0)
        half, full = [], []
        for seed in range(5):
            config = SgdConfig(matrix=FC9, schedule=sched, averaging="exact", gamma=1.0,
                               iters=2000, seed=seed, eval_every=1000, f_star=f_star)
            recs = run_optimization(config, objective, np.zeros((d, n))).records
            by_iter = {r.iter: r.subopt for r in recs}
            half.append(by_iter[1000])
            full.append(by_iter[2000])
        assert np.mean(full) <= np.mean(half)

    def test_records_schema_and_bits(self):
        d = 16
        objective = quad_objective(d, 9)
        spec = TopK(2)
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.05, 16.0, 1),
                           averaging="tracking", gamma=0.4, compression=spec,
                           iters=10, seed=0, eval_every=2, f_star=0.0)
        result = run_optimization(config, objective, np.zeros((d, 9)))
        iters = [r.iter for r in result.records]
        assert iters == [0, 2, 4, 6, 8, 10]
        per_round = RING9.n * RING9.degree * (2 * (32 + 4))
        for rec in result.records:
            assert rec.bits == rec.iter * per_round
        assert all(b.bits >= a.bits for a, b in zip(result.records, result.records[1:]))

    def test_full_payload_bits_for_exact_averaging(self):
        d = 16
        objective = quad_objective(d, 9)
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.05, 16.0, 1),
                           averaging="exact", iters=4, seed=0, eval_every=4, f_star=0.0)
        result = run_optimization(config, objective, np.zeros((d, 9)))
        assert result.records[-1].bits == 4 * RING9.n * RING9.degree * d * 32

    def test_divergence_reports_iteration(self):
        objective = quad_objective(4, 9)
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(a=10.0, b=1.0, m=100),
                           averaging="exact", iters=200, seed=0, eval_every=10, f_star=0.0)
        with pytest.raises(DivergenceError) as err:
            run_optimization(config, objective, np.zeros((4, 9)))
        assert err.value.iteration >= 0

    def test_nonfinite_subopt_is_a_divergence(self):
        class NanOffOrigin(QuadraticObjective):  # NaN wherever the iterates have moved
            def value(self, x):
                return math.nan if x.any() else super().value(x)

        objective = NanOffOrigin(stream(31, tag="targets").standard_normal((4, 9)))
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.05, 4.0, 1),
                           averaging="exact", iters=20, seed=0, eval_every=5, f_star=0.0)
        with pytest.raises(DivergenceError) as err:
            run_optimization(config, objective, np.zeros((4, 9)))
        assert err.value.iteration == 5

    @pytest.mark.parametrize("tol", [0.0, -1e-10, math.nan, math.inf])
    def test_nonpositive_fstar_tol_rejected(self, tol):
        # a tolerance that can never be met would spin the reference solve
        spec = ExperimentSpec("x", "optimize", {"n": 9, "d": 4, "fstar_tol": tol, "seeds": [0]})
        with pytest.raises(ValueError, match=f"fstar_tol must be finite and > 0, got {tol}"):
            build_optimize(spec, 0)

    @pytest.mark.parametrize("averaging", ["direct", "paired"])
    def test_averaging_must_be_an_averaging_scheme(self, averaging):
        with pytest.raises(ValueError, match=f"^unknown averaging '{averaging}'$"):
            SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 1.0, 1), f_star=0.0,
                      averaging=averaging)

    @pytest.mark.parametrize("f_star", [math.nan, math.inf, -math.inf])
    def test_nonfinite_f_star_rejected(self, f_star):
        with pytest.raises(ValueError, match="f_star must be finite"):
            SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 1.0, 1), f_star=f_star)

    @pytest.mark.parametrize("schedule", [TheoreticalSchedule(mu=1.0, a=1e200),
                                          PracticalSchedule(1e200, 1.0, 1)])
    def test_overflowing_averaging_weights_rejected(self, schedule):
        with pytest.raises(ValueError, match=re.escape(
                "a = 1e+200 makes the averaging weights (a + t)^2 overflow by t = 5")):
            SgdConfig(matrix=RING9, schedule=schedule, f_star=0.0, iters=5)

    def test_overflowing_weight_sum_rejected(self):
        # every weight (a + t)^2 is near 2.3e304, but 10**5 of them overflow
        schedule = PracticalSchedule(1.5e152, 1.0, 1)
        SgdConfig(matrix=RING9, schedule=schedule, f_star=0.0, iters=10)
        with pytest.raises(ValueError, match="makes the averaging weights"):
            SgdConfig(matrix=RING9, schedule=schedule, f_star=0.0, iters=10**5)
        with pytest.raises(ValueError, match="makes the averaging weights"):  # no float
            SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 1.0, 1), f_star=0.0,
                      iters=10**400)

    @pytest.mark.parametrize("averaging", ["exact", "tracking"])
    @pytest.mark.parametrize("gamma", [0.0, 2.0, math.nan])
    def test_gamma_checked_at_construction(self, averaging, gamma):
        with pytest.raises(ValueError, match=r"gamma must lie in \(0, 1\]"):
            SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.1, 1.0, 1), f_star=0.0,
                      averaging=averaging, gamma=gamma)

    def test_run_never_solves_for_f_star(self, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("run_optimization called the reference solve")

        monkeypatch.setattr(objectives, "solve_reference", no_solve)
        monkeypatch.setattr(harness, "solve_reference", no_solve)
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.05, 4.0, 1),
                           averaging="tracking", gamma=0.4, compression=TopK(2),
                           iters=10, seed=0, eval_every=5, f_star=0.25)
        objective = quad_objective(4, 9, noise=0.5)
        result = run_optimization(config, objective, np.zeros((4, 9)))
        assert result.records[0].subopt == objective.value(np.zeros(4)) - 0.25

    def test_theory_precondition_warns(self):
        objective = quad_objective(4, 9)
        sched = TheoreticalSchedule(mu=1.0, a=10.0)  # far below 410/(delta^2)
        config = SgdConfig(matrix=RING9, schedule=sched, averaging="exact",
                           iters=5, seed=0, f_star=0.0)
        with pytest.warns(UserWarning, match="theoretical requirement"):
            run_optimization(config, objective, np.zeros((4, 9)))

    @pytest.mark.parametrize("averaging,compression,omega", [
        ("exact", "identity", 1.0), ("tracking", "top_k:1", 0.25), ("tracking", "identity", 1.0),
    ])
    def test_default_a_is_the_theoretical_requirement(self, averaging, compression, omega):
        spec = ExperimentSpec("theory", "optimize", {
            "topology": "ring", "n": 9, "d": 4, "schedule": "theoretical", "iters": 5,
            "averaging": averaging, "compression": compression, "seeds": [0],
        })
        config, objective, x0 = build_optimize(spec, 0)
        # a = max(410/(delta^2 omega), 16 L/mu) with mu = L = 1
        assert config.schedule.a == max(410.0 / (RING9.delta**2 * omega), 16.0 * 1.0 / 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_optimization(config, objective, x0)

    def test_complete_graph_default_a_is_round(self):
        # the averaging matrix has delta = 1 exactly, so a = 410 / (1^2 * 1)
        spec = ExperimentSpec("theory", "optimize", {
            "topology": "full", "n": 4, "d": 6, "schedule": "theoretical", "seeds": [0],
        })
        assert build_optimize(spec, 0)[0].schedule.a == 410.0

    @pytest.mark.parametrize("objective", ["quadratic", "logistic"])
    def test_builder_resolves_f_star_with_the_section_tolerance(self, objective, tmp_path):
        data = tmp_path / "train.svm"
        data.write_text(serialize_libsvm(synthetic_classification(60, 5, seed=2)))
        spec = ExperimentSpec("x", "optimize", {
            "topology": "ring", "n": 3, "d": 5, "noise_sigma": 0.5, "objective": objective,
            "data_path": str(data), "fstar_tol": 1e-6, "seeds": [0],
        })
        config, built, _ = build_optimize(spec, 0)
        assert isinstance(built, LogisticObjective if objective == "logistic"
                          else QuadraticObjective)
        assert config.f_star == solve_reference(built, 1e-6)[1]
        if objective == "logistic":  # the quadratic's one 1/L step is exact at any tolerance
            assert config.f_star != solve_reference(built, 1e-12)[1]

    def test_seed_determinism(self):
        d = 8
        objective = quad_objective(d, 9, noise=0.5)
        config = SgdConfig(matrix=RING9, schedule=PracticalSchedule(0.05, 8.0, 1),
                           averaging="tracking", gamma=0.4, compression=RandK(2),
                           iters=100, seed=21, eval_every=10, f_star=0.0)
        a = run_optimization(config, objective, np.zeros((d, 9)))
        b = run_optimization(config, objective, np.zeros((d, 9)))
        assert a.records == b.records
        assert np.array_equal(a.final_x, b.final_x)
        assert np.array_equal(a.x_avg, b.x_avg)
