import math
import re
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import cli
from gossipsim.compression import Identity, Qsgd, RandGossip, RandK, RescaledUnbiased, TopK
from gossipsim.harness import (
    KEYS,
    SUITE_KEYS,
    CheckOutcome,
    ConfigError,
    ExperimentSpec,
    build_consensus,
    build_optimize,
    build_topology,
    grid_search,
    load_init_file,
    parse_compression,
    parse_suite_file,
    run_experiment,
    run_suite,
    summarize,
    theory_check,
)
from gossipsim.objectives import (
    QuadraticObjective,
    serialize_libsvm,
    solve_reference,
    synthetic_classification,
)
from gossipsim.optimize import PracticalSchedule, SgdConfig, TheoreticalSchedule, run_optimization
from gossipsim.records import OptimizeRecord, format_value, write_records_csv, write_rows_csv
from gossipsim.streams import stream
from gossipsim.topology import Ring, build_gossip_matrix

# Every command line that exits 2 and its message, from the table that CI's
# console-script step also reads.
EXIT2_ROWS = [
    line.split("\t")
    for line in (Path(__file__).parent / "exit2_cases.tsv").read_text().splitlines()
    if line and not line.startswith("#")
]

SUITE = """\
[avg-exact]
kind = consensus
topology = ring
n = 5
d = 8
scheme = exact
iters = 20
eval_every = 5
seeds = 1 2 3

[sgd-quad]
kind = optimize
topology = full
n = 4
d = 6
objective = quadratic
schedule = practical
a = 0.05
b = 6
iters = 15
eval_every = 5
seeds = 4 5
"""


class TestParseCompression:
    def test_forms(self):
        assert parse_compression("identity", 100) == Identity()
        assert parse_compression("rand_k:0.01", 2000) == RandK(20)
        assert parse_compression("rand_k:7", 100) == RandK(7)
        assert parse_compression("top_k:5.0", 100) == TopK(5)
        assert parse_compression("top_k:0.1", 50) == TopK(5)
        assert parse_compression("qsgd:256", 10) == Qsgd(256)
        assert parse_compression("unbiased:rand_k:0.01", 2000) == RescaledUnbiased(RandK(20))
        assert parse_compression("unbiased:identity", 16) == RescaledUnbiased(Identity())

    def test_value_bits_flow_through(self):
        spec = parse_compression("top_k:2", 16, value_bits=64)
        assert spec == TopK(2, value_bits=64)

    @pytest.mark.parametrize("text", ["identity", "unbiased:identity", "qsgd:4"])
    def test_bad_value_bits_is_named(self, text):
        # not blamed on the compression string, which may be the default
        for value_bits in (0, 65):
            with pytest.raises(ConfigError,
                               match=rf"^value_bits must lie in \[1, 64\], got {value_bits}$"):
                parse_compression(text, 16, value_bits=value_bits)

    @pytest.mark.parametrize("text", ["identity:5", "identity:banana", "none:1", "exact:",
                                      "unbiased:identity:5"])
    def test_identity_takes_no_argument(self, text):
        inner = text.removeprefix("unbiased:")
        with pytest.raises(ConfigError, match=re.escape(
                f"{inner.split(':')[0]} takes no argument, got '{inner}'")):
            parse_compression(text, 16)

    def test_rand_gossip_tracking_run(self):
        spec = ExperimentSpec("x", "consensus", {
            "n": 9, "d": 4, "scheme": "tracking", "compression": "rand_gossip:0.5",
            "gamma": "auto", "iters": 200, "seeds": [0],
        })
        assert build_consensus(spec, 0)[0].compression == RandGossip(0.5)
        records = run_experiment(spec, 0).records
        per_round = np.diff([rec.bits for rec in records])
        # a node that sends pays 4 * 32 bits on each of its 2 edges, else nothing
        assert np.all(per_round % 256 == 0) and 0 < per_round.min() < per_round.max() < 9 * 256
        assert records[-1].error < 0.8 * records[0].error
        assert max(rec.mean_drift for rec in records) < 1e-12

    def test_spec_without_dimension_is_refused(self):
        # the `d` parser refuses d = 0 at the suite and CLI boundary; an
        # ExperimentSpec built in code meets the run loop's own check
        spec = ExperimentSpec("a", "consensus", {"n": 4, "d": 0, "seeds": [0]})
        with pytest.raises(ValueError, match=re.escape("got shape (0, 4)")):
            run_experiment(spec, 0)

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_compression("zipzap:3", 10)
        with pytest.raises(ConfigError):
            parse_compression("rand_k", 10)
        with pytest.raises(ConfigError):
            parse_compression("qsgd:lots", 10)

    @pytest.mark.parametrize("text", ["top_k:3000", "rand_k:2001", "unbiased:rand_k:3000"])
    def test_rejects_k_above_d(self, text):
        with pytest.raises(ConfigError, match=f"{text.split(':', 1)[-1]}'.*exceeds.*d = 2000"):
            parse_compression(text, 2000)

    @pytest.mark.parametrize("text", ["top_k:2.7", "rand_k:1.5", "unbiased:rand_k:10.25"])
    def test_rejects_fractional_count(self, text):
        inner = text.removeprefix("unbiased:")
        with pytest.raises(ConfigError, match=re.escape(
                f"bad compression argument in '{inner}': a count k must be a whole number")):
            parse_compression(text, 2000)


class TestSuiteFile:
    def test_parse(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text(SUITE)
        specs = parse_suite_file(path)
        assert [s.label for s in specs] == ["avg-exact", "sgd-quad"]
        assert specs[0].options["seeds"] == [1, 2, 3]
        assert specs[1].options["a"] == 0.05

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("[x]\nkind = consensus\ntopologee = ring\n")
        with pytest.raises(ConfigError, match="unknown keys.*topologee"):
            parse_suite_file(path)

    def test_init_file_rejected_for_optimize(self, tmp_path):
        # build_optimize starts from zeros, so the key would be ignored
        path = tmp_path / "suite.ini"
        path.write_text("[x]\nkind = optimize\ninit_file = init.txt\n")
        with pytest.raises(ConfigError, match="unknown keys.*init_file"):
            parse_suite_file(path)

    def test_duplicate_seeds_rejected(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("[x]\nkind = consensus\nseeds = 1 1\n")
        with pytest.raises(ConfigError, match="distinct"):
            parse_suite_file(path)

    def test_empty_seeds_rejected(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("[x]\nkind = consensus\nseeds =\n")
        with pytest.raises(ConfigError, match=re.escape(
                "[x]: seeds must be distinct non-negative 64-bit integers, got ''")):
            parse_suite_file(path)

    @pytest.mark.parametrize("value", ["-1", str(2**64)])
    def test_targets_seed_range_checked_at_parse(self, tmp_path, value):
        # like a seed in seeds, before any run rather than as every seed's failure
        path = tmp_path / "suite.ini"
        path.write_text(f"[x]\nkind = optimize\ntargets_seed = {value}\n")
        with pytest.raises(ConfigError, match=re.escape(
                f"[x]: targets_seed must be a non-negative 64-bit integer, got '{value}'")):
            parse_suite_file(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("")
        with pytest.raises(ConfigError, match="no experiments"):
            parse_suite_file(path)

    def test_bad_kind_rejected(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("[x]\nkind = banana\n")
        with pytest.raises(ConfigError, match="kind"):
            parse_suite_file(path)

    @pytest.mark.parametrize("key, text, expected", [
        ("n", "abc", "an integer"),
        ("noise_sigma", "high", "a number"),
        ("seeds", "1 x", "distinct non-negative 64-bit integers"),
        ("gamma", "fast", "a number or auto"),
        ("targets_seed", "1.5", "a non-negative 64-bit integer"),
        ("seeds", "-1", "distinct non-negative 64-bit integers"),
    ])
    def test_coercion_error_names_section_and_key(self, tmp_path, capsys, key, text, expected):
        path = tmp_path / "suite.ini"
        path.write_text(f"[x]\nkind = optimize\n{key} = {text}\n")
        with pytest.raises(ConfigError, match=rf"^\[x\]: {key} must be {expected}, got '{text}'$"):
            parse_suite_file(path)
        # the flag's text goes through the same coercion (the flags' rows are in
        # tests/exit2_cases.tsv, whose tokens hold no whitespace); both exit 2 before any run
        argvs = [("x", ["--config", str(path), "--out-dir", str(tmp_path / "res")])]
        if " " in text:
            argvs.append(("optimize", ["--seed", text]))
        for label, argv in argvs:
            assert cli.main(["optimize", *argv]) == 2
            message = f"[{label}]: {key} must be {expected}, got '{text}'"
            assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("kind, key", [
        ("consensus", "topology"),
        ("consensus", "scheme"),
        ("optimize", "averaging"),
        ("optimize", "objective"),
        ("optimize", "partition"),
        ("optimize", "schedule"),
    ])
    def test_choice_key_checked_against_cli_choices(self, tmp_path, kind, key):
        # the flag's text goes through the same coercion: see its row in tests/exit2_cases.tsv
        path = tmp_path / "suite.ini"
        path.write_text(f"[x]\nkind = {kind}\n{key} = banana\n")
        choices = ", ".join(KEYS[key].choices)
        with pytest.raises(ConfigError, match=rf"^\[x\]: {key} must be one of {choices}, got 'banana'$"):
            parse_suite_file(path)
        # partition applies only with objective = logistic: its when, written out
        scope = "{} = {}\n".format(KEYS[key].when[0], KEYS[key].when[1][0]) if KEYS[key].when else ""
        section = f"[x]\nkind = {kind}\nn = 4\nd = 3\n{scope}{key} = {KEYS[key].choices[-1]}\n"
        if "logistic" in section:  # and the keys that its values require
            section += "data_path = train.svm\n"
        if "custom" in section:
            section += "edges_file = edges.txt\n"
        path.write_text(section)
        assert parse_suite_file(path)[0].options[key] == KEYS[key].choices[-1]

    def test_topology_in_any_letter_case(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("[x]\nkind = consensus\nn = 4\nd = 3\ntopology = Fully_Connected\n")
        assert parse_suite_file(path)[0].options["topology"] == "fully_connected"
        args = cli.build_parser().parse_args(
            ["consensus", "--topology", "Ring", "--n", "4", "--d", "3"])
        assert cli._spec(args, "consensus")[0].options["topology"] == "ring"

    def test_build_topology_rejects_unknown_name(self):
        with pytest.raises(ConfigError, match="^unknown topology 'banana'$"):
            build_topology("banana", 4)

    def test_torus_n_must_match_its_sides(self):
        assert build_topology("torus", None, 3, 3).n == build_topology("torus", 9, 3, 3).n == 9
        with pytest.raises(ConfigError, match=re.escape(
                "n = 5 contradicts torus_rows x torus_cols = 3 x 3")):
            build_topology("torus", 5, 3, 3)

    def test_gamma_text_is_kept_for_the_builders(self, tmp_path):
        path = tmp_path / "suite.ini"
        path.write_text("[x]\nkind = consensus\nn = 4\nd = 3\ngamma = Auto\n\n"
                        "[y]\nkind = consensus\nn = 4\nd = 3\ngamma = 0.5\n")
        assert [s.options["gamma"] for s in parse_suite_file(path)] == ["auto", 0.5]


class TestRunSuite:
    def test_outputs_per_seed_plus_summary(self, tmp_path):
        config = tmp_path / "suite.ini"
        config.write_text(SUITE)
        outcome = run_suite(config, tmp_path / "out")
        assert not outcome.failures
        names = sorted(p.name for p in outcome.written)
        assert names == [
            "avg-exact_seed1.csv",
            "avg-exact_seed2.csv",
            "avg-exact_seed3.csv",
            "avg-exact_summary.csv",
            "sgd-quad_seed4.csv",
            "sgd-quad_seed5.csv",
            "sgd-quad_summary.csv",
        ]
        header = (tmp_path / "out" / "avg-exact_seed1.csv").read_text().splitlines()[0]
        assert header == "iter,error,lyapunov,bits,mean_drift"
        header = (tmp_path / "out" / "sgd-quad_seed4.csv").read_text().splitlines()[0]
        assert header == "iter,subopt,dispersion,bits,eta"
        summary_header = (tmp_path / "out" / "avg-exact_summary.csv").read_text().splitlines()[0]
        assert summary_header == (
            "iter,error_mean,error_std,lyapunov_mean,lyapunov_std,"
            "bits_mean,bits_std,mean_drift_mean,mean_drift_std"
        )

    def test_rerun_byte_identical(self, tmp_path):
        config = tmp_path / "suite.ini"
        config.write_text(SUITE)
        run_suite(config, tmp_path / "a")
        run_suite(config, tmp_path / "b")
        for path_a in sorted((tmp_path / "a").iterdir()):
            path_b = tmp_path / "b" / path_a.name
            assert path_a.read_bytes() == path_b.read_bytes(), path_a.name

    def test_logistic_experiment_without_explicit_dim(self, tmp_path):
        data = tmp_path / "train.svm"
        data.write_text("+1 1:1.0 2:0.5\n-1 1:-1.0\n+1 2:1.0\n-1 2:-0.5\n")
        config = tmp_path / "suite.ini"
        config.write_text(
            "[logit]\nkind = optimize\ntopology = ring\nn = 2\n"
            f"objective = logistic\ndata_path = {data}\npartition = sorted\n"
            "schedule = practical\na = 0.1\nb = 2\niters = 10\nseeds = 1\n"
        )
        outcome = run_suite(config, tmp_path / "out")
        assert not outcome.failures
        assert any(p.name == "logit_seed1.csv" for p in outcome.written)

    def test_init_file_with_one_coordinate(self, tmp_path):
        init = tmp_path / "init.txt"
        init.write_text("1.0\n2.0\n3.0\n6.0\n")  # four nodes, d = 1
        config = tmp_path / "suite.ini"
        config.write_text(
            f"[one-d]\nkind = consensus\ntopology = ring\nn = 4\nd = 1\n"
            f"init_file = {init}\niters = 5\nseeds = 1\n"
            f"[too-wide]\nkind = consensus\ntopology = ring\nn = 4\nd = 2\n"
            f"init_file = {init}\niters = 5\nseeds = 1\n"
        )
        outcome = run_suite(config, tmp_path / "out")
        first = (tmp_path / "out" / "one-d_seed1.csv").read_text().splitlines()[1]
        assert float(first.split(",")[1]) == 14.0  # sum (x_i - 3)^2
        assert [(label, seed) for label, seed, _ in outcome.failures] == [("too-wide", 1)]
        assert "2 x 4" in outcome.failures[0][2] and "got 1 x 4" in outcome.failures[0][2]

    def test_partial_failure_continues(self, tmp_path):
        config = tmp_path / "suite.ini"
        config.write_text(
            SUITE
            + "\n[diverges]\nkind = consensus\ntopology = ring\nn = 9\nd = 200\n"
            "scheme = paired\ncompression = unbiased:rand_k:2\niters = 400\n"
            "eval_every = 10\nseeds = 3\n"
        )
        outcome = run_suite(config, tmp_path / "out")
        assert len(outcome.failures) == 1
        assert outcome.failures[0][0] == "diverges"
        assert any(p.name == "avg-exact_seed1.csv" for p in outcome.written)

    def test_runtime_error_recorded_and_suite_continues(self, tmp_path, monkeypatch):
        def no_reference(*args, **kwargs):
            raise RuntimeError("reference solve did not converge")

        monkeypatch.setattr("gossipsim.harness.solve_reference", no_reference)
        config = tmp_path / "suite.ini"
        config.write_text(SUITE)
        outcome = run_suite(config, tmp_path / "out")
        assert [(label, seed) for label, seed, _ in outcome.failures] == [
            ("sgd-quad", 4), ("sgd-quad", 5),
        ]
        assert "did not converge" in outcome.failures[0][2]
        assert any(p.name == "avg-exact_summary.csv" for p in outcome.written)


class TestSummarize:
    def test_cross_check_against_two_pass(self):
        recs = []
        rng = stream(3)
        for seed in range(4):
            rows = [
                OptimizeRecord(t, float(rng.random()), float(rng.random()), t * 10, 0.1)
                for t in range(6)
            ]
            recs.append(rows)
        header, rows = summarize(recs)
        assert header[0] == "iter" and header[1] == "subopt_mean"
        for i, row in enumerate(rows):
            vals = np.array([float(r[i].subopt) for r in recs])
            # two-pass oracle
            mean = sum(vals) / 4.0
            var = sum((v - mean) ** 2 for v in vals) / 4.0
            assert abs(row[1] - mean) <= 1e-12
            assert abs(row[2] - math.sqrt(var)) <= 1e-12

    def test_mismatched_grids_rejected(self):
        a = [OptimizeRecord(0, 1.0, 1.0, 0, 0.1)]
        b = [OptimizeRecord(0, 1.0, 1.0, 0, 0.1), OptimizeRecord(1, 1.0, 1.0, 0, 0.1)]
        with pytest.raises(ValueError):
            summarize([a, b])


class TestCsvFormat:
    def test_seventeen_significant_digits(self):
        assert format_value(1.0 / 3.0) == "0.33333333333333331"
        assert format_value(123) == "123"
        assert format_value(0.1) == "0.10000000000000001"
        # round-trips exactly through text
        for v in (1.0 / 3.0, 1e-300, math.pi, -0.0):
            assert float(format_value(v)) == v

    @settings(max_examples=500, deadline=None)
    @given(st.one_of(
        st.floats(allow_nan=False).map(lambda v: (v, float)),
        st.integers(-(2**70), 2**70).map(lambda v: (v, int)),
        st.integers(-(2**63), 2**63 - 1).map(lambda v: (np.int64(v), int)),
        st.text(st.characters(blacklist_characters=",\n", blacklist_categories=("Cs",)))
        .map(lambda v: (v, str)),
    ))
    def test_format_value_round_trips(self, case):
        value, parse = case
        text = format_value(value)
        assert "," not in text and "\n" not in text
        back = parse(text)
        if parse is float:
            assert back.hex() == value.hex()  # keeps the sign of zero and infinities
        else:
            assert back == value

    @pytest.mark.parametrize("value, error, message", [
        (True, TypeError, "bool is not a CSV cell type"),
        ("a,b", ValueError, "cell 'a,b' would break the CSV layout"),
    ])
    def test_format_value_rejects(self, value, error, message):
        with pytest.raises(error, match=f"^{message}$"):
            format_value(value)

    def test_no_records_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="^no records to write$"):
            write_records_csv(tmp_path / "t.csv", [])
        assert not (tmp_path / "t.csv").exists()

    def test_write_rows(self, tmp_path):
        path = tmp_path / "t.csv"
        write_rows_csv(path, ["a", "b"], [(1, 0.5), (2, 1.5)])
        assert path.read_text(encoding="utf-8") == "a,b\n1,0.5\n2,1.5\n"


class TestGridSearch:
    def make_base(self, objective):
        return SgdConfig(
            matrix=build_gossip_matrix(Ring(objective.n_nodes)),
            schedule=PracticalSchedule(1.0, 1.0, 1), f_star=solve_reference(objective)[1],
            averaging="exact", iters=1, seed=2,
        )

    def quad(self, d, n, noise=0.2):
        targets = stream(55, tag="targets").standard_normal((d, n))
        return QuadraticObjective(targets, noise_sigma=noise)

    def test_singleton_grid(self):
        objective = self.quad(6, 9)
        base = self.make_base(objective)
        a, b, _ = grid_search(base, objective, np.zeros((6, 9)), a_exponents=(-1,),
                              b_values=(6.0,), epochs=5)
        assert (a, b) == (0.1, 6.0)

    def test_divergent_point_skipped(self):
        objective = self.quad(6, 9)
        base = self.make_base(objective)
        a, b, final = grid_search(base, objective, np.zeros((6, 9)), a_exponents=(-1, 4),
                                  b_values=(1.0,), epochs=20)
        assert a == 0.1 and math.isfinite(final)

    def test_all_divergent_raises(self):
        objective = self.quad(6, 9)
        base = self.make_base(objective)
        with pytest.raises(RuntimeError, match="diverged"):
            grid_search(base, objective, np.zeros((6, 9)), a_exponents=(5, 6), b_values=(1.0,),
                        epochs=20)

    def test_overflowing_grid_point_is_rejected(self):
        objective = self.quad(6, 9)
        with pytest.raises(ValueError, match=re.escape("a = 1e+200 makes the averaging weights")):
            grid_search(self.make_base(objective), objective, np.zeros((6, 9)),
                        a_exponents=(200,), b_values=(1.0,))

    @pytest.mark.parametrize("a_exponents, b_values, message", [
        ((), None, "empty a grid"),
        ((-1,), (), "empty b grid"),
    ])
    def test_empty_grid_rejected(self, a_exponents, b_values, message):
        objective = self.quad(6, 9)
        with pytest.raises(ValueError, match=f"^{message}$"):
            grid_search(self.make_base(objective), objective, np.zeros((6, 9)),
                        a_exponents=a_exponents, b_values=b_values)

    def test_needs_a_practical_schedule(self):
        objective = self.quad(6, 9)
        base = replace(self.make_base(objective), schedule=TheoreticalSchedule(mu=1.0, a=100.0))
        with pytest.raises(ValueError, match="practical schedule"):
            grid_search(base, objective, np.zeros((6, 9)))

    def test_selected_a_within_one_notch_of_fine_grid(self):
        # oracle: a 10x finer logarithmic grid evaluated the same way
        d, n = 6, 9
        objective = self.quad(d, n)
        base = self.make_base(objective)
        epochs = 30
        a_coarse, _, _ = grid_search(base, objective, np.zeros((d, n)),
                                     a_exponents=(-3, -2, -1, 0, 1), b_values=(float(d),),
                                     epochs=epochs)
        iters = epochs * math.ceil(n / n)
        best = None
        for tenth in range(-30, 11):
            a = 10.0 ** (tenth / 10.0)
            config = SgdConfig(
                matrix=base.matrix, schedule=PracticalSchedule(a, float(d), 1),
                averaging="exact", iters=iters * 1, seed=base.seed, eval_every=iters,
                f_star=base.f_star,
            )
            try:
                final = run_optimization(config, objective, np.zeros((d, n))).records[-1].subopt
            except Exception:
                continue
            if best is None or final < best[0]:
                best = (final, a)
        assert abs(math.log10(a_coarse) - math.log10(best[1])) <= 1.0 + 1e-9


class TestTheoryCheck:
    def test_all_pass(self):
        outcomes = theory_check("all")
        kinds = {o.kind for o in outcomes}
        assert kinds == {"exact_rate", "tracking_rate", "mixing", "omega_contract", "identity_reduction"}
        for o in outcomes:
            assert o.passed, o.line()

    def test_line_format(self):
        outcome = CheckOutcome("exact_rate", "demo", 1.0, 2.0)
        assert outcome.passed and CheckOutcome("mixing", "demo", 0.0, 0.0).passed  # at the bound
        assert outcome.line() == "PASS exact_rate demo observed=1 bound=2"
        assert CheckOutcome("mixing", "demo", 2.5, 2.0).line() == "FAIL mixing demo observed=2.5 bound=2"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            theory_check("nonsense")

    def test_omega_contract_lines_are_pinned(self, capsys):
        assert cli.main(["check", "--kind", "omega_contract"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "PASS omega_contract rand_k observed=0.99005491237509269 bound=0.99027570757786132",
            "PASS omega_contract qsgd16 observed=0.36158575346621336 bound=0.55607108744524125",
            "PASS omega_contract rand_gossip observed=0.75019999999999998 bound=0.7673158868095169",
            "PASS omega_contract top_k_per_sample observed=-0.05312945478022435 bound=0",
            "PASS omega_contract d2000_rand_k20 observed=0.98993631012616856 "
            "bound=0.99026164846096876",
            "PASS omega_contract d2000_qsgd256 observed=0.0056411612486963981 "
            "bound=0.029625859264360357",
            "PASS omega_contract d2000_rand_k100 observed=0.95007404155183872 "
            "bound=0.95055960534578332",
            "PASS omega_contract d2000_qsgd16 observed=0.62800691380699014 "
            "bound=0.73736552317929516",
            "PASS omega_contract d2000_rand_gossip observed=0.75309999999999999 "
            "bound=0.76724832235320295",
            "PASS omega_contract d2000_top_k_per_sample observed=-0.059888947285200445 bound=0",
        ]


class TestCli:
    def test_consensus_run_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main([
            "consensus", "--topology", "ring", "--n", "6", "--d", "8",
            "--scheme", "tracking", "--compression", "top_k:2", "--gamma", "auto",
            "--iters", "20", "--seed", "1", "--out", str(out),
        ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,error,lyapunov,bits,mean_drift"
        assert "error=" in capsys.readouterr().out

    def test_optimize_run(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main([
            "optimize", "--topology", "full", "--n", "4", "--d", "5",
            "--objective", "quadratic", "--schedule", "practical", "--a", "0.05",
            "--b", "5", "--iters", "10", "--seed", "2", "--out", str(out),
        ])
        assert code == 0
        assert out.read_text().splitlines()[0] == "iter,subopt,dispersion,bits,eta"
        assert "avg_subopt=" in capsys.readouterr().out

    def test_underflowing_first_weight_runs_with_a_second_round(self, capsys):
        # a^2 is 0, but the weight (a + 1)^2 of round 1 keeps the sum positive;
        # at --epochs 1 the same exponents exit 2 (tests/exit2_cases.tsv)
        code = cli.main(["sweep", "--n", "4", "--d", "3", "--a-exp-min", "-200",
                         "--a-exp-max", "-199", "--epochs", "2"])
        assert code == 0
        assert capsys.readouterr().err == ""

    def test_check_command(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = cli.main(["check", "--kind", "mixing", "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert stdout.count("PASS mixing") == 16
        assert out.read_text().splitlines()[0] == "kind,name,passed,observed,bound"

    def test_suite_via_config_flag(self, tmp_path, capsys):
        config = tmp_path / "suite.ini"
        config.write_text(SUITE)
        code = cli.main([
            "consensus", "--config", str(config), "--out-dir", str(tmp_path / "res"),
        ])
        assert code == 0
        assert (tmp_path / "res" / "avg-exact_summary.csv").exists()
        # only consensus sections ran under the consensus subcommand
        assert not (tmp_path / "res" / "sgd-quad_summary.csv").exists()

    def test_suite_kind_mismatch_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "suite.ini"
        config.write_text("[only-avg]\nkind = consensus\ntopology = ring\nn = 4\nd = 4\niters = 2\n")
        code = cli.main([
            "optimize", "--config", str(config), "--out-dir", str(tmp_path / "res"),
        ])
        assert code == 2
        assert "no optimize experiments" in capsys.readouterr().err

    def test_optimize_logistic_from_file(self, tmp_path, capsys):
        data = tmp_path / "train.svm"
        data.write_text("+1 1:1.0 2:0.5\n-1 1:-1.0\n+1 2:1.0\n-1 2:-0.5\n")
        code = cli.main([
            "optimize", "--topology", "ring", "--n", "2", "--objective", "logistic",
            "--data", str(data), "--partition", "sorted", "--schedule", "practical",
            "--a", "0.1", "--b", "2", "--iters", "20", "--seed", "3",
        ])
        assert code == 0
        assert "subopt=" in capsys.readouterr().out

    def test_consensus_init_from_file(self, tmp_path, capsys):
        init = tmp_path / "init.txt"
        rows = stream(4, tag="init").standard_normal((3, 5))  # one node per row
        np.savetxt(init, rows)
        out = tmp_path / "run.csv"
        code = cli.main([
            "consensus", "--topology", "ring", "--n", "3", "--d", "5",
            "--init-file", str(init), "--iters", "10",
            "--out", str(out),
        ])
        assert code == 0
        first = out.read_text().splitlines()[1].split(",")
        want = float(np.sum((rows.T - rows.T.mean(axis=1, keepdims=True)) ** 2))
        assert float(first[1]) == pytest.approx(want, rel=1e-12)

    def test_consensus_init_file_with_one_coordinate(self, tmp_path, capsys):
        init = tmp_path / "init.txt"
        init.write_text("1.0\n2.0\n3.0\n6.0\n")  # four nodes, d = 1
        out = tmp_path / "run.csv"
        args = ["consensus", "--topology", "ring", "--n", "4",
                "--init-file", str(init), "--iters", "5", "--out", str(out)]
        assert cli.main(args + ["--d", "1"]) == 0
        assert float(out.read_text().splitlines()[1].split(",")[1]) == 14.0
        assert cli.main(args + ["--d", "4"]) == 2
        assert "must be d x n = 4 x 4" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_init_value_names_its_line(self, tmp_path, capsys, value):
        init = tmp_path / "init.txt"
        init.write_text(f"# three nodes\n1 2\n\n3 4 # node 1\n5 {value}\n")
        args = ["consensus", "--n", "3", "--d", "2", "--init-file", str(init), "--iters", "5"]
        assert cli.main(args) == 2
        assert capsys.readouterr().err == f"error: init file {init} line 5: values must be finite\n"

    @pytest.mark.parametrize("text, message", [
        ("1 2 3\n4 5\n6 7 8\n9 1 2\n", "line 2: 2 values after lines of 3"),
        ("# x y z\n1 2 x\n4 5 6\n", "line 2: could not convert string to float: 'x'"),
    ], ids=["ragged", "word"])
    def test_malformed_init_line_names_its_line(self, tmp_path, capsys, text, message):
        init = tmp_path / "init.txt"
        init.write_text(text)
        args = ["consensus", "--n", "4", "--d", "3", "--init-file", str(init), "--iters", "5"]
        assert cli.main(args) == 2
        assert capsys.readouterr() == ("", f"error: init file {init} {message}\n")

    @pytest.mark.parametrize("d", ["2", "7"])
    def test_logistic_d_must_match_the_data(self, tmp_path, capsys, d):
        data = tmp_path / "train.svm"
        data.write_text(serialize_libsvm(synthetic_classification(12, 5, seed=3)))
        args = ["optimize", "--objective", "logistic", "--data", str(data), "--n", "3",
                "--iters", "5"]
        assert cli.main([*args, "--d", "5"]) == 0
        capsys.readouterr()
        assert cli.main([*args, "--d", d]) == 2
        assert capsys.readouterr().err == f"error: {data} holds 5-dimensional data, but d = {d}\n"

    def test_nonfinite_libsvm_value_names_its_line(self, tmp_path, capsys):
        data = tmp_path / "train.svm"
        data.write_text("+1 1:1 2:1\n-1 1:nan 2:1\n+1 1:3\n")
        code = cli.main(["optimize", "--objective", "logistic", "--data", str(data),
                         "--n", "2", "--iters", "5"])
        assert code == 2
        assert capsys.readouterr().err == f"error: {data}: line 2: non-finite feature value '1:nan'\n"

    def test_custom_topology_from_edge_file(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 3\n3 0\n")
        code = cli.main([
            "consensus", "--topology", "custom", "--edges-file", str(edges),
            "--d", "4", "--iters", "5",
        ])
        assert code == 0

    def test_suite_gamma_syntax_is_a_config_error(self, tmp_path, capsys):
        # as --gamma fast is (tests/exit2_cases.tsv): the whole suite aborts before any run
        config = tmp_path / "suite.ini"
        config.write_text(
            SUITE + "\n[bad-gamma]\nkind = consensus\ntopology = ring\nn = 4\nd = 3\ngamma = fast\n"
        )
        code = cli.main([
            "consensus", "--config", str(config), "--out-dir", str(tmp_path / "res"),
        ])
        assert code == 2
        assert "[bad-gamma]: gamma must be a number or auto" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("text, line, message", [
        ("kind = consensus\n", 1, "a key before any [section]"),
        ("[a]\nkind = consensus\nbanana\n", 3, "not a 'key = value' line"),
        ("[a]\nkind = consensus\n[a]\n", 3, "section [a] appears twice"),
        ("[a]\nkind = consensus\nd = 3\nd = 4\n", 4, "key 'd' appears twice in [a]"),
    ])
    def test_malformed_suite_file_is_one_config_error(self, text, line, message, tmp_path,
                                                      capsys):
        config = tmp_path / "suite.ini"
        config.write_text(text)
        assert cli.main(["consensus", "--config", str(config),
                         "--out-dir", str(tmp_path / "res")]) == 2
        assert capsys.readouterr() == ("", f"error: config file {config} line {line}: {message}\n")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("key, message", [
        ("compression = identity:5", "identity takes no argument, got 'identity:5'"),
        ("value_bits = 0", "value_bits must lie in [1, 64], got 0"),
        ("compression =", "unknown compression kind ''"),  # empty is not unset
    ])
    def test_bad_operator_in_suite_fails_once_at_parse_time(self, key, message, tmp_path,
                                                            capsys):
        config = tmp_path / "suite.ini"
        config.write_text(f"[x]\nkind = consensus\nn = 4\nd = 3\n{key}\nseeds = 1 2\n")
        assert cli.main(["consensus", "--config", str(config),
                         "--out-dir", str(tmp_path / "res")]) == 2
        assert capsys.readouterr() == ("", f"error: [x]: {message}\n")
        assert not (tmp_path / "res").exists()

    @pytest.mark.parametrize("section, key", [
        ("kind = optimize\nn = 4\n", "d"),
        ("kind = consensus\ntopology = torus\ntorus_cols = 3\nd = 3\n", "torus_rows"),
    ])
    def test_missing_required_key_in_suite_fails_once_at_parse_time(self, section, key,
                                                                    tmp_path, capsys):
        config = tmp_path / "suite.ini"
        config.write_text(f"[x]\n{section}seeds = 1 2 3\n")
        kind = section.split()[2]
        assert cli.main([kind, "--config", str(config), "--out-dir", str(tmp_path / "res")]) == 2
        assert capsys.readouterr() == ("", f"error: [x]: missing required key {key!r}\n")
        assert list(tmp_path.iterdir()) == [config]

    def test_empty_compression_flag_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        # an empty token, which no exit-2 table row can hold
        monkeypatch.chdir(tmp_path)
        assert cli.main(["consensus", "--n", "4", "--d", "3", "--compression", ""]) == 2
        assert capsys.readouterr() == ("", "error: [consensus]: unknown compression kind ''\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_operator_without_logistic_d_fails_per_seed(self, tmp_path, capsys):
        # a logistic section takes d from its data, so its operator is checked when built
        data = tmp_path / "train.svm"
        data.write_text(serialize_libsvm(synthetic_classification(30, 4, seed=6)))
        config = tmp_path / "suite.ini"
        config.write_text(f"[x]\nkind = optimize\nn = 3\nobjective = logistic\n"
                          f"data_path = {data}\ncompression = identity:5\nseeds = 1 2\n")
        assert cli.main(["optimize", "--config", str(config),
                         "--out-dir", str(tmp_path / "res")]) == 1
        failed = "identity takes no argument, got 'identity:5'"
        assert capsys.readouterr().err.splitlines() == [
            f"FAILED x seed={seed}: {failed}" for seed in (1, 2)]

    def test_bad_choice_in_suite_is_a_config_error(self, tmp_path, capsys):
        config = tmp_path / "suite.ini"
        config.write_text(SUITE + "\n[bad-scheme]\nkind = consensus\nscheme = banana\n")
        code = cli.main([
            "consensus", "--config", str(config), "--out-dir", str(tmp_path / "res"),
        ])
        assert code == 2
        assert "[bad-scheme]: scheme must be one of" in capsys.readouterr().err
        assert not (tmp_path / "res").exists()

    def test_partial_suite_failure_exit_code(self, tmp_path, capsys):
        config = tmp_path / "suite.ini"
        config.write_text(
            SUITE
            + "\n[diverges]\nkind = consensus\ntopology = ring\nn = 9\nd = 200\n"
            "scheme = paired\ncompression = unbiased:rand_k:2\niters = 400\n"
            "eval_every = 10\nseeds = 3\n"
        )
        code = cli.main([
            "consensus", "--config", str(config), "--out-dir", str(tmp_path / "res"),
        ])
        assert code == 1
        assert "FAILED diverges" in capsys.readouterr().err

    def test_sweep_command(self, capsys):
        code = cli.main([
            "sweep", "--topology", "ring", "--n", "4", "--d", "4",
            "--objective", "quadratic", "--a-exp-min", "-1", "--a-exp-max", "0",
            "--epochs", "3", "--seed", "1",
        ])
        assert code == 0
        assert "best a=" in capsys.readouterr().out

    def test_sweep_result_is_reproduced_by_optimize(self, capsys, tmp_path):
        cases = [
            (9, 0.5, (-3, 1), 20),
            # the grid's b = 0.1 * 6 is 0.6000000000000001, which once printed as 0.6
            (4, 1.0, (-3, -1), 4),
        ]
        for n, noise, (a_min, a_max), epochs in cases:
            flags = ["--topology", "ring", "--n", str(n), "--d", "6", "--noise-sigma", str(noise)]
            assert cli.main(["sweep", *flags, "--a-exp-min", str(a_min),
                             "--a-exp-max", str(a_max), "--epochs", str(epochs)]) == 0
            best = dict(field.split("=") for field in capsys.readouterr().out.split()[1:])
            # a quadratic epoch is one round: each node holds one sample
            out = tmp_path / "optimize.csv"
            assert cli.main(["optimize", *flags, "--a", best["a"], "--b", best["b"], "--iters",
                             str(epochs), "--eval-every", str(epochs), "--out", str(out)]) == 0
            run = dict(field.split("=") for field in capsys.readouterr().out.split())
            assert run["subopt"] == best["final_subopt"]

            # the grid point as the grid ran it, in the same bytes
            base, objective, x0 = build_optimize(ExperimentSpec("sweep", "optimize", {
                "topology": "ring", "n": n, "d": 6, "noise_sigma": noise, "seeds": [0]}), 0)
            a, b, _ = grid_search(base, objective, x0, tuple(range(a_min, a_max + 1)),
                                  epochs=epochs)
            config = replace(base, schedule=replace(base.schedule, a=a, b=b),
                             iters=epochs, eval_every=epochs)
            grid_csv = tmp_path / "grid.csv"
            write_records_csv(grid_csv, run_optimization(config, objective, x0).records)
            assert out.read_bytes() == grid_csv.read_bytes(), (n, a, b, best)

    def test_diverging_choco_sgd_is_a_divergence(self, capsys):
        code = cli.main([
            "optimize", "--topology", "ring", "--n", "9", "--d", "6", "--averaging", "tracking",
            "--compression", "top_k:2", "--gamma", "0.1", "--schedule", "practical",
            "--a", "1e6", "--b", "1", "--iters", "2000", "--eval-every", "5000",
        ])
        assert code == 1
        assert "error: run diverged" in capsys.readouterr().err

    def test_overflow_between_evaluations_is_a_divergence(self, capsys):
        # paired gossip with rand_k:1 rescaled by d blows up; the only
        # evaluations are rounds 0 and 3000, so the round's own check fires
        code = cli.main([
            "consensus", "--scheme", "paired", "--compression", "unbiased:rand_k:1",
            "--gamma", "1.0", "--n", "9", "--d", "20", "--iters", "3000", "--eval-every", "100000",
        ])
        assert code == 1
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == ["error: run diverged at iteration 1888 (error inf)"]

    @pytest.mark.parametrize("flag", [
        "--config=suite.ini", "--out-dir=res", "--out=run.csv", "--iters=5",
        "--eval-every=2", "--schedule=practical", "--a=0.1", "--b=4",
    ])
    def test_sweep_rejects_flags_it_ignores(self, flag, capsys):
        # the grid sets its own schedule and round budget and writes nothing;
        # --a is left only as an ambiguous prefix of --a-exp-min/--a-exp-max
        assert cli.main(["sweep", "--n", "4", "--d", "4", flag]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert flag in err

    def test_runtime_error_exit_code(self, capsys):
        code = cli.main([
            "sweep", "--topology", "ring", "--n", "4", "--d", "4",
            "--objective", "quadratic", "--a-exp-min", "7", "--a-exp-max", "8",
            "--epochs", "3",
        ])
        assert code == 1
        assert "error: all grid points diverged" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", EXIT2_ROWS, ids=[argv for argv, _ in EXIT2_ROWS])
    def test_exit2_case(self, argv, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # a stray --out-dir or default results/ would land here
        assert cli.main(argv.split()) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert list(tmp_path.iterdir()) == []

    # numpy refuses a d x n array of 291 TiB before touching memory; it words the
    # message, so these rows stay out of the exact-message table
    @pytest.mark.parametrize("command", ["consensus", "optimize"])
    def test_size_too_large_to_allocate_is_one_error_line(self, command, capsys):
        assert cli.main([command, "--n", "4", "--d", str(10**13), "--iters", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("error: Unable to allocate")

    def test_size_too_large_to_allocate_fails_its_seed_only(self, tmp_path, capsys):
        config = tmp_path / "suite.ini"
        config.write_text(
            f"[too-big]\nkind = consensus\nn = 4\nd = {10**13}\niters = 5\nseeds = 1\n"
            "[fits]\nkind = consensus\nn = 4\nd = 3\niters = 5\nseeds = 1\n"
        )
        code = cli.main(["consensus", "--config", str(config), "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("FAILED too-big seed=1: Unable to allocate")
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".csv") == [
            "fits_seed1.csv", "fits_summary.csv"]

    def test_suite_out_dir_defaults_to_results(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "suite.ini").write_text("[a]\nkind = consensus\nn = 4\nd = 3\niters = 3\n")
        assert cli.main(["consensus", "--config", "suite.ini"]) == 0
        assert sorted(p.name for p in (tmp_path / "results").iterdir()) == [
            "a_seed0.csv", "a_summary.csv"]

    def test_disconnected_edge_file_is_one_config_error(self, tmp_path, capsys):
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n3 4\n4 5\n5 3\n")  # two triangles
        argv = ["consensus", "--topology", "custom", "--edges-file", str(edges), "--d", "3"]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        head, _, gap = err.partition("spectral gap ")
        assert (out, head) == ("", "error: graph is disconnected: ")
        assert gap.endswith("\n") and 0.0 <= float(gap) < 1e-9  # a few ulps at most

    def test_below_requirement_warning_is_one_stable_line(self, tmp_path, capsys):
        argv = "optimize --topology full --n 4 --d 6 --schedule theoretical --a 5 --iters 3"
        assert cli.main(argv.split()) == 0
        warning = "warning: schedule parameter a = 5.0 is below the theoretical requirement 410\n"
        assert capsys.readouterr().err == warning
        # two seeds warn twice; the message is printed once
        config = tmp_path / "suite.ini"
        config.write_text("[x]\nkind = optimize\ntopology = full\nn = 4\nd = 6\n"
                          "schedule = theoretical\na = 5\niters = 3\nseeds = 1 2\n")
        assert cli.main(["optimize", "--config", str(config), "--out-dir", str(tmp_path)]) == 0
        assert capsys.readouterr().err == warning


# The same experiment as CLI flags and as a suite section: (flags, section).
# "{init}" and "{data}" stand for files the test writes.
SAME_RUN = {
    "consensus-gaussian": (
        "consensus --topology torus --torus-rows 3 --torus-cols 3 --d 12 --scheme tracking "
        "--compression qsgd:16 --gamma auto --iters 30 --eval-every 4 --seed 5",
        "kind = consensus\ntopology = torus\ntorus_rows = 3\ntorus_cols = 3\nd = 12\n"
        "scheme = tracking\ncompression = qsgd:16\ngamma = auto\niters = 30\n"
        "eval_every = 4\nseeds = 5\n",
    ),
    "consensus-init-file": (
        "consensus --n 3 --d 5 --scheme paired --compression unbiased:rand_k:2 --gamma 0.2 "
        "--value-bits 16 --init-file {init} --iters 12 --seed 2",
        "kind = consensus\ntopology = ring\nn = 3\nd = 5\nscheme = paired\n"
        "compression = unbiased:rand_k:2\ngamma = 0.2\nvalue_bits = 16\n"
        "init_file = {init}\niters = 12\nseeds = 2\n",
    ),
    "optimize-quadratic-theoretical": (
        "optimize --topology full --n 4 --d 6 --objective quadratic --schedule theoretical "
        "--noise-sigma 0.3 --targets-seed 11 --averaging tracking --compression top_k:2 "
        "--gamma 0.5 --iters 25 --eval-every 5 --seed 3",
        "kind = optimize\ntopology = full\nn = 4\nd = 6\nobjective = quadratic\n"
        "schedule = theoretical\nnoise_sigma = 0.3\ntargets_seed = 11\n"
        "averaging = tracking\ncompression = top_k:2\ngamma = 0.5\niters = 25\n"
        "eval_every = 5\nseeds = 3\n",
    ),
    "optimize-logistic-practical": (
        "optimize --n 3 --objective logistic --data {data} --partition sorted "
        "--schedule practical --a 0.2 --b 8 --fstar-tol 1e-9 --iters 20 --seed 4",
        "kind = optimize\ntopology = ring\nn = 3\nobjective = logistic\n"
        "data_path = {data}\npartition = sorted\nschedule = practical\na = 0.2\n"
        "b = 8\nfstar_tol = 1e-9\niters = 20\nseeds = 4\n",
    ),
    "consensus-default-topology": (  # both paths default to a ring
        "consensus --n 5 --d 4 --iters 6 --seed 1",
        "kind = consensus\nn = 5\nd = 4\niters = 6\nseeds = 1\n",
    ),
}


@pytest.mark.parametrize("name", sorted(SAME_RUN))
def test_cli_run_equals_one_section_suite(name, tmp_path, capsys):
    init = tmp_path / "init.txt"
    np.savetxt(init, stream(8, tag="init").standard_normal((3, 5)))
    data = tmp_path / "train.svm"
    data.write_text(serialize_libsvm(synthetic_classification(30, 4, seed=6)))
    flags, section = (text.format(init=init, data=data) for text in SAME_RUN[name])
    config = tmp_path / "suite.ini"
    config.write_text(f"[{name}]\n{section}")
    outcome = run_suite(config, tmp_path / "suite")
    assert not outcome.failures
    seed = flags.split()[-1]
    assert cli.main(flags.split() + ["--out", str(tmp_path / "cli.csv")]) == 0
    suite_csv = tmp_path / "suite" / f"{name}_seed{seed}.csv"
    assert (tmp_path / "cli.csv").read_bytes() == suite_csv.read_bytes()


@pytest.mark.parametrize("kind", ["consensus", "optimize", "sweep"])
def test_flags_are_suite_keys_without_defaults(kind):
    args = vars(cli.build_parser().parse_args([kind]))
    dests = set(args) - {"command", "func"}
    if kind == "sweep":  # the grid sets the round budget and the schedule
        keys = SUITE_KEYS["optimize"] - {"iters", "eval_every", "schedule", "a", "b"}
        own = {"seed", "a_exp_min", "a_exp_max", "epochs"}
    else:
        keys, own = SUITE_KEYS[kind], {"config", "out_dir", "out", "seed"}
    assert dests == keys - {"kind", "seeds"} | own
    # every default of a suite key lives in harness.KEYS, --seed's included
    assert {key for key in dests & keys | {"seed"} if args[key] is not None} == set()


# numbers as written by hand or by np.savetxt: signs, exponents, and values at
# and beyond the float limits (1.8e308 reads as inf, 2e-324 as 0)
INIT_VALUES = st.one_of(
    st.floats(allow_nan=False).map(repr),
    st.integers(-10**20, 10**20).map(str),
    st.sampled_from(["-0", "+.5", "5.", "-1E-5", "+2.5e+3", "1e308", "1.7976931348623157e308",
                     "-1.8e308", "4.9e-324", "2e-324", "2.2250738585072014e-308", "nan"]),
)
INIT_FILLERS = ["", " ", "\t", "#", "# node values", "\t# 1 2 x"]


@st.composite
def init_files(draw):
    """``(d, n)`` and the text of an init file of n lines of d values, some of
    them ragged, among blank and comment lines, with space and tab separators
    and trailing comments; the ``(d, n)`` asked for may differ from the file's."""
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    lines, seps = [], st.sampled_from([" ", "\t", "  ", " \t"])
    for _ in range(n):
        lines += draw(st.lists(st.sampled_from(INIT_FILLERS), max_size=2))
        width = draw(st.sampled_from([d] * 24 + [d - 1, d + 1])) or 1
        values = draw(st.lists(INIT_VALUES, min_size=width, max_size=width))
        line = values[0] + "".join(draw(seps) + value for value in values[1:])
        lines.append(draw(st.sampled_from(["", " ", "\t"])) + line
                     + draw(st.sampled_from(["", " ", "# node", "\t#", " #1 2"])))
    asked = draw(st.sampled_from([(d, n)] * 4 + [(d + 1, n), (d, n + 1), (n, d)]))
    return asked, "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=400, deadline=None)
@given(init_files())
def test_init_file_reads_as_loadtxt_does(case):
    # np.loadtxt is the reference: a file it reads to the asked shape with finite values
    # gives the same float64 bytes, and every other file is one ConfigError naming it
    (d, n), text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "init.txt"
        path.write_text(text, encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file that holds no values
            try:
                want = np.loadtxt(path, ndmin=2).T
            except ValueError:  # ragged
                want = None
        if want is not None and want.shape == (d, n) and np.isfinite(want).all():
            got = load_init_file(path, d, n)
            assert (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())
        else:
            with pytest.raises(ConfigError, match=f"^init file {re.escape(str(path))} "):
                load_init_file(path, d, n)
