"""A suite section whose ``gamma``, ``a`` or ``b`` holds several values is a grid.

Its points expand in ``KEYS`` order, labelled ``<section>_<key><value as
written>...``; each writes the bytes of a plain section holding its values;
what they share is built once per section or seed; and one ``best`` line names the
point of least final mean.  Labels name files, so a label that would leave
the output directory, or that two points share, is one error before any run.
"""

import math
from pathlib import Path

import pytest

from gossipsim import cli, harness, objectives
from gossipsim.consensus import DivergenceError, tracking_stepsize
from gossipsim.harness import ConfigError, grid_points, parse_suite_file, run_suite
from gossipsim.objectives import serialize_libsvm, synthetic_classification
from gossipsim.topology import Ring, build_gossip_matrix

# Three grids, each a section body without its label; "{data}" is a LIBSVM file.
GRIDS = {
    "consensus": ("kind = consensus\nn = 6\nd = 5\nscheme = tracking\ncompression = top_k:2\n"
                  "iters = 30\neval_every = 7\n", {"gamma": ["0.2", "auto", "1.0"]}),
    "quadratic": ("kind = optimize\ntopology = full\nn = 4\nd = 6\nnoise_sigma = 0.3\n"
                  "averaging = tracking\ncompression = top_k:2\ngamma = 0.5\n"
                  "iters = 25\neval_every = 5\n", {"a": ["0.05", "1e-1"], "b": ["6", "2.5"]}),
    "logistic": ("kind = optimize\nn = 3\nobjective = logistic\ndata_path = {data}\n"
                 "partition = sorted\nfstar_tol = 1e-9\niters = 20\neval_every = 4\n",
                 {"a": ["0.2", "0.5"], "b": ["8", "16"]}),
}


def write_data(tmp_path) -> Path:
    data = tmp_path / "train.svm"
    data.write_text(serialize_libsvm(synthetic_classification(30, 4, seed=6)))
    return data


def suite(tmp_path, text: str) -> Path:
    path = tmp_path / "suite.ini"
    path.write_text(text)
    return path


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_each_point_writes_the_bytes_of_a_plain_section(name, tmp_path):
    body, grid = GRIDS[name]
    body = body.format(data=write_data(tmp_path))
    lists = "".join(f"{key} = {' '.join(values)}\n" for key, values in grid.items())
    outcome = run_suite(suite(tmp_path, f"[g]\n{body}{lists}seeds = 1 7\n"), tmp_path / "grid")
    assert not outcome.failures
    points = [point.label for point in grid_points(parse_suite_file(tmp_path / "suite.ini")[0])]
    assert len(outcome.written) == 3 * len(points) > 3
    for label in points:  # g_a0.05_b6 holds a = 0.05 and b = 6
        values = dict(zip(grid, (part.removeprefix(key) for key, part in
                                 zip(grid, label.split("_")[1:]))))
        plain = f"[{label}]\n{body}" + "".join(f"{k} = {v}\n" for k, v in values.items())
        # the summary from both seeds, and each seed's CSV from a section of that seed alone
        for seeds, file in (("1 7", "summary"), ("1", "seed1"), ("7", "seed7")):
            out = tmp_path / label / seeds
            assert not run_suite(suite(tmp_path, f"{plain}seeds = {seeds}\n"), out).failures
            file = f"{label}_{file}.csv"
            assert (tmp_path / "grid" / file).read_bytes() == (out / file).read_bytes()


def test_points_expand_in_keys_order_with_values_as_written(tmp_path):
    path = suite(tmp_path, "[sgd]\nkind = optimize\nn = 4\nd = 3\nb = 10 1\na = 0.1,1\n"
                           "gamma = 1.0\n")
    (spec,) = parse_suite_file(path)
    assert spec.options["a"] == {"0.1": 0.1, "1": 1.0} and spec.options["gamma"] == 1.0
    points = grid_points(spec)
    assert [p.label for p in points] == ["sgd_a0.1_b10", "sgd_a0.1_b1", "sgd_a1_b10", "sgd_a1_b1"]
    assert [(p.options["a"], p.options["b"]) for p in points] == [
        (0.1, 10.0), (0.1, 1.0), (1.0, 10.0), (1.0, 1.0)]


def count_calls(monkeypatch, *names, module=harness) -> dict:
    """Calls of each of the ``module`` functions ``names`` from here on."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _call=getattr(module, name), **kwargs):
            calls[_name] += 1
            return _call(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)
    return calls


def test_a_logistic_grid_parses_and_solves_once(tmp_path, monkeypatch):
    calls = count_calls(monkeypatch, "parse_libsvm", "solve_reference")
    powers = count_calls(monkeypatch, "power_iteration", module=objectives)
    text = (GRIDS["logistic"][0].format(data=write_data(tmp_path))
            + "a = 0.2 0.5\nb = 8 16\nseeds = 3 5\n")
    outcome = run_suite(suite(tmp_path, f"[g]\n{text}"), tmp_path / "out")
    assert not outcome.failures and len(outcome.written) == 12
    assert (calls, powers) == ({"parse_libsvm": 1, "solve_reference": 1}, {"power_iteration": 1})


def test_a_theoretical_logistic_section_runs_its_power_iteration_once(tmp_path, monkeypatch):
    # mu, the default a and run_optimization's check of a each read the constants
    calls = count_calls(monkeypatch, "power_iteration", module=objectives)
    text = (GRIDS["logistic"][0].format(data=write_data(tmp_path))
            + "schedule = theoretical\nseeds = 3 5\n")
    outcome = run_suite(suite(tmp_path, f"[t]\n{text}"), tmp_path / "out")
    assert not outcome.failures and len(outcome.written) == 3
    assert calls == {"power_iteration": 1}


def test_a_consensus_grid_builds_its_graph_once_and_its_start_once_per_seed(tmp_path,
                                                                            monkeypatch):
    calls = count_calls(monkeypatch, "build_topology", "gaussian_init")
    text = GRIDS["consensus"][0] + "gamma = 0.2 auto 1.0\nseeds = 1 7\n"
    outcome = run_suite(suite(tmp_path, f"[g]\n{text}"), tmp_path / "out")
    assert not outcome.failures and len(outcome.written) == 9
    assert calls == {"build_topology": 1, "gaussian_init": 2}


def best_line(capsys, tmp_path, section: str, kind: str = "optimize") -> list[str]:
    assert cli.main([kind, "--config", str(suite(tmp_path, section)),
                     "--out-dir", str(tmp_path / "res")]) == 0
    return [line for line in capsys.readouterr().out.splitlines() if not line.startswith("wrote ")]


# At iters = 1 the final iterate is one gradient step of eta_0 = a / b from zeros on a
# noiseless quadratic over a complete graph, so a = 1, b = 1 and a = 2, b = 2 (eta_0 = 1,
# which reaches the minimizer) tie as the best final suboptimality.
TIE = "[t]\nkind = optimize\ntopology = full\nn = 4\nd = 3\niters = 1\n"


@pytest.mark.parametrize("a, b", [("1 2", "1 2"), ("2 1", "2 1"), ("2,1", "1,2")])
def test_ties_go_to_the_smaller_a_then_b(a, b, capsys, tmp_path):
    (line,) = best_line(capsys, tmp_path, TIE + f"a = {a}\nb = {b}\n")
    assert line.startswith("best [t]: t_a1_b1 final_subopt=")


def test_ties_go_to_a_number_before_auto(capsys, tmp_path):
    matrix = build_gossip_matrix(Ring(6))
    auto = repr(tracking_stepsize(matrix.delta, 2 / 5, matrix.beta))  # top_k:2 at d = 5
    body = GRIDS["consensus"][0]
    for order in (f"auto {auto}", f"{auto} auto"):
        (line,) = best_line(capsys, tmp_path, f"[c]\n{body}gamma = {order}\n", "consensus")
        assert line.startswith(f"best [c]: c_gamma{auto} final_error=")


def test_one_best_line_per_grid_after_the_wrote_lines(capsys, tmp_path):
    text = (TIE + "a = 1 2\n" + "[plain]\nkind = optimize\nn = 4\nd = 3\niters = 2\n"
            + TIE.replace("[t]", "[u]") + "b = 1 2\nseeds = 4 5\n")
    assert cli.main(["optimize", "--config", str(suite(tmp_path, text)),
                     "--out-dir", str(tmp_path / "res")]) == 0
    out = capsys.readouterr().out.splitlines()
    # [t]'s b is d = 3, so a = 2 steps nearest to eta_0 = 1; [u]'s a is 0.1
    assert [line.split()[0] for line in out] == ["wrote"] * (2 * 2 + 2 + 2 * 3) + ["best"] * 2
    assert [line.split()[1:3] for line in out[-2:]] == [["[t]:", "t_a2"], ["[u]:", "u_b1"]]


def test_a_point_with_a_failed_seed_is_not_ranked(tmp_path, monkeypatch):
    # b = d = 3, so t_a2 ranks first until its second seed fails
    run = harness.run_optimization

    def failing(config, objective, x0):
        if (config.schedule.a, config.seed) == (2.0, 5):
            raise DivergenceError(1, math.inf)
        return run(config, objective, x0)

    monkeypatch.setattr(harness, "run_optimization", failing)
    outcome = run_suite(suite(tmp_path, TIE + "a = 1 2\nseeds = 4 5\n"), tmp_path / "out")
    assert [(label, seed) for label, seed, _ in outcome.failures] == [("t_a2", 5)]
    assert [best[:3] for best in outcome.best] == [("t", "t_a1", "final_subopt")]
    assert (tmp_path / "out" / "t_a2_seed4.csv").exists()


@pytest.mark.parametrize("key, text", [
    ("a", "0.1 0.1"), ("a", "0.1 1e-1"), ("b", "2, 2.0"), ("gamma", "auto AUTO"),
    ("gamma", "0.5 1 0.50"),
])
def test_a_repeated_value_aborts_the_suite(key, text, tmp_path):
    path = suite(tmp_path, f"[x]\nkind = optimize\nn = 4\nd = 3\n{key} = {text}\n")
    with pytest.raises(ConfigError, match=rf"^\[x\]: {key} must hold distinct values, got "):
        parse_suite_file(path)


IN_OUT_DIR = "; labels name files in the output directory"
# Section texts whose labels would name files outside the output directory, or the
# files of another point; "{tmp}" is the test's directory.
BAD_LABELS = {
    "parent": ("[../escaped]\n", "label '../escaped' holds '/'" + IN_OUT_DIR),
    "absolute": ("[{tmp}/abs/x]\n", "label '{tmp}/abs/x' holds '/'" + IN_OUT_DIR),
    "subdirectory": ("[ok]\n{body}[sub/dir]\n", "label 'sub/dir' holds '/'" + IN_OUT_DIR),
    "backslash": ("[a\\b]\n", "label 'a\\\\b' holds '\\\\'" + IN_OUT_DIR),
    "nul": ("[a\0b]\n", "label 'a\\x00b' holds '\\x00'" + IN_OUT_DIR),
    "generated point": ("[..\\x]\n{body}gamma = 0.5 1\n",
                        "label '..\\\\x_gamma0.5' holds '\\\\'" + IN_OUT_DIR),
    "point equals a section": ("[sgd]\n{body}a = 0.1 1\n[sgd_a1]\n",
                               "[sgd] and [sgd_a1] both label a point 'sgd_a1'"),
    "section equals a point": ("[sgd_a1]\n{body}[sgd]\n{body}a = 1 0.1\n",
                               "[sgd_a1] and [sgd] both label a point 'sgd_a1'"),
}


@pytest.mark.parametrize("case", sorted(BAD_LABELS))
def test_a_label_that_cannot_name_its_files_is_one_error(case, capsys, tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    body = "kind = optimize\nn = 4\nd = 3\niters = 3\n"
    text, message = (part.format(tmp=tmp_path, body=body) for part in BAD_LABELS[case])
    if text.endswith("]\n"):
        text += body
    path = work / "suite.ini"
    path.write_text(text)
    code = cli.main(["optimize", "--config", str(path), "--out-dir", str(work / "res")])
    assert (code, capsys.readouterr()) == (2, ("", f"error: config file {path}: {message}\n"))
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "work", "work/suite.ini"]
