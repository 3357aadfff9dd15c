"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

import run  # puts the repository's src/ first on sys.path
import gossipsim
from gossipsim import compression, consensus, records
from tracing import TRACED, Tracer
from workloads import DEFAULT_SEED, WORKLOADS

END_TO_END = ["wall_s", "node_rounds_per_s", "setup_s", "peak_rss_mb", "failed_frac"]
PER_LAYER = [
    "compression.compress_s", "compression.compress_calls", "compression.compress_us",
    "streams.get_s", "streams.get_calls",
    "objectives.grad_s", "objectives.grad_calls",
    "objectives.value_s", "objectives.value_calls",
    "consensus.step_self_s", "consensus.loop_self_s",
    "optimize.round_self_s", "optimize.averaging_self_s", "optimize.loop_self_s",
    "consensus.mix_flops", "optimize.mix_flops",
    "topology.build_s", "objectives.parse_s", "objectives.reference_s",
    "records.write_s", "sim.node_rounds", "sim.bits", "trace.overhead_frac",
]
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def small(name: str):
    workload = WORKLOADS[name]
    return replace(workload, runs=tuple(replace(r, iters=20) for r in workload.runs))


def corrupt_on_call(monkeypatch, n: int) -> None:
    """Make the n-th call of write_records_csv flip one byte of its file."""
    original = records.write_records_csv
    calls = []

    def corrupting(path, recs):
        original(path, recs)
        calls.append(path)
        if len(calls) == n:
            data = bytearray(path.read_bytes())
            data[-2] ^= 1
            path.write_bytes(bytes(data))

    monkeypatch.setattr(records, "write_records_csv", corrupting)


def test_altered_byte_fails_against_pinned_hashes(tmp_path, monkeypatch):
    corrupt_on_call(monkeypatch, 1)  # the warm-up run
    report = run.measure(WORKLOADS["sgd-logistic"], DEFAULT_SEED, 0.0, False, tmp_path)
    assert report["pinned"]
    assert (report["attempted"], report["failed"]) == (3, 1)
    assert "differ" in report["failures"][0]
    assert report["metrics"]["failed_frac"]["value"] == 1 / 3


def test_altered_byte_fails_against_first_run_on_other_seeds(tmp_path, monkeypatch):
    corrupt_on_call(monkeypatch, 3)  # the first traced run
    report = run.measure(small("sgd-logistic"), DEFAULT_SEED + 1, 0.0, True, tmp_path)
    assert not report["pinned"]
    assert (report["attempted"], report["failed"]) == (5, 1)
    assert report["failures"][0].startswith("run 2:")


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_self_times_sum_to_run_time(name, tmp_path):
    workload = small(name)
    tracer = Tracer()
    rep = run.run_rep(workload, 7, workload.inputs(), tmp_path, tracer, 1, True)
    run_layers = {span: s for (root, span), (s, _) in rep.layers.items() if root == run.RUN}
    assert sum(run_layers.values()) == pytest.approx(rep.run_s, rel=1e-9)
    assert all(s >= 0 for s in run_layers.values())
    # the benchmark's own glue inside the run phase is negligible
    assert run_layers[run.RUN] < 0.05 * rep.run_s
    assert not tracer.missing
    # every wrapper was taken out again
    assert consensus.compress is compression.compress
    assert gossipsim.run_consensus is consensus.run_consensus
    for _, owners, attr in TRACED:
        for owner in owners:
            assert not hasattr(vars(owner)[attr], "__wrapped__")


@pytest.mark.parametrize("name,node_rounds", [
    ("consensus-ring", 2 * 25 * 20), ("consensus-torus", 2 * 64 * 20),
    ("sgd-logistic", 9 * 20), ("sgd-quadratic", 16 * 20),
])
def test_every_metric_is_emitted_with_its_unit(name, node_rounds, tmp_path):
    report = run.measure(small(name), 3, 0.0, True, tmp_path)
    assert report["failed"] == 0, report["failures"]
    metrics = report["metrics"]
    for metric in END_TO_END + PER_LAYER:
        assert isinstance(metrics[metric]["value"], (int, float)), metric
        assert metrics[metric]["unit"], metric
    for declared in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert metrics[declared["name"]]["unit"] == declared["unit"]
    assert metrics["sim.node_rounds"]["value"] == node_rounds


def test_result_line_follows_benchmark_json(capsys):
    assert run.main(["--workload", "sgd-quadratic", "--seconds", "0"]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
