"""Every benchmark workload still writes the CSV bytes pinned in bench/golden.json.

Each workload runs once at the pinned seed through its set-up and ``go``,
and its records go through ``records.write_records_csv`` as ``bench/run.py``
writes them.  The benchmark's modules must also import against the package
as it is, since its tracer names gossipsim's classes at import.  The tests
read ``bench/`` and write nothing there: its modules are loaded without a
bytecode cache.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from gossipsim import records

BENCH = Path(__file__).resolve().parent.parent / "bench"
GOLDEN = json.loads((BENCH / "golden.json").read_text())


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


workloads = load_bench("workloads")


def test_tracer_imports():
    assert load_bench("tracing").TRACED


def test_golden_file_pins_the_default_seed_and_every_workload():
    assert GOLDEN["seed"] == workloads.DEFAULT_SEED
    assert set(GOLDEN["hashes"]) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_csvs_match_golden_hashes(name, tmp_path):
    workload = workloads.WORKLOADS[name]
    libsvm = workload.inputs()
    hashes = {}
    for run in workload.runs:
        prepared = run.setup(GOLDEN["seed"], libsvm)
        recs = prepared.go()
        assert prepared.check(recs) is None
        path = tmp_path / f"{prepared.label}.csv"
        records.write_records_csv(path, recs)
        hashes[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert hashes == GOLDEN["hashes"][name]
