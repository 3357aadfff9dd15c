"""gossipsim benchmark: one workload, closed loop, one process, one thread.

    python3 bench/run.py --workload consensus-ring [--seed 1] [--seconds 25] [--trace 0|1]
    python3 bench/run.py --workload all     # every workload, each in a fresh process
    python3 bench/run.py --pin              # re-pin golden.json at the default seed

The workload is repeated -- set-up, run, ``write_records_csv`` -- until
``--seconds`` have passed, after one untimed warm-up repetition.  Every
repetition's CSVs are hashed: at the default seed they must match
golden.json, at any other seed the first repetition of the process.
With ``--trace 0`` the end-to-end metrics are medians over repetitions; with
``--trace 1`` traced and untraced repetitions alternate and the per-layer
metrics are medians over the traced ones.  The last line of standard output
is one JSON object with the metrics named in BENCHMARK.json; a fuller
report goes to ``.bench_out/``.  See bench/README.md.
"""

from __future__ import annotations

import os
import sys

# BLAS threading alone moves X @ W by 4-40x on a 2-core host, so the
# process pins it before numpy loads its BLAS.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
if __name__ == "__main__":
    os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
GOLDEN = BENCH / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

import gossipsim  # noqa: E402

if Path(gossipsim.__file__).resolve().parent != ROOT / "src" / "gossipsim":
    raise ImportError(f"gossipsim was imported from {gossipsim.__file__}, not from {ROOT / 'src'}")

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from gossipsim import records  # noqa: E402

from tracing import Tracer, self_times  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Workload  # noqa: E402

SETUP, RUN, WRITE = "bench.setup", "bench.run", "bench.write"


@dataclass
class Rep:
    """One repetition of a workload."""

    traced: bool
    setup_s: float
    run_s: float
    write_s: float
    hashes: dict[str, str]
    node_rounds: int
    bits: int
    mix_flops: dict[str, int]
    problems: list[str]
    layers: dict  # (root, span) -> [self s, calls]; empty when untraced

    @property
    def wall_s(self) -> float:
        return self.setup_s + self.run_s + self.write_s


def run_rep(workload: Workload, seed: int, libsvm, outdir: Path, tracer: Tracer,
            run_id: int, traced: bool) -> Rep:
    tracer.new_run(run_id)
    with tracer.installed() if traced else contextlib.nullcontext():
        with tracer.span(SETUP) as setup:
            prepared = [r.setup(seed, libsvm) for r in workload.runs]
        with tracer.span(RUN) as run:
            results = [p.go() for p in prepared]
        with tracer.span(WRITE) as write:
            for p, recs in zip(prepared, results):
                records.write_records_csv(outdir / f"{p.label}.csv", recs)
    flops = {"consensus.mix_flops": 0, "optimize.mix_flops": 0}
    for p in prepared:
        flops[f"{p.layer}.mix_flops"] += p.mix_flops
    return Rep(
        traced=traced,
        setup_s=setup[4] - setup[3],
        run_s=run[4] - run[3],
        write_s=write[4] - write[3],
        hashes={
            f"{p.label}.csv": hashlib.sha256((outdir / f"{p.label}.csv").read_bytes()).hexdigest()
            for p in prepared
        },
        node_rounds=sum(p.node_rounds for p in prepared),
        bits=sum(recs[-1].bits for recs in results),
        mix_flops=flops,
        problems=[msg for p, recs in zip(prepared, results) if (msg := p.check(recs))],
        layers=self_times(tracer.spans) if traced else {},
    )


def layer_metrics(rep: Rep) -> dict[str, float]:
    """Per-layer numbers of one traced repetition; self times per phase."""

    def self_s(root, name):
        return rep.layers.get((root, name), (0.0, 0))[0]

    def calls(root, name):
        return rep.layers.get((root, name), (0.0, 0))[1]

    m = {}
    for stem in ("compression.compress", "streams.get", "objectives.grad", "objectives.value"):
        m[f"{stem}_s"] = self_s(RUN, stem)
        m[f"{stem}_calls"] = calls(RUN, stem)
    m["compression.compress_us"] = (
        1e6 * m["compression.compress_s"] / m["compression.compress_calls"]
        if m["compression.compress_calls"] else 0.0
    )
    for stem in ("consensus.step", "consensus.loop", "optimize.round", "optimize.averaging",
                 "optimize.loop"):
        m[f"{stem}_self_s"] = self_s(RUN, stem)
    for stem in ("topology.build", "objectives.parse", "objectives.reference"):
        m[f"{stem}_s"] = self_s(SETUP, stem)
    m["records.write_s"] = self_s(WRITE, "records.write")
    m.update(rep.mix_flops)
    m["sim.node_rounds"] = rep.node_rounds
    m["sim.bits"] = rep.bits
    return m


def unit(metric: str) -> str:
    for suffix, u in (("_per_s", "1/s"), ("_s", "s"), ("_us", "us"), ("_calls", "count"),
                      ("_flops", "flop"), ("_frac", "ratio"), ("_mb", "MB"),
                      ("node_rounds", "count"), ("bits", "bit")):
        if metric.endswith(suffix):
            return u
    raise KeyError(metric)


def golden_hashes(name: str) -> dict[str, str] | None:
    if not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text())["hashes"].get(name)


def measure(workload: Workload, seed: int, seconds: float, traced: bool,
            outdir: Path) -> dict:
    """Repeat the workload for ``seconds`` and summarise; see module docstring."""
    libsvm = workload.inputs()
    expected = golden_hashes(workload.name) if seed == DEFAULT_SEED else None
    tracer = Tracer()
    reps: list[Rep] = []
    failures: list[str] = []
    last_traced_spans: list[list] = []

    def attempt(run_id: int, traced_rep: bool) -> None:
        nonlocal expected, last_traced_spans
        try:
            rep = run_rep(workload, seed, libsvm, outdir, tracer, run_id, traced_rep)
        except Exception as exc:  # a failing run is counted, and the loop goes on
            traceback.print_exc()
            failures.append(f"run {run_id}: {type(exc).__name__}: {exc}")
            return
        if expected is None:
            expected = rep.hashes
        if rep.hashes != expected:
            rep.problems.append(f"output hashes {rep.hashes} differ from {expected}")
        if rep.problems:
            failures.append(f"run {run_id}: " + "; ".join(rep.problems))
            return
        if run_id > 0:
            reps.append(rep)
        if traced_rep:
            last_traced_spans = list(tracer.spans)

    attempt(0, False)  # warm-up: checked, counted as attempted, not timed
    start = perf_counter()
    run_id = 1
    while perf_counter() - start < seconds or run_id <= (4 if traced else 2):
        attempt(run_id, traced and run_id % 2 == 0)
        run_id += 1

    plain = [r for r in reps if not r.traced]
    traced_reps = [r for r in reps if r.traced]
    if not plain or (traced and not traced_reps):
        raise RuntimeError(f"no repetition of {workload.name} succeeded: {failures}")
    median = statistics.median
    metrics = {
        "wall_s": median(r.wall_s for r in plain),
        "node_rounds_per_s": median(r.node_rounds / r.run_s for r in plain),
        "setup_s": median(r.setup_s for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "failed_frac": len(failures) / run_id,
    }
    if traced:
        per_rep = [layer_metrics(r) for r in traced_reps]
        for name, first in per_rep[0].items():
            # counts are exact, so keep them whole
            pick = statistics.median_low if isinstance(first, int) else median
            metrics[name] = pick(m[name] for m in per_rep)
        metrics["trace.overhead_frac"] = (
            median(r.run_s for r in traced_reps) / median(r.run_s for r in plain) - 1
        )
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "attempted": run_id,
        "failed": len(failures),
        "failures": failures,
        "hashes": expected,
        "pinned": seed == DEFAULT_SEED and golden_hashes(workload.name) is not None,
        "samples": {"untraced": len(plain), "traced": len(traced_reps)},
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
        "reps": [
            {"traced": r.traced, "setup_s": r.setup_s, "run_s": r.run_s, "write_s": r.write_s}
            for r in reps
        ],
        "untraced_attributes": tracer.missing,
        "spans": last_traced_spans,
    }


def blas_threads() -> int | None:
    """Thread count numpy's bundled OpenBLAS reports, if it can be found."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                           "libscipy_openblas*.so*")
    for path in glob.glob(pattern):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.argtypes, fn.restype = [], ctypes.c_int
        return fn()
    return None


def loadavg() -> str | None:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return None


def environment() -> dict:
    try:
        config = np.show_config(mode="dicts")
    except TypeError:  # numpy < 1.26 only prints
        config = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_config": config,
        "thread_pins": {k: os.environ.get(k) for k in THREAD_PINS},
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def write_report(report: dict) -> None:
    stem = f"{report['workload']}-trace{report['trace']}"
    spans = report.pop("spans")
    if spans:
        lines = ["name,parent,run,start,end"] + [",".join(map(str, s)) for s in spans]
        (OUT / f"{stem}-spans.csv").write_text("\n".join(lines) + "\n")
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")


def print_report(report: dict) -> None:
    samples = report["samples"]["traced" if report["trace"] else "untraced"]
    env = report["env"]
    print(f"{report['workload']} seed={report['seed']} trace={report['trace']}: "
          f"{report['attempted']} runs, {report['failed']} failed, "
          f"{samples} timed samples; outputs "
          f"{'match golden.json' if report['pinned'] else 'repeat byte for byte'}")
    print(f"env: python {env['python']} numpy {env['numpy']} scipy {env['scipy']} "
          f"blas_threads={env['blas_threads']} {env['thread_pins']} nproc={env['nproc']} "
          f"loadavg {env['loadavg_start']} -> {env['loadavg_end']}")
    for name, m in report["metrics"].items():
        print(f"  {name:28s} {m['value']:>14.6g} {m['unit']}")
    for failure in report["failures"]:
        print(f"  FAILED {failure}")


def pin() -> int:
    """Write golden.json from one run of every workload at the default seed."""
    hashes = {}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, workload in WORKLOADS.items():
            rep = run_rep(workload, DEFAULT_SEED, workload.inputs(), Path(tmp),
                          Tracer(), 0, False)
            if rep.problems:
                print(f"not pinned: {rep.problems}", file=sys.stderr)
                return 1
            hashes[name] = rep.hashes
    GOLDEN.write_text(json.dumps({"seed": DEFAULT_SEED, "hashes": hashes}, indent=1) + "\n")
    print(f"pinned {sum(len(h) for h in hashes.values())} CSV hashes in {GOLDEN}")
    return 0


def run_all(args) -> int:
    """Every workload in its own fresh process, one after another."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="re-pin golden.json and exit")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    if args.pin:
        return pin()
    if args.workload is None:
        parser.error("--workload is required")
    if args.workload == "all":
        return run_all(args)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    load_start = loadavg()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        report = measure(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                         Path(tmp))
    report["env"] = environment() | {"loadavg_start": load_start, "loadavg_end": loadavg()}
    write_report(report)
    print_report(report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: report["metrics"][name] for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
