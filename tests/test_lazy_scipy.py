"""SciPy loads only on the logistic path, and there only ``scipy.sparse``.

A fresh interpreter imports gossipsim and runs consensus and noisy-quadratic
SGD through the CLI and through the harness, then reports which SciPy
modules it holds.  It then runs a logistic SGD from LIBSVM text, whose
records must equal the same run made in this process; ``scipy.special``
stays unloaded, as the oracles take the sigmoid from ``math.exp``.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

from gossipsim import harness
from gossipsim.objectives import serialize_libsvm, synthetic_classification

SRC = Path(__file__).resolve().parent.parent / "src"
SCIPY_MODULES = ("scipy.sparse", "scipy.special")

CONSENSUS = {"topology": "ring", "n": 5, "d": 8, "scheme": "tracking",
             "compression": "top_k:2", "gamma": 0.3, "iters": 6, "eval_every": 2}
QUADRATIC = {"topology": "full", "n": 4, "d": 6, "objective": "quadratic",
             "noise_sigma": 0.5, "iters": 6, "eval_every": 2}
LOGISTIC = {"topology": "ring", "n": 3, "objective": "logistic", "partition": "sorted",
            "averaging": "tracking", "compression": "top_k:2", "schedule": "practical",
            "a": 0.2, "b": 8.0, "iters": 20, "eval_every": 5}

CHILD = """
import dataclasses, json, sys
from gossipsim import cli, harness

consensus, quadratic, logistic, tmp = json.loads(sys.argv[1])

def run(kind, options):
    spec = harness.ExperimentSpec(label=kind, kind=kind, options=options)
    return [dataclasses.astuple(r) for r in harness.run_experiment(spec, 3).records]

def loaded():
    return [name for name in {modules!r} if name in sys.modules]

report = {{"after_import": loaded()}}
assert cli.main(["consensus", "--n", "5", "--d", "8", "--scheme", "tracking",
                 "--compression", "top_k:2", "--gamma", "0.3", "--iters", "6",
                 "--out", tmp + "/consensus.csv"]) == 0
assert cli.main(["optimize", "--n", "4", "--d", "6", "--topology", "full",
                 "--noise-sigma", "0.5", "--iters", "6", "--out", tmp + "/quadratic.csv"]) == 0
run("consensus", consensus)
run("optimize", quadratic)
report["after_consensus_and_quadratic"] = loaded()
report["logistic"] = run("optimize", logistic)
report["after_logistic"] = loaded()
print(json.dumps(report))
""".format(modules=SCIPY_MODULES)


def logistic_options(tmp_path):
    data = tmp_path / "train.svm"
    data.write_text(serialize_libsvm(synthetic_classification(30, 5, seed=3)))
    return {**LOGISTIC, "data_path": str(data)}


def test_scipy_loads_only_for_the_logistic_objective(tmp_path):
    logistic = logistic_options(tmp_path)
    argv = json.dumps([CONSENSUS, QUADRATIC, logistic, str(tmp_path)])
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD, argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["after_import"] == []
    assert report["after_consensus_and_quadratic"] == []
    assert report["after_logistic"] == ["scipy.sparse"]

    spec = harness.ExperimentSpec(label="optimize", kind="optimize", options=logistic)
    here = [dataclasses.astuple(r) for r in harness.run_experiment(spec, 3).records]
    assert json.loads(json.dumps(here)) == report["logistic"]
