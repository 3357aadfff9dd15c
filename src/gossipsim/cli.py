"""Command line interface.

Subcommands::

    gossipsim consensus  --topology ring --n 25 --d 200 --scheme tracking \
                         --compression qsgd:256 --gamma auto --iters 500 \
                         --seed 1 --out run.csv
    gossipsim optimize   --topology ring --n 9 --objective logistic \
                         --data train.svm --partition sorted --schedule practical \
                         --a 0.1 --b 50 --iters 2000 --out run.csv
    gossipsim sweep      ... optimize flags ... --epochs 10
    gossipsim check      --kind all [--out report.csv]

``consensus`` and ``optimize`` also accept ``--config suite.ini --out-dir
results/`` to run every matching experiment section of a suite file (one
CSV per seed plus a summary per experiment).

Exit codes: 0 success, 1 failed assertion or partially failed suite,
2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import harness
from .consensus import ConsensusConfig, DivergenceError, GossipScheme, run_consensus
from .harness import ConfigError
from .optimize import PracticalSchedule, SgdConfig, TheoreticalSchedule, run_optimization
from .records import write_records_csv, write_rows_csv

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="suite file; runs matching sections instead of flags")
    p.add_argument("--out-dir", default="results", help="output directory for suite runs")
    p.add_argument("--topology", default="ring", help="ring | torus | full | custom")
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--d", type=int, help="vector dimension")
    p.add_argument("--torus-rows", type=int)
    p.add_argument("--torus-cols", type=int)
    p.add_argument("--edges-file", help="custom topology: 'i j' pairs, 0-indexed")
    p.add_argument("--compression", default="identity",
                   help="identity | rand_k:<k|frac> | top_k:<k|frac> | qsgd:<s> | "
                        "rand_gossip:<p> | unbiased:<inner>")
    p.add_argument("--value-bits", type=int, default=32)
    p.add_argument("--gamma", default="1.0", help="consensus stepsize or 'auto'")
    p.add_argument("--iters", type=int, default=100)
    p.add_argument("--eval-every", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="CSV output path for a single run")


def _build_matrix(args):
    return harness.build_topology(
        args.topology, args.n, args.torus_rows, args.torus_cols, args.edges_file
    )


def _cmd_consensus(args) -> int:
    if args.config:
        return _run_suite(args, "consensus")
    if args.d is None:
        raise ConfigError("--d is required")
    matrix = _build_matrix(args)
    cspec = harness.parse_compression(args.compression, args.d, args.value_bits)
    gamma = harness.resolve_gamma(args.gamma, matrix, cspec, args.d)
    config = ConsensusConfig(
        scheme=GossipScheme(args.scheme), matrix=matrix, gamma=gamma, compression=cspec,
        iters=args.iters, seed=args.seed, eval_every=args.eval_every,
    )
    if args.init == "file":
        if not args.init_file:
            raise ConfigError("--init file requires --init-file")
        x0 = harness.load_init_file(args.init_file, args.d, matrix.n)
    else:
        x0 = harness.gaussian_init(args.d, matrix.n, args.seed)
    result = run_consensus(config, x0)
    if args.out:
        write_records_csv(args.out, result.records)
    last = result.records[-1]
    print(f"iter={last.iter} error={last.error:.6e} bits={last.bits}")
    return EXIT_OK


def _make_objective_and_schedule(args, matrix):
    options = {
        "objective": args.objective,
        "noise_sigma": args.noise_sigma,
        "targets_seed": args.targets_seed if args.targets_seed is not None else args.seed,
    }
    if args.data:
        options["data_path"] = args.data
        options["partition"] = args.partition
    objective = harness.build_objective(options, matrix, args.d, args.seed)
    if args.schedule == "theoretical":
        mu, _ = objective.constants()
        schedule = TheoreticalSchedule(mu=mu, a=args.a if args.a is not None else 410.0)
    else:
        m = objective.samples_per_node * matrix.n if args.objective == "logistic" else 1
        a = args.a if args.a is not None else 0.1
        b = args.b if args.b is not None else float(objective.dim)
        schedule = PracticalSchedule(a=a, b=b, m=m)
    return objective, schedule


def _cmd_optimize(args) -> int:
    if args.config:
        return _run_suite(args, "optimize")
    if args.d is None and args.objective == "quadratic":
        raise ConfigError("--d is required for the quadratic objective")
    matrix = _build_matrix(args)
    objective, schedule = _make_objective_and_schedule(args, matrix)
    d = objective.dim
    cspec = harness.parse_compression(args.compression, d, args.value_bits)
    gamma = harness.resolve_gamma(args.gamma, matrix, cspec, d)
    config = SgdConfig(
        matrix=matrix, schedule=schedule, averaging=args.averaging, gamma=gamma,
        compression=cspec, iters=args.iters, seed=args.seed, eval_every=args.eval_every,
        fstar_tol=args.fstar_tol,
    )
    result = run_optimization(config, objective, np.zeros((d, matrix.n)))
    if args.out:
        write_records_csv(args.out, result.records)
    last = result.records[-1]
    print(
        f"iter={last.iter} subopt={last.subopt:.6e} bits={last.bits} "
        f"avg_subopt={result.avg_subopt:.6e}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    matrix = _build_matrix(args)
    objective, _ = _make_objective_and_schedule(args, matrix)
    d = objective.dim
    cspec = harness.parse_compression(args.compression, d, args.value_bits)
    gamma = harness.resolve_gamma(args.gamma, matrix, cspec, d)
    base = SgdConfig(
        matrix=matrix, schedule=PracticalSchedule(a=1.0, b=1.0, m=1), averaging=args.averaging,
        gamma=gamma, compression=cspec, iters=1, seed=args.seed, fstar_tol=args.fstar_tol,
    )
    grid = harness.GridSpec(
        a_exponents=tuple(range(args.a_exp_min, args.a_exp_max + 1)),
        budget_epochs=args.epochs,
    )
    a, b, final = harness.grid_search(base, grid, objective, np.zeros((d, matrix.n)))
    print(f"best a={a:g} b={b:g} final_subopt={final:.6e}")
    return EXIT_OK


def _cmd_check(args) -> int:
    outcomes = harness.theory_check(args.kind)
    for outcome in outcomes:
        print(outcome.line())
    if args.out:
        write_rows_csv(
            args.out,
            ["kind", "name", "passed", "observed", "bound"],
            [(o.kind, o.name, int(o.passed), o.observed, o.bound) for o in outcomes],
        )
    return EXIT_OK if all(o.passed for o in outcomes) else EXIT_FAILURE


def _run_suite(args, kind: str) -> int:
    outcome = harness.run_suite(args.config, args.out_dir, kind=kind)
    for path in outcome.written:
        print(f"wrote {path}")
    for label, seed, message in outcome.failures:
        print(f"FAILED {label} seed={seed}: {message}", file=sys.stderr)
    return EXIT_FAILURE if outcome.failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="gossipsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("consensus", help="run a gossip averaging experiment")
    _add_common_flags(p)
    p.add_argument("--scheme", default="exact", choices=[s.value for s in GossipScheme])
    p.add_argument("--init", default="gaussian", choices=["gaussian", "file"])
    p.add_argument("--init-file", help="text matrix, one node row per line")
    p.set_defaults(func=_cmd_consensus)

    p = sub.add_parser("optimize", help="run decentralized SGD")
    _add_common_flags(p)
    _add_optimize_flags(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("sweep", help="grid-search the stepsize schedule")
    _add_common_flags(p)
    _add_optimize_flags(p)
    p.add_argument("--a-exp-min", type=int, default=-3)
    p.add_argument("--a-exp-max", type=int, default=1)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="run the built-in theory checks")
    p.add_argument("--kind", default="all",
                   choices=["exact_rate", "tracking_rate", "mixing", "omega_contract", "identity_reduction", "all"])
    p.add_argument("--out", help="optional CSV report path")
    p.set_defaults(func=_cmd_check)
    return parser


def _add_optimize_flags(p) -> None:
    p.add_argument("--objective", default="quadratic", choices=["quadratic", "logistic"])
    p.add_argument("--data", help="LIBSVM file for the logistic objective")
    p.add_argument("--partition", default="shuffled", choices=["shuffled", "sorted"])
    p.add_argument("--schedule", default="practical", choices=["practical", "theoretical"])
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.add_argument("--noise-sigma", type=float, default=0.0)
    p.add_argument("--targets-seed", type=int)
    p.add_argument("--averaging", default="exact", choices=["exact", "tracking"])
    p.add_argument("--fstar-tol", type=float, default=1e-10)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, DivergenceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ConfigError, ValueError, OSError)) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
