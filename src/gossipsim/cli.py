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

A ``consensus`` or ``optimize`` run is a one-section suite: each flag sets
the suite key of the same name (``--data`` sets ``data_path``, ``--seed``
the one seed, ``--init-file`` the ``init_file`` to start from), and the
suite's builders supply every default.  Both also accept ``--config
suite.ini --out-dir results/`` to run every matching experiment section of
a suite file (one CSV per seed plus a summary per experiment).  ``sweep``
takes only the flags it reads: the graph, operator, objective and
averaging, but no round budget, schedule or output flags.

Exit codes: 0 success, 1 failed assertion, divergence or partially failed
suite, 2 configuration error.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .records import write_records_csv, write_rows_csv

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


def _add_gossip_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--topology", default="ring", type=str.lower,
                   choices=harness.CHOICES["topology"])
    p.add_argument("--n", type=int, help="node count")
    p.add_argument("--d", type=int, help="vector dimension")
    p.add_argument("--torus-rows", type=int)
    p.add_argument("--torus-cols", type=int)
    p.add_argument("--edges-file", help="custom topology: 'i j' pairs, 0-indexed")
    p.add_argument("--compression",
                   help="identity | rand_k:<k|frac> | top_k:<k|frac> | qsgd:<s> | "
                        "rand_gossip:<p> | unbiased:<inner>")
    p.add_argument("--value-bits", type=int)
    p.add_argument("--gamma", help="consensus stepsize or 'auto'")
    p.add_argument("--seed", type=int, default=0)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="suite file; runs matching sections instead of flags")
    p.add_argument("--out-dir", default="results", help="output directory for suite runs")
    p.add_argument("--iters", type=int)
    p.add_argument("--eval-every", type=int)
    p.add_argument("--out", help="CSV output path for a single run")


def _spec(args, kind: str) -> harness.ExperimentSpec:
    """The one-section suite that a flag invocation stands for."""
    options = {
        key: value for key, value in vars(args).items()
        if key in harness.SUITE_KEYS[kind] and value is not None
    }
    options["seeds"] = [args.seed]
    return harness.ExperimentSpec(label=args.command, kind=kind, options=options)


def _cmd_run(args) -> int:
    if args.config:
        return _run_suite(args, args.command)
    result = harness.run_experiment(_spec(args, args.command), args.seed)
    if args.out:
        write_records_csv(args.out, result.records)
    last = result.records[-1]
    if args.command == "consensus":
        print(f"iter={last.iter} error={last.error:.6e} bits={last.bits}")
    else:
        print(
            f"iter={last.iter} subopt={last.subopt:.6e} bits={last.bits} "
            f"avg_subopt={result.avg_subopt:.6e}"
        )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    base, objective, x0 = harness.build_optimize(_spec(args, "optimize"), args.seed)
    grid = harness.GridSpec(
        a_exponents=tuple(range(args.a_exp_min, args.a_exp_max + 1)),
        budget_epochs=args.epochs,
    )
    a, b, final = harness.grid_search(base, grid, objective, x0)
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
    _add_gossip_flags(p)
    _add_run_flags(p)
    p.add_argument("--scheme", choices=harness.CHOICES["scheme"])
    p.add_argument("--init-file", help="initial matrix, one node row per line "
                                       "(default: Gaussian)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("optimize", help="run decentralized SGD")
    _add_gossip_flags(p)
    _add_run_flags(p)
    _add_objective_flags(p)
    p.add_argument("--schedule", choices=harness.CHOICES["schedule"])
    p.add_argument("--a", type=float)
    p.add_argument("--b", type=float)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid-search the stepsize schedule")
    _add_gossip_flags(p)
    _add_objective_flags(p)
    p.add_argument("--a-exp-min", type=int, default=-3)
    p.add_argument("--a-exp-max", type=int, default=1)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="run the built-in theory checks")
    p.add_argument("--kind", default="all", choices=[*harness.CHECKS, "all"])
    p.add_argument("--out", help="optional CSV report path")
    p.set_defaults(func=_cmd_check)
    return parser


def _add_objective_flags(p) -> None:
    p.add_argument("--objective", choices=harness.CHOICES["objective"])
    p.add_argument("--data", dest="data_path", help="LIBSVM file for the logistic objective")
    p.add_argument("--partition", choices=harness.CHOICES["partition"])
    p.add_argument("--noise-sigma", type=float)
    p.add_argument("--targets-seed", type=int)
    p.add_argument("--averaging", choices=harness.CHOICES["averaging"])
    p.add_argument("--fstar-tol", type=float)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    # ConfigError is a ValueError; DivergenceError, a failed reference solve
    # and an all-diverged sweep are RuntimeErrors.
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG if isinstance(exc, (ValueError, OSError)) else EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
