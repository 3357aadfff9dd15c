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

A ``consensus`` or ``optimize`` run is a one-section suite: every suite
key is a flag of the same name with ``-`` for ``_`` (``--data`` sets
``data_path``, ``--seed`` is the one seed), and the flags' text, choices and
scope included, is checked only by the suite's own coercion, so a bad value
is reported as in a suite file (``[consensus]: edges_file applies only with
topology = custom, got topology = ring``).  ``harness.KEYS`` holds every
default, scope and requirement, ``topology = ring`` and ``--seed``'s ``0``
included.  Both also accept ``--config suite.ini --out-dir results/`` to run
every matching experiment section of a suite file (one CSV per seed plus a
summary per experiment); the sections set everything else, so a suite-key
flag, ``--out`` or ``--seed`` next to ``--config`` is a configuration error,
and so is ``--out-dir`` without it.  ``sweep`` takes the ``optimize`` flags
except those of the keys its grid sets (``iters``, ``eval_every``,
``schedule``, ``a``, ``b``), and writes nothing.

Exit codes: 0 success, 1 failed assertion, divergence or partially failed
suite, 2 configuration error, argparse's included: one ``error:`` line.
"""

from __future__ import annotations

import argparse
import sys
import warnings

from . import harness
from .records import write_records_csv, write_rows_csv

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2


# Suite keys a sweep's grid sets itself, so ``sweep`` has no flag for them.
_GRID_KEYS = {"iters", "eval_every", "schedule", "a", "b"}


def _flag(key: str) -> str:
    return "--data" if key == "data_path" else "--" + key.replace("_", "-")


def _add_suite_flags(p: argparse.ArgumentParser, keys: set[str]) -> None:
    """One text flag per suite key; ``_spec`` parses them as a suite file's."""
    for name in sorted(keys - {"kind", "seeds"}):
        key = harness.KEYS[name]  # its choices are listed by --help, checked only by _spec
        scope = key.when and f"(only with {key.scope})"
        p.add_argument(_flag(name), dest=name, help=" ".join(filter(None, (key.help, scope))),
                       metavar="{" + ",".join(key.choices) + "}" if key.choices else None)
    p.add_argument("--seed", help=harness.KEYS["seeds"].help)


def _spec(args, kind: str) -> tuple[harness.ExperimentSpec, int]:
    """The one-section suite that a flag invocation stands for, and its seed."""
    raw = {
        key: value for key, value in {**vars(args), "seeds": args.seed}.items()
        if key in harness.SUITE_KEYS[kind] and value is not None
    }
    options = harness._coerce_options(args.command, raw)
    if len(options["seeds"]) != 1:
        raise harness.ConfigError(f"--seed takes one seed, got {args.seed!r}")
    return harness.ExperimentSpec(args.command, kind, options), options["seeds"][0]


def _cmd_run(args) -> int:
    if args.config:
        ignored = [_flag(key) for key, value in vars(args).items() if value is not None
                   and key in {*harness.SUITE_KEYS[args.command], "out", "seed"}]
        if ignored:
            raise harness.ConfigError(f"--config takes no {', '.join(ignored)}")
        return _run_suite(args, args.command)
    if args.out_dir is not None:
        raise harness.ConfigError("--out-dir needs --config")
    result = harness.run_experiment(*_spec(args, args.command))
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
    for flag, exponent in (("--a-exp-min", args.a_exp_min), ("--a-exp-max", args.a_exp_max)):
        if not -323 <= exponent <= 308:  # where 10.0**e is a positive finite float
            raise harness.ConfigError(f"{flag} must lie in [-323, 308], got {exponent}")
    if args.a_exp_min > args.a_exp_max:  # the exponent range below would be empty
        raise harness.ConfigError(
            f"--a-exp-min {args.a_exp_min} is above --a-exp-max {args.a_exp_max}")
    base, objective, x0 = harness.build_optimize(*_spec(args, "optimize"))
    a_exponents = tuple(range(args.a_exp_min, args.a_exp_max + 1))
    a, b, final = harness.grid_search(base, objective, x0, a_exponents, epochs=args.epochs)
    print(f"best a={a!r} b={b!r} final_subopt={final:.6e}")  # a and b rerun exactly
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
    out_dir = "results" if args.out_dir is None else args.out_dir
    outcome = harness.run_suite(args.config, out_dir, kind=kind)
    for path in outcome.written:
        print(f"wrote {path}")
    for label, seed, message in outcome.failures:
        print(f"FAILED {label} seed={seed}: {message}", file=sys.stderr)
    return EXIT_FAILURE if outcome.failures else EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a ConfigError, so that main prints one error line, not usage
        raise harness.ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gossipsim", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for kind, help_text in (("consensus", "run a gossip averaging experiment"),
                            ("optimize", "run decentralized SGD")):
        p = sub.add_parser(kind, help=help_text)
        _add_suite_flags(p, harness.SUITE_KEYS[kind])
        p.add_argument("--config", help="suite file; runs matching sections instead of flags")
        p.add_argument("--out-dir", help="output directory for suite runs (default: results)")
        p.add_argument("--out", help="CSV output path for a single run")
        p.set_defaults(func=_cmd_run)

    p = sub.add_parser("sweep", help="grid-search the stepsize schedule")
    _add_suite_flags(p, harness.SUITE_KEYS["optimize"] - _GRID_KEYS)
    p.add_argument("--a-exp-min", type=int, default=-3)
    p.add_argument("--a-exp-max", type=int, default=1)
    p.add_argument("--epochs", type=int, default=10)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("check", help="run the built-in theory checks")
    p.add_argument("--kind", default="all", metavar="{" + ",".join([*harness.CHECKS, "all"]) + "}")
    p.add_argument("--out", help="optional CSV report path")
    p.set_defaults(func=_cmd_check)
    return parser


def main(argv: list[str] | None = None) -> int:
    shown = set()

    def show_warning(message, *_):  # once per distinct message, without a source line
        if str(message) not in shown:
            shown.add(str(message))
            print(f"warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = show_warning
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except harness.RUN_ERRORS as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_FAILURE if isinstance(exc, RuntimeError) else EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
