"""Experiment orchestration: config files, suites and their grids, theory checks.

Config files are INI-style with one section per experiment of flat keys,
each one a ``KEYS`` entry and strictly validated -- an unknown or missing
required key anywhere aborts the whole suite (exit code 2 from the CLI)::

    [ring-tracking-qsgd]
    kind = consensus
    topology = ring
    n = 25
    d = 200
    scheme = tracking
    compression = qsgd:256
    gamma = 1.0
    iters = 500
    eval_every = 10
    seeds = 1 2 3

Each (experiment, seed) pair writes ``<label>_seed<seed>.csv`` and every
experiment additionally writes ``<label>_summary.csv`` with the mean and
population standard deviation of every metric across the repeats.

``gamma``, ``a`` and ``b`` may each hold several values (``gamma = 0.5
1.0``): the section is then a grid of one experiment per combination,
labelled ``<label>_<key><value as written>...`` (``sgd_a0.1_b10``).  The
grid's best point by final mean error or suboptimality is reported.  Every
section's ``Plan``, what no seed or point changes, is built before any run.
"""

from __future__ import annotations

import configparser
import functools
import inspect
import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import compression as comp
from .consensus import (
    ConsensusConfig,
    ConsensusResult,
    GossipScheme,
    RunConfig,
    _check_count,
    _check_gamma,
    _check_operator,
    run_consensus,
    tracking_stepsize,
)
from .objectives import (
    Dataset,
    LogisticObjective,
    QuadraticObjective,
    _check_fstar_tol,
    _check_noise_sigma,
    parse_libsvm,
    partition,
    solve_reference,
)
from .optimize import (
    AVERAGING,
    ExactAveraging,
    OptimizationResult,
    PracticalSchedule,
    SgdConfig,
    TheoreticalSchedule,
    TrackingAveraging,
    _check_positive,
    run_optimization,
    sgd_round,
    theoretical_a,
)
from .records import data_lines, write_records_csv, write_rows_csv
from .streams import stream
from .topology import (
    FullyConnected,
    GossipMatrix,
    Ring,
    Torus,
    build_gossip_matrix,
    mixing_contraction,
    read_edge_list,
)

__all__ = [
    "ConfigError",
    "RUN_ERRORS",
    "ExperimentSpec",
    "KEYS",
    "SUITE_KEYS",
    "LIST_KEYS",
    "parse_suite_file",
    "Plan",
    "build_plan",
    "run_experiment",
    "grid_points",
    "run_suite",
    "theory_check",
    "CHECKS",
    "CheckOutcome",
    "parse_compression",
    "build_topology",
    "gaussian_init",
    "load_init_file",
]


class ConfigError(ValueError):
    pass


# What a run may raise: ConfigError is a ValueError; DivergenceError and failed solves and
# power iterations are RuntimeErrors; too large a size is a MemoryError.
RUN_ERRORS = (ValueError, OSError, MemoryError, RuntimeError)


# ---------------------------------------------------------------------------
# building blocks shared by the CLI and the suite runner

def parse_compression(text: str | None, d: int,
                      value_bits: int | None = None) -> comp.CompressionSpec:
    """Parse a ``comp.OPERATORS`` form, its name in any case; ``None``, unset, is identity."""
    text = "identity" if text is None else text.strip()
    name, colon, arg = text.partition(":")
    name = name.strip().lower()
    if (cls := comp.OPERATORS.get(name)) is None:
        raise ConfigError(f"unknown compression kind {text!r}")
    if colon and ":" not in cls.form:
        raise ConfigError(f"{name} takes no argument, got {text!r}")
    if not arg and ":" in cls.form:
        raise ConfigError(f"{name} needs an argument: {cls.form}")
    bits = {} if value_bits is None else {"value_bits": value_bits}
    if cls.form.endswith(":<inner>"):  # the argument is an operator string, read as one
        return cls(parse_compression(arg, d, value_bits), **bits)
    try:
        spec = cls.from_arg(arg, d)
        spec.omega(d)  # rejects a spec invalid at this d, such as k > d
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ConfigError(f"bad compression argument in {text!r}: {exc}") from exc
    try:  # apart from the try above: not blamed on ``text``
        return replace(spec, **bits)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def build_topology(name: str, n: int | None, rows: int | None = None,
                   cols: int | None = None, edges_file: str | None = None) -> GossipMatrix:
    """Mixing matrix of one of ``KEYS["topology"].choices``, in any letter case;
    the names other than ring, torus and custom are the complete graph."""
    name = name.lower()
    if name not in KEYS["topology"].choices:
        raise ConfigError(f"unknown topology {name!r}")
    if name == "ring":
        return build_gossip_matrix(Ring(_require(n, "n")))
    if name == "torus":
        rows, cols = _require(rows, "torus_rows"), _require(cols, "torus_cols")
        if n is not None and n != rows * cols:
            raise ConfigError(f"n = {n} contradicts torus_rows x torus_cols = {rows} x {cols}")
        return build_gossip_matrix(Torus(rows, cols))
    if name == "custom":
        if edges_file is None:
            raise ConfigError("custom topology needs an edge list file")
        return build_gossip_matrix(read_edge_list(edges_file, n))
    return build_gossip_matrix(FullyConnected(_require(n, "n")))


def _require(value, key):
    if value is None:
        raise ConfigError(f"missing required key {key!r}")
    return value


def gaussian_init(d: int, n: int, seed: int) -> np.ndarray:
    """Standard normal d x n initial matrix from the run's init stream."""
    return stream(seed, tag="init").standard_normal((d, n))


def load_init_file(path, d: int, n: int) -> np.ndarray:
    """Initial d x n matrix from a text file holding one node's d finite values per line."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, tokens in data_lines(fh):
            where = f"init file {path} line {lineno}"
            try:
                rows.append([float(token) for token in tokens])
            except ValueError as exc:
                raise ConfigError(f"{where}: {exc}") from None
            if len(tokens) != len(rows[0]):
                raise ConfigError(f"{where}: {len(tokens)} values after lines of {len(rows[0])}")
            if not all(map(math.isfinite, rows[-1])):
                raise ConfigError(f"{where}: values must be finite")
    x0 = np.array(rows).reshape(len(rows), len(rows[0]) if rows else 0).T  # empty: 0 x 0
    if x0.shape != (d, n):
        raise ConfigError(f"init file {path} must be d x n = {d} x {n} ({n} lines of {d} values), "
                          f"got {x0.shape[0]} x {x0.shape[1]}")
    return x0


# ---------------------------------------------------------------------------
# suite configs

@dataclass(frozen=True)
class Key:
    """One suite key and CLI flag: the kinds that may hold it, its text parser (a ValueError
    means not ``syntax``), default (None: unset or set by a builder), choices, help, ``when``:
    the key that governs it and the values that key must hold (None: always), ``required``:
    the same for where it must be set (None: never; an unset governing key holds its default),
    and ``check``: the run's own range check of a parsed value, which a suite file's values
    pass before any run (a flag's value meets it when its run is built)."""

    kinds: tuple[str, ...]
    parse: Callable[[str], object] = str
    syntax: str = "text"
    default: object = None
    choices: tuple[str, ...] = ()
    help: str | None = None
    when: tuple[str, tuple[str, ...]] | None = None
    required: tuple[str, tuple[str, ...]] | None = None
    check: Callable[[object], object] | None = None

    @property
    def scope(self) -> str:  # ``when`` as text: ``topology = custom``
        return f"{self.when[0]} = {' or '.join(self.when[1])}"


def _checked(parse: Callable[[str], object], ok: Callable[[object], bool]):  # a KEYS parser
    def checked(text: str):
        if not ok(value := parse(text)):
            raise ValueError(text)
        return value
    return checked


def _default(fn: Callable, name: str):  # a library default, so that KEYS does not restate it
    return inspect.signature(fn).parameters[name].default


_UINT64 = _checked(int, lambda value: 0 <= value < 2**64)  # streams.stream's key range
_TORUS, _CUSTOM = ("topology", ("torus",)), ("topology", ("custom",))
_QUADRATIC, _LOGISTIC = ("objective", ("quadratic",)), ("objective", ("logistic",))
_BOTH = ("consensus", "optimize")
KEYS = {
    "kind": Key(_BOTH, choices=_BOTH),
    "topology": Key(_BOTH, str.lower, "a name in any letter case", "ring",
                    ("ring", "torus", "full", "fully_connected", "complete", "custom")),
    "n": Key(_BOTH, int, "an integer", help="node count",
             required=("topology", ("ring", "full", "fully_connected", "complete"))),
    "d": Key(_BOTH, _checked(int, lambda d: d >= 1), "a positive integer", help="vector dimension",
             required=_QUADRATIC),  # so on every consensus section
    "torus_rows": Key(_BOTH, int, "an integer", when=_TORUS, required=_TORUS),
    "torus_cols": Key(_BOTH, int, "an integer", when=_TORUS, required=_TORUS),
    "edges_file": Key(_BOTH, syntax="a path", help="'i j' pairs, 0-indexed",
                      when=_CUSTOM, required=_CUSTOM),
    "compression": Key(_BOTH, syntax="an operator",
                       help=" | ".join(cls.form for cls in dict.fromkeys(comp.OPERATORS.values()))),
    "value_bits": Key(_BOTH, int, "an integer"),
    "gamma": Key(_BOTH, lambda text: "auto" if text.strip().lower() == "auto" else float(text),
                 "a number or auto", RunConfig.gamma, help="consensus stepsize or 'auto'",
                 check=lambda gamma: gamma == "auto" or _check_gamma(gamma)),
    "iters": Key(_BOTH, int, "an integer", RunConfig.iters,
                 check=functools.partial(_check_count, "iters")),
    "eval_every": Key(_BOTH, int, "an integer", RunConfig.eval_every,
                      check=functools.partial(_check_count, "eval_every")),
    "seeds": Key(_BOTH, _checked(lambda text: [*map(_UINT64, text.replace(",", " ").split())],
                                 lambda seeds: seeds and len(set(seeds)) == len(seeds)),
                 "distinct non-negative 64-bit integers", (0,),
                 help="the run's one seed (default 0)"),
    "scheme": Key(("consensus",), default="exact", choices=tuple(s.value for s in GossipScheme)),
    "init_file": Key(("consensus",), syntax="a path",
                     help="initial matrix, one node row per line (default: Gaussian)"),
    "averaging": Key(("optimize",), default=SgdConfig.averaging,
                     choices=tuple(s.value for s in AVERAGING)),
    "objective": Key(("optimize",), default="quadratic", choices=("quadratic", "logistic")),
    "data_path": Key(("optimize",), syntax="a path", help="LIBSVM data file",
                     when=_LOGISTIC, required=_LOGISTIC),
    "partition": Key(("optimize",), default="shuffled", choices=("shuffled", "sorted"),
                     when=_LOGISTIC),
    "schedule": Key(("optimize",), default="practical", choices=("practical", "theoretical")),
    "a": Key(("optimize",), float, "a number", check=functools.partial(_check_positive, "a")),
    "b": Key(("optimize",), float, "a number", when=("schedule", ("practical",)),
             check=functools.partial(_check_positive, "b")),
    "noise_sigma": Key(("optimize",), float, "a number",
                       _default(QuadraticObjective, "noise_sigma"), when=_QUADRATIC,
                       check=_check_noise_sigma),
    "fstar_tol": Key(("optimize",), float, "a number", _default(solve_reference, "tolerance"),
                     check=_check_fstar_tol),
    "targets_seed": Key(("optimize",), _UINT64, "a non-negative 64-bit integer", when=_QUADRATIC),
}
SUITE_KEYS = {kind: {name for name, key in KEYS.items() if kind in key.kinds} for kind in _BOTH}
# The keys a section may set to several values, in KEYS order; a section's plan and what each
# seed draws do not depend on them, so a grid's points share those.
LIST_KEYS = ("gamma", "a", "b")
_DEFAULTS = {name: key.default for name, key in KEYS.items() if key.default is not None}


@dataclass(frozen=True)
class ExperimentSpec:
    label: str
    kind: str  # consensus | optimize
    options: dict


def parse_suite_file(path: str | Path) -> list[ExperimentSpec]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        read = parser.read(path)
    except configparser.Error as e:  # worded from attributes that every Python sets
        what = next(text.format(e=e) for cls, text in {  # the first class that e is
            configparser.MissingSectionHeaderError: "a key before any [section]",
            configparser.ParsingError: "not a 'key = value' line",
            configparser.DuplicateSectionError: "section [{e.section}] appears twice",
            configparser.DuplicateOptionError: "key '{e.option}' appears twice in [{e.section}]",
        }.items() if isinstance(e, cls))
        line = getattr(e, "lineno", None) or e.errors[0][0]
        raise ConfigError(f"config file {path} line {line}: {what}") from None
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    specs = []
    for label in parser.sections():
        raw = dict(parser.items(label))
        kind = raw.get("kind")
        if kind not in KEYS["kind"].choices:
            raise ConfigError(f"[{label}]: kind must be {' or '.join(KEYS['kind'].choices)}")
        unknown = set(raw) - SUITE_KEYS[kind]
        if unknown:
            raise ConfigError(f"[{label}]: unknown keys {sorted(unknown)}")
        options = _check_ranges(label, _coerce_options(label, raw))
        specs.append(ExperimentSpec(label=label, kind=kind, options=options))
    if not specs:
        raise ConfigError("no experiments in config file")
    owners = {}  # each label that names files: the section of its point
    for spec in specs:
        for point in grid_points(spec):
            if bad := sorted(set(point.label) & {"/", "\\", "\0"}):
                raise ConfigError(f"config file {path}: label {point.label!r} holds {bad[0]!r}; "
                                  "labels name files in the output directory")
            if point.label in owners:
                raise ConfigError(f"config file {path}: [{owners[point.label]}] and "
                                  f"[{spec.label}] both label a point {point.label!r}")
            owners[point.label] = spec.label
    return specs


def _coerce_options(label: str, raw: dict) -> dict:
    """Typed options, parsed in ``KEYS`` order by their entries there: a value of
    the wrong syntax or outside its choices, then a key set where its ``when`` does
    not hold, then a key left out where its ``required`` holds, is a ConfigError
    naming it.  Beyond the parsers' own ranges, nothing is checked here: a suite
    file's values then meet their keys' ``check``, ``build_plan`` checks the operator
    and the input files, and the config dataclasses check the rest."""
    opts = dict(raw)
    for name in [name for name in KEYS if name in raw]:  # one order for flags and files
        key, text = KEYS[name], raw[name]
        grid = text.replace(",", " ").split() if name in LIST_KEYS else []
        try:  # several values of a grid key: each value as written, and its value
            opts[name] = {v: key.parse(v) for v in grid} if len(grid) > 1 else key.parse(text)
        except ValueError:
            raise ConfigError(f"[{label}]: {name} must be {key.syntax}, got {text!r}") from None
        if len(grid) > 1 and len(set(opts[name].values())) < len(grid):
            raise ConfigError(f"[{label}]: {name} must hold distinct values, got {text!r}")
        if key.choices and opts[name] not in key.choices:
            raise ConfigError(
                f"[{label}]: {name} must be one of {', '.join(key.choices)}, got {opts[name]!r}")
    for name in [name for name in KEYS if name in raw and KEYS[name].when]:
        governor, values = KEYS[name].when
        if (value := opts.get(governor, KEYS[governor].default)) not in values:
            raise ConfigError(f"[{label}]: {name} applies only with {KEYS[name].scope}, "
                              f"got {governor} = {value}")
    for name in [name for name in KEYS if name not in raw and KEYS[name].required]:
        governor, values = KEYS[name].required
        if opts.get(governor, KEYS[governor].default) in values:
            raise ConfigError(f"[{label}]: missing required key {name!r}")
    opts.setdefault("seeds", [*KEYS["seeds"].default])
    return opts


def _check_ranges(label: str, options: dict) -> dict:
    """``options``, once each value, a grid's each included, passes its key's ``check``
    in ``KEYS`` order; a value that fails is a ConfigError in the run's own words."""
    for name in [name for name in KEYS if name in options and KEYS[name].check]:
        value = options[name]
        for each in value.values() if isinstance(value, dict) else [value]:
            try:
                KEYS[name].check(each)
            except ValueError as exc:
                raise ConfigError(f"[{label}]: {exc}") from None
    return options


@dataclass(frozen=True)
class Plan:
    """What no seed changes in a section's runs, built once before any of them: the gossip
    matrix, the operator, a consensus section's init-file start, and a logistic section's
    dataset and f*.  ``at`` draws, for one seed, the rest."""

    spec: ExperimentSpec
    d: int
    matrix: GossipMatrix
    compression: comp.CompressionSpec
    x0: np.ndarray | None  # from init_file; else Gaussian at each seed
    dataset: Dataset | None  # logistic only, with
    f_star: float | None  # its f*, which no partition of it changes

    def at(self, seed: int) -> Callable[[ExperimentSpec], tuple]:
        """A map from each point of the section to its run's arguments at ``seed``, those of
        ``run_consensus`` or ``run_optimization``, unset keys at their ``KEYS`` default.  The
        start, or the objective and its f*, are drawn here once for all the points."""
        o, n = {**_DEFAULTS, **self.spec.options}, self.matrix.n
        if self.spec.kind == "consensus":
            x0 = gaussian_init(self.d, n, seed) if self.x0 is None else self.x0
        elif self.dataset is None:
            targets = stream(o.get("targets_seed", seed), tag="targets").standard_normal(
                (self.d, n))
            objective = QuadraticObjective(targets, noise_sigma=o["noise_sigma"])
            f_star = solve_reference(objective, o["fstar_tol"])[1]
        else:
            objective = LogisticObjective(self.dataset,
                                          partition(self.dataset, n, o["partition"], seed=seed))
            f_star = self.f_star

        def build(point: ExperimentSpec) -> tuple:
            p = {**_DEFAULTS, **point.options}
            gamma = p["gamma"] if p["gamma"] != "auto" else tracking_stepsize(
                self.matrix.delta, self.compression.omega(self.d), self.matrix.beta)
            gossip = dict(matrix=self.matrix, gamma=gamma, compression=self.compression,
                          iters=p["iters"], seed=seed, eval_every=p["eval_every"])
            if self.spec.kind == "consensus":
                return ConsensusConfig(scheme=GossipScheme(p["scheme"]), **gossip), x0
            if p["schedule"] == "theoretical":  # a defaults to what run_optimization checks
                a = p["a"] if "a" in p else theoretical_a(objective, self.matrix, self.compression)
                schedule = TheoreticalSchedule(mu=objective.constants()[0], a=a)
            else:
                m = 1 if self.dataset is None else objective.samples_per_node * n
                schedule = PracticalSchedule(a=p.get("a", 0.1), b=p.get("b", float(self.d)), m=m)
            config = SgdConfig(schedule=schedule, f_star=f_star, averaging=p["averaging"], **gossip)
            return config, objective, np.zeros((self.d, n))
        return build


def build_plan(spec: ExperimentSpec) -> Plan:
    """The section's ``Plan``.  A fault in its inputs, the operator's rule included, is one
    ConfigError naming the section; an unconverged power iteration or f* solve is the
    RuntimeError it raises."""
    o = {**_DEFAULTS, **spec.options}
    try:
        dataset = None
        if o["objective"] == "logistic":
            path = _require(o.get("data_path"), "data_path")
            with open(path, encoding="utf-8") as fh:
                try:
                    dataset = parse_libsvm(fh)
                except ValueError as exc:
                    raise ConfigError(f"{path}: {exc}") from None
            if o.get("d", dataset.d) != dataset.d:
                raise ConfigError(f"{path} holds {dataset.d}-dimensional data, but d = {o['d']}")
        d = _require(o.get("d"), "d") if dataset is None else dataset.d
        compression = parse_compression(o.get("compression"), d, o.get("value_bits"))
        _check_operator(GossipScheme(o["scheme" if spec.kind == "consensus" else "averaging"]),
                        compression)
        matrix = build_topology(o["topology"], o.get("n"), o.get("torus_rows"),
                                o.get("torus_cols"), o.get("edges_file"))
        x0 = load_init_file(o["init_file"], d, matrix.n) if "init_file" in o else None
        f_star = None
        if dataset is not None:  # on the sorted shards: seed-free, and n <= m is checked here
            objective = LogisticObjective(dataset, partition(dataset, matrix.n, "sorted"))
            f_star = solve_reference(objective, o["fstar_tol"])[1]
    except (ValueError, OSError) as exc:
        raise ConfigError(f"[{spec.label}]: {exc}") from None
    return Plan(spec, d, matrix, compression, x0, dataset, f_star)


def run_experiment(plan: Plan, seed: int) -> ConsensusResult | OptimizationResult:
    """The one run at ``seed`` of a plan whose section is one point, not a grid."""
    run = run_consensus if plan.spec.kind == "consensus" else run_optimization
    return run(*plan.at(seed)(plan.spec))


def grid_points(spec: ExperimentSpec) -> list[ExperimentSpec]:
    """The experiments of a section: one per combination of the values of its ``LIST_KEYS``
    that hold several, in ``KEYS`` order, labelled ``<label>_<key><value as written>...``;
    a section without such a key is its one point."""
    names = [name for name in LIST_KEYS if isinstance(spec.options.get(name), dict)]
    return [ExperimentSpec(spec.label + "".join(f"_{n}{text}" for n, (text, _) in zip(names, pick)),
                           spec.kind, {**spec.options, **{n: v for n, (_, v) in zip(names, pick)}})
            for pick in itertools.product(*(spec.options[n].items() for n in names))]


@dataclass(frozen=True)
class SuiteOutcome:
    written: list[Path]
    failures: list[tuple[str, int, str]]
    best: list[tuple[str, str, str, float]]  # per grid: section, point, final metric, its mean


def summarize(per_seed_records: list[list]) -> tuple[list[str], list[tuple]]:
    """Mean and population stddev of each metric at every eval point."""
    first = per_seed_records[0]
    cols = [f.name for f in fields(first[0])]
    if any(len(r) != len(first) for r in per_seed_records):
        raise ValueError("repeats produced different eval grids")
    header = ["iter"]
    for c in cols[1:]:
        header += [f"{c}_mean", f"{c}_std"]
    rows = []
    for i, rec in enumerate(first):
        row = [rec.iter]
        for c in cols[1:]:
            vals = np.array([float(getattr(r[i], c)) for r in per_seed_records])
            row += [float(np.mean(vals)), float(np.std(vals))]
        rows.append(tuple(row))
    return header, rows


def run_suite(
    config_path: str | Path, out_dir: str | Path, kind: str | None = None
) -> SuiteOutcome:
    """Run every experiment in the file (optionally only one kind);
    continue past failures.

    Writes one CSV per (experiment, seed) plus a per-experiment summary, and
    ranks each grid's points whose every seed ran by the final mean of their
    first metric; ties go to the smaller gamma (``auto`` last), then a, then b.
    Returns the failures so the CLI can exit nonzero on partial failure.
    """
    specs = parse_suite_file(config_path)
    if kind is not None:
        specs = [s for s in specs if s.kind == kind]
        if not specs:
            raise ConfigError(f"no {kind} experiments in {config_path}")
    plans = [build_plan(spec) for spec in specs]  # every section's inputs, before any run
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    failures: list[tuple[str, int, str]] = []
    best: list[tuple[str, str, str, float]] = []
    for plan in plans:
        spec = plan.spec
        run = run_consensus if spec.kind == "consensus" else run_optimization
        points, seeds = grid_points(spec), spec.options["seeds"]
        runs = {point.label: [] for point in points}  # (seed, records) of each point
        for seed in seeds:
            try:
                build = plan.at(seed)
            except RUN_ERRORS as exc:  # such as a start too large to allocate: every point fails
                failures += [(point.label, seed, str(exc)) for point in points]
                continue
            for point in points:
                try:
                    runs[point.label].append((seed, run(*build(point)).records))
                except RUN_ERRORS as exc:
                    failures.append((point.label, seed, str(exc)))
        ranked = []  # (final mean, tie break, label, metric) of each point that ran every seed
        for point in points:
            done = runs[point.label]
            for seed, records in done:
                path = out / f"{point.label}_seed{seed}.csv"
                write_records_csv(path, records)
                written.append(path)
            if not done:
                continue
            header, rows = summarize([records for _, records in done])
            path = out / f"{point.label}_summary.csv"
            write_rows_csv(path, header, rows)
            written.append(path)
            if len(done) == len(seeds):
                ties = [math.inf if point.options[n] == "auto" else point.options[n]
                        for n in LIST_KEYS if isinstance(spec.options.get(n), dict)]
                metric = "final_" + header[1].removesuffix("_mean")
                ranked.append((rows[-1][1], ties, point.label, metric))
        if len(points) > 1 and ranked:
            final, _, label, metric = min(ranked)
            best.append((spec.label, label, metric, final))
    return SuiteOutcome(written=written, failures=failures, best=best)


# ---------------------------------------------------------------------------
# theory checks

@dataclass(frozen=True)
class CheckOutcome:
    kind: str
    name: str
    observed: float
    bound: float

    @property
    def passed(self) -> bool:
        return self.observed <= self.bound

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"{status} {self.kind} {self.name} "
            f"observed={format(self.observed, '.17g')} bound={format(self.bound, '.17g')}"
        )


def _worst_gap(kind: str, name: str, gaps) -> CheckOutcome:
    """The largest of a series of ``observed - bound`` gaps, checked against 0."""
    return CheckOutcome(kind, name, max(gaps), 0.0)


def _check_exact_rate() -> list[CheckOutcome]:
    matrix = build_gossip_matrix(Ring(16))
    outcomes = []
    for gamma in (0.5, 1.0):
        config = ConsensusConfig(scheme=GossipScheme.EXACT, matrix=matrix, gamma=gamma,
                                 iters=500, seed=7, eval_every=1)
        records = run_consensus(config, gaussian_init(32, 16, seed=7)).records
        rate = 1.0 - gamma * matrix.delta
        gaps = (rec.error - (rate ** (2 * rec.iter) * records[0].error + 1e-9) for rec in records)
        outcomes.append(_worst_gap("exact_rate", f"ring16_gamma{gamma}", gaps))
    return outcomes


def _check_tracking_rate() -> list[CheckOutcome]:
    matrix = build_gossip_matrix(Ring(8))
    d = 16
    spec = comp.TopK(2)
    om = spec.omega(d)
    gamma = tracking_stepsize(matrix.delta, om, matrix.beta)
    config = ConsensusConfig(
        scheme=GossipScheme.TRACKING, matrix=matrix, gamma=gamma, compression=spec,
        iters=5000, seed=11, eval_every=1,
    )
    records = run_consensus(config, gaussian_init(d, matrix.n, seed=11)).records
    rate = 1.0 - matrix.delta**2 * om / 82.0
    gaps = (rec.lyapunov - (rate**rec.iter * records[0].lyapunov + 1e-9) for rec in records)
    return [_worst_gap("tracking_rate", "ring8_top2", gaps)]


def _check_mixing() -> list[CheckOutcome]:
    outcomes = []
    graphs = [(Ring, n) for n in range(4, 17)] + [(Torus, 3, 3), (Torus, 4, 4), (FullyConnected, 9)]
    for kind, *args in graphs:
        matrix = build_gossip_matrix(kind(*args))
        gaps = (mixing_contraction(matrix.weights, k) - ((1.0 - matrix.delta) ** k + 1e-9)
                for k in range(51))
        outcomes.append(_worst_gap("mixing", kind.__name__.lower() + str(matrix.n), gaps))
    return outcomes


def _omega_contract_outcomes() -> list[CheckOutcome]:
    """At d = 400 and d = 2000, draws of one fixed ``x`` are columns of one
    ``compress_columns`` call per chunk, each case's from one generator.  The
    tiles are F-ordered, so each message is a contiguous row of ``Q.T`` and
    its row sum adds in the order ``np.sum`` uses for one vector."""
    fixtures = [  # (name prefix, d, [(case, operator, generator, draws)], top_k, its samples)
        ("", 400, [(name, spec, stream(2024, tag=f"omega-{name}"), 10_000) for name, spec in [
            ("rand_k", comp.RandK(4)), ("qsgd16", comp.Qsgd(16)),
            ("rand_gossip", comp.RandGossip(0.25))]],
         comp.TopK(4), stream(2024, tag="omega-topk-samples").standard_normal((100, 400))),
        ("d2000_", 2000, [(name, spec, stream(1, tag="mc"), 2_500) for name, spec in [
            ("rand_k20", comp.RandK(20)), ("qsgd256", comp.Qsgd(256)),
            ("rand_k100", comp.RandK(100)), ("qsgd16", comp.Qsgd(16))]]
         + [("rand_gossip", comp.RandGossip(0.25), stream(2, tag="mc"), 10_000)],
         comp.TopK(20), stream(3, tag="mc").standard_normal((500, 2000))),
    ]
    outcomes, chunk = [], 500
    for prefix, d, cases, top_k, samples in fixtures:
        x = stream(2024, tag="omega-fixture").standard_normal(d)
        copies = np.tile(x, (chunk, 1)).T
        for name, spec, rng, draws in cases:
            ratios = np.empty(draws)
            for lo in range(0, draws, chunk):
                q, _ = comp.compress_columns(spec, copies, lambda i: rng)
                ratios[lo:lo + chunk] = np.sum((q.T - x) ** 2, axis=1) / np.dot(x, x)
            bound = (1.0 - spec.omega(d)) + 4.0 * float(np.std(ratios) / math.sqrt(draws))
            outcomes.append(CheckOutcome("omega_contract", prefix + name,
                                         float(np.mean(ratios)), bound))
        # deterministic top_k holds per sample
        q, _ = comp.compress_columns(top_k, samples.T)
        errors = np.sum((q.T - samples) ** 2, axis=1)
        gaps = (float(e / np.dot(s, s)) - (1.0 - top_k.omega(d)) for e, s in zip(errors, samples))
        outcomes.append(_worst_gap("omega_contract", prefix + "top_k_per_sample", gaps))
    return outcomes


def _check_identity_reduction() -> list[CheckOutcome]:
    """Tracking with the identity operator and plain SGD, driven round by
    round through ``sgd_round``, agree at every iterate."""
    matrix = build_gossip_matrix(Ring(9))
    rounds, seed = 200, 5
    outcomes = []
    for d in (12, 20):
        objective = QuadraticObjective(stream(31, tag="targets").standard_normal((d, 9)), 0.5)
        eta = PracticalSchedule(a=0.05, b=float(d), m=1).eta
        plain = ExactAveraging(matrix, 1.0, seed=seed)
        tracked = TrackingAveraging(matrix, 1.0, comp.Identity(), seed)
        x_plain = x_tracked = gaussian_init(d, 9, seed)
        gaps = [0.0]
        for t in range(rounds):
            x_plain, _ = sgd_round(x_plain, objective, eta(t), plain, t)
            x_tracked, _ = sgd_round(x_tracked, objective, eta(t), tracked, t)
            gaps.append(float(np.max(np.abs(x_plain - x_tracked))))
        outcomes.append(CheckOutcome("identity_reduction", f"ring9_d{d}", max(gaps), 1e-12))
    return outcomes


# The built-in bound suites by kind, in the order ``all`` runs them.
CHECKS = {
    "exact_rate": _check_exact_rate,
    "tracking_rate": _check_tracking_rate,
    "mixing": _check_mixing,
    "omega_contract": _omega_contract_outcomes,
    "identity_reduction": _check_identity_reduction,
}


def theory_check(kind: str) -> list[CheckOutcome]:
    """Run one of the ``CHECKS``, or all of them; see the CLI ``check`` command."""
    if kind == "all":
        return [outcome for check in CHECKS.values() for outcome in check()]
    if kind not in CHECKS:
        raise ConfigError(f"unknown check kind {kind!r}")
    return CHECKS[kind]()
