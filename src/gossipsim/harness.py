"""Experiment orchestration: config files, suites, sweeps, theory checks.

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
"""

from __future__ import annotations

import configparser
import inspect
import math
from collections.abc import Callable
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import compression as comp
from .consensus import (
    ConsensusConfig,
    ConsensusResult,
    DivergenceError,
    GossipScheme,
    RunConfig,
    run_consensus,
    tracking_stepsize,
)
from .objectives import (
    LogisticObjective,
    Objective,
    QuadraticObjective,
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
    "parse_suite_file",
    "build_consensus",
    "build_optimize",
    "run_experiment",
    "run_suite",
    "grid_search",
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


# What a run may raise: ConfigError is a ValueError; DivergenceError, failed solves and power
# iterations and an all-diverged sweep are RuntimeErrors; too large a size is a MemoryError.
RUN_ERRORS = (ValueError, OSError, MemoryError, RuntimeError)


# ---------------------------------------------------------------------------
# building blocks shared by the CLI and the suite runner

def parse_compression(text: str | None, d: int,
                      value_bits: int | None = None) -> comp.CompressionSpec:
    """Parse an operator string; ``None`` is an unset key's default: identity, 32 bits.

    Forms: ``identity`` (no argument), ``rand_k:<k or fraction>``,
    ``top_k:<k or fraction>``, ``qsgd:<levels>``, ``rand_gossip:<p>``, and
    ``unbiased:<inner>`` for the rescaled unbiased variant.  A sparsifier
    argument below 1 is read as a coordinate fraction and resolved as
    ``ceil(fraction * d)``.
    """
    text = "identity" if text is None else text.strip()
    value_bits = 32 if value_bits is None else value_bits
    if text.startswith("unbiased:"):
        inner = parse_compression(text[len("unbiased:"):], d, value_bits)
        return comp.RescaledUnbiased(inner, value_bits=value_bits)
    name, colon, arg = text.partition(":")
    name = name.strip().lower()
    try:
        if name in ("identity", "none", "exact"):
            if colon:
                raise ConfigError(f"{name} takes no argument, got {text!r}")
            spec = comp.Identity()
        elif name in ("rand_k", "top_k"):
            if not arg:
                raise ConfigError(f"{name} needs k or a fraction, e.g. {name}:0.01")
            value = float(arg)
            k = comp.resolve_k(value, d) if value < 1 else int(value)
            if value >= 1 and k != value:
                raise ValueError(f"a count k must be a whole number, got {arg}")
            cls = comp.RandK if name == "rand_k" else comp.TopK
            spec = cls(k)
        elif name == "qsgd":
            spec = comp.Qsgd(int(arg))
        elif name == "rand_gossip":
            spec = comp.RandGossip(float(arg))
        else:
            raise ConfigError(f"unknown compression kind {text!r}")
        spec.omega(d)  # rejects a spec invalid at this d, such as k > d
    except ConfigError:
        raise
    except (ValueError, OverflowError) as exc:  # int(inf) overflows
        raise ConfigError(f"bad compression argument in {text!r}: {exc}") from exc
    try:  # apart from the try above: not blamed on ``text``
        return replace(spec, value_bits=value_bits)
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
    the key that governs it and the values that key must hold (None: always), and ``required``:
    the same for where it must be set (None: never); an unset governing key holds its default."""

    kinds: tuple[str, ...]
    parse: Callable[[str], object] = str
    syntax: str = "text"
    default: object = None
    choices: tuple[str, ...] = ()
    help: str | None = None
    when: tuple[str, tuple[str, ...]] | None = None
    required: tuple[str, tuple[str, ...]] | None = None

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
    "compression": Key(_BOTH, syntax="an operator", help="identity | rand_k:<k|frac> | "
                       "top_k:<k|frac> | qsgd:<s> | rand_gossip:<p> | unbiased:<inner>"),
    "value_bits": Key(_BOTH, int, "an integer"),
    "gamma": Key(_BOTH, lambda text: "auto" if text.strip().lower() == "auto" else float(text),
                 "a number or auto", RunConfig.gamma, help="consensus stepsize or 'auto'"),
    "iters": Key(_BOTH, int, "an integer", RunConfig.iters),
    "eval_every": Key(_BOTH, int, "an integer", RunConfig.eval_every),
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
    "a": Key(("optimize",), float, "a number"),
    "b": Key(("optimize",), float, "a number", when=("schedule", ("practical",))),
    "noise_sigma": Key(("optimize",), float, "a number",
                       _default(QuadraticObjective, "noise_sigma"), when=_QUADRATIC),
    "fstar_tol": Key(("optimize",), float, "a number", _default(solve_reference, "tolerance")),
    "targets_seed": Key(("optimize",), _UINT64, "a non-negative 64-bit integer", when=_QUADRATIC),
}
SUITE_KEYS = {kind: {name for name, key in KEYS.items() if kind in key.kinds} for kind in _BOTH}
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
        options = _coerce_options(label, raw)
        specs.append(ExperimentSpec(label=label, kind=kind, options=options))
    if not specs:
        raise ConfigError("no experiments in config file")
    return specs


def _coerce_options(label: str, raw: dict) -> dict:
    """Typed options, parsed in ``KEYS`` order by their entries there: a value of
    the wrong syntax or outside its choices, then a key set where its ``when`` does
    not hold, then a key left out where its ``required`` holds, is a ConfigError
    naming it.  Beyond the parsers' own ranges, only the operator is checked here,
    once ``d`` is set (a logistic section without ``d`` checks it per seed); the
    config dataclasses check the rest."""
    opts = dict(raw)
    for name in [name for name in KEYS if name in raw]:  # one order for flags and files
        key, text = KEYS[name], raw[name]
        try:
            opts[name] = key.parse(text)
        except ValueError:
            raise ConfigError(f"[{label}]: {name} must be {key.syntax}, got {text!r}") from None
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
    if "d" in opts:  # the operator's own checks, as the run's builder makes them
        try:
            parse_compression(opts.get("compression"), opts["d"], opts.get("value_bits"))
        except ValueError as exc:
            raise ConfigError(f"[{label}]: {exc}") from None
    return opts


def _build_matrix(o: dict) -> GossipMatrix:
    return build_topology(
        o["topology"], o.get("n"),
        o.get("torus_rows"), o.get("torus_cols"), o.get("edges_file"),
    )


def _gossip_options(o: dict, matrix: GossipMatrix, d: int, seed: int) -> dict:
    """The config fields consensus and SGD runs share."""
    cspec = parse_compression(o.get("compression"), d, o.get("value_bits"))
    gamma = o["gamma"]
    if gamma == "auto":
        gamma = tracking_stepsize(matrix.delta, cspec.omega(d), matrix.beta)
    return dict(
        matrix=matrix,
        gamma=gamma,
        compression=cspec,
        iters=o["iters"],
        seed=seed,
        eval_every=o["eval_every"],
    )


def build_consensus(spec: ExperimentSpec, seed: int):
    """Config and initial matrix of one consensus run; unset keys take their ``KEYS`` default."""
    o = {**_DEFAULTS, **spec.options}
    d = _require(o.get("d"), "d")
    matrix = _build_matrix(o)
    config = ConsensusConfig(
        scheme=GossipScheme(o["scheme"]), **_gossip_options(o, matrix, d, seed)
    )
    if "init_file" in o:
        x0 = load_init_file(o["init_file"], d, matrix.n)
    else:
        x0 = gaussian_init(d, matrix.n, seed)
    return config, x0


def build_objective(o: dict, matrix: GossipMatrix, seed: int) -> Objective:
    if o["objective"] == "quadratic":
        targets = stream(o.get("targets_seed", seed), tag="targets").standard_normal(
            (_require(o.get("d"), "d"), matrix.n))
        return QuadraticObjective(targets, noise_sigma=o["noise_sigma"])
    path = _require(o.get("data_path"), "data_path")
    with open(path, "r", encoding="utf-8") as fh:
        try:
            dataset = parse_libsvm(fh)
        except ValueError as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    if o.get("d", dataset.d) != dataset.d:
        raise ConfigError(f"{path} holds {dataset.d}-dimensional data, but d = {o['d']}")
    shards = partition(dataset, matrix.n, o["partition"], seed=seed)
    return LogisticObjective(dataset, shards)


def build_optimize(spec: ExperimentSpec, seed: int):
    """Config, objective and initial matrix of one SGD run; sets what ``KEYS`` leaves open."""
    o = {**_DEFAULTS, **spec.options}
    matrix = _build_matrix(o)
    objective = build_objective(o, matrix, seed)
    d = objective.dim
    gossip = _gossip_options(o, matrix, d, seed)
    if o["schedule"] == "theoretical":
        if "a" in o:
            a = o["a"]
        else:  # the requirement run_optimization checks a against
            a = theoretical_a(objective, matrix, gossip["compression"])
        schedule = TheoreticalSchedule(mu=objective.constants()[0], a=a)
    else:
        m = objective.samples_per_node * matrix.n if isinstance(objective, LogisticObjective) else 1
        schedule = PracticalSchedule(a=o.get("a", 0.1), b=o.get("b", float(d)), m=m)
    _, f_star = solve_reference(objective, o["fstar_tol"])
    config = SgdConfig(schedule=schedule, f_star=f_star, averaging=o["averaging"], **gossip)
    return config, objective, np.zeros((d, matrix.n))


def run_experiment(spec: ExperimentSpec, seed: int) -> ConsensusResult | OptimizationResult:
    if spec.kind == "consensus":
        return run_consensus(*build_consensus(spec, seed))
    return run_optimization(*build_optimize(spec, seed))


@dataclass(frozen=True)
class SuiteOutcome:
    written: list[Path]
    failures: list[tuple[str, int, str]]


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

    Writes one CSV per (experiment, seed) plus a per-experiment summary.
    Returns the failures so the CLI can exit nonzero on partial failure.
    """
    specs = parse_suite_file(config_path)
    if kind is not None:
        specs = [s for s in specs if s.kind == kind]
        if not specs:
            raise ConfigError(f"no {kind} experiments in {config_path}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    failures: list[tuple[str, int, str]] = []
    for spec in specs:
        per_seed = []
        for seed in spec.options["seeds"]:
            try:
                records = run_experiment(spec, seed).records
            except RUN_ERRORS as exc:
                failures.append((spec.label, seed, str(exc)))
                continue
            path = out / f"{spec.label}_seed{seed}.csv"
            write_records_csv(path, records)
            written.append(path)
            per_seed.append(records)
        if per_seed:
            header, rows = summarize(per_seed)
            path = out / f"{spec.label}_summary.csv"
            write_rows_csv(path, header, rows)
            written.append(path)
    return SuiteOutcome(written=written, failures=failures)


# ---------------------------------------------------------------------------
# grid search (stepsize sweep)

def grid_search(
    base: SgdConfig, objective: Objective, initial_x: np.ndarray,
    a_exponents: tuple[int, ...] = (-3, -2, -1, 0, 1),
    b_values: tuple[float, ...] | None = None, epochs: int = 10,
) -> tuple[float, float, float]:
    """Pick ``(a, b)`` minimizing final suboptimality after a fixed budget.

    ``a`` runs over ``10**e`` for ``e`` in ``a_exponents`` and ``b`` over
    ``b_values``, by default ``{1, 0.1 d, d, 10 d, 100 d}``.  Every grid
    point is ``base`` with only its practical schedule's ``a`` and ``b``
    replaced, run for ``epochs`` epochs of ``samples_per_node`` rounds, so
    a run of ``base`` at the chosen point repeats its result.  Diverged
    points are skipped; if everything diverged the search aborts listing
    them.  Ties break toward smaller ``a`` then smaller ``b``.
    """
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if not isinstance(base.schedule, PracticalSchedule):
        raise ValueError("grid search varies a practical schedule")
    if not a_exponents:
        raise ValueError("empty a grid")
    d = initial_x.shape[0]
    if b_values is None:
        b_values = (1.0, 0.1 * d, float(d), 10.0 * d, 100.0 * d)
    elif not b_values:
        raise ValueError("empty b grid")
    iters = epochs * objective.samples_per_node

    best = None
    diverged = []
    for a in (10.0**e for e in a_exponents):
        for b in map(float, b_values):
            config = replace(
                base, schedule=replace(base.schedule, a=a, b=b),
                iters=iters, eval_every=iters,
            )
            try:
                result = run_optimization(config, objective, initial_x)
            except DivergenceError:
                diverged.append((a, b))
                continue
            key = (result.records[-1].subopt, a, b)
            if best is None or key < best:
                best = key
    if best is None:
        raise RuntimeError(f"all grid points diverged: {diverged}")
    return best[1], best[2], best[0]


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
