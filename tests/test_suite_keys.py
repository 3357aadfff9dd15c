"""``harness.KEYS`` is the one statement of each suite key: its kinds,
syntax, default, choices, help, the ``when`` it applies under and the
``required`` it must be set under.

An omitted key runs as its default written out; a key set where its
``when`` does not hold, or left out where its ``required`` holds, is one
error, from a suite line and a flag alike; a CLI flag and a suite line
coerce one text alike, over generated values; and README's key table
states what ``KEYS`` holds, row for row.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import cli
from gossipsim.harness import KEYS, SUITE_KEYS, ConfigError, parse_suite_file, run_suite
from gossipsim.objectives import serialize_libsvm, synthetic_classification
from test_cli_boundary import EDGE_VALUES, OPERATORS

README = Path(__file__).resolve().parent.parent / "README.md"
SIZING = {"n", "d", "iters", "torus_rows", "torus_cols"}  # huge values would run without end
# A value of each key that a section may require; parsing a section opens no file.
FILLS = {"n": "4", "d": "3", "torus_rows": "2", "torus_cols": "2",
         "edges_file": "edges.txt", "data_path": "train.svm"}


def holds(condition, options: dict) -> bool:
    """A ``when`` or ``required`` as _coerce_options reads it: the section's
    value of the governing key, else that key's default."""
    governor, values = condition
    return options.get(governor, KEYS[governor].default) in values


def required(options: dict) -> dict:
    """The keys that a section of ``options`` requires and leaves out, each with its ``FILLS``."""
    return {name: FILLS[name] for name, key in KEYS.items()
            if key.required and name not in options and holds(key.required, options)}


def lines(options: dict) -> str:
    return "".join(f"{name} = {value}\n" for name, value in options.items())


def text(value) -> str:
    """A default as a suite line writes it: a tuple of seeds as its integers."""
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


# The head of a section of each kind and objective; "{data}" is a generated LIBSVM file.
HEADS = {
    "consensus": "kind = consensus\nn = 4\nd = 3\n",
    "optimize": "kind = optimize\nn = 4\nd = 3\n",
    "optimize-logistic": "kind = optimize\nn = 4\nobjective = logistic\ndata_path = {data}\n",
}


@pytest.mark.parametrize("head", sorted(HEADS))
def test_an_omitted_key_runs_as_its_default_written_out(head, tmp_path):
    data = tmp_path / "train.svm"
    data.write_text(serialize_libsvm(synthetic_classification(24, 3, seed=1)))
    path = tmp_path / "suite.ini"
    path.write_text(f"[omitted]\n{HEADS[head].format(data=data)}")
    (omitted,) = parse_suite_file(path)
    given = set(omitted.options) - {"seeds"}
    defaults = {name: key.default for name, key in KEYS.items()
                if omitted.kind in key.kinds and key.default is not None and name not in given
                and (key.when is None or holds(key.when, omitted.options))}
    assert {"gamma", "iters", "eval_every", "seeds"} <= set(defaults)
    assert ("partition" in defaults) == (head == "optimize-logistic")
    written = "".join(f"{name} = {text(value)}\n" for name, value in defaults.items())
    path.write_text(f"{path.read_text()}\n[written]\n{HEADS[head].format(data=data)}{written}")
    omitted, spelled = parse_suite_file(path)
    assert set(omitted.options) == given | {"seeds"}
    for name, value in defaults.items():  # each text reads back as its default, type and all
        assert repr(spelled.options[name]) == repr([*value] if name == "seeds" else value)

    outcome = run_suite(path, tmp_path / "out")
    assert not outcome.failures
    for suffix in ("seed0", "summary"):
        omitted_csv = (tmp_path / "out" / f"omitted_{suffix}.csv").read_bytes()
        assert omitted_csv == (tmp_path / "out" / f"written_{suffix}.csv").read_bytes()


# (kind, key) for each kind that may hold a key with a ``when``
SCOPED = [(kind, name) for name, key in KEYS.items() if key.when for kind in key.kinds]


@pytest.mark.parametrize("kind, name", SCOPED)
def test_a_key_applies_only_where_its_when_holds(kind, name, tmp_path, capsys):
    key = KEYS[name]
    governor, values = key.when
    value = key.choices[-1] if key.choices else "3"  # an integer, a number and a path
    path = tmp_path / "suite.ini"
    for other in [*KEYS[governor].choices, None]:  # None: the governing key's default
        line = "" if other is None else f"{governor} = {other}\n"
        got = KEYS[governor].default if other is None else other
        if got in values:  # with the keys that the section requires
            fills = lines(required({governor: got, name: value}))
            path.write_text(f"[x]\nkind = {kind}\n{line}{name} = {value}\n{fills}")
            assert parse_suite_file(path)[0].options[name] == key.parse(value)
            continue
        path.write_text(f"[x]\nkind = {kind}\n{line}{name} = {value}\n")
        message = f"{name} applies only with {key.scope}, got {governor} = {got}"
        with pytest.raises(ConfigError) as raised:
            parse_suite_file(path)
        assert str(raised.value) == f"[x]: {message}"
        flags = [] if other is None else [f"{cli._flag(governor)}={other}"]
        assert cli.main([kind, *flags, f"{cli._flag(name)}={value}"]) == 2
        assert capsys.readouterr() == ("", f"error: [{kind}]: {message}\n")


# (kind, key) for each kind that may hold a key with a ``required``
REQUIRED = [(kind, name) for name, key in KEYS.items() if key.required for kind in key.kinds]


@pytest.mark.parametrize("kind, name", REQUIRED)
def test_a_key_is_required_where_its_required_holds(kind, name, tmp_path, capsys):
    governor, values = KEYS[name].required
    path = tmp_path / "suite.ini"
    message = f"missing required key {name!r}"
    for value in values:  # a governing key that the kind lacks holds its default
        options = {governor: value} if kind in KEYS[governor].kinds else {}
        others = {**options, **required({**options, name: FILLS[name]})}
        path.write_text(f"[x]\nkind = {kind}\n{lines(others)}")
        with pytest.raises(ConfigError) as raised:
            parse_suite_file(path)
        assert str(raised.value) == f"[x]: {message}"
        flags = [f"{cli._flag(key)}={setting}" for key, setting in others.items()]
        assert cli.main([kind, *flags]) == 2
        assert capsys.readouterr() == ("", f"error: [{kind}]: {message}\n")
        path.write_text(f"[x]\nkind = {kind}\n{lines(others)}{name} = {FILLS[name]}\n")
        assert parse_suite_file(path)[0].options[name] == KEYS[name].parse(FILLS[name])


@st.composite
def sections(draw):
    """One kind's non-sizing keys, each with a value from its choices, its
    default's text or the CLI boundary's edge values, and the governing key of
    each that has a ``when``."""
    kind = draw(st.sampled_from(KEYS["kind"].choices))
    names = draw(st.lists(st.sampled_from(sorted(SUITE_KEYS[kind] - SIZING - {"kind"})),
                          unique=True, max_size=5))
    values = {}
    for name in names:
        key = KEYS[name]
        if key.when:  # its governing key too, most often with a value where it applies
            governor, scope = key.when
            values.setdefault(governor, draw(st.sampled_from(
                [*scope, *scope, *KEYS[governor].choices])))
        pool = [*key.choices, *EDGE_VALUES, *(OPERATORS if name == "compression" else [])]
        if key.default is not None:
            pool.append(text(key.default))
        values[name] = draw(st.sampled_from(pool))
    return kind, values


def coerced(parse):
    """The options that ``parse`` returns, reprs for values (nan is not equal
    to itself), or the ConfigError it raises."""
    try:
        return sorted((name, repr(value)) for name, value in parse().items() if name != "kind")
    except ConfigError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(sections())
def test_flags_and_a_section_coerce_alike(section):
    kind, values = section
    flags = [f"{'--seed' if name == 'seeds' else cli._flag(name)}={value}"
             for name, value in values.items()]
    args = cli.build_parser().parse_args([kind, "--n=4", "--d=3", "--iters=5", *flags])
    from_flags = coerced(lambda: cli._spec(args, kind)[0].options)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "suite.ini"
        lines = "".join(f"{name} = {value}\n" for name, value in values.items())
        path.write_text(f"[section]\nkind = {kind}\nn = 4\nd = 3\niters = 5\n{lines}")
        from_section = coerced(lambda: parse_suite_file(path)[0].options)
    if isinstance(from_section, str):  # the same message, but for the label
        from_section = from_section.replace("[section]: ", f"[{kind}]: ", 1)
    assert from_flags == from_section


def readme_key_table() -> list[list[str]]:
    lines = README.read_text().splitlines()
    start = lines.index("| key | kinds | syntax | default | choices | applies when |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_key_table_is_keys():
    rows = readme_key_table()
    assert [row[0] for row in rows] == [f"`{name}`" for name in KEYS]
    for (_, kinds, syntax, default, choices, when), key in zip(rows, KEYS.values()):
        assert kinds == ", ".join(key.kinds)
        assert syntax == key.syntax
        if key.default is None:  # unset, or set by a builder from other keys
            assert default.startswith("none")
        else:
            assert default == f"`{text(key.default)}`"
        assert choices == ", ".join(key.choices)
        assert when == (key.scope if key.when else "")


def test_a_kind_outside_its_choices_aborts_the_suite(tmp_path):
    path = tmp_path / "suite.ini"
    path.write_text("[x]\nkind = banana\nn = 4\n")
    with pytest.raises(ConfigError, match=r"^\[x\]: kind must be consensus or optimize$"):
        parse_suite_file(path)
