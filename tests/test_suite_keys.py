"""``harness.KEYS`` is the one statement of each suite key: its kinds,
syntax, default, choices and help.

An omitted key runs as its default written out; a CLI flag and a suite
line coerce one text alike, over generated values; and README's key table
states what ``KEYS`` holds, row for row.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gossipsim import cli
from gossipsim.harness import KEYS, SUITE_KEYS, ConfigError, parse_suite_file, run_suite
from test_cli_boundary import EDGE_VALUES, OPERATORS

README = Path(__file__).resolve().parent.parent / "README.md"
SIZING = {"n", "d", "iters", "torus_rows", "torus_cols"}  # huge values would run without end


def text(value) -> str:
    """A default as a suite line writes it: a tuple of seeds as its integers."""
    return " ".join(map(str, value)) if isinstance(value, tuple) else str(value)


@pytest.mark.parametrize("kind", ["consensus", "optimize"])
def test_an_omitted_key_runs_as_its_default_written_out(kind, tmp_path):
    defaults = {name: key.default for name, key in KEYS.items()
                if kind in key.kinds and key.default is not None}
    assert {"gamma", "iters", "eval_every", "seeds"} <= set(defaults)
    written = "".join(f"{name} = {text(value)}\n" for name, value in defaults.items())
    path = tmp_path / "suite.ini"
    path.write_text(f"[omitted]\nkind = {kind}\nn = 4\nd = 3\n\n"
                    f"[written]\nkind = {kind}\nn = 4\nd = 3\n{written}")
    omitted, spelled = parse_suite_file(path)
    assert set(omitted.options) == {"kind", "n", "d", "seeds"}
    for name, value in defaults.items():  # each text reads back as its default, type and all
        assert repr(spelled.options[name]) == repr([*value] if name == "seeds" else value)

    outcome = run_suite(path, tmp_path / "out")
    assert not outcome.failures
    for suffix in ("seed0", "summary"):
        omitted_csv = (tmp_path / "out" / f"omitted_{suffix}.csv").read_bytes()
        assert omitted_csv == (tmp_path / "out" / f"written_{suffix}.csv").read_bytes()


@st.composite
def sections(draw):
    """One kind's non-sizing keys, each with a value from its choices, its
    default's text or the CLI boundary's edge values."""
    kind = draw(st.sampled_from(KEYS["kind"].choices))
    names = draw(st.lists(st.sampled_from(sorted(SUITE_KEYS[kind] - SIZING - {"kind"})),
                          unique=True, max_size=5))
    values = {}
    for name in names:
        key = KEYS[name]
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
    start = lines.index("| key | kinds | syntax | default | choices |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_readme_key_table_is_keys():
    rows = readme_key_table()
    assert [row[0] for row in rows] == [f"`{name}`" for name in KEYS]
    for (_, kinds, syntax, default, choices), key in zip(rows, KEYS.values()):
        assert kinds == ", ".join(key.kinds)
        assert syntax == key.syntax
        if key.default is None:  # unset, or set by a builder from other keys
            assert default.startswith("none")
        else:
            assert default == f"`{text(key.default)}`"
        assert choices == ", ".join(key.choices)


def test_a_kind_outside_its_choices_aborts_the_suite(tmp_path):
    path = tmp_path / "suite.ini"
    path.write_text("[x]\nkind = banana\nn = 4\n")
    with pytest.raises(ConfigError, match=r"^\[x\]: kind must be consensus or optimize$"):
        parse_suite_file(path)
