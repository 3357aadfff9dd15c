"""Generated values at the CLI boundary: every one ends in a clean exit.

``cli.main`` runs in process on small ``consensus`` and quadratic
``optimize`` runs (``--n 4 --d 3 --iters 5``) with edge values -- zeros,
negatives, non-finite and overflowing numbers, huge integers, text and the
empty string -- given to the flags that do not size a run.  Each run exits
0, 1 or 2, an exit 2 prints exactly one ``error:`` line, and no output holds
a traceback.  The sizing flags (``--n``, ``--d``, ``--iters``, the torus
sides) are never generated: huge values of them are legal and would run
without end or exhaust memory.  ``sweep`` runs the same way with integer
exponents at and past the ends of ``[-323, 308]``, where ``10.0**e`` stops
being a positive finite float; its ``--epochs`` sizes every grid run, so it
comes only from {0, 1, 2}, and an exponent range that runs spans at most
32 values.  Generated edge lists, init files and LIBSVM files (at most 9
nodes or samples, 5 values a line) run the same way, and a line that breaks
its format is named, with its file, in the one error line.
"""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gossipsim import cli
from gossipsim.harness import KEYS

SIZE = ["--n", "4", "--d", "3", "--iters", "5"]
EDGE_VALUES = ["0", "-1", "-0.5", "nan", "inf", "-inf", "1e400", "1e-320", str(2**64),
               str(10**20), "fast", "", "0.5", "1", "3"]
OPERATORS = ["identity", "top_k:", "rand_k:", "qsgd:", "rand_gossip:", "unbiased:rand_k:",
             "unbiased:qsgd:", "identity:"]
NUMERIC_FLAGS = {
    "consensus": ["--gamma", "--value-bits", "--eval-every", "--seed"],
    "optimize": ["--gamma", "--a", "--b", "--noise-sigma", "--fstar-tol", "--value-bits",
                 "--eval-every", "--seed", "--targets-seed"],
}
CHOICE_FLAGS = {
    "consensus": ["--topology", "--scheme"],
    "optimize": ["--topology", "--averaging", "--partition", "--schedule"],
}


# Integer text only: argparse rejects other text with a usage error, the path
# that test_harness.py's test_sweep_rejects_flags_it_ignores checks.
EXPONENTS = [-(10**20), -400, -324, -323, -322, -3, 0, 1, 307, 308, 309, 2**64, 10**20]
SWEEP_FLAGS = ["--gamma", "--noise-sigma", "--value-bits", "--seed", "--averaging",
               "--compression"]


def values_for(flag):
    numbers = st.sampled_from(EDGE_VALUES)
    if flag == "--compression":
        return st.one_of(numbers, st.tuples(st.sampled_from(OPERATORS), numbers).map("".join))
    if flag in ("--topology", "--scheme", "--averaging", "--partition", "--schedule"):
        return st.sampled_from([*KEYS[flag[2:]].choices, "bogus", ""])
    return numbers


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(["consensus", "optimize"]))
    flags = draw(st.lists(
        st.sampled_from([*NUMERIC_FLAGS[command], *CHOICE_FLAGS[command], "--compression"]),
        unique=True, max_size=4,
    ))
    # --flag=value, so that argparse reads a value such as -inf as the flag's
    return [command, *SIZE, *(f"{flag}={draw(values_for(flag))}" for flag in flags)]


@st.composite
def sweeps(draw):
    lo, hi = draw(st.tuples(st.none() | st.sampled_from(EXPONENTS),
                            st.none() | st.sampled_from(EXPONENTS)))
    low, high = -3 if lo is None else lo, 1 if hi is None else hi  # the flags' defaults
    if -323 <= low <= high <= 308:
        assume(high - low < 32)
    flags = draw(st.lists(st.sampled_from(SWEEP_FLAGS), unique=True, max_size=2))
    return ["sweep", "--n", "4", "--d", "3", f"--epochs={draw(st.sampled_from([0, 1, 2]))}",
            *([] if lo is None else [f"--a-exp-min={lo}"]),
            *([] if hi is None else [f"--a-exp-max={hi}"]),
            *(f"{flag}={draw(values_for(flag))}" for flag in flags)]


def assert_clean_exit(argv):
    """Run ``argv``; return its exit code and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert out == "" and len(err.splitlines()) == 1 and err.startswith("error: "), err
    return code, err


@settings(max_examples=150, deadline=None)
@given(invocations())
@example(["consensus", *SIZE, f"--value-bits={2**64}"])
@example(["consensus", *SIZE, "--scheme=tracking", "--compression=top_k:2",
          f"--value-bits={10**20}"])
def test_every_edge_value_ends_in_a_clean_exit(argv):
    assert_clean_exit(argv)


@settings(max_examples=100, deadline=None)
@given(sweeps())
@example(["sweep", "--n", "4", "--d", "3", "--epochs=1", "--a-exp-min=309", "--a-exp-max=309"])
@example(["sweep", "--n", "4", "--d", "3", "--epochs=1", "--a-exp-min=-324", "--a-exp-max=-323"])
def test_every_sweep_exponent_ends_in_a_clean_exit(argv):
    assert_clean_exit(argv)


# Per input format: the command that reads a generated file (``{path}``), lines
# that each break the format (or hold a non-finite value), and how an error
# names line ``{k}`` of the file.
FILE_FORMATS = {
    "edges": ("consensus --topology custom --edges-file {path} --d 3 --iters 5",
              ["1 2 3", "1 x", "4", "-1 2", "0 1.5", "a b"], "{path}:{k}: "),
    "init": ("consensus --n {n} --d {d} --iters 5 --init-file {path}",
             ["1 x 2", "spam", "1,5", "nan", "inf 0", "1 2 3 4 5 6"], "init file {path} line {k}: "),
    "libsvm": ("optimize --objective logistic --data {path} --n 2 --iters 5",
               ["spam 1:1", "+1 1:x", "+1 2:1 1:1", "+1 0:1", "+2 1:1", "+1 1:nan", "1:1"],
               "{path}: line {k}: "),
}
SEPARATORS = st.sampled_from([" ", "\t", "  ", " \t"])
SMALL_VALUES = st.sampled_from(["0", "1", "-2", "0.5", "-1e-3", "+3E-1", ".25"])


@st.composite
def data_rows(draw, fmt):
    """The data lines of a well-formed file of ``fmt``, and the sizes it fits."""
    n, d = draw(st.integers(3, 9)), draw(st.integers(1, 5))
    if fmt == "edges":  # a ring, its edges in any order and orientation
        pairs = [draw(st.permutations([i, (i + 1) % n])) for i in range(n)]
        return [[str(i), str(j)] for i, j in draw(st.permutations(pairs))], n, d
    if fmt == "init":
        return [draw(st.lists(SMALL_VALUES, min_size=d, max_size=d)) for _ in range(n)], n, d
    rows = []
    for label in draw(st.permutations(["+1", "-1"] + draw(st.lists(
            st.sampled_from(["+1", "-1", "1", "0"]), max_size=n - 2)))):
        features = sorted(draw(st.sets(st.integers(1, d), min_size=1)))
        rows.append([label, *(f"{j}:{draw(SMALL_VALUES)}" for j in features)])
    return rows, n, d


@st.composite
def generated_files(draw):
    """A format, the text of one of its files with blank and comment lines,
    tabs and trailing comments, the sizes it fits, and the 1-based number of
    its one bad line, if it has one."""
    fmt = draw(st.sampled_from(sorted(FILE_FORMATS)))
    rows, n, d = draw(data_rows(fmt))
    lines = [draw(st.sampled_from(["", " ", "\t"])) + row[0]
             + "".join(draw(SEPARATORS) + token for token in row[1:])
             + draw(st.sampled_from(["", "", " # c", "\t#", "# 1 x 2"])) for row in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))),
                     draw(st.sampled_from(["", " ", "\t", "#", "# a comment", " # 1 x"])))
    bad = None
    if draw(st.booleans()):  # after the first data line, so that it is the line at fault
        first = next(k for k, line in enumerate(lines) if line.split("#")[0].strip())
        bad = draw(st.integers(first + 1, len(lines)))
        lines.insert(bad, draw(st.sampled_from(FILE_FORMATS[fmt][1])))
        bad += 1
    return fmt, "\n".join(lines) + "\n", n, d, bad


@settings(max_examples=150, deadline=None)
@given(generated_files())
def test_every_generated_input_file_ends_in_a_clean_exit(case):
    fmt, text, n, d, bad = case
    command, _, names_line = FILE_FORMATS[fmt]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{fmt}.txt"
        path.write_text(text)
        code, err = assert_clean_exit(command.format(path=path, n=n, d=d).split())
    if bad is None:
        assert code == 0, err
    else:
        assert code == 2 and err.startswith(f"error: {names_line.format(path=path, k=bad)}"), err
