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
32 values.
"""

import contextlib
import io

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
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 2:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err


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
