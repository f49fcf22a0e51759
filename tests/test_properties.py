"""Property tests: the parser's round-trip law and the CLI exit-code contract."""

import io
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import given, settings
from hypothesis import strategies as st

from jetdiff.cli import main
from jetdiff.jets import JetSpec
from jetdiff.parsing import parse_polynomial
from jetdiff.poly import SparsePolynomial, mono_from_pairs

# Few examples, fixed seed, no example database: the suite stays fast,
# deterministic and independent of earlier runs.
FAST = settings(max_examples=50, deadline=None, database=None, derandomize=True)

SPEC = JetSpec(3, 3)

coefficients = st.fractions(min_value=-50, max_value=50, max_denominator=12).filter(bool)
monomials = st.lists(
    st.tuples(st.sampled_from(SPEC.jet_variables()), st.integers(1, 4)), max_size=4
).map(mono_from_pairs)
jet_polynomials = st.dictionaries(monomials, coefficients, max_size=6).map(SparsePolynomial)


@FAST
@given(jet_polynomials)
def test_printed_jet_polynomial_reparses(p):
    assert parse_polynomial(str(p), SPEC) == p


# Each flag draws a plausible value most of the time and junk (a wrong
# type, an empty string or arbitrary text) otherwise.
JUNK = st.sampled_from(["", "x", "2.5", "((", "f9'", "a1", "1,1;1,1", "8:6"]) | st.text(max_size=8)
VALUES = {
    "--rank": [str(n) for n in range(0, 6)],
    "--order": [str(n) for n in range(0, 6)],
    "--weight": [str(n) for n in range(-1, 6)],
    "--m": [str(n) for n in range(2, 7)],
    "--poly": ["f1'*f2'' - f2'*f1''", "f1'^3", "f1' + f1''", "2/3*f2'^2*f1'''"],
    "--map": ["w1 = z1; w2 = z2 + z1^2", "w1 = z2; w2 = z1", "w1 = z1", "w1 = 2 z1 - z2; w2 = z1"],
    "--point": ["0,0", "1,2", "0", "1/2,-1"],
    "--matrix": ["1,0;0,1", "2,1;1,1", "0,1;1,0", "1"],
    "--slope": ["0", "1/2", "-3"],
    "--d": ["6", "6:8", "5"],
    "--upper-bound": ["-1/3", "0", "1"],
}
SHAPE = ("--rank", "--order")
COMMANDS = {
    "basis": SHAPE + ("--weight",),
    "dim": SHAPE + ("--weight",),
    "decompose": SHAPE + ("--weight",),
    "verify": SHAPE + ("--poly",),
    "transition": SHAPE + ("--weight", "--map", "--point"),
    "associated": SHAPE + ("--weight", "--matrix"),
    "v1": ("--map", "--point", "--slope"),
    "theta": ("--d", "--m", "--upper-bound"),
    "nonsense": ("--rank",),
}


def flag_value(flag):
    plausible = st.sampled_from(VALUES[flag])
    return st.integers(0, 5).flatmap(lambda n: plausible if n else JUNK)


@st.composite
def argvs(draw):
    """One subcommand with each of its flags present most of the time."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    argv = [command]
    for flag in COMMANDS[command]:
        if draw(st.integers(0, 9)):
            argv += [flag, draw(flag_value(flag))]
    if draw(st.booleans()):
        argv.append("--json")
    return argv


@settings(FAST, max_examples=100)
@given(argvs())
def test_cli_exit_code_contract(argv):
    # Every call ends in a documented exit code; nothing escapes as a
    # traceback.
    sink = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(sink):
        code = main(argv)
    assert code in (0, 1, 2, 3)
