"""Grammar fuzz: text built from the alphabets of the expression, element
and spec-file grammars either parses or raises a RhopfError, never any
other exception; the normal-order, check-r, verify-hopf and verify-modes
command lines always end in exit code 0, 1 or 2."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from rhopf.cli import main, parse_rspec
from rhopf.elemio import parse_element
from rhopf.errors import RhopfError
from rhopf.expr import parse_expr

_EXPR = ("x", "q", "s", "u1", "z1", "z9", "w", "foo", "0", "1", "2", "^",
         "-", "+", "*", "/", "(", ")", " ", ".", "@")
_ELEMENT = ("Phi", "PhiStar", "L", "LStar", "LInv", "LStarInv", "delta",
            "Bogus", "[", "]", "(", ")", "{", "}", ",", "*", "/", "+", "-",
            "(x)", "q[", "z1", "z2", "x", "q", "s", "u1", "0", "1", "2", "-1",
            " ")
_SPEC = ("n=", "var=", "name=", "toggle ", "ll-star", "=", "literal",
         "R[", "]", ",", ";", "#", "\n", " ", "x", "q", "foo", "(", ")",
         "1", "2", "-", "*", "/", "^")

_SETTINGS = settings(max_examples=150, deadline=None, database=None,
                     derandomize=True)


def _text(alphabet):
    return st.lists(st.sampled_from(alphabet), max_size=16).map("".join)


def _parses_or_typed_error(parse, text):
    try:
        parse(text)
    except RhopfError:
        pass


@_SETTINGS
@given(_text(_EXPR))
def test_fuzz_parse_expr(text):
    _parses_or_typed_error(parse_expr, text)


@_SETTINGS
@given(_text(_ELEMENT))
def test_fuzz_parse_element(text):
    _parses_or_typed_error(parse_element, text)


_entry = st.builds("R[{},{};{},{}]={}".format, *[st.sampled_from("012")] * 4,
                   st.one_of(st.sampled_from(("x", "1", "q/(x - 1)")),
                             _text(_EXPR)))


def _spec_text(n, var, statements, sep):
    """Fuzzed statements between a header and a diagonal that would make
    the spec complete."""
    diagonal = [f"R[{i},{j};{i},{j}]=x" for i in range(1, n + 1)
                for j in range(1, n + 1)]
    return sep.join([f"n={n}; var={var}"] + statements + diagonal)


_spec = st.builds(_spec_text, st.sampled_from((1, 2)),
                  st.sampled_from(("x", "q", "z1", "foo", "s", "u1", "w")),
                  st.lists(st.one_of(_entry, _text(_SPEC)), max_size=4),
                  st.sampled_from(("; ", "\n")))


@_SETTINGS
@given(_spec)
def test_fuzz_parse_rspec(text):
    _parses_or_typed_error(parse_rspec, text)


_CLI_GENERATOR = ("Phi[1](z1)", "Phi[2](z2)", "PhiStar[1](z2)",
                  "L[1,2](z1)", "LStar[2,1](z2)", "LInv[1,1](z1)",
                  "Phi[1](z2*q[0,1,0,0])", "{q}*Phi[1](z3)", "delta(z1/z2)",
                  "Phi[0](z1)", "L[1,7](z1)", "Phi[1](s)", "L[1,1](u1)")
_CLI_JUNK = ("(x)", "+", "-", "1", "0", " ", "Bogus", "[", ")", "{", "z1")
_cli_word = st.lists(st.sampled_from(_CLI_GENERATOR), min_size=1,
                     max_size=3).map(" ".join)
_cli_element = st.one_of(
    st.lists(_cli_word, min_size=1, max_size=2).map(" + ".join),
    st.lists(st.sampled_from(_CLI_GENERATOR + _CLI_JUNK),
             max_size=4).map(" ".join))


_toggles = st.lists(st.sampled_from((
    "ll-star=literal", "cross-bracket=literal", "phistar-coproduct=literal",
    "ybe-middle=literal", "ybe-middle=corrected", "ll-star=bogus",
    "bogus=literal", "noequals")), max_size=2)


def _with_toggles(argv, toggles):
    return argv + [arg for t in toggles for arg in ("--toggle", t)]


def _exit_code(argv):
    """Exit code of one command line; an exception other than the usage
    error's SystemExit would escape ``main`` and fail the test."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert "Traceback" not in sink.getvalue()
    return code


@_SETTINGS
@given(st.sampled_from(("example1", "example2-n2")),
       st.sampled_from(("particle", "extended", "double", "double",
                        "bogus")),
       _toggles, _cli_element)
def test_fuzz_cli_normal_order_exit_codes(instance, flavor, toggles, text):
    argv = _with_toggles(["normal-order", "--instance", instance,
                          "--flavor", flavor], toggles)
    assert _exit_code(argv + ["--", text]) in (0, 1, 2)


@pytest.fixture(scope="module")
def spec_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.rspec"


@settings(max_examples=100, deadline=None, database=None,
          derandomize=True)
@given(_spec, _toggles)
def test_fuzz_cli_check_r_exit_codes(spec_path, text, toggles):
    spec_path.write_text(text, encoding="utf-8")
    argv = ["check-r", "--spec", str(spec_path)]
    assert _exit_code(_with_toggles(argv, toggles)) in (0, 1, 2)


@settings(max_examples=25, deadline=None, database=None,
          derandomize=True)
@given(st.sampled_from(("example1", "identity", "broken-nonunitary")),
       st.sampled_from(("extended", "double", "particle")), _toggles)
def test_fuzz_cli_verify_hopf_exit_codes(instance, flavor, toggles):
    argv = ["verify-hopf", "--instance", instance, "--flavor", flavor]
    assert _exit_code(_with_toggles(argv, toggles)) in (0, 1, 2)


_window = st.sampled_from((-1, 0, 1, 2, 3))


@settings(max_examples=25, deadline=None, database=None,
          derandomize=True)
@given(st.sampled_from(("example1", "example2-n2")),
       st.sampled_from(("particle", "extended", "double")), _window,
       _window, _toggles)
def test_fuzz_cli_verify_modes_exit_codes(instance, flavor, window, margin,
                                          toggles):
    argv = ["verify-modes", "--instance", instance, "--flavor", flavor,
            "--window", str(window), "--margin", str(margin)]
    assert _exit_code(_with_toggles(argv, toggles)) in (0, 1, 2)
