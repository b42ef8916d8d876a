"""Element text round trips, spec-file ingestion, CLI plans, exit codes,
report determinism and residual re-parsing."""

import hashlib
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from rhopf import algebra, modes, rmatrix, symfield
from rhopf.algebra import (ALL_KINDS, VECTOR_KINDS, ArgShift, DeltaFactor,
                           Element, GenOcc, L, LINV, LSTAR, PHI,
                           RewriteSystem, normal_order)
from rhopf.cli import main, parse_rspec
from rhopf.elemio import format_element, parse_element
from rhopf.errors import DomainError, ParseError
from rhopf.expr import MAX_DEPTH, parse_expr
from rhopf.instances import get_instance
from rhopf.symfield import VAR_INDEX, RatExpr, Z, mono, q_power
from test_symfield import fallback_sums

Z1, Z2 = Z[0], Z[1]


# -- element text -------------------------------------------------------------

def _round_trip(e):
    return parse_element(format_element(e))


def test_element_round_trip_simple():
    e = Element.word((GenOcc(PHI, 1, 0, ArgShift(Z1)),))
    assert _round_trip(e) == e


def test_element_round_trip_with_coeff_shift_delta():
    d = DeltaFactor(Z1, Z2, q_power(0, -2, 0, 0))
    lstar = GenOcc(LSTAR, 1, 2, ArgShift(Z2, q_power(0, 1, 0, 0)))
    e = Element(1, {
        ("", (d,), ((lstar,),)): parse_expr("q/(q^2-1)"),
        ("", (), ((GenOcc(PHI, 2, 0, ArgShift(Z1, q_power(1, 0, 0, 0))),
                   GenOcc(L, 1, 1, ArgShift(Z2))),)): parse_expr("-3")})
    assert _round_trip(e) == e


def test_terms_print_in_the_order_of_their_shift_text():
    """Terms that differ only in a shift print in the order of the shift's
    text vector q[h0,h1,h2,h3], not in that of the q-power monomials."""
    text = ("L[1,1](z1*q[0,1,0,0]) + L[1,1](z1*q[0,-1,0,0]) "
            "+ L[1,1](z1*q[1,0,0,0]) + L[1,1](z1*q[0,0,-1,0]) + L[1,1](z1)")
    assert format_element(parse_element(text)) == (
        "L[1,1](z1*q[0,-1,0,0]) + L[1,1](z1*q[0,0,-1,0]) + L[1,1](z1) "
        "+ L[1,1](z1*q[0,1,0,0]) + L[1,1](z1*q[1,0,0,0])")


def test_element_round_trip_multileg_and_unit():
    key = ("", (), ((GenOcc(PHI, 1, 0, ArgShift(Z1)),), ()))
    e = Element(2, {key: RatExpr.from_int(1)}) + Element.unit(2)
    assert _round_trip(e) == e


_ZVARS = [VAR_INDEX[name] for name in ("z1", "z2", "z9", "x", "w")]
_shift = st.one_of(st.just(q_power()),
                   st.tuples(*[st.integers(-3, 3)] * 4).map(
                       lambda h: q_power(*h)))
_occ = st.builds(
    lambda kind, row, col, var, q: GenOcc(
        kind, row, 0 if kind in VECTOR_KINDS else col, ArgShift(var, q)),
    st.sampled_from(sorted(ALL_KINDS)), st.integers(1, 3),
    st.integers(1, 3), st.sampled_from(_ZVARS), _shift)
_delta = st.builds(lambda ab, q: DeltaFactor(*sorted(ab), q),
                   st.lists(st.sampled_from(_ZVARS), min_size=2, max_size=2,
                            unique=True), _shift)
_small = st.sampled_from(("s", "x", "z1", "u1"))
_coeff = st.one_of(
    st.sampled_from((1, -1, 2, -3)).map(RatExpr.from_int),
    st.builds(lambda c, v, e, d: RatExpr(
        {mono(**{v: e}): c, mono(): 1},
        {mono(): d} if d else {mono(s=2): 1, mono(): -1}),
        st.sampled_from((1, -2, 3)), _small, st.integers(-2, 2),
        st.sampled_from((0, 1, 2)))).filter(lambda c: not c.is_zero())


@st.composite
def _elements(draw):
    nlegs = draw(st.sampled_from((1, 2)))
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        legs = tuple(tuple(draw(st.lists(_occ, max_size=2)))
                     for _ in range(nlegs))
        deltas = tuple(sorted(draw(st.lists(_delta, max_size=2))))
        terms[("", deltas, legs)] = draw(_coeff)
    return Element(nlegs, terms)


@settings(max_examples=150, deadline=None, database=None,
          derandomize=True)
@given(_elements())
def test_element_round_trip_property(e):
    """Every kind, shifts, deltas and field coefficients on one or two
    legs print to text that parses back to the same element."""
    assert _round_trip(e) == e


def test_element_index_count_per_kind():
    """Vector kinds take one index and matrix kinds two; the error points
    at the index."""
    for text, msg, col in (("L[1](z2)", "L takes two indices", 4),
                           ("Phi[1,2](z2)", "Phi takes one index", 7),
                           ("PhiStar[2, 1](z1)", "PhiStar takes one index",
                            12),
                           ("LStar[1 ](z1)", "LStar takes two indices", 9)):
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert str(err.value).startswith(msg)
        assert (err.value.line, err.value.col) == (1, col)
    assert parse_element("LInv[ 1 , 2 ](z1)") == Element.word(
        (GenOcc(LINV, 1, 2, ArgShift(Z1)),))


def test_element_coefficient_error_counts_from_the_element_text():
    with pytest.raises(ParseError) as err:
        parse_element("Phi[1](z2) + {q + foo} * Phi[2](z1)")
    assert (err.value.line, err.value.col) == (1, 19)
    with pytest.raises(ParseError) as err:
        parse_element("Phi[1](z2)\n + {q +\n  foo} * Phi[2](z1)")
    assert (err.value.line, err.value.col) == (3, 3)
    with pytest.raises(ParseError) as err:
        parse_element("Phi[1](z2)\n + {q + z1^} * Phi[2](z1)")
    assert (err.value.line, err.value.col) == (2, 12)


def test_element_parse_errors():
    with pytest.raises(ParseError):
        parse_element("Phi[1](z1) +")
    with pytest.raises(ParseError):
        parse_element("Bogus[1](z1)")
    with pytest.raises(ParseError):
        parse_element("Phi[1](q)")  # not a spectral variable... parsed
    with pytest.raises(ParseError):
        parse_element("{x +} * Phi[1](z1)")
    with pytest.raises(ParseError):
        parse_element("{x + 1 * Phi[1](z1)")


def test_element_unknown_kind_is_named(capsys):
    """A name followed by an index list that is no generator kind is
    reported as such, where it stands, also in an old spelling."""
    for text, name, pos in (
            ("Bogus[1](z1)", "Bogus", (1, 1)),
            ("Lstar[1,1](z1)", "Lstar", (1, 1)),
            ("Phi[1](z1) Linv[1,1](z1)", "Linv", (1, 12)),
            ("Phi[1](z1) (x) LStarinv[1, 2](z2)", "LStarinv", (1, 16)),
            ("Phi[1](z2)\n + {x} * Bogus [2](z1)", "Bogus", (2, 10))):
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert str(err.value).startswith(f"unknown generator kind {name!r}")
        assert (err.value.line, err.value.col) == pos
    assert main(["normal-order", "--instance", "example1",
                 "Lstar[1,1](z1)"]) == 2
    assert capsys.readouterr().err == (
        "error: unknown generator kind 'Lstar' (line 1, col 1)\n")


def test_element_leg_count_error_points_at_the_term(capsys):
    """A term whose leg count differs from the first term's is reported
    where that term starts, its coefficient included, not where it
    ends."""
    for text, nlegs, pos in (
            ("Phi[1](z1) (x) 1 + Phi[1](z1)", 2, (1, 20)),
            ("Phi[1](z1) (x) 1 - {q} * Phi[1](z1) (x) 1 (x) 1", 2, (1, 20)),
            ("Phi[1](z1)\n + 1 (x) Phi[1](z1)", 1, (2, 4))):
        with pytest.raises(ParseError) as err:
            parse_element(text)
        assert str(err.value).startswith(f"expected {nlegs} tensor legs")
        assert (err.value.line, err.value.col) == pos
    assert main(["normal-order", "--instance", "example1",
                 "Phi[1](z1) (x) 1 + Phi[1](z1)"]) == 2
    assert capsys.readouterr().err == (
        "error: expected 2 tensor legs (line 1, col 20)\n")


def test_element_unclosed_coefficient_ends_where_its_sum_does():
    """The field grammar reads the coefficient from the element's own
    tokens, so an unclosed brace is reported after the last term of the
    sum."""
    with pytest.raises(ParseError) as err:
        parse_element("{x + 1")
    assert str(err.value) == "expected '}' (line 1, col 7)"


def test_element_whitespace_is_insignificant_between_tokens():
    compact = "{q^2} * L[1,2](z1*q[0,-1,0,0]) (x) delta(z1/z2*q[1,0,0,0])"
    spaced = ("{ q ^ 2 } * L [ 1 , 2 ] ( z1 * q [ 0 , - 1 , 0 , 0 ] ) ( x ) "
              "delta ( z1 / z2 * q [ 1 , 0 , 0 , 0 ] )")
    assert parse_element(spaced) == parse_element(compact)
    assert parse_element("Phi[1](z1) (\n x\n ) 1").nlegs == 2


def test_normal_ordered_output_reparses():
    rs = RewriteSystem(get_instance("example1"), "double")
    e = parse_element("Phi[1](z1) PhiStar[1](z2)")
    out = normal_order(e, rs)
    assert parse_element(format_element(out)) == out


# -- spec files ---------------------------------------------------------------

SPEC_OK = """
# scalar instance
n=1; var=x
R[1,1;1,1] = (x - q^2)/(x*q^2 - 1)
"""


def test_parse_rspec_matches_builtin():
    R, toggles = parse_rspec(SPEC_OK)
    assert toggles == {}
    builtin = get_instance("example1")
    assert R.n == builtin.n and R.entries == builtin.entries


def test_parse_rspec_identity_entry():
    R, _ = parse_rspec("n=1; var=x; R[1,1;1,1]=1")
    assert R.entries[(1, 1, 1, 1)] == 1


def test_parse_rspec_example2_shape():
    lines = ["n=2; var=x"]
    for i, j in ((1, 1), (2, 2)):
        lines.append(f"R[{i},{j};{i},{j}] = (x - q^2)/(x*q^2 - 1)")
    for i, j in ((1, 2), (2, 1)):
        lines.append(f"R[{i},{j};{i},{j}] = (x - q^-1)/(x*q^-1 - 1)")
    R, _ = parse_rspec("\n".join(lines))
    assert R.entries == get_instance("example2-n2").entries


def test_parse_rspec_toggles_and_name():
    R, toggles = parse_rspec(
        "n=1; var=x; name=demo\ntoggle cross-bracket=literal\n"
        "R[1,1;1,1]=x")
    assert R.name == "demo"
    assert toggles == {"cross-bracket": "literal"}


def test_parse_rspec_syntax_error_location():
    with pytest.raises(ParseError) as err:
        parse_rspec("n=1; var=x\nR[1,1;1,1] = (x -")
    assert err.value.line == 2


def test_parse_rspec_value_error_counts_from_the_spec_text():
    with pytest.raises(ParseError) as err:
        parse_rspec("n=1\nvar=x\nR[1,1;1,1] = (x - q)/(x + foo)")
    assert (err.value.line, err.value.col) == (3, 27)
    with pytest.raises(ParseError) as err:
        parse_rspec("n=1; var=x; R[1,1;1,1] = (x - q)/(x + foo)  # c")
    assert (err.value.line, err.value.col) == (1, 39)


def test_parse_rspec_index_error():
    with pytest.raises(ParseError) as err:
        parse_rspec("n=1; var=x\nR[1,1;1,1]=x; R[1,2;1,1]=x")
    assert err.value.line == 2
    assert err.value.col == 19  # the "2" in R[1,2;1,1]


def test_parse_rspec_statement_errors_point_into_the_statement():
    for text, pos in (("var=x; n=0", (1, 10)),
                      ("n=1; var=x;  bogus stuff", (1, 14)),
                      ("n=1\n  R[1,1;1,1] = x; var=x", (2, 3))):
        with pytest.raises(ParseError) as err:
            parse_rspec(text)
        assert (err.value.line, err.value.col) == pos


def test_parse_rspec_empty_row_rejected():
    with pytest.raises(ParseError):
        parse_rspec("n=2; var=x; R[1,1;1,1]=x")


@pytest.mark.parametrize("first, second", [("5", "0"), ("0", "5"),
                                           ("5", "5")])
def test_parse_rspec_repeated_entry_rejected(first, second, tmp_path,
                                             capsys):
    """A repeated entry is an error at the repeated statement, whichever
    of the two values is zero, and also when the two agree."""
    text = ("n=2; var=x\nR[1,1;1,1] = 1; R[2,2;2,2] = 1\n"
            "R[1,2;1,2] = 1; R[2,1;2,1] = 1\n"
            f"R[1,2;2,1] = {first}\n  R[1,2;2,1] = {second}\n")
    with pytest.raises(ParseError) as err:
        parse_rspec(text)
    assert (err.value.line, err.value.col) == (5, 3)
    assert "entry R[1,2;2,1] is given twice" in str(err.value)
    spec = tmp_path / "repeated.spec"
    spec.write_text(text)
    assert main(["check-r", "--spec", str(spec)]) == 2
    assert "R[1,2;2,1] is given twice" in capsys.readouterr().err


@pytest.mark.parametrize("text, key, pos", [
    # after n = 2 entries: the smaller n would put them out of range
    ("n=2; var=x\nR[1,1;1,1] = 1; R[2,2;2,2] = 1\n"
     "R[1,2;1,2] = 1; R[2,1;2,1] = 1\n  n=1\n", "n", (4, 3)),
    # after x entries: a new variable would not match them
    ("n=1; var=x\nR[1,1;1,1] = x\nvar=w; name=late\n", "var", (3, 1)),
    # after one n = 1 entry: the larger n would leave rows empty
    ("n=1; var=x; R[1,1;1,1] = x;  n=2\n", "n", (1, 30)),
    # restated with the same value, and before any entry
    ("var=x; n=1; var=x\nR[1,1;1,1] = x\n", "var", (1, 13)),
    ("n=1; var=x; name=a\nname=b\nR[1,1;1,1] = x\n", "name", (2, 1))])
def test_parse_rspec_repeated_header_rejected(text, key, pos, tmp_path,
                                              capsys):
    """A header stated twice is an error at the second statement, as a
    repeated entry is, whatever came between the two."""
    with pytest.raises(ParseError) as err:
        parse_rspec(text)
    assert (err.value.line, err.value.col) == pos
    assert f"{key}= is given twice" in str(err.value)
    spec = tmp_path / "repeated.spec"
    spec.write_text(text)
    assert main(["check-r", "--spec", str(spec)]) == 2
    assert f"{key}= is given twice" in capsys.readouterr().err


# -- CLI plans ----------------------------------------------------------------

def test_check_r_passes_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["check-r", "--instance", "example1", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["instance"] == "example1"
    ids = [c["check_id"] for c in payload["checks"]]
    assert ids == ["ybe-middle-prod", "ybe-middle-ratio", "unitarity",
                   "clear-poles"]
    assert all(c["status"] == "pass" for c in payload["checks"])
    assert "wall_time" not in json.dumps(payload)


@pytest.mark.parametrize("argv", [
    ["check-r", "--instance", "example1"],
    ["verify-hopf", "--instance", "example1"]],
                         ids=["check-r", "verify-hopf"])
def test_timings_add_only_wall_times(argv, tmp_path):
    """With ``--timings`` every check entry carries a float ``wall_time``;
    without those keys the report is the same run's report without the
    flag, byte for byte."""
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert main([*argv, "--out", str(plain)]) == 0
    assert main([*argv, "--timings", "--out", str(timed)]) == 0
    payload = json.loads(timed.read_text())
    assert payload["checks"]
    for entry in payload["checks"]:
        assert isinstance(entry.pop("wall_time"), float)
    stripped = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    assert stripped.encode() == plain.read_bytes()


def test_clear_poles_fails_when_a_pole_is_left(tmp_path, monkeypatch):
    """A clearing factor of 1 leaves the pole of example1's one entry, and
    clear-poles, alone among the checks, fails and names that entry."""
    monkeypatch.setattr(rmatrix, "denominator_lcm", lambda coeffs: {0: 1})
    out = tmp_path / "report.json"
    assert main(["check-r", "--instance", "example1",
                 "--out", str(out)]) == 1
    by_id = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert [cid for cid, c in by_id.items() if c["status"] == "fail"] == \
        ["clear-poles"]
    assert by_id["clear-poles"]["residual"] == \
        "entries with uncleared poles: [(1, 1, 1, 1)]"


def test_check_r_fails_broken_and_residual_reparses(tmp_path):
    out = tmp_path / "report.json"
    code = main(["check-r", "--instance", "broken-nonunitary",
                 "--out", str(out)])
    assert code == 1
    payload = json.loads(out.read_text())
    by_id = {c["check_id"]: c for c in payload["checks"]}
    assert by_id["unitarity"]["status"] == "fail"
    residual = by_id["unitarity"]["residual"]
    exprs = re.findall(r"\]\s([^;]+)(?:;|$)", residual)
    assert exprs
    got = parse_expr(exprs[0].strip())
    assert got == parse_expr("x + 1 + x^-1")


def test_reports_byte_identical_across_runs(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        assert main(["verify-hopf", "--instance", "example1",
                     "--flavor", "double", "--out", str(path)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_runs_in_one_process_take_the_same_rewrite_steps(tmp_path,
                                                         monkeypatch):
    """The word and image caches live with one run's rule table, so a
    second run in the same process writes the same report and takes the
    same ``normal_order`` steps as the first."""
    steps = []
    inner = algebra.normal_order

    def traced(e, rs, trace=None, **kw):
        return inner(e, rs, steps, **kw)

    monkeypatch.setattr(algebra, "normal_order", traced)
    reports, runs = [], []
    for name in ("a.json", "b.json"):
        steps.clear()
        assert main(["verify-hopf", "--instance", "example2-n2", "--flavor",
                     "double", "--out", str(tmp_path / name)]) == 0
        reports.append((tmp_path / name).read_bytes())
        runs.append(list(steps))
    assert reports[0] == reports[1]
    assert runs[0] == runs[1] and runs[0]


def test_each_run_starts_with_a_cold_memo(monkeypatch, capsys):
    """A run redoes every product, sum and substitution an earlier run in
    the same process memoized, and builds every value anew, so its work
    does not depend on what ran before: a memo that outlived a run would
    spare the second run trial divisions (``_trial_cancel``), which every
    product or sum missed over factored denominators takes, or monomial
    substitutions (``subs_mono``), which every substitution missed in the
    field or in an argument (``algebra._subs_arg``) takes, and a value
    table that outlived it would spare it serial numbers, which every new
    value takes."""
    trials, substs = [], []
    trial_cancel = symfield._trial_cancel
    subs_mono = symfield.subs_mono

    def counted_trial(t, fac):
        trials.append(1)
        return trial_cancel(t, fac)

    def counted_subs(m, smap):
        substs.append(1)
        return subs_mono(m, smap)

    monkeypatch.setattr(symfield, "_trial_cancel", counted_trial)
    monkeypatch.setattr(symfield, "subs_mono", counted_subs)
    monkeypatch.setattr(algebra, "subs_mono", counted_subs)
    # empty memos, whatever earlier tests left in them: the first run is
    # cold, so a memo that outlives a run shows as a smaller second count
    symfield.reset_memo()
    counts = []
    for _ in range(2):
        trials.clear()
        substs.clear()
        first = next(symfield._SERIALS)
        assert main(["verify-hopf", "--instance", "example2-n2"]) == 0
        counts.append((len(trials), len(substs),
                       next(symfield._SERIALS) - first))
    assert counts[0] == counts[1] and min(counts[0]) > 0


def test_each_mode_run_starts_with_cold_mode_tables(monkeypatch, capsys):
    """A ``verify-modes`` run clears every coefficient an earlier run in
    the same process cleared: a piece shape (``modes._SHAPES``) that
    outlived a run would spare the second run ``clear_denominator``
    calls, which every shape missed takes."""
    calls = []
    clear_denominator = modes.clear_denominator

    def counted(c, clear):
        calls.append(1)
        return clear_denominator(c, clear)

    monkeypatch.setattr(modes, "clear_denominator", counted)
    # empty tables, whatever earlier tests left in them: the first run is
    # cold, so a table that outlives a run shows as a smaller second count
    symfield.reset_memo()
    counts = []
    for _ in range(2):
        calls.clear()
        assert main(["verify-modes", "--instance", "example2-n3",
                     "--window", "5"]) == 0
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def test_relations_self_normalize_fails_on_a_wrong_inverse(tmp_path,
                                                          monkeypatch):
    """R taken for its own inverse puts wrong rules in the rewrite system:
    relations-self-normalize fails, from the first L L relation on, and so
    does every homomorphism check but hom-PhiPhistar; the braid check and
    the axioms pass."""
    monkeypatch.setattr(rmatrix.RMatrix, "inverse_entries",
                        lambda self: dict(self.entries))
    out = tmp_path / "report.json"
    assert main(["verify-hopf", "--instance", "example2-n2",
                 "--out", str(out)]) == 1
    by_id = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert [cid for cid, c in by_id.items() if c["status"] == "fail"] == [
        "relations-self-normalize", "hom-PhiPhi", "hom-PhiL", "hom-LL",
        "hom-LstarLstar", "hom-LLstar", "hom-PhistarPhistar",
        "hom-PhistarLstar", "hom-PhistarL", "hom-PhiLstar"]
    assert by_id["relations-self-normalize"]["residual"].startswith(
        "LL(1, 1, 1, 1): ")


def test_verify_hopf_literal_toggle_fails(tmp_path):
    code = main(["verify-hopf", "--instance", "example1",
                 "--toggle", "cross-bracket=literal",
                 "--out", str(tmp_path / "r.json")])
    assert code == 1


def test_verify_modes_cli(tmp_path):
    code = main(["verify-modes", "--instance", "example1", "--window", "4",
                 "--out", str(tmp_path / "m.json")])
    assert code == 0
    payload = json.loads((tmp_path / "m.json").read_text())
    ids = {c["check_id"]: c["status"] for c in payload["checks"]}
    assert ids == {"mode-consistency": "pass", "drinfeld-compare": "pass"}


def test_verify_modes_skips_reference_for_other_instances(tmp_path):
    code = main(["verify-modes", "--instance", "example2-n2",
                 "--flavor", "extended", "--window", "4",
                 "--out", str(tmp_path / "m.json")])
    assert code == 0
    payload = json.loads((tmp_path / "m.json").read_text())
    by_id = {c["check_id"]: c["status"] for c in payload["checks"]}
    assert by_id["drinfeld-compare"] == "skipped"


def test_cli_spec_file_input(tmp_path):
    spec = tmp_path / "r.spec"
    spec.write_text(SPEC_OK)
    assert main(["check-r", "--spec", str(spec)]) == 0


def test_cli_malformed_spec_exits_2(tmp_path):
    spec = tmp_path / "bad.spec"
    spec.write_text("n=1; var=x; R[1,1;1,1] = (")
    assert main(["check-r", "--spec", str(spec)]) == 2


def test_cli_spec_without_header_exits_2(tmp_path, capsys):
    """A spec file with neither a header nor an entry names the missing
    header, at the start of the file."""
    spec = tmp_path / "blank.spec"
    for text in ("", "name=blank\n"):
        spec.write_text(text)
        assert main(["check-r", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: missing n= or var= header (line 1, col 1)\n")


def test_cli_spec_exponent_past_the_bound_exits_2(tmp_path, capsys):
    """An exponent that does not fit a monomial field is a typed error,
    not a wrapped exponent and not a crash."""
    spec = tmp_path / "big.spec"
    spec.write_text("n=1; var=x\nR[1,1;1,1] = (x^2000000000 - q^2)/"
                    "(x*q^2 - 1)\n")
    assert main(["check-r", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "out of range" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("entry, message", [
    ("(x - q^2)/(x*q^2 - 1) + 1/0", "division by zero (line 2, col 39)"),
    ("(x^2000000000 - q^2)/(x*q^2 - 1)",
     "monomial exponent out of range [-2^30, 2^30) (line 2, col 16)"),
    # the lcm of the sum multiplies x^(2^30 - 1) by x - 1
    ("x^1073741823 + 1/(x - 1)",
     "monomial exponent out of range [-2^30, 2^30) (line 2, col 27)"),
], ids=["division", "power", "sum"])
def test_cli_spec_field_error_names_its_operator(entry, message, tmp_path,
                                                 capsys):
    """A field error raised by an operator of a spec entry is a parse error
    at that operator, caused by the field error."""
    spec = tmp_path / "bad.spec"
    spec.write_text(f"n=1; var=x\nR[1,1;1,1] = {entry}\n")
    assert main(["check-r", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(ParseError) as err:
        parse_rspec(spec.read_text())
    assert isinstance(err.value.__cause__, DomainError)


def test_cli_normal_order_coefficient_error_names_its_operator(capsys):
    assert main(["normal-order", "--instance", "example1",
                 "{(x - x)^-1} * Phi[1](z1)"]) == 2
    assert capsys.readouterr().err == (
        "error: inverse of zero (line 1, col 9)\n")


def test_cli_spec_unknown_variable_exits_2(tmp_path, capsys):
    """var= takes a spectral variable only: s (= q^(1/2)) and u1
    (= q^(c_1/2)) are field constants, so example1's unitary matrix
    written in one of them is an error, not a matrix whose spectral
    variable coincides with the constant."""
    spec = tmp_path / "bad.spec"
    for var in ("foo", "s", "u1"):
        spec.write_text(f"n=1; var={var}\n"
                        f"R[1,1;1,1] = ({var} - q^2)/({var}*q^2 - 1)\n")
        assert main(["check-r", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "(line 1, col 10)" in err
    R, _ = parse_rspec("n=1; var=w\nR[1,1;1,1] = (w - q^2)/(w*q^2 - 1)")
    assert R.var == "w"


def test_cli_spec_foreign_variable_exits_2(tmp_path, capsys):
    """An entry may depend on the spectral variable and q only; the
    R-matrix rejects any other variable before any check runs."""
    spec = tmp_path / "bad.spec"
    spec.write_text("n=1; var=x\nR[1,1;1,1] = 1/(x - w)\n")
    assert main(["check-r", "--spec", str(spec)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "depends on variables other than x and q" in err


# A unitary 1x1 matrix, R(x)*R(1/x) = 1, whose denominator is a trinomial
# and so has no binomial factorization: its sums go through the
# constructor's gcd.  The digests are those of the byte-stable reports.
TRINOMIAL_SPEC = """n=1; var=x
name=trinomial
R[1,1;1,1] = (x^2 + x + q^2)/(q^2*x^2 + x + 1)
"""
TRINOMIAL_DIGESTS = {
    "check-r":
        "bc76183a27fa10827b015f0fc337a5e48a309a74edcec9c2073f398b606fa831",
    "verify-hopf":
        "e921ea9f6f0bbe2277aa010a345b64caadb457fe84b527639390c8882815e51b",
    "verify-modes":
        "0ca4278ecb4bd704a352257a9cdefa028fda12dfd20e721c538041343e2860a1",
}


@pytest.mark.parametrize("command", sorted(TRINOMIAL_DIGESTS))
def test_unfactored_denominator_end_to_end(command, tmp_path):
    spec = tmp_path / "trinomial.spec"
    spec.write_text(TRINOMIAL_SPEC)
    out = tmp_path / "report.json"
    with fallback_sums() as spy:
        assert main([command, "--spec", str(spec), "--out", str(out)]) == 0
    assert spy.call_count > 0
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == TRINOMIAL_DIGESTS[command])


# Byte-stable ``verify-modes`` reports of inputs the benchmark does not
# pin: (arguments, exit code, sha256 of the report).
SIXVERTEX_SPEC = str(Path(__file__).resolve().parents[1] / "verdictbench"
                     / "sixvertex.rspec")
MODES_REPORTS = [
    (["--spec", SIXVERTEX_SPEC, "--window", "5"], 0,
     "15114b1ab14340a9eaa4894c8cf150f8ba0e2cdb9e4ab4591a1b1f2585eb1f76"),
    (["--instance", "example2-n2", "--flavor", "extended"], 0,
     "63ee08eb37c5d1b4cddada28953fca763155db1f4b448ba8557f880e67974035"),
    (["--instance", "example2-n3", "--toggle", "ll-star=literal"], 1,
     "7a0dd1d24673fc8b0aac39d12837191d8f71bacbafb8d6c3be0fc58c85085707"),
    (["--instance", "example1", "--margin", "2"], 0,
     "267cb3fa4ee0f6c871b9888d8a8f5abbfacfb47b8f74f9d24282b9ca7ffbbd53"),
]


@pytest.mark.parametrize("args, code, digest", MODES_REPORTS,
                         ids=["six-vertex-w5", "n2-extended",
                              "n3-ll-star-literal", "example1-margin2"])
def test_verify_modes_reports_are_pinned(args, code, digest, tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-modes", *args, "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The six-vertex matrix with R[1,2;1,2] alone times q^2, a one-sided
# scaling (R[2,1;2,1] is not divided by q^2).  It breaks the Yang-Baxter
# equation and unitarity, which check-r and verify-hopf see; verify-modes,
# quadratic in the generators, assumes check-r passes and does not.
ONE_SIDED_SPEC = Path(SIXVERTEX_SPEC).read_text().replace(
    "R[1,2;1,2] = q*(x - 1)", "R[1,2;1,2] = q^3*(x - 1)")


@pytest.mark.parametrize("command, fails", [
    ("check-r", {"ybe-middle-prod", "ybe-middle-ratio", "unitarity"}),
    ("verify-hopf", {"braid-consistency", "build-rules"}),
    ("verify-modes", set()),
], ids=["check-r", "verify-hopf", "verify-modes"])
def test_verify_modes_passes_a_one_sided_scaling(command, fails, tmp_path):
    assert "q^3" in ONE_SIDED_SPEC
    spec = tmp_path / "one-sided.spec"
    spec.write_text(ONE_SIDED_SPEC)
    out = tmp_path / "report.json"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == \
        (1 if fails else 0)
    checks = json.loads(out.read_text())["checks"]
    assert {c["check_id"] for c in checks if c["status"] == "fail"} == fails


# A 1x1 entry whose reduced denominator keeps the integer content 2,
# which the primitive clearing factor leaves out: (toggles, exit code,
# sha256 of the byte-stable ``verify-modes`` report).
CONTENT_SPEC = "n=1; var=x\nR[1,1;1,1] = x/(2*x - 2)\n"
CONTENT_REPORTS = [
    ([], 0,
     "cbef3a7e598ffcfd7a17c6da58869510fa87c3149d3afbd7a0789c4f4bc2dfa0"),
    (["--toggle", "ll-star=literal"], 1,
     "57d822820d59c27a05003efac1ed013155b7c0aa4de435deec76bad6ba3f4721"),
]


@pytest.mark.parametrize("toggles, code, digest", CONTENT_REPORTS,
                         ids=["corrected", "ll-star-literal"])
def test_verify_modes_denominator_with_integer_content(toggles, code,
                                                       digest, tmp_path):
    spec = tmp_path / "content.spec"
    spec.write_text(CONTENT_SPEC)
    out = tmp_path / "report.json"
    assert main(["verify-modes", "--spec", str(spec), *toggles,
                 "--out", str(out)]) == code
    report = json.loads(out.read_text())
    assert all("note" not in c for c in report["checks"]
               if c["check_id"] == "mode-consistency")
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_cli_spec_toggle_error_has_position(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    for toggle, msg in (("ll-star=bogus", "must be 'corrected' or 'literal'"),
                        ("bogus-name=literal", "unknown toggle")):
        spec.write_text(f"n=1; var=x\n  toggle {toggle}\nR[1,1;1,1] = x\n")
        assert main(["check-r", "--spec", str(spec)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and msg in err
        assert "(line 2, col 3)" in err


def test_cli_spec_not_utf8_exits_2(tmp_path, capsys):
    spec = tmp_path / "bad.spec"
    spec.write_bytes(b"n=1; var=x\nR[1,1;1,1] = x  # \xff\n")
    assert main(["check-r", "--spec", str(spec)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_bad_toggle_exits_2():
    assert main(["check-r", "--instance", "example1",
                 "--toggle", "nonsense=corrected"]) == 2


def test_cli_normal_order_subcommand(capsys):
    code = main(["normal-order", "--instance", "example1",
                 "--flavor", "double", "Phi[1](z2) Phi[1](z1)"])
    assert code == 0
    shown = capsys.readouterr().out.strip()
    got = parse_element(shown)
    rs = RewriteSystem(get_instance("example1"), "double")
    expected = normal_order(
        parse_element("Phi[1](z2) Phi[1](z1)"), rs)
    assert got == expected


def test_cli_normal_order_index_out_of_range_exits_2(capsys):
    code = main(["normal-order", "--instance", "example2-n2",
                 "Phi[0](z2) Phi[7](z1)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "(line 1, col 5)" in err
    code = main(["normal-order", "--instance", "example2-n2",
                 "Phi[2](z2) L[1,3](z1)"])
    assert code == 2
    assert "(line 1, col 16)" in capsys.readouterr().err


def test_cli_normal_order_index_count_exits_2(capsys):
    code = main(["normal-order", "--instance", "example2-n2",
                 "L[1](z2) Phi[2](z1)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: L takes two indices (line 1, col 4)")
    code = main(["normal-order", "--instance", "example2-n2",
                 "Phi[1,2](z2) Phi[1](z1)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Phi takes one index (line 1, col 7)")


def test_cli_normal_order_fourth_leg_exits_2(capsys):
    # charges exist for three legs only; the fourth leg's '(x)' is the error
    code = main(["normal-order", "--instance", "example1",
                 "1 (x) 1 (x) 1 (x) Phi[1](z2) Phi[1](z1)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at most 3 tensor legs (line 1, col 15)")
    assert main(["normal-order", "--instance", "example1",
                 "1 (x) 1 (x) Phi[1](z2) Phi[1](z1)"]) == 0


def test_cli_normal_order_non_spectral_argument_exits_2(capsys):
    # s = q^(1/2) and the charge variables u_t are field variables, not
    # spectral arguments
    code = main(["normal-order", "--instance", "example1",
                 "Phi[1](z1) Phi[1](s)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: expected a spectral variable "
                          "(z1..z9, x, w) (line 1, col 19)")
    for text in ("L[1,1](u1)", "delta(z1/u2)"):
        assert main(["normal-order", "--instance", "example1", text]) == 2


def test_cli_normal_order_pole_names_the_argument(capsys):
    code = main(["normal-order", "--instance", "example1", "--flavor",
                 "extended", "Phi[1](z1*q[2,0,0,0]) L[1,1](z1*q[-2,1,0,0])"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: R-matrix entry singular at the symbolic argument q^2\n")


def test_cli_normal_order_exponent_overflow_is_no_pole(capsys):
    """An argument whose q-power leaves the exponent bound when the entry
    is evaluated is an exponent error, not a singular entry."""
    code = main(["normal-order", "--instance", "example1",
                 "Phi[1](z2*q[1073741823,0,0,0]) Phi[1](z1)"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: monomial exponent out of range [-2^30, 2^30)\n")


def test_cli_verify_hopf_particle_flavor_is_a_usage_error(capsys):
    # the particle algebra has no coproduct: the coproduct of Phi needs L
    with pytest.raises(SystemExit) as exc:
        main(["verify-hopf", "--instance", "example1",
              "--flavor", "particle"])
    assert exc.value.code == 2
    assert "invalid choice: 'particle'" in capsys.readouterr().err
    assert main(["normal-order", "--instance", "example1", "--flavor",
                 "particle", "Phi[1](z2) Phi[1](z1)"]) == 0


@pytest.mark.parametrize("option", [["--out", "r.json"], ["--timings"]],
                         ids=["out", "timings"])
def test_cli_normal_order_report_options_are_usage_errors(option, tmp_path,
                                                          monkeypatch,
                                                          capsys):
    """``normal-order`` prints its result and writes no report, so the
    report options are no options of it.  The error names the option
    alone: the value of ``--out`` is read as the element, which leaves
    the element's own text over, but that text is no option."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["normal-order", "--instance", "example1", *option,
              "Phi[1](z2) Phi[1](z1)"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.endswith(f"error: unrecognized arguments: {option[0]}\n")
    assert "Phi" not in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv, named", [
    (["check-r", "--instance", "example1", "--nope"], "--nope"),
    (["normal-order", "--instance", "example1", "--bogus=3",
      "Phi[1](z1)"], "--bogus=3"),
    (["normal-order", "--instance", "example1", "Phi[1](z1)", "extra"],
     "extra")], ids=["check-r", "option", "positional"])
def test_cli_unknown_arguments_are_usage_errors(argv, named, capsys):
    """Every unknown option is a usage error that names it; with no option
    among the unknown arguments, the error names them all."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f"error: unrecognized arguments: {named}\n")


def test_cli_normal_order_prints_the_flags_of_its_terms(capsys):
    """A delta whose two variables agree, at a q-power other than 1, is
    contradictory: the term keeps it and its flag, which the printed
    element names after its terms."""
    assert main(["normal-order", "--instance", "example1",
                 "delta(z1/z1*q[2,0,0,0]) Phi[1](z1)"]) == 0
    assert capsys.readouterr().out == (
        "delta(z1/z1*q[2,0,0,0]) Phi[1](z1)   [flags: contradictory-delta]\n")


def test_cli_deep_nesting_exits_2(tmp_path, capsys):
    """A field expression nested past the parser's bound, in a spec entry
    or a normal-order coefficient, is a parse error at the token that
    goes deeper, not a RecursionError."""
    spec = tmp_path / "deep.spec"
    for value in (400 * "(" + "x" + 400 * ")", 1000 * "-" + "x"):
        spec.write_text(f"n=1; var=x\nR[1,1;1,1] = {value}\n")
        assert main(["check-r", "--spec", str(spec)]) == 2
        assert capsys.readouterr().err == (
            "error: expression nested too deeply "
            f"(line 2, col {14 + MAX_DEPTH})\n")
    coeff = "{" + 400 * "(" + "q" + 400 * ")" + "} * Phi[1](z1)"
    assert main(["normal-order", "--instance", "example1", coeff]) == 2
    assert capsys.readouterr().err == (
        f"error: expression nested too deeply (line 1, col {2 + MAX_DEPTH})\n")


def test_cli_out_to_a_bad_path_exits_2(tmp_path, capsys):
    for out in (tmp_path / "missing" / "report.json", tmp_path):
        assert main(["check-r", "--instance", "example1",
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(out) in err


def test_cli_reference_comparison_is_for_the_builtin_example1(tmp_path):
    """A spec named example1 is not the built-in scalar instance: the
    2x2 identity under that name skips drinfeld-compare."""
    spec = tmp_path / "identity.spec"
    spec.write_text("n=2; var=x; name=example1\n"
                    "R[1,1;1,1]=1; R[1,2;1,2]=1; R[2,1;2,1]=1; R[2,2;2,2]=1\n")
    out = tmp_path / "report.json"
    assert main(["verify-modes", "--spec", str(spec),
                 "--out", str(out)]) == 0
    checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert checks["drinfeld-compare"]["status"] == "skipped"


# A singular 2x2 spec: column (1,2) is zero.  (command, sha256 of the
# byte-stable report, exit code 1); the unitarity, braid-consistency,
# build-rules and mode-consistency notes name the singular R.
SINGULAR_SPEC = """n=2; var=x; name=singular
R[1,1;1,1] = 1; R[1,1;1,2] = 1
R[2,1;2,1] = 1; R[2,2;2,2] = 1
"""
SINGULAR_DIGESTS = {
    "check-r":
        "19a7fc6ee25159404db5fd540856b5fd5271e778240229f1f949bfc27b53f1be",
    "verify-hopf":
        "8427bba3937075cf9b52f9f56431cfa30511fe5efddeb8d9aaa195a6b29c761a",
    "verify-modes":
        "cf52977ffc38bd19fcc4c2b97cd6b24cfff798e4ee074d8ad9c3515b8b4ed752",
}


@pytest.mark.parametrize("command", sorted(SINGULAR_DIGESTS))
def test_singular_spec_reports_are_pinned(command, tmp_path):
    spec = tmp_path / "singular.spec"
    spec.write_text(SINGULAR_SPEC)
    out = tmp_path / "report.json"
    assert main([command, "--spec", str(spec), "--out", str(out)]) == 1
    assert (hashlib.sha256(out.read_bytes()).hexdigest()
            == SINGULAR_DIGESTS[command])


# The double flavor's unitarity gate: broken-nonunitary fails its braid
# involutivity and cannot build the rules.  sha256 of the byte-stable
# report.
NONUNITARY_DIGEST = \
    "8b12c220bcf912ee73870dc4fe802c1fc744c4858a9db5c521268297a38b2860"


def test_nonunitary_verify_hopf_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-hopf", "--instance", "broken-nonunitary",
                 "--out", str(out)]) == 1
    checks = {c["check_id"]: c for c in json.loads(out.read_text())["checks"]}
    assert {cid for cid, c in checks.items() if c["status"] == "fail"} \
        == {"braid-consistency", "build-rules"}
    assert checks["build-rules"]["note"] == \
        "DomainError: the double flavor requires a unitary R-matrix"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == NONUNITARY_DIGEST
