"""Element text round trips, spec-file ingestion, CLI plans, exit codes,
report determinism and residual re-parsing."""

import json
import re

import pytest

from rhopf.algebra import (ArgShift, DeltaFactor, Element, GenOcc, L, LSTAR,
                           NO_SHIFT, PHI, RewriteSystem, normal_order)
from rhopf.cli import main, parse_rspec
from rhopf.elemio import format_element, parse_element
from rhopf.errors import ParseError
from rhopf.expr import parse_expr
from rhopf.instances import get_instance
from rhopf.symfield import RatExpr, Z

Z1, Z2 = Z[0], Z[1]


# -- element text -------------------------------------------------------------

def _round_trip(e):
    return parse_element(format_element(e), nlegs=e.nlegs)


def test_element_round_trip_simple():
    e = Element.word((GenOcc(PHI, 1, 0, ArgShift(Z1, NO_SHIFT)),))
    assert _round_trip(e) == e


def test_element_round_trip_with_coeff_shift_delta():
    d = DeltaFactor(Z1, Z2, (0, -2, 0, 0))
    e = Element.word((GenOcc(LSTAR, 1, 2, ArgShift(Z2, (0, 1, 0, 0))),),
                     coeff=parse_expr("q/(q^2-1)"), deltas=(d,))
    e = e + Element.word((GenOcc(PHI, 2, 0, ArgShift(Z1, (1, 0, 0, 0))),
                          GenOcc(L, 1, 1, ArgShift(Z2, NO_SHIFT))),
                         coeff=parse_expr("-3"))
    assert _round_trip(e) == e


def test_element_round_trip_multileg_and_unit():
    key = ("", (), ((GenOcc(PHI, 1, 0, ArgShift(Z1, NO_SHIFT)),), ()))
    e = Element(2, {key: RatExpr.from_int(1)}) + Element.unit(2)
    assert _round_trip(e) == e


def test_element_parse_errors():
    with pytest.raises(ParseError):
        parse_element("Phi[1](z1) +")
    with pytest.raises(ParseError):
        parse_element("Bogus[1](z1)")
    with pytest.raises(ParseError):
        parse_element("Phi[1](q)")  # not a spectral variable... parsed
    with pytest.raises(ParseError):
        parse_element("{x +} * Phi[1](z1)")


def test_normal_ordered_output_reparses():
    rs = RewriteSystem(get_instance("example1"), "double")
    e = parse_element("Phi[1](z1) PhiStar[1](z2)")
    out = normal_order(e, rs)
    assert parse_element(format_element(out), nlegs=1) == out


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
    assert R.entries[(1, 1, 1, 1)].is_one()


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


def test_parse_rspec_index_error():
    with pytest.raises(ParseError) as err:
        parse_rspec("n=1; var=x\nR[1,1;1,1]=x; R[1,2;1,1]=x")
    assert err.value.line == 2
    assert err.value.col == 19  # the "2" in R[1,2;1,1]


def test_parse_rspec_empty_row_rejected():
    with pytest.raises(ParseError):
        parse_rspec("n=2; var=x; R[1,1;1,1]=x")


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
