"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest -s tests/test_acceptance.py`` to see them inline).

Everything is exact arithmetic: a criterion passes only with residuals
that are identically zero, and the stated wall-clock budgets are asserted.
"""

import random
import time

from rhopf.algebra import (ArgShift, Element, GenOcc, L, LSTAR, PHI,
                           PHISTAR, RewriteSystem, Toggles,
                           FLAVOR_RELATIONS, braid_consistency,
                           normal_order, relation_self_residual)
from rhopf.cli import main
from rhopf.errors import SingularError
from rhopf.expr import parse_expr
from rhopf.hopf import HopfTables, check_axioms, check_hom_on_relation
from rhopf.instances import get_instance
from rhopf.modes import SeriesWindow, drinfeld_compare
from rhopf.rmatrix import RMatrix, clear_poles, unitarity_residual, \
    ybe_residual
from rhopf.symfield import RatExpr, Z, q_power

# the built-in instances that satisfy every R-matrix condition; the fifth,
# broken-nonunitary, fails unitarity on purpose
PASSING_INSTANCES = ("example1", "example2-n2", "example2-n3", "identity")


def _report(criterion, ok, elapsed, budget):
    status = "pass" if ok else "FAIL"
    print(f"criterion {criterion}: {status} "
          f"({elapsed:.1f}s of {budget:.0f}s budget)")
    assert ok, f"criterion {criterion} failed"
    assert elapsed < budget, f"criterion {criterion} over budget"


def test_criterion_1_rmatrix_conditions():
    t0 = time.time()
    ok = True
    for name in PASSING_INSTANCES:
        R = get_instance(name)
        ok &= ybe_residual(R, "prod") == {}
        ok &= unitarity_residual(R) == {}
    broken = get_instance("broken-nonunitary")
    ok &= unitarity_residual(broken) != {}
    # the scalar Yang-Baxter equation is vacuous, so the combined
    # R-condition check must fail through unitarity
    ok &= main(["check-r", "--instance", "broken-nonunitary"]) == 1
    _report("1 (R-matrix conditions)", ok, time.time() - t0, 10.0)


def test_criterion_2_braid_consistency():
    t0 = time.time()
    ok = all(braid_consistency(get_instance(name))["agree"]
             for name in PASSING_INSTANCES)
    ok &= not braid_consistency(get_instance("broken-nonunitary"))["agree"]
    _report("2 (braid consistency)", ok, time.time() - t0, 30.0)


def test_criterion_3_extended_hopf_structure():
    t0 = time.time()
    ok = True
    for name in ("example1", "example2-n2"):
        rs = RewriteSystem(get_instance(name), "extended")
        tables = HopfTables(rs)
        for rid in ("PhiPhi", "PhiL", "LL"):
            ok &= all(r.is_zero()
                      for _, r in check_hom_on_relation(rs, tables, rid))
        ok &= not any(nterms for _, nterms in check_axioms(tables))
    _report("3 (extended-flavor Hopf structure)", ok, time.time() - t0, 120.0)


def test_criterion_4_double_hopf_structure_and_negative_control():
    t0 = time.time()
    rs = RewriteSystem(get_instance("example1"), "double")
    tables = HopfTables(rs)
    ok = True
    for rid in FLAVOR_RELATIONS["double"]:
        ok &= all(r.is_zero()
                  for _, r in check_hom_on_relation(rs, tables, rid))
    # literal-text toggles must each break at least one check
    for tog in (Toggles.from_dict({"cross-bracket": "literal"}),
                Toggles.from_dict({"ll-star": "literal"})):
        rs_l = RewriteSystem(get_instance("example1"), "double", tog)
        tb_l = HopfTables(rs_l)
        failed = 0
        for rid in FLAVOR_RELATIONS["double"]:
            if any(not r.is_zero()
                   for _, r in check_hom_on_relation(rs_l, tb_l, rid)):
                failed += 1
        ok &= failed >= 1
    _report("4 (double-flavor Hopf structure + negative control)", ok,
            time.time() - t0, 300.0)


def test_criterion_5_antipode_bookkeeping():
    t0 = time.time()
    ok = True
    for name in ("example1", "example2-n2"):
        rs = RewriteSystem(get_instance(name), "double")
        tables = HopfTables(rs)
        ok &= not any(nterms for _, nterms
                      in check_axioms(tables, ("antipode",)))
    _report("5 (antipode charge bookkeeping)", ok, time.time() - t0, 120.0)


def test_criterion_6_mode_degeneration():
    t0 = time.time()
    cleared = clear_poles(get_instance("example1"))
    ratio = RatExpr(cleared.f) / parse_expr("x*q^2 - 1")
    ok = len(ratio.num) == 1 and len(ratio.den) == 1
    ok &= drinfeld_compare(SeriesWindow(5, 1),
                           get_instance("example1"))["match"]
    Rq3 = RMatrix(1, "x",
                  {(1, 1, 1, 1): parse_expr("(x - q^6)/(x*q^6 - 1)")})
    ok &= not drinfeld_compare(SeriesWindow(5, 1), Rq3)["match"]
    _report("6 (mode degeneration vs reference)", ok, time.time() - t0,
            60.0)


def _random_word(rng, rs, kinds, length):
    occs = []
    for _ in range(length):
        kind = rng.choice(kinds)
        var = rng.choice([Z[0], Z[1], Z[2]])
        h = (rng.choice([-2, -1, 0, 1, 2]), rng.choice([-1, 0, 1]), 0, 0)
        row = rng.randint(1, rs.n)
        col = rng.randint(1, rs.n) if kind in (L, LSTAR) else 0
        occs.append(GenOcc(kind, row, col, ArgShift(var, q_power(*h))))
    return Element.word(tuple(occs))


def test_criterion_7_engine_invariants():
    t0 = time.time()
    rng = random.Random(20121)
    systems = [
        (RewriteSystem(get_instance("example1"), "double"),
         [PHI, PHISTAR, L, LSTAR]),
        (RewriteSystem(get_instance("example2-n2"), "extended"), [PHI, L]),
    ]
    steps = 0
    ok = True
    while steps < 10000:
        rs, kinds = systems[rng.randrange(2)]
        e = _random_word(rng, rs, kinds, rng.randint(2, 4))
        trace = []
        try:
            normal_order(e, rs, trace=trace)
        except SingularError:
            continue
        for before, after in trace:
            ok &= after < before
        steps += len(trace)
    idem = 0
    while idem < 1000:
        rs, kinds = systems[rng.randrange(2)]
        e = _random_word(rng, rs, kinds, rng.randint(2, 3))
        try:
            once = normal_order(e, rs)
        except SingularError:
            continue
        ok &= normal_order(once, rs) == once
        idem += 1
    for name, flavor in (("example1", "particle"), ("example1", "extended"),
                         ("example1", "double"), ("example2-n2", "extended"),
                         ("example2-n2", "double")):
        rs = RewriteSystem(get_instance(name), flavor)
        for rid in FLAVOR_RELATIONS[flavor]:
            ok &= all(r.is_zero()
                      for _, r in relation_self_residual(rs, rid))
    _report(f"7 (engine invariants: {steps} rewrite steps, {idem} "
            "idempotence elements)", ok, time.time() - t0, 600.0)


def test_criterion_8_report_determinism(tmp_path):
    t0 = time.time()
    ok = True
    for cmd in (["check-r", "--instance", "example1"],
                ["verify-hopf", "--instance", "example1",
                 "--flavor", "double"],
                ["verify-modes", "--instance", "example1",
                 "--window", "4"]):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        assert main(cmd + ["--out", str(a)]) == 0
        assert main(cmd + ["--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    _report("8 (byte-identical reports)", ok, time.time() - t0, 60.0)
