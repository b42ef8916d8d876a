"""Non-diagonal regression: a six-vertex-type unitary Yang-Baxter matrix.

The built-in instances are all diagonal, hence symmetric as matrices on
the tensor square; this instance is not, and distinguishes conventions
that symmetric matrices cannot: the transpose of a right-multiplied R,
and the product vs ratio middle argument of the Yang-Baxter check.
"""

import hashlib
import heapq
import itertools
import json
import random
from pathlib import Path

import pytest

from rhopf import symfield
from rhopf.algebra import (_INV_PAIRS, ALL_KINDS, FLAVOR_RELATIONS,
                           VECTOR_KINDS, ArgShift, Element, GenOcc,
                           RewriteSystem, Toggles, _heap_entry, _z,
                           braid_consistency, normal_order,
                           relation_sides, relation_self_residual,
                           rewrite_term, rule_pieces)
from rhopf.cli import main
from rhopf.elemio import parse_element
from rhopf.errors import SingularError
from rhopf.expr import format_ratexpr, parse_expr
from rhopf.hopf import (HopfTables, check_axioms, check_hom_on_relation,
                        coproduct)
from rhopf.instances import get_instance
from rhopf.rmatrix import RMatrix, unitarity_residual, ybe_residual
from rhopf.symfield import RatExpr, accumulate, q_power
from test_symfield import fallback_sums


@pytest.fixture(scope="module")
def sixv():
    b = "q*(x - 1)/(x*q^2 - 1)"
    c_lo = "(q^2 - 1)/(x*q^2 - 1)"
    c_hi = "x*(q^2 - 1)/(x*q^2 - 1)"
    entries = {
        (1, 1, 1, 1): parse_expr("1"), (2, 2, 2, 2): parse_expr("1"),
        (1, 2, 1, 2): parse_expr(b), (1, 2, 2, 1): parse_expr(c_lo),
        (2, 1, 2, 1): parse_expr(b), (2, 1, 1, 2): parse_expr(c_hi),
    }
    return RMatrix(2, "x", entries, name="six-vertex")


def test_sixvertex_is_nonsymmetric(sixv):
    assert sixv.entries[1, 2, 2, 1] != sixv.entries[2, 1, 1, 2]


def test_sixvertex_conditions_discriminate_middle_argument(sixv):
    assert unitarity_residual(sixv) == {}
    assert ybe_residual(sixv, "prod") == {}
    # the literal ratio middle argument genuinely fails here, which no
    # diagonal instance can show
    assert ybe_residual(sixv, "ratio") != {}


def _jimbo_entries(n):
    """Jimbo's R-matrix for U_q(sl_n^) (Commun. Math. Phys. 102, 1986),
    normalized as the six-vertex fixture: 1 on the diagonal, b on
    R[i,j;i,j], and the c of the lower or upper triangle on R[i,j;j,i]."""
    b = "q*(x - 1)/(x*q^2 - 1)"
    c_lo = "(q^2 - 1)/(x*q^2 - 1)"
    c_hi = "x*(q^2 - 1)/(x*q^2 - 1)"
    entries = {}
    for i in range(1, n + 1):
        entries[(i, i, i, i)] = parse_expr("1")
        for j in range(1, n + 1):
            if i != j:
                entries[(i, j, i, j)] = parse_expr(b)
                entries[(i, j, j, i)] = parse_expr(c_lo if i < j else c_hi)
    return entries


def test_sl3_conditions_hold_and_fail_when_mutated(sixv):
    """The n = 3 non-diagonal input: product-middle YBE and unitarity
    hold, the ratio middle argument fails as for n = 2, and changing one
    off-diagonal entry breaks both conditions."""
    assert _jimbo_entries(2) == sixv.entries
    entries = _jimbo_entries(3)
    R = RMatrix(3, "x", entries, name="sl3")
    assert ybe_residual(R, "prod") == {}
    assert unitarity_residual(R) == {}
    assert ybe_residual(R, "ratio") != {}
    entries[(1, 3, 3, 1)] = parse_expr("(q^4 - 1)/(x*q^2 - 1)")
    mutated = RMatrix(3, "x", entries, name="sl3-mutated")
    assert ybe_residual(mutated, "prod") != {}
    assert unitarity_residual(mutated) != {}


# Byte-stable ``check-r`` reports that print Yang-Baxter and unitarity
# residuals: (spec, toggles, exit code, sha256 of the report).  On
# six-vertex the ratio middle argument leaves an advisory residual; on
# the mutated sl3 matrix both conventions and unitarity fail, each
# residual printed with its "... N more entries" tail where it is long.
SIXVERTEX_SPEC = str(Path(__file__).resolve().parents[1] / "verdictbench"
                     / "sixvertex.rspec")
CHECK_R_REPORTS = [
    (SIXVERTEX_SPEC, [], 0,
     "f37cb23085b56f561489b8e7ae23effb53ee7034788c35a8253121d12df66861"),
    (SIXVERTEX_SPEC, ["--toggle", "ybe-middle=literal"], 1,
     "accf6b85d4e4591eec78c30c91ba9e7288697c45a64364895b40f015e565ca10"),
    ("sl3-mutated", [], 1,
     "7ac9da1ba764ebe355bd22c75b22d45542e242540f54a21fcd91681f758dd55a"),
    ("sl3-mutated", ["--toggle", "ybe-middle=literal"], 1,
     "f071d39abd9c0ba89b576d5f1668a649fa136c769cffdc21838e7f341280cf78"),
]


@pytest.mark.parametrize("spec, toggles, code, digest", CHECK_R_REPORTS,
                         ids=["six-vertex", "six-vertex-ybe-literal",
                              "sl3-mutated", "sl3-mutated-ybe-literal"])
def test_check_r_residual_reports_are_pinned(spec, toggles, code, digest,
                                             tmp_path):
    if spec == "sl3-mutated":
        entries = _jimbo_entries(3)
        entries[(1, 3, 3, 1)] = parse_expr("(q^4 - 1)/(x*q^2 - 1)")
        spec = tmp_path / "sl3-mutated.rspec"
        spec.write_text("n=3; var=x; name=sl3-mutated\n" + "".join(
            "R[{},{};{},{}] = {}\n".format(*key, format_ratexpr(v))
            for key, v in sorted(entries.items())))
    out = tmp_path / "report.json"
    assert main(["check-r", "--spec", str(spec), *toggles,
                 "--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# The literal L/L* exchange on six-vertex, the slowest negative control:
# its residuals are the largest report the verdicts print.
LL_STAR_LITERAL_REPORT = (
    "da4a0195d37a50929ac77878dde0004743a55db5a8b45a072e9d152656f007ed")


def test_sixvertex_literal_ll_star_report_is_pinned(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify-hopf", "--spec", SIXVERTEX_SPEC,
                 "--toggle", "ll-star=literal", "--out", str(out)]) == 1
    failing = {c["check_id"] for c in json.loads(out.read_text())["checks"]
               if c["status"] == "fail"}
    assert failing == {"hom-LLstar", "hom-PhistarL", "hom-PhiLstar"}
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        LL_STAR_LITERAL_REPORT


def test_sixvertex_braid(sixv):
    assert braid_consistency(sixv)["agree"]


def test_sixvertex_full_double_verification(sixv):
    symfield.reset_memo()
    with fallback_sums() as spy:
        rs = RewriteSystem(sixv, "double")
        tables = HopfTables(rs)
        for rid in FLAVOR_RELATIONS["double"]:
            assert all(r.is_zero()
                       for _, r in relation_self_residual(rs, rid)), rid
            assert all(r.is_zero() for _, r in
                       check_hom_on_relation(rs, tables, rid)), rid
        for check_id, nterms in check_axioms(tables):
            assert nterms == 0, check_id
    # every denominator met is a product of split binomials, so no sum
    # fell back to the constructor
    assert spy.call_count == 0


def test_literal_ll_star_sums_take_no_gcd():
    """The example2-n2 negative control fails as documented, and its sums
    all cancel over factored denominators."""
    with fallback_sums() as spy:
        assert main(["verify-hopf", "--instance", "example2-n2",
                     "--toggle", "ll-star=literal"]) == 1
    assert spy.call_count == 0


# The relations whose oriented rule inverts the contraction on its
# out-of-order side, and that side (0 = lhs, 1 = rhs of the template).
SOLVED_SIDE = {"LL": 1, "LstarLstar": 1, "LLstar": 0, "PhistarLstar": 1}


def _occs(kind, n, arg):
    """Every index choice of one generator of ``kind`` at ``arg``."""
    cols = (0,) if kind in VECTOR_KINDS else range(1, n + 1)
    return [GenOcc(kind, row, col, arg)
            for row in range(1, n + 1) for col in cols]


@pytest.mark.parametrize("toggles", [
    Toggles(), Toggles.from_dict({"ll-star": "literal"})],
                         ids=["corrected", "ll-star-literal"])
@pytest.mark.parametrize("name", ["example2-n3", "six-vertex"])
def test_solved_rules_invert_the_contraction(name, toggles, sixv):
    """One application of the rule to each term of the out-of-order side
    gives back the other side exactly, with no further ordering; and the
    cached pieces of every ruled pair, on legs 0 and 1, are those of a
    fresh ``rule_pieces`` call, in the same order."""
    R = sixv if name == "six-vertex" else get_instance(name)
    rs = RewriteSystem(R, "double", toggles)
    for rid, solved in SOLVED_SIDE.items():
        for idx, lhs, rhs in relation_sides(rs, rid):
            sides = (lhs, rhs)
            out = Element(1)
            for key, coeff in sides[solved].terms.items():
                for nkey, rcoeff in rewrite_term(key, rs, 0, 0):
                    out = out + Element(1, {nkey: coeff * rcoeff})
            assert out == sides[1 - solved], (rid, idx)
    ruled = 0
    for k1, k2 in itertools.product(sorted(ALL_KINDS), repeat=2):
        for g1 in _occs(k1, rs.n, _z(2)):
            for g2 in _occs(k2, rs.n, _z(1)):
                rule = rs.rule_for(g1, g2)
                if rule is None:
                    continue
                ruled += 1
                for leg in (0, 1):
                    first = rs.pieces(g1, g2, leg)
                    assert rs.pieces(g1, g2, leg) is first
                    assert list(first) == rule_pieces(rs, rule, g1, g2, leg)
    assert ruled


def _random_gen(rng, n, kind=None, arg=None):
    kind = kind or rng.choice(sorted(ALL_KINDS))
    arg = arg or ArgShift(_z(rng.randint(1, 3)).var,
                          q_power(rng.choice((-1, 0, 1)),
                                  rng.choice((-1, 0, 1)),
                                  rng.choice((-1, 0, 1)), 0))
    col = 0 if kind in VECTOR_KINDS else rng.randint(1, n)
    return GenOcc(kind, rng.randint(1, n), col, arg)


def _random_term(rng, n):
    """A key of 1 or 2 legs of up to three generators of any kind each;
    two times in three, one leg also holds an inverse pair matched over
    its middle index, among generators it may be exchanged with."""
    nlegs = rng.randint(1, 2)
    legs = [[_random_gen(rng, n) for _ in range(rng.randint(1, 3))]
            for _ in range(nlegs)]
    if rng.random() < 2 / 3:
        x, y = rng.choice(sorted(_INV_PAIRS))
        g1 = _random_gen(rng, n, x)
        g2 = _random_gen(rng, n, y, g1.arg)._replace(row=g1.col)
        word = legs[rng.randrange(nlegs)]
        pos = rng.randint(0, len(word))
        word[pos:pos] = [g1, g2]
    return ("", (), tuple(tuple(w) for w in legs))


def _group(key, n):
    """The key with the middle index of its first matched inverse pair run
    over 1..n (the key alone when it has none)."""
    flag, deltas, legs = key
    for li, word in enumerate(legs):
        for pos, (g1, g2) in enumerate(zip(word, word[1:])):
            if (g1.kind, g2.kind) in _INV_PAIRS and g1.arg == g2.arg \
                    and g1.col == g2.row:
                return [(flag, deltas, legs[:li] + (
                    word[:pos] + (g1._replace(col=v), g2._replace(row=v))
                    + word[pos + 2:],) + legs[li + 1:])
                    for v in range(1, n + 1)]
    return [key]


@pytest.mark.parametrize("name", ["example2-n2", "six-vertex"])
def test_normal_order_is_linear(name, sixv):
    """normal_order(a + b) == normal_order(a) + normal_order(b), with b
    often completing the inverse-contraction group of a term of a, so a
    rule that looks at other terms of the element shows."""
    R = sixv if name == "six-vertex" else get_instance(name)
    rs = RewriteSystem(R, "double")
    rng = random.Random(7)
    done = 0
    while done < 150:
        key = _random_term(rng, rs.n)
        nlegs = len(key[2])
        group = _group(key, rs.n)
        a = Element(nlegs, {key: RatExpr.from_int(rng.choice((1, 2)))})
        b = Element(nlegs)
        for other in group:
            if other != key:
                b = b + Element(nlegs, {other: a.terms[key]})
        extra = _random_term(rng, rs.n)
        if len(extra[2]) == nlegs:
            b = b + Element(nlegs, {extra: RatExpr.from_int(-1)})
        try:
            whole = normal_order(a + b, rs)
            parts = normal_order(a, rs) + normal_order(b, rs)
        except SingularError:
            continue  # a rule hit a pole of an entry at a symbolic argument
        assert whole == parts, (key, b.terms)
        done += 1


def test_normal_order_sums_a_finished_term_that_comes_back():
    """The literal ll-star rule turns L(z1) LStar(z1) into LStar LStar,
    which adds a kind inversion behind each LInv: the rewrite of t raises
    the measure, and lands on k, a normal form already taken from the heap.
    Both contributions to k must be summed."""
    rs = RewriteSystem(get_instance("example2-n2"), "double",
                       Toggles.from_dict({"ll-star": "literal"}))
    t = parse_element("LInv[1,1](z3) LInv[1,1](z3) L[1,1](z1) LStar[1,1](z1)")
    k = parse_element(
        "LInv[1,1](z3) LInv[1,1](z3) LStar[1,1](z1) LStar[1,1](z1)")
    trace = []
    nt = normal_order(t, rs, trace=trace)
    assert any(after > before for before, after in trace)
    assert list(nt.terms) == list(k.terms)
    assert normal_order(k, rs) == k
    assert normal_order(t + k, rs) == nt + k


def _pairwise_normal_order(e, rs, trace):
    """The reference engine: ``normal_order`` with each contribution added
    to its pending term on arrival, by the pairwise ``+``.  Also returns
    how many times a term already taken from the heap came back."""
    def measure(entry):
        return tuple(-m for m in entry[0])
    pending = dict(e.terms)
    heap = [_heap_entry(key, rs) for key in pending]
    heapq.heapify(heap)
    out, taken, back = {}, set(), 0
    while heap:
        entry = heapq.heappop(heap)
        _, key, found = entry
        coeff = pending.pop(key, None)
        if coeff is None:
            continue  # cancelled, or a second entry of a term taken
        taken.add(key)
        if found is None:
            accumulate(out, key, coeff)
            continue
        for nkey, rcoeff in rewrite_term(key, rs, *found):
            nentry = _heap_entry(nkey, rs)
            trace.append((measure(entry), measure(nentry)))
            if nkey not in pending:
                back += nkey in taken
                heapq.heappush(heap, nentry)
            accumulate(pending, nkey, coeff * rcoeff)
    return Element(e.nlegs, out), back


@pytest.mark.parametrize("toggles", [
    Toggles(), Toggles.from_dict({"ll-star": "literal"})],
                         ids=["corrected", "ll-star-literal"])
def test_deferred_sums_agree_with_the_pairwise_engine(toggles, sixv):
    """On the six-vertex matrix, ``normal_order`` (each pending term's
    contributions summed once, when it is taken) gives the reference
    engine's terms, in the same order and after the same rule
    applications, traced or not: on the coproducts of both sides of every
    relation and of their difference, whose residuals are nonzero only
    under ``ll-star=literal``, and on the coproduct of a word that holds
    L LStar behind two LInv, where the literal rule brings taken terms
    back."""
    rs = RewriteSystem(sixv, "double", toggles)
    tables = HopfTables(rs)
    word = parse_element(
        "LInv[1,1](z3) LInv[1,1](z3) L[1,1](z1) LStar[1,1](z1)")
    inputs = [(word, False)]
    for rid in FLAVOR_RELATIONS["double"]:
        for _, lhs, rhs in relation_sides(rs, rid):
            inputs += [(lhs, False), (rhs, False), (lhs - rhs, True)]
    back = nonzero = 0
    for e, difference in inputs:
        delta = coproduct(e, tables, 0)
        trace, want_trace = [], []
        got = normal_order(delta, rs, trace)
        want, came_back = _pairwise_normal_order(delta, rs, want_trace)
        assert list(got.terms.items()) == list(want.terms.items()), e
        # the traced branch returns the untraced result, term order too
        untraced = normal_order(delta, rs)
        assert list(untraced.terms.items()) == list(got.terms.items()), e
        assert trace == want_trace, e
        back += came_back
        nonzero += difference and not got.is_zero()
    literal = toggles.as_dict()["ll-star"] == "literal"
    assert (back > 0) == literal
    assert (nonzero > 0) == literal
