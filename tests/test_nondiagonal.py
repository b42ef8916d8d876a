"""Non-diagonal regression: a six-vertex-type unitary Yang-Baxter matrix.

The built-in instances are all diagonal, hence symmetric as matrices on
the tensor square; this instance is not, and distinguishes conventions
that symmetric matrices cannot: the transpose of a right-multiplied R,
and the product vs ratio middle argument of the Yang-Baxter check.
"""

import itertools

import pytest

from rhopf.algebra import (ALL_KINDS, FLAVOR_RELATIONS, VECTOR_KINDS,
                           Element, GenOcc, RewriteSystem, Toggles, _apply_at,
                           _z, braid_consistency, relation_sides,
                           relation_self_residual, rule_pieces)
from rhopf.expr import parse_expr
from rhopf.hopf import HopfTables, check_axioms, check_hom_on_relation
from rhopf.instances import get_instance
from rhopf.rmatrix import RMatrix, unitarity_residual, ybe_residual


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
    assert sixv.entry(1, 2, 2, 1) != sixv.entry(2, 1, 1, 2)


def test_sixvertex_conditions_discriminate_middle_argument(sixv):
    assert unitarity_residual(sixv) == {}
    assert ybe_residual(sixv, "prod") == {}
    # the literal ratio middle argument genuinely fails here, which no
    # diagonal instance can show
    assert ybe_residual(sixv, "ratio") != {}


def test_sixvertex_braid(sixv):
    assert braid_consistency(sixv)["agree"]


def test_sixvertex_full_double_verification(sixv):
    rs = RewriteSystem(sixv, "double")
    tables = HopfTables(rs)
    for rid in FLAVOR_RELATIONS["double"]:
        assert all(r.is_zero()
                   for _, r in relation_self_residual(rs, rid)), rid
        assert all(r.is_zero()
                   for _, r in check_hom_on_relation(rs, tables, rid)), rid
    for check_id, nterms in check_axioms(rs, tables):
        assert nterms == 0, check_id


# The relations whose oriented rule inverts the contraction on its
# out-of-order side, and that side (0 = lhs, 1 = rhs of the template).
SOLVED_SIDE = {"LL": 1, "LstarLstar": 1, "LLstar": 0, "PhistarLstar": 1}


def _occs(kind, n, arg):
    """Every index choice of one generator of ``kind`` at ``arg``."""
    cols = (0,) if kind in VECTOR_KINDS else range(1, n + 1)
    return [GenOcc(kind, row, col, arg)
            for row in range(1, n + 1) for col in cols]


@pytest.mark.parametrize("toggles", [Toggles(), Toggles(ll_star="literal")],
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
            out = Element.zero()
            for key, coeff in sides[solved].terms.items():
                out = out + _apply_at(Element(1, {key: coeff}), rs, key,
                                      coeff, 0, 0)
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
