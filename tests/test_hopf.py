"""Hopf structure maps: frozen coproduct/counit/antipode values, leg
bookkeeping, axiom checks and relation homomorphism checks."""

import pytest

from rhopf.algebra import (ArgShift, Element, GenOcc, L, LINV, LSTARINV,
                           PHI, PHISTAR, RewriteSystem, Toggles,
                           FLAVOR_RELATIONS)
from rhopf.elemio import format_element, parse_element
from rhopf.errors import ShapeError, UnsupportedRule
from rhopf.expr import parse_expr
from rhopf.hopf import (HopfTables, antipode_apply, check_axioms,
                        check_counit, check_hom_on_relation, coproduct,
                        counit_apply, generator_list, merge_legs)
from rhopf.instances import get_instance
from rhopf.symfield import RatExpr, Z, q_power

Z1 = Z[0]
R1 = RatExpr.from_int(1)


def _setup(name="example1", flavor="double", toggles=None):
    rs = RewriteSystem(get_instance(name), flavor, toggles)
    return rs, HopfTables(rs)


def _gen(kind, i, j=0, q=q_power()):
    return Element.word((GenOcc(kind, i, j, ArgShift(Z1, q)),))


def test_coproduct_phi_scalar_structure():
    rs, tb = _setup()
    d = coproduct(_gen(PHI, 1), tb, 0)
    t1 = ("", (), ((GenOcc(PHI, 1, 0, ArgShift(Z1)),), ()))
    t2 = ("", (), ((GenOcc(L, 1, 1, ArgShift(Z1, q_power(0, 1, 0, 0))),),
                   (GenOcc(PHI, 1, 0, ArgShift(Z1, q_power(0, 2, 0, 0))),)))
    assert d == Element(2, {t1: R1, t2: R1})


def test_coproduct_l_scalar_structure():
    rs, tb = _setup()
    d = coproduct(_gen(L, 1, 1), tb, 0)
    t = ("", (), ((GenOcc(L, 1, 1, ArgShift(Z1, q_power(0, 0, -1, 0))),),
                  (GenOcc(L, 1, 1, ArgShift(Z1, q_power(0, 1, 0, 0))),)))
    assert d == Element(2, {t: R1})


def test_coproduct_unit_is_grouplike():
    rs, tb = _setup()
    assert coproduct(Element.unit(1), tb, 0) == Element.unit(2)


def test_coproduct_respects_charge_coefficient():
    rs, tb = _setup()
    qc = Element.unit(1, RatExpr.var("u1", 2))  # the element q^c
    d = coproduct(qc, tb, 0)
    assert d == Element.unit(2, parse_expr("u1^2*u2^2"))


def test_coproduct_leg_limit():
    rs, tb = _setup()
    d = coproduct(coproduct(_gen(L, 1, 1), tb, 0), tb, 0)
    with pytest.raises(ShapeError):
        coproduct(d, tb, 0)


def test_leg_out_of_range_is_a_shape_error():
    """The coproduct of a one-leg element has no leg 1 to split, and the
    last leg has no next leg to merge with."""
    rs, tb = _setup()
    gen = _gen(L, 1, 1)
    with pytest.raises(ShapeError, match="no leg 1"):
        coproduct(gen, tb, 1)
    d = coproduct(gen, tb, 0)
    with pytest.raises(ShapeError, match="cannot merge at leg 1"):
        merge_legs(d, 1)
    assert merge_legs(d, 0).nlegs == 1


def test_counit_axioms_scalar_phi_and_l():
    rs, tb = _setup()
    for gen in (_gen(PHI, 1), _gen(L, 1, 1)):
        left, right = check_counit(tb, gen)
        assert left.is_zero() and right.is_zero()


def test_counit_value_of_unit():
    rs, tb = _setup()
    e = counit_apply(Element.unit(1), 0)
    assert e == Element.unit(0)


def test_antipode_l_maps_to_inverse_kind():
    rs, tb = _setup()
    out = antipode_apply(_gen(L, 1, 1), tb, 0)
    assert out == _gen(LINV, 1, 1)


def test_antipode_qc_inverts_charge():
    rs, tb = _setup()
    qc = Element.unit(1, RatExpr.var("u1", 2))
    out = antipode_apply(qc, tb, 0)
    assert out == Element.unit(1, RatExpr.var("u1", -2))


def _one_leg_antipode(first, second, n):
    """-sum_m first(m) second(m), m = 1..n: the one-leg antipode form."""
    out = Element(1)
    for m in range(1, n + 1):
        out = out - Element.word((first(m), second(m)))
    return out


@pytest.mark.parametrize("name", ["example1", "example2-n2"])
def test_antipode_phi_scalar_one_leg_form(name):
    rs, tb = _setup(name)
    for i in range(1, rs.n + 1):
        out = antipode_apply(_gen(PHI, i), tb, 0)
        expected = _one_leg_antipode(
            lambda m: GenOcc(LINV, i, m, ArgShift(Z1, q_power(0, -1, 0, 0))),
            lambda m: GenOcc(PHI, m, 0,
                             ArgShift(Z1, q_power(0, -2, 0, 0))), rs.n)
        assert out == expected


@pytest.mark.parametrize("name", ["example1", "example2-n2"])
def test_antipode_phistar_scalar_one_leg_form(name):
    rs, tb = _setup(name)
    for i in range(1, rs.n + 1):
        out = antipode_apply(_gen(PHISTAR, i), tb, 0)
        expected = _one_leg_antipode(
            lambda m: GenOcc(PHISTAR, m, 0,
                             ArgShift(Z1, q_power(0, -2, 0, 0))),
            lambda m: GenOcc(LSTARINV, m, i,
                             ArgShift(Z1, q_power(0, -1, 0, 0))),
            rs.n)
        assert out == expected


def test_antipode_negates_its_leg_charge_on_every_leg():
    """S on leg 1 maps c2 -> -c2 in leg 0's argument and in the
    coefficient too, not only in the images of its own leg."""
    rs, tb = _setup()
    z2 = Z[1]
    e = Element(2, {("", (), (
        (GenOcc(PHI, 1, 0, ArgShift(Z1, q_power(0, 1, 2, 0))),),
        (GenOcc(PHI, 1, 0, ArgShift(z2, q_power(0, 0, 1, 0))),))):
        parse_expr("u2^3*z1 + u1")})
    out = antipode_apply(e, tb, 1)
    expected = Element(2, {("", (), (
        (GenOcc(PHI, 1, 0, ArgShift(Z1, q_power(0, 1, -2, 0))),),
        (GenOcc(LINV, 1, 1, ArgShift(z2, q_power(0, 0, -2, 0))),
         GenOcc(PHI, 1, 0, ArgShift(z2, q_power(0, 0, -3, 0)))))):
        parse_expr("-u2^-3*z1 - u1")})
    assert out == expected


def test_antipode_missing_table_entry():
    rs, tb = _setup()
    with pytest.raises(UnsupportedRule):
        antipode_apply(_gen(LINV, 1, 1), tb, 0)


def test_merge_cancels_antipode_on_phi():
    rs, tb = _setup()
    d = coproduct(_gen(PHI, 1), tb, 0)
    merged = merge_legs(antipode_apply(d, tb, 0), 0)
    assert merged.is_zero()  # exact cancellation, before any rewriting


def test_merge_contracts_antipode_on_l():
    from rhopf.algebra import normal_order
    rs, tb = _setup("example2-n2", "extended")
    for i in (1, 2):
        for j in (1, 2):
            d = coproduct(_gen(L, i, j), tb, 0)
            merged = merge_legs(antipode_apply(d, tb, 0), 0)
            out = normal_order(merged, rs)
            if i == j:
                assert out == Element.unit(1)
            else:
                assert out.is_zero()


def test_merge_of_plain_units():
    e = Element.unit(2)
    assert merge_legs(e, 0) == Element.unit(1)


@pytest.mark.parametrize("name,leg,expected", [
    ("coproduct", 0, "u1^3*u2^3*u3^2"),
    ("coproduct", 1, "u1^3*u2^2*u3^2"),
    ("counit", 0, "u1^2*u2"),
    ("counit", 1, "u1^3*u2"),
    ("merge", 0, "u1^5*u2"),
    ("merge", 1, "u1^3*u2^3"),
])
def test_leg_maps_renumber_the_charges_above(name, leg, expected):
    """The charge of every leg above the split, removed or merged legs
    moves with its leg; distinct exponents per leg catch a swapped map."""
    rs, tb = _setup()
    if name == "coproduct":
        out = coproduct(Element.unit(2, parse_expr("u1^3*u2^2")), tb, leg)
    else:
        e = Element.unit(3, parse_expr("u1^3*u2^2*u3"))
        out = (counit_apply(e, leg) if name == "counit"
               else merge_legs(e, leg))
    assert out == Element.unit(out.nlegs, parse_expr(expected))
    assert out.nlegs == (3 if name == "coproduct" else 2)


def test_coassociativity_phi_frozen_three_leg_form():
    rs, tb = _setup()
    d = coproduct(_gen(PHI, 1), tb, 0)
    lhs = coproduct(d, tb, 0)
    rhs = coproduct(d, tb, 1)
    assert lhs == rhs
    phi = lambda *h: (GenOcc(PHI, 1, 0, ArgShift(Z1, q_power(*h))),)  # noqa
    ell = lambda *h: (GenOcc(L, 1, 1, ArgShift(Z1, q_power(*h))),)  # noqa
    expected = Element(3, {
        ("", (), (phi(), (), ())): R1,
        ("", (), (ell(0, 1, 0, 0), phi(0, 2, 0, 0), ())): R1,
        ("", (), (ell(0, 1, 0, 0), ell(0, 2, 1, 0),
                  phi(0, 2, 2, 0))): R1,
    })
    assert lhs == expected


@pytest.mark.parametrize("name,flavor", [("example1", "extended"),
                                         ("example1", "double"),
                                         ("example2-n2", "extended"),
                                         ("example2-n2", "double")])
def test_axioms_all_generators(name, flavor):
    rs, tb = _setup(name, flavor)
    for check_id, nterms in check_axioms(tb):
        assert nterms == 0, check_id


@pytest.mark.parametrize("name", ["example1", "example2-n2"])
def test_hom_checks_ep_relations(name):
    rs, tb = _setup(name, "extended")
    for rid in FLAVOR_RELATIONS["extended"]:
        for idx, res in check_hom_on_relation(rs, tb, rid):
            assert res.is_zero(), (rid, idx)


def test_hom_checks_all_ten_dep_relations_scalar():
    rs, tb = _setup("example1", "double")
    for rid in FLAVOR_RELATIONS["double"]:
        for idx, res in check_hom_on_relation(rs, tb, rid):
            assert res.is_zero(), (rid, idx)


def test_literal_cross_bracket_fails_hom_check():
    rs, tb = _setup("example1", "double",
                    Toggles.from_dict({"cross-bracket": "literal"}))
    res = check_hom_on_relation(rs, tb, "PhiPhistar")
    assert any(not r.is_zero() for _, r in res)


def test_literal_ll_star_fails_hom_check():
    rs, tb = _setup("example1", "double",
                    Toggles.from_dict({"ll-star": "literal"}))
    res = check_hom_on_relation(rs, tb, "LLstar")
    assert any(not r.is_zero() for _, r in res)


def test_literal_phistar_coproduct_fails_axioms_for_n2():
    rs, tb = _setup("example2-n2", "double",
                    Toggles.from_dict({"phistar-coproduct": "literal"}))
    results = dict(check_axioms(tb))
    assert any(n for k, n in results.items() if k.startswith("coassoc"))
    assert any(n for k, n in results.items() if k.startswith("antipode"))


def test_generator_list_covers_flavor():
    rs, _ = _setup("example2-n2", "double")
    labels = [lab for lab, _ in generator_list(rs)]
    assert "qc" in labels and "PhiStar[2]" in labels \
        and "LStar[2,1]" in labels


@pytest.mark.parametrize("flavor", ["extended", "double"])
@pytest.mark.parametrize("inverses", [False, True])
def test_generator_labels_are_element_text(flavor, inverses):
    """A label is the generator's element text without its argument."""
    rs, _ = _setup("example2-n2", flavor)
    gens = generator_list(rs, inverses)[1:]
    assert {label.split("[")[0] for label, _ in gens} \
        == rs.allowed_kinds() - (set() if inverses else {LINV, LSTARINV})
    for label, gen in gens:
        assert parse_element(label + "(z1)", n=rs.n) == gen
        assert format_element(gen) == label + "(z1)"
