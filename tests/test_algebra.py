"""Rewrite engine: rule values against hand-derived forms, normal
ordering, delta handling, termination and idempotence fuzz, braid
probes."""

import random

import pytest

from rhopf.algebra import (ArgShift, DeltaFactor, Element, GenOcc, L, LINV,
                           LSTAR, NO_SHIFT, PHI, PHISTAR, RewriteSystem,
                           braid_consistency, delta_normalize,
                           make_delta, normal_order,
                           relation_self_residual, term_measure, FLAVOR_RELATIONS)
from rhopf.errors import BudgetError, KindError, RhopfError, ShapeError
from rhopf.expr import parse_expr
from rhopf.instances import get_instance
from rhopf.symfield import RatExpr, Z

Z1, Z2, Z3 = Z[0], Z[1], Z[2]
R1 = RatExpr.from_int(1)


def _phi(i, var, h=NO_SHIFT):
    return GenOcc(PHI, i, 0, ArgShift(var, h))


def _phistar(i, var, h=NO_SHIFT):
    return GenOcc(PHISTAR, i, 0, ArgShift(var, h))


def _l(i, j, var, h=NO_SHIFT):
    return GenOcc(L, i, j, ArgShift(var, h))


def _scalar_rs(flavor="double", toggles=None):
    return RewriteSystem(get_instance("example1"), flavor, toggles)


# -- rule values ------------------------------------------------------------

def test_phi_phi_rule_scalar():
    rs = _scalar_rs("particle")
    e = Element.word((_phi(1, Z2), _phi(1, Z1)))
    out = normal_order(e, rs)
    expected = Element.word((_phi(1, Z1), _phi(1, Z2)),
                            coeff=parse_expr("(z1 - q^2*z2)/(q^2*z1 - z2)"))
    assert out == expected


def test_phi_l_rule_scalar():
    rs = _scalar_rs("extended")
    e = Element.word((_phi(1, Z1), _l(1, 1, Z2)))
    out = normal_order(e, rs)
    # oracle: inverse entry at (z1/z2) q^(c/2), built independently;
    # q^(c/2) is the charge variable u1
    coeff = parse_expr("(x*q^2 - 1)/(x - q^2)").substitute(
        {"x": {"z1": 1, "z2": -1, "u1": 1}})
    expected = Element.word((_l(1, 1, Z2), _phi(1, Z1)), coeff=coeff)
    assert out == expected


def test_phi_phistar_rule_scalar_delta_terms():
    rs = _scalar_rs("double")
    e = Element.word((_phi(1, Z1), _phistar(1, Z2)))
    out = normal_order(e, rs)
    qf = parse_expr("q/(q^2 - 1)")
    swap = Element.word((_phistar(1, Z2), _phi(1, Z1)))
    d1 = DeltaFactor(Z1, Z2, (0, -2, 0, 0))
    d2 = DeltaFactor(Z1, Z2, (0, 2, 0, 0))
    t1 = Element.word((GenOcc(LSTAR, 1, 1, ArgShift(Z2, (0, 1, 0, 0))),),
                      coeff=qf, deltas=(d1,))
    t2 = Element.word((GenOcc(L, 1, 1, ArgShift(Z1, (0, 1, 0, 0))),),
                      coeff=-qf, deltas=(d2,))
    assert out == swap + t1 + t2


def test_ll_rule_diagonal_component_has_unit_coefficient():
    rs = RewriteSystem(get_instance("example2-n2"), "extended")
    e = Element.word((_l(1, 1, Z2), _l(1, 1, Z1)))
    out = normal_order(e, rs)
    assert out == Element.word((_l(1, 1, Z1), _l(1, 1, Z2)))


def test_kind_error_for_flavor_p():
    rs = _scalar_rs("particle")
    e = Element.word((_phi(1, Z1), _l(1, 1, Z2)))
    with pytest.raises(KindError):
        normal_order(e, rs)


# -- multiplication ----------------------------------------------------------

def test_multiply_unit():
    a = Element.word((_phi(1, Z1),))
    assert a * Element.unit() == a
    assert Element.unit() * a == a


def test_multiply_concatenates_and_scales():
    f = parse_expr("q^2")
    g = parse_expr("z1 + 1")
    a = Element.word((_phi(1, Z1),)).scale(f)
    b = Element.word((_l(1, 1, Z2),)).scale(g)
    out = a * b
    assert out == Element.word((_phi(1, Z1), _l(1, 1, Z2))).scale(f * g)


def test_multiply_two_legs():
    a = Element.word((_phi(1, Z1),), nlegs=2, leg=0)
    b = Element(2, {("", (), ((_l(1, 1, Z2),), (_phi(1, Z2),))): R1})
    out = a * b
    key = ("", (), ((_phi(1, Z1), _l(1, 1, Z2)), (_phi(1, Z2),)))
    assert out == Element(2, {key: R1})


def test_multiply_shape_error():
    with pytest.raises(ShapeError):
        Element.unit(1) * Element.unit(2)


# -- normal ordering and contraction -----------------------------------------

def test_normal_order_idempotent_on_examples():
    rs = _scalar_rs("double")
    e = Element.word((_phi(1, Z2), _phistar(1, Z1), _l(1, 1, Z1)))
    once = normal_order(e, rs)
    assert normal_order(once, rs) == once


def test_inverse_contraction_n2():
    rs = RewriteSystem(get_instance("example2-n2"), "extended")
    arg = ArgShift(Z1, NO_SHIFT)
    for i in (1, 2):
        for j in (1, 2):
            e = Element.zero()
            for k in (1, 2):
                e = e + Element.word((GenOcc(LINV, i, k, arg),
                                      GenOcc(L, k, j, arg)))
            out = normal_order(e, rs)
            if i == j:
                assert out == Element.unit()
            else:
                assert out.is_zero()


def test_incomplete_contraction_does_not_fire():
    rs = RewriteSystem(get_instance("example2-n2"), "extended")
    arg = ArgShift(Z1, NO_SHIFT)
    e = Element.word((GenOcc(LINV, 1, 1, arg), GenOcc(L, 1, 1, arg)))
    assert normal_order(e, rs) == e  # sum over the middle index missing


# -- delta normalization ------------------------------------------------------

def test_delta_absorbs_ratio_prefactor():
    d = DeltaFactor(Z1, Z2, NO_SHIFT)
    e = Element(1, {("", (d,), ((),)): parse_expr("z1/z2")})
    out = delta_normalize(e)
    assert out == Element(1, {("", (d,), ((),)): R1})


def test_delta_rewrites_argument_to_support():
    d = DeltaFactor(Z1, Z2, (0, -2, 0, 0))  # delta((z1/z2) q^-c)
    stay = Element.word((GenOcc(LSTAR, 1, 1, ArgShift(Z2, (0, 1, 0, 0))),),
                        deltas=(d,))
    assert delta_normalize(stay) == stay
    move = Element.word((GenOcc(LSTAR, 1, 1, ArgShift(Z1, (0, -1, 0, 0))),),
                        deltas=(d,))
    assert delta_normalize(move) == stay


def test_delta_forces_coefficient_cancellation():
    d = DeltaFactor(Z1, Z2, (0, -2, 0, 0))
    f = parse_expr("z1*z2 + q")
    # f(z1,z2) delta - f(z2 q^c, z2) delta = 0
    fsub = f.substitute({"z1": {"z2": 1, "u1": 2}})
    e = (Element(1, {("", (d,), ((),)): f})
         - Element(1, {("", (d,), ((),)): fsub}))
    assert delta_normalize(e).is_zero()


def test_contradictory_deltas_flagged():
    d1 = DeltaFactor(Z1, Z2, NO_SHIFT)
    d2 = DeltaFactor(Z1, Z2, (2, 0, 0, 0))
    e = Element(1, {("", (d1, d2), ((),)): R1})
    out = delta_normalize(e)
    assert len(out.terms) == 1
    (flag, _, _), = out.terms
    assert flag == "contradictory-delta"


def test_duplicate_deltas_merged():
    d = DeltaFactor(Z1, Z2, (2, 0, 0, 0))
    e = Element(1, {("", (d, d), ((),)): R1})
    out = delta_normalize(e)
    assert out == Element(1, {("", (d,), ((),)): R1})


def test_degenerate_delta_flagged_by_rule():
    rs = _scalar_rs("double")
    e = Element.word((_phi(1, Z1), _phistar(1, Z1)))  # same variable
    out = normal_order(e, rs)
    flags = {flag for (flag, _, _) in out.terms}
    assert "degenerate-delta" in flags


def test_make_delta_orientation():
    d = make_delta(ArgShift(Z2, NO_SHIFT), ArgShift(Z1, (0, 2, 0, 0)),
                   NO_SHIFT)
    assert d == DeltaFactor(Z1, Z2, (0, 2, 0, 0))


# -- defining relations, termination, braid -----------------------------------

@pytest.mark.parametrize("name,flavor", [
    ("example1", "particle"), ("example1", "extended"), ("example1", "double"),
    ("example2-n2", "extended"), ("example2-n2", "double"), ("identity", "double"),
])
def test_relations_self_normalize(name, flavor):
    rs = RewriteSystem(get_instance(name), flavor)
    for rid in FLAVOR_RELATIONS[flavor]:
        for idx, res in relation_self_residual(rs, rid):
            assert res.is_zero(), (rid, idx)


def _random_word(rng, rs, kinds, length):
    occs = []
    for _ in range(length):
        kind = rng.choice(kinds)
        var = rng.choice([Z1, Z2, Z3])
        h = (rng.choice([-2, -1, 0, 1, 2]), rng.choice([-1, 0, 1]), 0, 0)
        row = rng.randint(1, rs.n)
        col = rng.randint(1, rs.n) if kind in (L, LSTAR) else 0
        occs.append(GenOcc(kind, row, col, ArgShift(var, h)))
    return Element.word(tuple(occs))


def test_termination_measure_decreases_fuzzed():
    from rhopf.errors import SingularError
    rng = random.Random(99)
    systems = [(_scalar_rs("double"), [PHI, PHISTAR, L, LSTAR]),
               (RewriteSystem(get_instance("example2-n2"), "extended"), [PHI, L])]
    steps = 0
    while steps < 800:
        rs, kinds = systems[rng.randrange(2)]
        e = _random_word(rng, rs, kinds, rng.randint(2, 4))
        trace = []
        try:
            normal_order(e, rs, trace=trace)
        except SingularError:
            continue  # rule hit a pole of an entry at a symbolic argument
        for before, after in trace:
            assert after < before
        steps += len(trace)
    assert steps >= 800


def test_normal_order_idempotent_fuzzed():
    from rhopf.errors import SingularError
    rng = random.Random(100)
    rs = _scalar_rs("double")
    done = 0
    while done < 60:
        e = _random_word(rng, rs, [PHI, PHISTAR, L, LSTAR],
                         rng.randint(2, 4))
        try:
            once = normal_order(e, rs)
        except SingularError:
            continue
        assert normal_order(once, rs) == once
        done += 1


def test_step_budget_raises_typed_error():
    rs = _scalar_rs("particle")
    # two rewrites: (z3, z1) then (z3, z2)
    e = Element.word((_phi(1, Z3), _phi(1, Z1), _phi(1, Z2)))
    with pytest.raises(BudgetError) as err:
        normal_order(e, rs, max_steps=1)
    assert isinstance(err.value, RhopfError)
    out = normal_order(e, rs, max_steps=3)
    assert [w for (_, _, (w,)) in out.terms] == [
        (_phi(1, Z1), _phi(1, Z2), _phi(1, Z3))]


def test_singular_argument_raises():
    from rhopf.errors import SingularError
    rs = _scalar_rs("extended")
    # Phi(z1 q) L(z1 q^(-1) q^(c/2)): the exchange evaluates the inverse
    # entry at exactly q^2, a pole of (x q^2 - 1)/(x - q^2)
    e = Element.word((_phi(1, Z1, (2, 0, 0, 0)),
                      _l(1, 1, Z1, (-2, 1, 0, 0))))
    with pytest.raises(SingularError):
        normal_order(e, rs)


def test_term_measure_components():
    key = ("", (), ((_phi(1, Z2), _phi(1, Z1)),))
    assert term_measure(key) == (2, 0, 1)
    key = ("", (), ((_phi(1, Z1), _l(1, 1, Z2)),))
    assert term_measure(key) == (2, 1, 0)


def test_braid_consistency_instances():
    for name in ("example1", "example2-n2", "example2-n3", "identity"):
        assert braid_consistency(get_instance(name))["agree"]
    broken = braid_consistency(get_instance("broken-nonunitary"))
    assert not broken["agree"]
    assert broken["involutivity_residual_terms"] > 0
