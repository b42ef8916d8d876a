"""Field arithmetic against independent oracles, plus randomized
ring-axiom checks."""

import random
from fractions import Fraction

import pytest

from rhopf import symfield as sf
from rhopf.errors import DomainError, ExponentError
from rhopf.expr import parse_expr
from rhopf.symfield import LaurentPoly, RatExpr


# -- independent oracle: naive convolution product of {(xexp, sexp): int} --

def conv_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def to_xs(expr_poly: LaurentPoly):
    out = {}
    for m, c in expr_poly.terms.items():
        d = dict(m)
        out[(d.get(sf.X, 0), d.get(sf.S, 0))] = c
    return out


def test_inverse_pair_is_one():
    r1 = parse_expr("(x - q^2)/(x*q^2 - 1)")
    r1inv = parse_expr("(x*q^2 - 1)/(x - q^2)")
    assert (r1 * r1inv).is_one()


def test_q_identity_collapses():
    assert parse_expr("q^2 + q^-2 - (q^4 + 1)/q^2").is_zero()


def test_unitarity_product_via_convolution_oracle():
    # expand numerators (x - q^2)(1 - q^2 x) and denominators
    # (x q^2 - 1)(q^2 - x) by brute-force convolution and compare
    num1 = {(1, 0): 1, (0, 4): -1}       # x - q^2
    num2 = {(0, 0): 1, (1, 4): -1}       # 1 - q^2 x
    den1 = {(1, 4): 1, (0, 0): -1}       # x q^2 - 1
    den2 = {(0, 4): 1, (1, 0): -1}       # q^2 - x
    assert conv_mul(num1, num2) == conv_mul(den1, den2)

    r1 = parse_expr("(x - q^2)/(x*q^2 - 1)")
    r1_inv_arg = r1.subs_monomial("x", sf.mono(x=-1))
    assert (r1 * r1_inv_arg).is_one()
    # the substituted factor canonicalizes to (1 - q^2 x)/(q^2 - x)
    assert r1_inv_arg == parse_expr("(1 - q^2*x)/(q^2 - x)")


def test_substitute_x_to_xq():
    f = parse_expr("(x - q^2)/(x*q^2 - 1)")
    got = f.subs_monomial("x", sf.mono(x=1, s=2))
    assert got == parse_expr("(x*q - q^2)/(x*q^3 - 1)")


def test_substitute_identity_binding():
    f = parse_expr("(x - q^2)/(x*q^2 - 1)")
    assert f.substitute({"x": {"x": 1}}) == f


def test_substitute_z_to_w_charge_shift():
    zw = parse_expr("z1/w")
    got = zw.subs_monomial("z1", sf.mono(w=1, u1=-2))
    assert got == parse_expr("u1^-2")


def test_substitute_rejects_fractional_exponent():
    f = parse_expr("z1 + 1")
    with pytest.raises(ExponentError):
        f.substitute({"z1": {"s": Fraction(1, 2)}})


def test_field_operators_and_div_by_zero():
    a = parse_expr("x + 1")
    b = parse_expr("x - 1")
    assert a + b == parse_expr("2*x")
    assert a - b == parse_expr("2")
    assert a * b == parse_expr("x^2 - 1")
    assert a / b == parse_expr("(x+1)/(x-1)")
    with pytest.raises(DomainError):
        a / RatExpr.from_int(0)


def test_clear_denominators_single():
    r1 = parse_expr("(x - q^2)/(x*q^2 - 1)")
    f = sf.clear_denominators([r1], "x")
    assert RatExpr(f) == parse_expr("x*q^2 - 1")


def test_clear_denominators_trivial():
    assert RatExpr(sf.clear_denominators([parse_expr("1")], "x")) == \
        parse_expr("1")


def test_clear_denominators_coprime_pair_up_to_unit():
    r1 = parse_expr("(x - q^2)/(x*q^2 - 1)")
    r2 = parse_expr("(x - q^-1)/(x*q^-1 - 1)")
    f = sf.clear_denominators([r1, r2], "x")
    expected = parse_expr("(x*q^2 - 1)*(x*q^-1 - 1)")
    ratio = RatExpr(f) / expected
    # equal up to a unit monomial in q
    assert len(ratio.num.terms) == 1 and len(ratio.den.terms) == 1
    # oracle: the two denominators are coprime (gcd is a unit), so the
    # lcm is their product
    g = sf.poly_gcd(parse_expr("x*q^2 - 1").num.terms,
                    parse_expr("x - q^2").num.terms)
    assert list(g.values()) == [1]


def test_clear_denominators_output_clears_every_entry():
    entries = [parse_expr(t) for t in
               ("(x - q^2)/(x*q^2 - 1)", "(x - q^-1)/(x*q^-1 - 1)", "q/x")]
    f = RatExpr(sf.clear_denominators(entries, "x"))
    for e in entries:
        assert sf.X not in (e * f).den.variables()


def test_clear_denominators_rejects_foreign_variable():
    with pytest.raises(DomainError):
        sf.clear_denominators([parse_expr("1/(x - w)")], "x")


def _random_ratexpr(rng):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = sf.mono_from_pairs(
                [(v, rng.randint(-2, 2)) for v in
                 rng.sample([sf.S, sf.X, sf.Z[0]], rng.randint(0, 2))])
            terms[m] = rng.randint(-5, 5) or 1
        return LaurentPoly(terms)
    num = rand_poly()
    den = rand_poly()
    while den.is_zero():
        den = rand_poly()
    return RatExpr(num, den)


def test_ring_axioms_randomized():
    rng = random.Random(7701)
    for _ in range(120):
        a, b, c = (_random_ratexpr(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a


def test_normalization_idempotent_randomized():
    rng = random.Random(7702)
    for _ in range(150):
        f = _random_ratexpr(rng)
        again = RatExpr(f.num, f.den)
        assert again.num == f.num and again.den == f.den


def test_cross_multiplication_agrees_with_canonical_equality():
    rng = random.Random(7703)
    for _ in range(150):
        a = _random_ratexpr(rng)
        scale = _random_ratexpr(rng)
        while scale.is_zero():
            scale = _random_ratexpr(rng)
        b = RatExpr(a.num * scale.num, a.den * scale.num)
        assert a == b and a.cross_equal(b)
        c = a + RatExpr.from_int(1)
        assert (a == c) == a.cross_equal(c)


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RatExpr(LaurentPoly.from_int(1), LaurentPoly.from_int(0))
