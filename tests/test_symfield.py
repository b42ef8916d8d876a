"""Field arithmetic against independent oracles, plus randomized
ring-axiom checks."""

import math
import random
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from rhopf import algebra, elemio, kernels, rmatrix, symfield as sf
from rhopf.errors import DomainError
from rhopf.expr import parse_expr
from rhopf.symfield import RatExpr

add, sub, mul = kernels.poly_add, kernels.poly_sub, kernels.poly_mul


# -- independent oracle: naive convolution product of {(xexp, sexp): int} --

def conv_mul(p, q):
    out = {}
    for (a1, b1), c1 in p.items():
        for (a2, b2), c2 in q.items():
            key = (a1 + a2, b1 + b2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: v for k, v in out.items() if v}


def test_inverse_pair_is_one():
    r1 = parse_expr("(x - q^2)/(x*q^2 - 1)")
    r1inv = parse_expr("(x*q^2 - 1)/(x - q^2)")
    assert r1 * r1inv == 1


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
    r1_inv_arg = r1.subs_monomial({sf.X: sf.mono(x=-1)})
    assert r1 * r1_inv_arg == 1
    # the substituted factor canonicalizes to (1 - q^2 x)/(q^2 - x)
    assert r1_inv_arg == parse_expr("(1 - q^2*x)/(q^2 - x)")


def test_substitute_x_to_xq():
    f = parse_expr("(x - q^2)/(x*q^2 - 1)")
    got = f.subs_monomial({sf.X: sf.mono(x=1, s=2)})
    assert got == parse_expr("(x*q - q^2)/(x*q^3 - 1)")


def test_substitute_identity_binding():
    f = parse_expr("(x - q^2)/(x*q^2 - 1)")
    assert f.subs_monomial({sf.X: sf.mono(x=1)}) == f


def test_substitute_z_to_w_charge_shift():
    zw = parse_expr("z1/w")
    got = zw.subs_monomial({sf.Z[0]: sf.mono(w=1, u1=-2)})
    assert got == parse_expr("u1^-2")


def test_substitute_is_simultaneous_swap():
    f = parse_expr("(u2^2 + u3)/(u2 - u3^3)")
    got = f.subs_monomial({sf.U[1]: sf.mono(u3=1), sf.U[2]: sf.mono(u2=1)})
    assert got == parse_expr("(u3^2 + u2)/(u3 - u2^3)")


def test_substitute_is_simultaneous_coproduct_renumbering():
    # the charge map of a coproduct on leg 1 of a two-leg element:
    # c1 -> c1 + c2, c2 -> c3
    f = parse_expr("u1^3*u2^2 + u2/(u1 - u2^2)")
    got = f.subs_monomial({sf.U[0]: sf.mono(u1=1, u2=1),
                           sf.U[1]: sf.mono(u3=1)})
    assert got == parse_expr("u1^3*u2^3*u3^2 + u3/(u1*u2 - u3^2)")


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
    f = sf.denominator_lcm([r1])
    assert RatExpr(f) == parse_expr("x*q^2 - 1")


def test_clear_denominators_trivial():
    assert RatExpr(sf.denominator_lcm([parse_expr("1")])) == \
        parse_expr("1")


def test_clear_denominators_coprime_pair_up_to_unit():
    r1 = parse_expr("(x - q^2)/(x*q^2 - 1)")
    r2 = parse_expr("(x - q^-1)/(x*q^-1 - 1)")
    f = sf.denominator_lcm([r1, r2])
    expected = parse_expr("(x*q^2 - 1)*(x*q^-1 - 1)")
    ratio = RatExpr(f) / expected
    # equal up to a unit monomial in q
    assert len(ratio.num) == 1 and len(ratio.den) == 1
    # oracle: the two denominators are coprime (gcd is a unit), so the
    # lcm is their product
    g = sf.poly_gcd(parse_expr("x*q^2 - 1").num, parse_expr("x - q^2").num)
    assert list(g.values()) == [1]


def test_clear_denominators_output_clears_every_entry():
    entries = [parse_expr(t) for t in
               ("(x - q^2)/(x*q^2 - 1)", "(x - q^-1)/(x*q^-1 - 1)", "q/x")]
    f = RatExpr(sf.denominator_lcm(entries))
    for e in entries:
        assert sf.X not in sf.variables((e * f).den)


def _random_ratexpr(rng):
    def rand_poly():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            m = sf.mono_from_pairs(
                [(v, rng.randint(-2, 2)) for v in
                 rng.sample([sf.S, sf.X, sf.Z[0]], rng.randint(0, 2))])
            terms[m] = rng.randint(-5, 5) or 1
        return terms
    num = rand_poly()
    den = rand_poly()
    while not den:
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
        b = RatExpr(mul(a.num, scale.num), mul(a.den, scale.num))
        assert a == b and a.cross_equal(b)
        c = a + RatExpr.from_int(1)
        assert (a == c) == a.cross_equal(c)


def test_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RatExpr({sf.mono(): 1}, {})


# -- operators and gcd routes against the full normalisation ------------------

_FIELD_VARS = (sf.S, sf.U[0], sf.Z[0], sf.Z[1])


def _poly(draw, lo=-2, hi=2, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        exps = draw(st.lists(st.integers(lo, hi), min_size=len(_FIELD_VARS),
                             max_size=len(_FIELD_VARS)))
        m = sf.mono_from_pairs(zip(_FIELD_VARS, exps))
        c = terms.get(m, 0) + draw(st.sampled_from((-3, -2, -1, 1, 2, 3)))
        if c:
            terms[m] = c
        else:
            terms.pop(m, None)
    return terms


@st.composite
def _fraction_pairs(draw):
    """Two fractions whose denominators share a drawn factor, so that the
    operators meet equal, coprime and partly shared denominators."""
    shared = draw(st.sampled_from((None, "poly", "same")))
    h = _poly(draw)
    while not h:
        h = _poly(draw)

    def fraction():
        num, den = _poly(draw), _poly(draw)
        while not den:
            den = _poly(draw)
        if shared == "poly":
            den = mul(den, h)
        elif shared == "same":
            den = h
        if draw(st.booleans()):
            num = mul(num, h)
        return RatExpr(num, den)
    return fraction(), fraction()


_ORACLE = settings(max_examples=150, deadline=None, database=None,
                   derandomize=True)


@_ORACLE
@given(_fraction_pairs())
def test_operators_equal_full_normalisation(pair):
    a, b = pair
    assert a + b == RatExpr(add(mul(a.num, b.den), mul(b.num, a.den)),
                            mul(a.den, b.den))
    assert a - b == RatExpr(sub(mul(a.num, b.den), mul(b.num, a.den)),
                            mul(a.den, b.den))
    assert a * b == RatExpr(mul(a.num, b.num), mul(a.den, b.den))
    if not b.is_zero():
        assert a / b == RatExpr(mul(a.num, b.den), mul(a.den, b.num))
        assert b.inverse() == RatExpr(b.den, b.num)
    assert a ** 2 == RatExpr(mul(a.num, a.num), mul(a.den, a.den))


@st.composite
def _products_sharing_a_numerator(draw):
    """A fraction x and two partners with one numerator: one partner's
    denominator carries a factor h of x's numerator, the other's need not.
    So equal numerators meet denominators with and without a common
    factor."""
    h = _poly(draw)
    assume(sf.variables(h))

    def nonzero():
        p = _poly(draw)
        assume(p)
        return p
    x = RatExpr(mul(nonzero(), h), nonzero())
    f = nonzero()
    return x, RatExpr(f, mul(nonzero(), h)), RatExpr(f, nonzero())


@_ORACLE
@given(_products_sharing_a_numerator())
def test_memoized_products_equal_full_normalisation(xyz):
    """Every product, also one repeated through a warm memo, equals the
    constructor's normalisation of the raw product."""
    x, y1, y2 = xyz
    sf.reset_memo()
    pairs = [(x, y1), (y1, x), (x, y2), (y2, x), (x, x), (y1, y2)]
    for a, b in pairs + pairs:
        assert a * b == RatExpr(mul(a.num, b.num), mul(a.den, b.den))


def _subresultant_gcd(p, q):
    """poly_gcd's subresultant route taken unconditionally: integer
    contents, v-contents, the subresultant sequence, primitive part."""
    cp, cq = sf._int_content(p), sf._int_content(q)
    c = math.gcd(cp, cq)
    p, q = sf._div_int(p, cp), sf._div_int(q, cq)
    shared = sf.variables(p) & sf.variables(q)
    if not shared or len(p) == 1 or len(q) == 1:
        return {m: k * c for m, k in sf.poly_gcd(p, q).items()}
    v = max(shared)
    contp, contq = sf._vcontent(p, v), sf._vcontent(q, v)
    a, b = sf.divexact(p, contp), sf.divexact(q, contq)
    if sf._deg(a, v) < sf._deg(b, v):
        a, b = b, a
    raw = sf._subresultant(a, b, v)
    raw = sf.divexact(raw, sf._vcontent(raw, v))
    raw = sf._div_int(raw, sf._int_content(raw))
    g = kernels.poly_mul(sf.poly_gcd(contp, contq), raw)
    return sf._pos_leading({m: k * c for m, k in g.items()})


@st.composite
def _ordinary_with_common_factor(draw):
    g = _poly(draw, 0, 2, 3)
    p, q = _poly(draw, 0, 2, 3), _poly(draw, 0, 2, 3)
    assume(g and p and q)
    return mul(p, g), mul(q, g)


@_ORACLE
@given(_ordinary_with_common_factor())
def test_poly_gcd_equals_subresultant_route(pq):
    p, q = pq
    assert sf.poly_gcd(p, q) == _subresultant_gcd(p, q)


@_ORACLE
@given(_ordinary_with_common_factor())
def test_poly_gcd_equals_sympy_up_to_sign(pq):
    sympy = pytest.importorskip("sympy")
    p, q = pq
    ours = sympy.expand(_to_sympy(sympy, sf.poly_gcd(p, q)))
    ref = sympy.expand(sympy.gcd(_to_sympy(sympy, p), _to_sympy(sympy, q)))
    assert ours == ref or ours == -ref


def _to_sympy(sympy, terms):
    syms = [sympy.Symbol(sf.VARS[v]) for v in range(sf.NVARS)]
    return sympy.Add(*[c * sympy.Mul(*[syms[v] ** e
                                       for v, e in sf.mono_items(m)])
                       for m, c in terms.items()])


@_ORACLE
@given(_fraction_pairs())
def test_canonical_forms_equal_sympy_cancel(pair):
    """Each operator's result, its Laurent monomials cleared into an
    ordinary pair, is the pair sympy's cancel (the polynomial-ring routine
    behind sympy.cancel) reduces the unreduced sum, difference, product or
    quotient to, up to one constant factor; the two parts share no integer
    content."""
    sympy = pytest.importorskip("sympy")
    ring, *_ = sympy.ring([sf.VARS[v] for v in _FIELD_VARS], sympy.ZZ)

    def ordinary(frac):
        """(num, den) in the ring, both multiplied by one monomial."""
        lows = {}
        for m in list(frac.num) + list(frac.den):
            for v, e in sf.mono_items(m):
                lows[v] = min(lows.get(v, 0), e)
        clear = sf.mono_from_pairs((v, -e) for v, e in lows.items())
        return tuple(ring({tuple(dict(sf.mono_items(m)).get(v, 0)
                                 for v in _FIELD_VARS): c
                           for m, c in kernels.poly_scale(
                               part, 1, clear).items()})
                     for part in (frac.num, frac.den))

    a, b = pair
    (an, ad), (bn, bd) = ordinary(a), ordinary(b)
    cases = [(a + b, an * bd + bn * ad, ad * bd),
             (a - b, an * bd - bn * ad, ad * bd),
             (a * b, an * bn, ad * bd)]
    if not b.is_zero():
        cases.append((a / b, an * bd, ad * bn))
    for ours, ref_num, ref_den in cases:
        assert sf.min_exponents(ours.den) == sf.mono()
        num, den = ordinary(ours)
        p, q = ref_num.cancel(ref_den)
        assert num * q == den * p
        assert num.monoms() == p.monoms() and den.monoms() == q.monoms()
        assert math.gcd(num.content(), den.content()) == 1


def test_gcd_of_sixvertex_binomial_products():
    """Denominators of the six-vertex checks are products of binomials in
    z1, z2, q and the charges; two operands sharing two such factors."""
    f1 = parse_expr("q^2*u2^2*z2 - u1^2*z1").num
    f2 = parse_expr("q^2*u1^2*z1 - z2").num
    f3 = parse_expr("z1 - q^2*z2").num
    f4 = parse_expr("q^4*u1^2*u2^2*z1*z2 - 1").num
    f5 = parse_expr("u2^2*z2 - q^2*u1^2*z1").num
    p, q = mul(mul(f1, f2), f3), mul(mul(mul(f1, f2), f4), f5)
    common = sf._pos_leading(mul(f1, f2))
    assert sf.poly_gcd(p, q) == common
    assert _subresultant_gcd(p, q) == common
    v = sf.Z[1]
    assert sf._heugcd(p, q, v) == common
    # the coprime cofactors take the main route, which finds the gcd 1
    assert sf.poly_gcd(mul(f3, f5), f4) == {sf.mono(): 1}
    a = RatExpr({sf.mono(): 1}, mul(mul(f1, f2), f3))
    b = RatExpr(f3, mul(f1, f4))
    assert a + b == RatExpr(add(mul(f1, f4), mul(mul(mul(f3, f1), f2), f3)),
                            mul(mul(mul(mul(f1, f2), f3), f1), f4))
    assert (a * b).den == sf._pos_leading(mul(mul(mul(f1, f1), f2), f4))


def test_gcd_of_the_workload_input_that_reaches_heugcd(monkeypatch):
    """A pair met on example2-n2 verify-hopf with ll-star=literal while
    its sums still took gcds; no benchmark workload reaches GCDHEU now,
    so this pair keeps the route tested: neither operand divides the
    other, so the gcd in the main variable z1 is GCDHEU's."""
    sympy = pytest.importorskip("sympy")
    a = parse_expr(
        "q^3*u2^6*z2^3 - q^4*u1^2*u2^4*z1*z2^2 - q^2*u2^4*z1*z2^2"
        " - q*u2^4*z1*z2^2 + q^3*u1^2*u2^2*z1^2*z2"
        " + q^2*u1^2*u2^2*z1^2*z2 + u2^2*z1^2*z2 - q*u1^2*z1^3").num
    b = parse_expr("u2^2*z2^2 - q^2*u1^2*u2^4*z1*z2 - q*u1^2*z1*z2"
                   " + q^3*u1^4*u2^2*z1^2").num
    g = parse_expr("u2^2*z2 - q*u1^2*z1").num
    heugcd = sf._heugcd
    mains = []

    def recording(p, q, v):
        mains.append(v)
        return heugcd(p, q, v)

    monkeypatch.setattr(sf, "_heugcd", recording)
    assert sf.poly_gcd(a, b) == g
    assert sf.Z[0] in mains
    ref = sympy.gcd(_to_sympy(sympy, a), _to_sympy(sympy, b))
    assert sympy.expand(ref - _to_sympy(sympy, g)) == 0 or \
        sympy.expand(ref + _to_sympy(sympy, g)) == 0
    assert heugcd(a, b, sf.Z[0]) == g


def test_heugcd_moves_on_when_the_values_share_a_spurious_factor():
    # at the first point xi = 34 the cofactors x - 4 and -(x^2 + 4) take
    # values with a common factor 10, so gcd(a(34), b(34)) = 10 * g(34)
    # reconstructs no divisor; the next point gives g = 4x^3 + 3x
    a = parse_expr("4*x^4 - 16*x^3 + 3*x^2 - 12*x").num
    b = parse_expr("-4*x^5 - 19*x^3 - 12*x").num
    g = parse_expr("4*x^3 + 3*x").num
    one = sf.mono()
    assert math.gcd(sf._eval_at(a, sf.X, 34)[one],
                    sf._eval_at(b, sf.X, 34)[one]) == \
        10 * sf._eval_at(g, sf.X, 34)[one]
    assert sf._heugcd(a, b, sf.X) == g
    assert sf.poly_gcd(a, b) == g


def test_divexact_integer_long_division():
    x_sq = parse_expr("x^2 - 1").num
    assert sf.divexact(x_sq, parse_expr("x - 1").num) == \
        parse_expr("x + 1").num
    with pytest.raises(DomainError):
        sf.divexact(parse_expr("2*x + 1").num, {sf.mono(): 2})
    with pytest.raises(DomainError):
        sf.divexact(x_sq, parse_expr("x - 2").num)


@_ORACLE
@given(_ordinary_with_common_factor())
# primitive degrees 5 and 3, a gap of 2, which takes the subresultant's
# delta > 1 update of h; the gcd is 2x + 4
@example((parse_expr("(x^4 + 1)*(2*x + 4)").num,
          parse_expr("(x^2 + 3)*(6*x + 12)").num))
def test_poly_gcd_subresultant_fallback(pq):
    """With GCDHEU giving up every time, the subresultant fallback gives
    the same gcd."""
    p, q = pq
    expected = sf.poly_gcd(p, q)
    heugcd = sf._heugcd
    sf._heugcd = lambda a, b, v: None
    try:
        assert sf.poly_gcd(p, q) == expected
    finally:
        sf._heugcd = heugcd


# -- factored denominators ----------------------------------------------------

_SPLIT_CASES = ([f"s^{k} - 1" for k in range(1, 13)]
                + [f"s^{k} + 1" for k in range(1, 13)]
                + ["z1^2*s^4 - z2^2", "z1^2*s^4 + z2^2",       # gcd 2
                   "u1^3*z2^3 - z1^3", "u1^3*z2^3 + z1^3",     # gcd 3
                   "z1^4*s^8 - u2^4*z2^4", "z1^4 + s^4*z2^4",  # gcd 4
                   "q*u1^2*z1 - z2", "x*q^3 + 1"])             # gcd 1


def _expand_factors(fac):
    out = {sf.mono(): 1}
    for f, e in fac.items():
        for _ in range(e):
            out = mul(out, sf.factor_terms(f))
    return out


@pytest.mark.parametrize("text", _SPLIT_CASES)
def test_binomial_split_equals_sympy_factor_list(text):
    """The cyclotomic split of a unit binomial is its factorization into
    irreducibles over Z, and its factors multiply out to it."""
    sympy = pytest.importorskip("sympy")
    den = sf._pos_leading(parse_expr(text).num)
    fac = sf.split_binomial(den)
    assert _expand_factors(fac) == den

    def up_to_sign(expr):
        expr = sympy.expand(expr)
        return frozenset((expr, -expr))
    ours = Counter((up_to_sign(_to_sympy(sympy, sf.factor_terms(f))), e)
                   for f, e in fac.items())
    content, ref = sympy.factor_list(_to_sympy(sympy, den))
    assert content in (1, -1)
    assert ours == Counter((up_to_sign(g), e) for g, e in ref)


# unit binomials, among them factors that split further and shared roots
_BINOMIALS = ("s^2 - 1", "s^2 + 1", "s^4 - 1", "s^6 - 1", "z1^2*s^4 - z2^2",
              "z1 - q*z2", "q*u1^2*z1 + z2", "u1^3*z2^3 - z1^3")
# factors that are not unit binomials, so their sums fall back to poly_gcd
_NOT_BINOMIALS = ("x^2 + x + 1", "3*x - 2")
# substitutions that split, merge or (s -> 1) collapse factor images
_SMAPS = ({sf.S: sf.mono(s=2)}, {sf.Z[0]: sf.mono(z1=2, z2=1)},
          {sf.U[0]: sf.mono(u1=1, u2=1)}, {sf.S: sf.mono()})


@st.composite
def _binomial_fractions(draw, pool):
    """Two fractions whose denominators are products of powers (up to 4)
    of drawn pool factors, with a part drawn once and shared by both;
    each denominator is built by products of inverses, as rule
    application builds them, and a numerator may carry a pool factor."""
    pool = [parse_expr(text) for text in pool]

    def part(top, least):
        return draw(st.lists(st.tuples(st.sampled_from(range(len(pool))),
                                       st.integers(1, top)),
                             min_size=least, max_size=1))
    shared = part(4, 0)

    def fraction():
        frac = RatExpr(_poly(draw))
        for i, k in shared + part(2, 1):
            frac = frac * pool[i].inverse() ** k
        if draw(st.booleans()):
            frac = frac * draw(st.sampled_from(pool))
        return frac
    return fraction(), fraction()


def _assert_factors_multiply_out(r):
    if r.fac is not None:
        assert _expand_factors(r.fac) == r.den


def _check_sums(pair):
    """Sum and difference against the constructor's full normalisation,
    for the pair (a, c) and for (a, c - a), whose sum must cancel down to
    c's denominator; the poly_gcd fallback counted exactly when an operand
    is not factored and neither denominator is 1."""
    a, c = pair
    for b, op, combine in ((c, RatExpr.__sub__, sub),
                           (c - a, RatExpr.__add__, add)):
        before = sf.SUM_GCD_FALLBACKS
        got = op(a, b)
        assert got == RatExpr(combine(mul(a.num, b.den), mul(b.num, a.den)),
                              mul(a.den, b.den))
        _assert_factors_multiply_out(got)
        fell_back = ((a.fac is None or b.fac is None)
                     and a.den != {sf.mono(): 1} and b.den != {sf.mono(): 1})
        assert sf.SUM_GCD_FALLBACKS == before + fell_back
        for smap in _SMAPS:
            try:
                want = RatExpr(sf._subst(got.num, smap),
                               sf._subst(got.den, smap))
            except DomainError:
                with pytest.raises(DomainError):
                    got.subs_monomial(smap)
                continue
            image = got.subs_monomial(smap)
            assert image == want
            _assert_factors_multiply_out(image)


@settings(max_examples=60, deadline=None, database=None,
          derandomize=True)
@given(_binomial_fractions(_BINOMIALS))
@example((parse_expr("1/(s^4 - 1)"), parse_expr("1/(s^2 + 1)")))
def test_sums_over_split_binomials_equal_full_normalisation(pair):
    a, b = pair
    assert a.fac is not None and b.fac is not None
    _assert_factors_multiply_out(a)
    _assert_factors_multiply_out(b)
    _check_sums(pair)


@settings(max_examples=30, deadline=None, database=None,
          derandomize=True)
@given(_binomial_fractions(_BINOMIALS[:4] + _NOT_BINOMIALS))
def test_sums_with_an_unfactored_denominator_equal_full_normalisation(pair):
    _check_sums(pair)


# binomials whose splits share the factors s - 1, s + 1 and s^2 + 1
_SHARING = ("s^2 - 1", "s^2 + 1", "s^4 - 1", "s - 1", "s^6 - 1",
            "z1 - q*z2", "z1^2 - s^4*z2^2")


@st.composite
def _denominator_lists(draw):
    """One to six fractions, each denominator a product of powers (up to
    3) of binomials drawn from ``_SHARING``, so that operands hold shared
    factors at different exponents; sometimes one operand also carries
    an unfactored denominator."""
    pool = [parse_expr(text) for text in _SHARING]
    out = []
    for _ in range(draw(st.integers(1, 6))):
        frac = RatExpr(_poly(draw, max_terms=2))
        for i, k in draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                            st.integers(1, 3)),
                                  min_size=1, max_size=2)):
            frac = frac * pool[i].inverse() ** k
        out.append(frac)
    if draw(st.integers(0, 3)) == 0:
        other = parse_expr(draw(st.sampled_from(_NOT_BINOMIALS)))
        i = draw(st.integers(0, len(out) - 1))
        out[i] = out[i] / other
    return out


@settings(max_examples=60, deadline=None, database=None,
          derandomize=True)
@given(_denominator_lists())
@example([parse_expr("1/(s^4 - 1)^2"), parse_expr("1/((s - 1)^3*(s + 1))")])
def test_denominator_lcm_equals_the_poly_lcm_fold(coeffs):
    """The lcm read from the factorizations (each factor at its highest
    exponent) is the canonical polynomial a plain ``poly_lcm`` fold
    gives; an unfactored operand takes the fold itself."""
    want = {sf.mono(): 1}
    for c in coeffs:
        want = sf.poly_lcm(want, c.den)
    assert sf.denominator_lcm(coeffs) == want


@pytest.mark.parametrize("texts", [
    ("x/(2*x - 2)",),
    ("q/(2*x)", "3/(x - q)"),
    ("(x - q^2)/(6*x*q^2 - 6)", "s/(4*x*q^2 - 4)", "x/(x^2 + x + 1)"),
    ("(x + 1)/(x - 1)", "1/(x + 1)"),
])
def test_cleared_coefficients_keep_the_integer_content(texts):
    """``denominator_lcm`` is primitive, so clearing a coefficient whose
    denominator has integer content leaves that content over the cleared
    numerator, and the result equals the product through the field."""
    coeffs = [parse_expr(t) for t in texts]
    clear = sf.denominator_lcm(coeffs)
    for c in coeffs:
        t, n = sf.clear_denominator(c, clear)
        assert RatExpr.from_laurent(t, n) == c * RatExpr(clear)


def test_laurent_constructor_and_monomial_product_are_canonical():
    t = {sf.mono(x=-1, s=2): 4, sf.mono(s=1): -6}
    assert RatExpr.from_laurent(t) == RatExpr(t)
    assert RatExpr.from_laurent(t, 4) == RatExpr(t, {sf.mono(): 4})
    assert RatExpr.from_laurent({}, 3) == RatExpr.from_int(0)
    c = parse_expr("(x - q)/(3*x*s + 3)")
    m = sf.mono(x=-2, s=1)
    assert c.mul_mono(m, -1) == c * RatExpr({m: -1})
    assert c.mul_mono(m, -1).fac == (c * RatExpr({m: -1})).fac



def _over(num, *dens):
    """num over the product of the binomials dens[i][0] to the powers
    dens[i][1], built by products of inverses so that it keeps its
    factorization."""
    out = parse_expr(num)
    for text, k in dens:
        out = out * parse_expr(text).inverse() ** k
    return out


@st.composite
def _products_over_split_binomials(draw):
    """Two fractions as ``_binomial_fractions`` draws them, each numerator
    times one or two factors of the other's denominator that its own
    lacks, each to an exponent below, at or above the one there: so a
    product cancels nothing, part of a factor, all of it, or all of it
    with some left in the numerator."""
    a, c = draw(_binomial_fractions(_BINOMIALS))

    def carrying(x, other):
        factors = sorted(f for f in other.fac.items() if f[0] not in x.fac)
        num = x.num
        for f, e in draw(st.lists(st.sampled_from(factors), max_size=2,
                                  unique=True) if factors else st.just([])):
            k = e + draw(st.sampled_from((-1, 0, 1)))
            num = mul(num, sf._poly_pow(sf.factor_terms(f), k))
        return RatExpr._canonical(num, x.den, x.fac)
    return carrying(a, c), carrying(c, a)


@settings(max_examples=80, deadline=None, database=None,
          derandomize=True)
@given(_products_over_split_binomials())
@example((_over("(s^2 + 1)^2*s^-1", ("s^4 - 1", 1), ("z1 - q*z2", 2)),
          _over("(s + 1)^3*(s^2 - s + 1)*z2^-2", ("s^2 + 1", 2))))
@example((_over("(s^2 + 1)*z1", ("z1 - q*z2", 1)),
          _over("(z1 - q*z2)^2*s^-3", ("s^2 + 1", 2))))
@example((_over("(s - 1)^2*(z1 - q*z2)*x^-1", ("s^2 + 1", 1), ("x - q", 2)),
          _over("(x - q)*(s^2 + 1)^3", ("s - 1", 1), ("z1 - q*z2", 2))))
def test_products_over_split_binomials_equal_full_normalisation(pair):
    """A product of factored operands cancels by trial division over the
    denominators' factors; cold and again through a warm memo it equals
    the constructor's normalisation of the raw product, and its
    factorization multiplies out to its denominator."""
    a, c = pair
    for x in pair:
        assert x == RatExpr(x.num, x.den)
        _assert_factors_multiply_out(x)
    sf.reset_memo()
    pairs = [(a, c), (c, a), (a, a), (c, c)]
    for x, y in pairs + pairs:
        got = x * y
        assert got == RatExpr(mul(x.num, y.num), mul(x.den, y.den))
        assert got.fac is not None
        _assert_factors_multiply_out(got)


def test_factored_products_take_no_poly_gcd(monkeypatch):
    """A product whose denominators are factored cancels with no
    ``poly_gcd``; one with an unfactored denominator still takes it."""
    calls = []
    poly_gcd = sf.poly_gcd

    def counting(p, q):
        calls.append(1)
        return poly_gcd(p, q)
    monkeypatch.setattr(sf, "poly_gcd", counting)
    sf.reset_memo()
    a = _over("(s^4 - 1)*z1", ("z1 - q*z2", 2))
    b = _over("(z1 - q*z2)*s^-3", ("s^2 + 1", 1), ("s^6 - 1", 1))
    c = _over("x*q^3 + 1", ("x^2*s^2 - 1", 1))
    d = _over("s^2 + 1", ("x^2 + x + 1", 1))
    assert None not in (a.fac, b.fac, c.fac) and d.fac is None
    calls.clear()
    pairs = ((a, b), (b, a), (b, c), (c, b), (a, c), (b, b))
    products = [x * y for x, y in pairs]
    assert calls == []
    b * d
    assert calls
    for (x, y), got in zip(pairs, products):
        assert got == RatExpr(mul(x.num, y.num), mul(x.den, y.den))


def test_product_memo_tells_factored_from_unfactored_equal_values():
    """Equal values that differ in whether their factorization is known
    are two keys of the product memo: whichever is multiplied first, the
    factored operand's product keeps its factorization, so sums over it
    take the lcm route and no gcd fallback."""
    x1, xq = parse_expr("x - 1").num, parse_expr("x - q").num
    factored = RatExpr({sf.mono(): 1}, x1) * RatExpr({sf.mono(): 1}, xq)
    unfactored = RatExpr({sf.mono(): 1}, mul(x1, xq))
    assert factored == unfactored
    assert factored.fac is not None and unfactored.fac is None
    y = _over("z1", ("z1 - q*z2", 1))
    for order in ((factored, unfactored), (unfactored, factored)):
        sf.reset_memo()
        products = [v * y for v in order]
        got, other = products if order[0] is factored else products[::-1]
        assert got == other
        assert got.fac is not None
        _assert_factors_multiply_out(got)
        total = got + y - got * y
        assert sf.SUM_GCD_FALLBACKS == 0
        assert total == _constructor_sum([other, y, -(other * y)])



def _memo_size(memo) -> int:
    return len(memo) if isinstance(memo, dict) else \
        memo.cache_info().currsize


def test_reset_memo_empties_the_run_scoped_caches():
    """A sum over factored denominators fills the factor and expansion
    caches, a product and a substitution fill their memos, and
    ``reset_memo`` leaves every registered memo, of any module, empty but
    the value table, which holds the shared constants 0 and 1 alone."""
    sf.reset_memo()
    total = (_over("z1", ("z1 - q*z2", 1), ("s^4 - 1", 1))
             + _over("1", ("s^2 + 1", 2)))
    assert total.fac is not None
    image = (total * total).subs_monomial({sf.Z[0]: sf.mono(z2=1, u1=2)})
    assert image.fac is not None
    assert sf.factor_terms.cache_info().currsize > 0
    assert sf._expansion.cache_info().currsize > 0
    assert sf._SUMS and sf._PRODUCTS and sf._SUBSTS and sf._VALUES
    sf.reset_memo()
    assert [memo for memo in sf._RUN_MEMOS
            if memo is not sf._VALUES and _memo_size(memo)] == []
    assert list(sf._VALUES.values()) == [(sf._R0,), (sf._R1,)]


def test_the_constant_one_outlives_reset_memo():
    """The constants 1 and 0 that ``algebra``, ``elemio`` and ``rmatrix``
    bound at import are the run's one objects for 1 and 0 after
    ``reset_memo``: products with 1 are memoized once, and a zero built
    by the constructor, a sum or a product is the constant 0."""
    for _ in range(2):
        sf.reset_memo()
        assert RatExpr.from_int(1) is sf._R1
        assert algebra._R1 is elemio._R1 is rmatrix._R1 is sf._R1
        assert RatExpr({0: 3}, {0: 3}) is sf._R1
        assert RatExpr.from_int(0) is rmatrix._R0 is sf._R0
        x = _over("z1", ("s^2 + 1", 1))
        assert RatExpr({}, {0: 3}) is x - x is x * 0 is sf._R0
        before = len(sf._PRODUCTS)
        assert x * RatExpr.from_int(1) is x * sf._R1
        assert len(sf._PRODUCTS) == before + 1


def test_values_are_told_apart_when_every_hash_collides(monkeypatch):
    """The value table finds a candidate by hash and keeps it only when
    it is equal, so with one hash for every value (forged here) each
    product and sum still equals the constructor's normalisation, a
    factored operand's product stays factored, and a factored value and
    an unfactored equal one are two objects.  a and b differ only in
    their denominators."""
    monkeypatch.setattr(sf, "_value_hash", lambda num, den, factored: 7)
    sf.reset_memo()
    a = _over("z1", ("s^2 - 1", 1))
    b = _over("z1", ("s^2 + 1", 1))
    u = RatExpr._canonical(a.num, a.den, None)
    y = _over("z2 - 1", ("z1 - q*z2", 1))
    assert a != b and a.den == sub(b.den, {0: 2})
    assert u == a and u is not a and u.key != a.key
    assert RatExpr._canonical(b.num, b.den, b.fac) is b
    for x in (a, b, u, a, b, u):
        got = x * y
        assert got == RatExpr(mul(x.num, y.num), mul(x.den, y.den))
        assert (got.fac is None) == (x.fac is None)
        if x.fac is not None:
            assert sf.sum_fractions([x, y]) == _constructor_sum([x, y])
    assert len(sf._VALUES) == 1
    sf.reset_memo()


def test_values_with_equal_hashes_intern_apart():
    """An int hashes modulo 2^61 - 1, so 2^64 = 8 there and the packed
    monomials u2 and s^8 share a hash, and so do their values' buckets;
    they are still two objects with two serials."""
    sf.reset_memo()
    u2, s8 = RatExpr.var("u2"), RatExpr.var("s", 8)
    assert hash(sf.mono(u2=1)) == hash(sf.mono(s=8))
    assert sf._value_hash(u2.num, u2.den, True) == \
        sf._value_hash(s8.num, s8.den, True)
    assert u2 is not s8 and u2.key != s8.key
    assert RatExpr.var("u2") is u2 and RatExpr.var("s", 8) is s8
    assert (u2 * s8).key == (s8 * u2).key


def test_equal_values_are_one_object():
    """The constructor returns the run's one object for a value, also
    when it reaches the canonical form from another fraction."""
    sf.reset_memo()
    n, d = parse_expr("z1^2 - 1").num, parse_expr("z1 - 1").num
    assert RatExpr(n, d) is RatExpr(n, d)
    assert RatExpr(n, d) is RatExpr(parse_expr("z1 + 1").num)
    assert RatExpr(n, d) is parse_expr("z1 + 1")
    assert RatExpr.from_int(0) is RatExpr({}, d)


def test_shared_values_cannot_be_edited():
    """Every holder of a value shares its object, so no attribute of it
    can be set, and a refused write leaves it as it was."""
    x = _over("z1", ("s^2 - 1", 1))
    num, den, fac, key = x.num, x.den, x.fac, x.key
    for name in ("num", "den", "fac", "key", "other"):
        with pytest.raises(AttributeError):
            setattr(x, name, None)
    assert (x.num, x.den, x.fac, x.key) == (num, den, fac, key)


def test_sum_memo_keys_a_multiset():
    """[a, a] and [a, a, a] have the same set of operands, but not the
    same multiset: each sum is its own."""
    a = _over("z1", ("s^2 - 1", 1))
    b = _over("1", ("z1 - q*z2", 1))
    sf.reset_memo()
    for ops in ([a, a], [a, a, a], [a, b], [a, b, b], [b, a, a], [a, b]):
        assert sf.sum_fractions(ops) == _constructor_sum(ops)


@st.composite
def _laurent_over_factors(draw):
    """A factorization, of one to three ``_SHARING`` binomials each to a
    power up to 3, and a Laurent term map t: an integer content times a
    monomial with negative exponents times a drawn polynomial times each
    factor to a power from 0 to one above its exponent, so that some
    factors divide t fully, some in part and some not at all."""
    pool = [parse_expr(text) for text in _SHARING]
    frac = RatExpr.from_int(1)
    for i, k in draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                        st.integers(1, 3)),
                              min_size=1, max_size=3)):
        frac = frac * pool[i].inverse() ** k
    t = _poly(draw, max_terms=2)
    while not t:
        t = _poly(draw, max_terms=2)
    for f, e in sorted(frac.fac.items()):
        k = draw(st.integers(0, e + 1))
        t = mul(t, sf._poly_pow(sf.factor_terms(f), k))
    lows = draw(st.lists(st.integers(-3, 0), min_size=len(_FIELD_VARS),
                         max_size=len(_FIELD_VARS)))
    content = draw(st.sampled_from((1, 2, -3, 6)))
    t = kernels.poly_scale(t, content,
                           sf.mono_from_pairs(zip(_FIELD_VARS, lows)))
    return t, frac.fac


@settings(max_examples=80, deadline=None, database=None,
          derandomize=True)
@given(_laurent_over_factors())
@example((parse_expr("6*s^-2*z1^-1*(s - 1)^2*(s^2 + 1)*(z1 + 2)").num,
          _over("1", ("s^4 - 1", 2), ("z1 - q*z2", 1)).fac))
@example((parse_expr("x - s^4").num, _over("1", ("x - s^4", 1)).fac))
@example((parse_expr("s^3*z1*z2 + s").num,
          _over("1", ("z1 - q*z2", 1)).fac))
@example((parse_expr("z1^-2*(z1*s^3 - u1^2*x)^2*(x - 1)").num,
          _over("1", ("z1*s^3 - u1^2*x", 2), ("x - 1", 1),
                ("z2 - u1", 1)).fac))
def test_trial_cancel_equals_gcd_cancellation(pair):
    """Trial division of a Laurent t by the factors equals cancelling t's
    ordinary part against their product by its gcd: the same quotient,
    with t's monomial part put back, and a cut, within the exponents of
    the factorization, that multiplies out to that gcd."""
    t, fac = pair
    lows = sf.min_exponents(t)
    t_ord = kernels.poly_scale(t, 1, sf.mono_inv(lows))
    h = sf.poly_gcd(t_ord, sf._expand(fac))
    got, cut = sf._trial_cancel(t, fac)
    assert got == kernels.poly_scale(sf.divexact(t_ord, h), 1, lows)
    assert all(0 < e <= fac[f] for f, e in cut.items())
    assert _expand_factors(cut) == h


def _counting_divexact(monkeypatch) -> list:
    """Patch ``divexact`` to record every divisor it is given."""
    calls = []
    divexact = sf.divexact

    def counting(p, d):
        calls.append(d)
        return divexact(p, d)
    monkeypatch.setattr(sf, "divexact", counting)
    return calls


def test_trial_division_skips_a_factor_with_a_variable_t_lacks(
        monkeypatch):
    """A factor is refuted, with no ``divexact``, when its value at the
    primes does not divide that of t's ordinary part: with s, x, z1 and
    z2 at 2, 11, 13 and 17, the factor q z2 - z1 has the value 55.  So a
    factor over a variable that t lacks takes no division, and a factor
    over t's variables is refuted too unless it may divide."""
    calls = _counting_divexact(monkeypatch)
    fac = _over("1", ("z1 - q*z2", 1), ("s^2 + 1", 1)).fac
    values = {sf._at_primes(sf.factor_terms(f)) for f in fac}
    assert values == {55, 5}
    # (s^2 + 1)(z1 + 3) is 5 * 16 there, so z1 - q z2 is refuted
    t = parse_expr("z1^-1*(s^2 + 1)*(z1 + 3)").num
    got, cut = sf._trial_cancel(t, fac)
    assert calls == [sf.factor_terms((4, sf.mono(s=1)))]
    assert got == parse_expr("z1^-1*(z1 + 3)").num
    assert cut == _over("1", ("s^2 + 1", 1)).fac
    calls.clear()
    # (s^2 + 3)(x + 1) is 7 * 12: both are refuted
    t = parse_expr("(s^2 + 3)*(x + 1)").num
    assert sf._at_primes(t) == 84
    assert sf._trial_cancel(t, fac) == (t, {})
    assert calls == []


def test_trial_division_skips_a_factor_whose_lowest_term_cannot_divide(
        monkeypatch):
    """The ordinary part of s^3 z1 z2 + s is s^2 z1 z2 + 1, of value
    885 = 16 * 55 + 5 at the primes, so z1 - q z2 takes no ``divexact``
    although its leading monomial s^2 z2 divides.  A factor that divides
    t once is divided once, and t's value, divided along with t, refutes
    the second try: (q z2 - z1)(z1 + 3 z2) is 55 * 64 there."""
    calls = _counting_divexact(monkeypatch)
    fac = _over("1", ("z1 - q*z2", 2)).fac
    ft = sf.factor_terms(next(iter(fac)))
    assert sf._at_primes(ft) == 55
    t = parse_expr("s^3*z1*z2 + s").num
    assert sf._trial_cancel(t, fac) == (t, {})
    assert calls == []
    t = parse_expr("(q*z2 - z1)*(z1 + 3*z2)").num
    assert sf._at_primes(t) == 55 * 64
    assert sf._trial_cancel(t, fac) == (parse_expr("z1 + 3*z2").num,
                                        {next(iter(fac)): 1})
    assert calls == [ft]


@settings(max_examples=150, deadline=None, database=None,
          derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(range(sf.NVARS)),
                          st.integers(-6, 6), st.integers(-6, 6)),
                min_size=1, max_size=4),
       st.sampled_from((1, -1)), st.integers(1, 12))
@example([(sf.S, 1, 0)], -1, 1)
@example([(sf.S, 2, 0), (sf.X, 0, 1)], 1, 12)
def test_split_binomial_factors_never_vanish_at_the_primes(exps, sign, g):
    """Every factor of a unit binomial m1 + sign m2, with m1 / m2 a g-th
    power, has a nonzero value at the primes, so the evaluation of trial
    division never divides by zero: N(p) is a positive rational other
    than 1, and Phi_d has no positive real root but 1, for d = 1."""
    m1 = sf.mono_from_pairs((v, g * a) for v, a, _ in exps)
    m2 = sf.mono_from_pairs((v, g * b) for v, _, b in exps)
    assume(m1 != m2)
    fac = RatExpr({0: 1}, {m1: 1, m2: sign}).fac
    assert fac
    for f in fac:
        assert sf._at_primes(sf.factor_terms(f)) != 0


@settings(max_examples=80, deadline=None, database=None,
          derandomize=True)
@given(_laurent_over_factors(), st.integers(0, 2), st.integers(1, 3))
def test_evaluation_never_refutes_a_factor_of_a_multiple(pair, i, k):
    """For g over the factors as drawn and f one of them, trial division
    of f^k g by f to the exponent k cuts f exactly k times: the
    evaluation refutes no division that succeeds."""
    g, fac = pair
    f = sorted(fac)[i % len(fac)]
    t = mul(g, sf._poly_pow(sf.factor_terms(f), k))
    assert sf._trial_cancel(t, {f: k}) == (g, {f: k})


@st.composite
def _summand_lists(draw):
    """The contributions of a pending term: one to five fractions over
    products of powers (up to 2) of binomials from ``_SHARING``, built by
    products of inverses as rule application builds them, so that they
    share factors at equal and at different exponents; a numerator may
    carry a pool factor.  One time in three the list closes with
    y - (the sum of the others), so that it sums to 0 or to a fraction y
    over a single pool factor, and one time in four one operand is
    divided by a factor that is not a unit binomial."""
    pool = [parse_expr(text) for text in _SHARING]
    out = []
    for _ in range(draw(st.integers(1, 5))):
        frac = RatExpr(_poly(draw, max_terms=2))
        for i, k in draw(st.lists(st.tuples(st.integers(0, len(pool) - 1),
                                            st.integers(1, 2)),
                                  min_size=1, max_size=2)):
            frac = frac * pool[i].inverse() ** k
        if draw(st.booleans()):
            frac = frac * draw(st.sampled_from(pool))
        out.append(frac)
    close = draw(st.sampled_from((None, "zero", "fraction")))
    if close:
        y = RatExpr.from_int(0)
        if close == "fraction":
            y = RatExpr(_poly(draw, max_terms=2)) / draw(st.sampled_from(pool))
        for c in out:
            y = y - c
        out.append(y)
    if draw(st.integers(0, 3)) == 0:
        i = draw(st.integers(0, len(out) - 1))
        out[i] = out[i] / parse_expr(draw(st.sampled_from(_NOT_BINOMIALS)))
    return draw(st.permutations(out))


def _constructor_sum(coeffs):
    """The constructor's normalisation of the sum over the product of the
    denominators."""
    num, den = {}, {sf.mono(): 1}
    for c in coeffs:
        num = add(mul(num, c.den), mul(c.num, den))
        den = mul(den, c.den)
    return RatExpr(num, den)


@settings(max_examples=40, deadline=None, database=None,
          derandomize=True)
@given(_summand_lists())
@example([_over("1", ("s - 1", 1)), _over("-1", ("s + 1", 1)),
          _over("-2", ("s^2 - 1", 1))])
@example([_over("s", ("s - 1", 2)), _over("-1", ("s - 1", 2)),
          _over("1", ("s + 1", 1))])
@example([_over("1", ("s - 1", 1)) / parse_expr("x^2 + x + 1"),
          _over("-1", ("s - 1", 1)), _over("1", ("s + 1", 1))])
def test_sum_fractions_equals_the_pairwise_fold_and_the_constructor(coeffs):
    """The n-ary sum over the lcm of factored denominators equals the
    pairwise fold and the constructor's normalisation over the product of
    the denominators; its factorization multiplies out to its
    denominator, and a factored list that sums to zero takes no trial
    division.  An unfactored operand takes the pairwise fold."""
    calls = []
    trial_cancel = sf._trial_cancel

    def counting(t, fac):
        calls.append(fac)
        return trial_cancel(t, fac)
    sf._trial_cancel = counting
    try:
        got = sf.sum_fractions(coeffs)
    finally:
        sf._trial_cancel = trial_cancel
    fold = coeffs[0]
    for c in coeffs[1:]:
        fold = fold + c
    assert got == fold
    assert got == _constructor_sum(coeffs)
    if all(c.fac is not None for c in coeffs):
        assert got.fac is not None
        _assert_factors_multiply_out(got)
        if got.is_zero():
            assert calls == []
