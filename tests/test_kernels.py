"""Term-map kernels on randomized term maps, and the packed monomial
format against the pair-tuple kernels it replaced."""

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from rhopf import kernels, symfield as sf
from rhopf.errors import DomainError, ExponentError
from rhopf.symfield import RatExpr


def _rand_mono(rng):
    return sf.mono_from_pairs((v, rng.randint(-4, 4))
                              for v in rng.sample(range(8), rng.randint(0, 3)))


def _rand_poly(rng, big=False):
    out = {}
    for _ in range(rng.randint(0, 6)):
        c = rng.randint(-(10 ** 40), 10 ** 40) if big else \
            rng.randint(-9, 9)
        if c:
            out[_rand_mono(rng)] = c
    return out


def test_kernel_mul_commutes_and_distributes():
    rng = random.Random(311)
    for _ in range(100):
        p, q, r = (_rand_poly(rng) for _ in range(3))
        assert kernels.poly_mul(p, q) == kernels.poly_mul(q, p)
        lhs = kernels.poly_mul(p, kernels.poly_add(q, r))
        rhs = kernels.poly_add(kernels.poly_mul(p, q),
                               kernels.poly_mul(p, r))
        assert lhs == rhs


# -- reference: the pair-tuple kernels ----------------------------------------
#
# A monomial was a tuple of (variable-index, exponent) pairs, sorted by
# variable index, with no zero exponents.  These are those kernels with
# only their names prefixed.

def ref_mono_mul(a, b):
    """Merge two sorted exponent-pair tuples, summing exponents."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        va, ea = a[i]
        vb, eb = b[j]
        if va == vb:
            e = ea + eb
            if e:
                out.append((va, e))
            i += 1
            j += 1
        elif va < vb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def ref_mono_pow(a, e):
    if e == 0:
        return ()
    if e == 1:
        return a
    return tuple((v, x * e) for v, x in a)


def ref_poly_mul(p, q):
    """Product of two term maps."""
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = ref_mono_mul(ma, mb)
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def ref_poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def ref_poly_scale(p, c, mono):
    """Multiply a term map by the single term c * mono."""
    if c == 0:
        return {}
    if not mono:
        if c == 1:
            return dict(p)
        return {m: k * c for m, k in p.items()}
    return {ref_mono_mul(m, mono): k * c for m, k in p.items()}


def ref_subs_mono(m: tuple, smap: dict) -> tuple:
    """A monomial under the simultaneous substitution ``smap`` (variable
    index -> monomial)."""
    out = tuple((v, e) for v, e in m if v not in smap)
    for v, e in m:
        if v in smap:
            out = ref_mono_mul(out, ref_mono_pow(smap[v], e))
    return out


def ref_mono_key(m: tuple) -> tuple:
    """Dense exponent vector, most significant variable first."""
    key = [0] * sf.NVARS
    for v, e in m:
        key[v] = e
    key.reverse()
    return tuple(key)


# -- packed kernels against the reference ------------------------------------

_BIG = 2 ** 29
_pairs = st.dictionaries(st.integers(0, sf.NVARS - 1),
                         st.integers(-_BIG, _BIG), max_size=sf.NVARS).map(
    lambda d: tuple(sorted((v, e) for v, e in d.items() if e)))
_terms = st.dictionaries(_pairs, st.integers(-9, 9).filter(bool), max_size=4)
# substitutions over a few shared variables, so that an image often holds
# another substituted variable
_SUBS_VARS = (sf.S, sf.U[2], sf.Z[0], sf.W)
_image = st.dictionaries(st.sampled_from(_SUBS_VARS),
                         st.one_of(st.integers(-2, 2),
                                   st.integers(-_BIG, _BIG)),
                         max_size=3).map(
    lambda d: tuple(sorted((v, e) for v, e in d.items() if e)))
_smap = st.dictionaries(st.sampled_from(_SUBS_VARS), _image, max_size=3)


# the default example count, drawn the same on every run
_DRAWS = settings(derandomize=True, database=None, deadline=None)


def _enc(m):
    return sf.mono_from_pairs(m)


def _enc_terms(p):
    return {_enc(m): c for m, c in p.items()}


def _in_bound(m):
    return all(-2 ** 30 <= e < 2 ** 30 for _, e in m)


@_DRAWS
@given(_pairs)
def test_decoder_round_trip(m):
    assert sf.mono_items(_enc(m)) == m
    assert sf.variables({_enc(m): 1}) == {v for v, _ in m}


@_DRAWS
@given(_pairs, _pairs)
def test_integer_order_is_the_lex_order(a, b):
    assert (_enc(a) < _enc(b)) == (ref_mono_key(a) < ref_mono_key(b))
    assert (_enc(a) == _enc(b)) == (a == b)


@_DRAWS
@given(_terms, _terms)
@example({((sf.X, _BIG),): 1}, {((sf.X, _BIG),): 1})
@example({((sf.W, -_BIG),): 1}, {((sf.W, -_BIG - 1),): 1})
def test_products_match_the_reference(p, q):
    if all(_in_bound(ref_mono_mul(a, b)) for a in p for b in q):
        assert kernels.poly_mul(_enc_terms(p), _enc_terms(q)) == \
            _enc_terms(ref_poly_mul(p, q))
    else:
        with pytest.raises(DomainError):
            kernels.poly_mul(_enc_terms(p), _enc_terms(q))


@_DRAWS
@given(_terms, _terms)
def test_sums_match_the_reference(p, q):
    assert kernels.poly_add(_enc_terms(p), _enc_terms(q)) == \
        _enc_terms(ref_poly_add(p, q))


@_DRAWS
@given(_terms, st.integers(-5, 5), _pairs)
def test_scaling_matches_the_reference(p, c, m):
    if c == 0 or all(_in_bound(ref_mono_mul(a, m)) for a in p):
        assert kernels.poly_scale(_enc_terms(p), c, _enc(m)) == \
            _enc_terms(ref_poly_scale(p, c, m))
    else:
        with pytest.raises(DomainError):
            kernels.poly_scale(_enc_terms(p), c, _enc(m))


@_DRAWS
@given(_pairs, _smap)
@example(((sf.S, 1), (sf.Z[0], 2)),
         {sf.S: ((sf.Z[0], 1),), sf.Z[0]: ((sf.S, 1),)})
@example(((sf.S, _BIG), (sf.W, -_BIG)), {sf.S: ((sf.W, 2),)})
def test_substitution_matches_the_reference(m, smap):
    ref = ref_subs_mono(m, smap)
    packed = {v: _enc(image) for v, image in smap.items()}
    if _in_bound(ref):
        assert sf.subs_mono(_enc(m), packed) == _enc(ref)
    else:
        with pytest.raises(DomainError):
            sf.subs_mono(_enc(m), packed)


@_DRAWS
@given(_pairs, st.integers(-3, 3))
def test_powers_match_the_reference(m, e):
    ref = ref_mono_pow(m, e)
    if _in_bound(ref):
        assert kernels.mono_pow(_enc(m), e) == _enc(ref)
    else:
        with pytest.raises(DomainError):
            kernels.mono_pow(_enc(m), e)


def test_exponent_bound_of_inverse_and_repeated_variable():
    """-2^30 is in the bound, but its negative is not: the inverse of
    x^(-2^30) is an ExponentError.  A variable repeated in
    ``mono_from_pairs`` adds its exponents, and a sum past the bound is
    one too, although every exponent given lies in it."""
    low = sf.mono_from_pairs(((0, -2 ** 30),))
    with pytest.raises(ExponentError):
        kernels.mono_inv(low)
    top = sf.mono_from_pairs(((0, 2 ** 30 - 1),))
    assert kernels.mono_inv(top) == sf.mono_from_pairs(((0, 1 - 2 ** 30),))
    with pytest.raises(ExponentError):
        sf.mono_from_pairs(((0, 2 ** 30 - 1), (0, 1)))
    assert sf.mono_from_pairs(((0, 2 ** 30 - 1), (0, -1))) == \
        sf.mono_from_pairs(((0, 2 ** 30 - 2),))


def test_exponent_past_the_bound_raises():
    """An exponent outside [-2^30, 2^30) is a DomainError wherever it
    arises; the extreme exponents inside are exact."""
    x = sf.mono(x=1)
    top = kernels.mono_pow(x, 2 ** 30 - 1)
    assert sf.mono_items(top) == ((sf.X, 2 ** 30 - 1),)
    assert sf.mono_items(kernels.mono_pow(x, -2 ** 30)) == \
        ((sf.X, -2 ** 30),)
    with pytest.raises(DomainError):
        kernels.mono_pow(x, 2 ** 30)
    with pytest.raises(DomainError):
        kernels.mono_pow(x, -2 ** 30 - 1)
    # a chain of products
    m = sf.mono(x=2 ** 28)
    for _ in range(2):
        m = kernels.mono_mul(m, sf.mono(x=2 ** 28))
    with pytest.raises(DomainError):
        kernels.mono_mul(m, sf.mono(x=2 ** 28, w=1))
    with pytest.raises(DomainError):
        kernels.poly_mul({m: 1, x: 2}, {sf.mono(x=2 ** 28): 1})
    with pytest.raises(DomainError):
        kernels.poly_scale({m: 1}, 3, sf.mono(x=2 ** 28))
    with pytest.raises(DomainError):
        RatExpr.from_laurent({m: 1}) * RatExpr.var("x", 2 ** 28)
    with pytest.raises(DomainError):
        RatExpr.var("x") ** (2 ** 30)
    # a substitution
    f = RatExpr({sf.mono(x=2 ** 29): 1, sf.mono(): 1})
    assert f.subs_monomial({sf.X: sf.mono(x=1, z1=1)}).variables() == \
        {sf.X, sf.Z[0]}
    with pytest.raises(DomainError):
        f.subs_monomial({sf.X: sf.mono(x=2)})
    with pytest.raises(DomainError):
        sf.mono(s=2 ** 30)
    with pytest.raises(DomainError):
        sf.q_power(0, 0, 0, -2 ** 30 - 1)
