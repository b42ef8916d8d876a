"""Exact arithmetic in the coefficient field.

Elements are reduced fractions of multivariate Laurent polynomials over the
integers, each polynomial a term map as in ``kernels``.  The variable
alphabet is fixed:

    s < u1 < u2 < u3 < x < z1 < ... < z9 < w

with q = s^2 (so half-integer q-powers stay integral in s) and
u_t = q^(c_t/2) encoding the central-charge exponential of tensor leg t.
Later variables are more significant in the lexicographic order.

A monomial is a packed exponent vector (``kernels``): one int, whose
32-bit field v holds the exponent of variable v as a balanced digit, so
that products are integer sums, the unit monomial is 0 and integer order
is the lexicographic order above.  Read with the bias Q (2^30 per field),
a field is the unsigned digit e + 2^30.  Every exponent lies in
[-2^30, 2^30); the kernels check it where they build a monomial, and here
``mono_from_pairs``, ``subs_mono``, ``_xi_adic`` and ``divexact`` do,
with ``ExponentError`` on a violation.  Only this module and ``kernels``
know the format: other modules build monomials with ``mono``,
``mono_from_pairs`` and ``q_power``, multiply them with
``kernels.mono_mul``, and read them with ``mono_items``.

Canonical form of a fraction: numerator and denominator share no factor,
the denominator is an ordinary (non-Laurent) polynomial not divisible by
any variable, and its leading coefficient is positive.  The constructor
reaches it from any fraction in two steps, ``_orient`` and ``_cancel``.
Equality is plain structural comparison of canonical forms.  A fraction
also carries the factorization of its denominator into irreducibles when
it is known (see "factored denominators").  A sum or a product of such
fractions, and a substitution into one, reduces its raw result by trial
division by the factors, with no gcd.

Values are hash-consed for each run (``_VALUES``): the constructor and
``RatExpr._canonical`` return the one object that holds a given
numerator, denominator and factored-or-not, so such an object is never
edited, and its serial number ``key`` names its value.  Products, and sums
over factored denominators, are memoized whole (``_PRODUCTS``, ``_SUMS``)
by their operands' serials, so a hit takes no equality test, and so are
substitutions (``_SUBSTS``), by the operand's serial and the map, and a
product operand's trial division (``_CUTS``).  Every memo of any module
whose entries depend on a run's input, a dict or a ``functools.cache``, is
registered with ``run_memo`` where it is defined, and ``reset_memo``
empties them all.  Each memo, and GCDHEU in ``poly_gcd``, was measured to
pay for itself (README).
"""

from __future__ import annotations

import functools
import heapq
import itertools
from math import gcd as int_gcd, isqrt, prod

from . import kernels
from .errors import DomainError, ExponentError
from .kernels import BIAS, FIELD_BITS, FIELD_MASK, Q, TOPS, mono_inv

VARS = ("s", "u1", "u2", "u3", "x",
        "z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "z9", "w")
VAR_INDEX = {name: i for i, name in enumerate(VARS)}
NVARS = len(VARS)

S = VAR_INDEX["s"]
U = (VAR_INDEX["u1"], VAR_INDEX["u2"], VAR_INDEX["u3"])
X = VAR_INDEX["x"]
Z = tuple(VAR_INDEX[f"z{i}"] for i in range(1, 10))
W = VAR_INDEX["w"]
# the variables that may carry a spectral parameter: a generator's
# argument, or the ratio variable of an R-matrix
SPECTRAL = frozenset((X, W) + Z)

_ONE_TERMS = {0: 1}

if NVARS != kernels.NFIELDS:
    raise ImportError("the packed monomial format needs one field per "
                      "variable")
_SHIFT = tuple(FIELD_BITS * v for v in range(NVARS))

# the run-scoped memos; ``_cyclotomic`` and ``charge_shift`` are input-free
_RUN_MEMOS: list = []


def run_memo(memo):
    """Register the dict or ``functools.cache`` function ``memo`` for
    ``reset_memo`` to empty, and return it."""
    _RUN_MEMOS.append(memo)
    return memo


# ---------------------------------------------------------------------------
# monomials: packed exponent vectors (see ``kernels``)
# ---------------------------------------------------------------------------

def mono(**exps) -> int:
    """Build a monomial from variable-name keyword exponents."""
    pairs = []
    for name, e in exps.items():
        if name not in VAR_INDEX:
            raise DomainError(f"unknown variable {name!r}")
        pairs.append((VAR_INDEX[name], int(e)))
    return mono_from_pairs(pairs)


def mono_from_pairs(pairs) -> int:
    """The monomial prod v^e over (variable index, exponent) pairs; the
    exponents of a repeated variable add."""
    m = 0
    for v, e in pairs:
        if not -BIAS <= e < BIAS:
            raise ExponentError(f"exponent {e} of {VARS[v]} out of range "
                                f"[-2^30, 2^30)")
        m += e << _SHIFT[v]
        if (m + Q) & TOPS:
            kernels.overflow()
    return m


def mono_items(m: int) -> tuple:
    """The (variable index, nonzero exponent) pairs of a monomial, by
    increasing variable index: the one decoder of the packed format."""
    b = m + Q
    nz = b ^ Q  # nonzero exactly in the fields of nonzero exponents
    out = []
    while nz:
        v = ((nz & -nz).bit_length() - 1) // FIELD_BITS
        sh = _SHIFT[v]
        out.append((v, (b >> sh & FIELD_MASK) - BIAS))
        nz &= ~(FIELD_MASK << sh)
    return tuple(out)


def support(monos) -> int:
    """A mask nonzero exactly in the fields of the variables that occur
    in some of the monomials: it meets ``var_mask(vs)`` exactly when one
    of the variables vs occurs."""
    nz = 0
    for m in monos:
        nz |= (m + Q) ^ Q
    return nz


def var_mask(vs) -> int:
    """The bits of the fields of the variables of index in vs."""
    out = 0
    for v in vs:
        out |= FIELD_MASK << _SHIFT[v]
    return out


def variables(terms) -> set:
    """Indices of the variables occurring in a term map."""
    nz = support(terms)
    out = set()
    while nz:
        v = ((nz & -nz).bit_length() - 1) // FIELD_BITS
        out.add(v)
        nz &= ~(FIELD_MASK << _SHIFT[v])
    return out


def min_exponents(monos) -> int:
    """Monomial of per-variable minimum exponents over the monomials of a
    term map (its monomial part); a variable missing from a monomial
    counts as exponent 0.  All fields at once: in the biased digits,
    (lo | TOPS) - b keeps bit 31 of a field exactly where lo >= b, and no
    field borrows from the next."""
    it = iter(monos)
    lo = next(it, 0) + Q
    for m in it:
        b = m + Q
        ge = ((lo | TOPS) - b) & TOPS
        lo ^= (lo ^ b) & ((ge >> 31) * FIELD_MASK)
    return lo - Q


# ---------------------------------------------------------------------------
# multivariate gcd over the integers (ordinary polynomials)
# ---------------------------------------------------------------------------

def _strip_mono(terms: dict) -> tuple:
    """Factor a term map as monomial * ordinary-part with zero min exponents."""
    lows = min_exponents(terms)
    if not lows:
        return 0, terms
    inv = mono_inv(lows)
    return lows, kernels.poly_scale(terms, 1, inv)


def _int_content(terms: dict) -> int:
    c = 0
    for k in terms.values():
        c = int_gcd(c, abs(k))
    return c


def _div_int(terms: dict, n: int) -> dict:
    if n == 1:
        return terms
    return {m: c // n for m, c in terms.items()}


def _pos_leading(terms: dict) -> dict:
    if not terms:
        return terms
    if terms[max(terms)] < 0:
        return kernels.poly_neg(terms)
    return terms


_SIGNS = TOPS | Q


def divexact(p: dict, d: dict) -> dict:
    """Exact division of ordinary term maps in Z[vars]; raises DomainError
    if the quotient is not an ordinary polynomial with integer
    coefficients."""
    if not d:
        raise DomainError("division by zero polynomial")
    if not p:
        return {}
    # long division over the integers: in an exact division every quotient
    # term is the leading term of the remainder over that of d, so a
    # monomial or an integer that does not divide means the division is
    # inexact.  The terms below each leading one only ever get smaller, so
    # a heap of negated remainder monomials yields the leading ones in
    # order.  The quotient monomial of ordinary operands has every biased
    # digit in [2^30, 2^31) exactly when no exponent is negative.
    rem = dict(p)
    heap = [-m for m in rem]
    heapq.heapify(heap)
    dm = max(d)
    dc = d[dm]
    rest = [(m2, c2) for m2, c2 in d.items() if m2 != dm]
    quot: dict = {}
    while heap:
        m = -heapq.heappop(heap)
        c = rem.pop(m, 0)
        if not c:
            continue
        qm = m - dm
        if (qm + Q) & _SIGNS != Q:
            raise DomainError("inexact polynomial division")
        qc, r = divmod(c, dc)
        if r:
            raise DomainError("inexact polynomial division")
        quot[qm] = qc
        for m2, c2 in rest:
            mm = qm + m2
            if (mm + Q) & TOPS:
                kernels.overflow()
            old = rem.get(mm)
            if old is None:
                rem[mm] = -qc * c2
                heapq.heappush(heap, -mm)
            else:
                rem[mm] = old - qc * c2
    return quot


def _vexp(m: int, v: int) -> int:
    return ((m + Q) >> _SHIFT[v] & FIELD_MASK) - BIAS


def _deg(terms: dict, v: int) -> int:
    sh = _SHIFT[v]
    return max(((m + Q) >> sh & FIELD_MASK for m in terms),
               default=BIAS - 1) - BIAS


def _coeff_of(terms: dict, v: int, d: int) -> dict:
    sh = _SHIFT[v]
    digit, cut = d + BIAS, d << sh
    return {m - cut: c for m, c in terms.items()
            if (m + Q) >> sh & FIELD_MASK == digit}


def _vcontent(terms: dict, v: int):
    """Content of ``terms`` viewed as univariate in v: gcd of coefficients."""
    cont: dict = {}
    for d in range(_deg(terms, v) + 1):
        cd = _coeff_of(terms, v, d)
        if cd:
            cont = poly_gcd(cont, cd)
            if cont == _ONE_TERMS:
                break
    return cont


def _prem(a: dict, b: dict, v: int) -> dict:
    """Canonical pseudo-remainder lc(b)^(deg a - deg b + 1) * a mod b with
    respect to variable v (the full power, as the subresultant divisors
    assume)."""
    db = _deg(b, v)
    lb = _coeff_of(b, v, db)
    rem = a
    e = _deg(a, v) - db + 1
    while rem and _deg(rem, v) >= db:
        da = _deg(rem, v)
        la = _coeff_of(rem, v, da)
        xshift = mono_from_pairs(((v, da - db),))
        rem = kernels.poly_sub(
            kernels.poly_mul(lb, rem),
            kernels.poly_mul(kernels.poly_scale(la, 1, xshift), b))
        e -= 1
    if rem and e > 0:
        rem = kernels.poly_mul(rem, _poly_pow(lb, e))
    return rem


def poly_gcd(p: dict, q: dict) -> dict:
    """GCD in Z[vars] of ordinary term maps, positive leading coefficient."""
    if not p:
        return _pos_leading(q)
    if not q:
        return _pos_leading(p)
    if p == q:
        return _pos_leading(p)
    cp, cq = _int_content(p), _int_content(q)
    c = int_gcd(cp, cq)
    pp, qq = _div_int(p, cp), _div_int(q, cq)
    g = _gcd_primitive(pp, qq)
    if c != 1:
        g = {m: k * c for m, k in g.items()}
    return _pos_leading(g)


def _poly_pow(p: dict, e: int) -> dict:
    """p^e for an integer e >= 0, by repeated squaring."""
    out = dict(_ONE_TERMS)
    while e:
        if e & 1:
            out = kernels.poly_mul(out, p)
        e >>= 1
        if e:
            p = kernels.poly_mul(p, p)
    return out


def _subresultant(a: dict, b: dict, v: int) -> dict:
    """Subresultant pseudo-remainder sequence; returns the last nonzero
    member (primitive parts taken by the caller).  Inputs are primitive
    with respect to v with deg_v(a) >= deg_v(b)."""
    g = dict(_ONE_TERMS)
    h = dict(_ONE_TERMS)
    while True:
        db = _deg(b, v)
        if db == 0:
            # primitive and v-free: the pair is coprime in v
            return dict(_ONE_TERMS)
        delta = _deg(a, v) - db
        r = _prem(a, b, v)
        if not r:
            return b
        divisor = kernels.poly_mul(g, _poly_pow(h, delta))
        r = divexact(r, divisor)
        a, b = b, r
        g = _coeff_of(a, v, _deg(a, v))
        if delta == 1:
            h = g
        elif delta > 1:
            h = divexact(_poly_pow(g, delta), _poly_pow(h, delta - 1))


def _gcd_primitive(p: dict, q: dict) -> dict:
    """GCD of integer-primitive ordinary term maps, primitive result."""
    pvars = variables(p) | variables(q)
    if not pvars:
        return dict(_ONE_TERMS)
    if len(p) == 1 or len(q) == 1:
        # a single term: the gcd is the common monomial part (integer
        # contents are 1 here)
        return {min_exponents([*p, *q]): 1}
    # main variable: smallest maximum degree keeps the sequence short
    v = min(pvars, key=lambda u: (max(_deg(p, u), _deg(q, u)), u))
    contp, contq = _vcontent(p, v), _vcontent(q, v)
    cont = poly_gcd(contp, contq)
    a = divexact(p, contp) if contp != _ONE_TERMS else p
    b = divexact(q, contq) if contq != _ONE_TERMS else q
    if _deg(a, v) < _deg(b, v):
        a, b = b, a
    try:
        divexact(a, b)
        raw = b
    except DomainError:
        raw = _heugcd(a, b, v)
        if raw is None:
            raw = _subresultant(a, b, v)
            rc = _vcontent(raw, v)
            if rc != _ONE_TERMS:
                raw = divexact(raw, rc)
            ic = _int_content(raw)
            if ic not in (0, 1):
                raw = _div_int(raw, ic)
    out = kernels.poly_mul(cont, raw)
    return _pos_leading(out)


def _eval_at(terms: dict, v: int, xi: int) -> dict:
    """Term map with variable v set to the integer xi."""
    out: dict = {}
    for m, c in terms.items():
        e = _vexp(m, v)
        if e:
            m -= e << _SHIFT[v]
        val = out.get(m, 0) + c * xi ** e
        if val:
            out[m] = val
        elif m in out:
            del out[m]
    return out


def _xi_adic(terms: dict, v: int, xi: int) -> dict:
    """Inverse of ``_eval_at``: expand every integer coefficient in base xi
    with digits in (-xi/2, xi/2], digit i becoming the coefficient of v^i."""
    out: dict = {}
    half = xi // 2
    step = 1 << _SHIFT[v]
    for m, c in terms.items():
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                if (m + Q) & TOPS:
                    kernels.overflow()
                out[m] = r
            c = (c - r) // xi
            m += step
    return out


_HEU_ATTEMPTS = 6


def _heugcd(a: dict, b: dict, v: int):
    """GCDHEU (Char, Geddes & Gonnet, J. Symb. Comp. 7, 1989): the gcd of
    integer-primitive ordinary term maps, reconstructed from the gcd of
    their values at v = xi; None when no xi gives a common divisor.

    With xi >= 2 + 2*min(|a|, |b|) (largest coefficient), a candidate G
    that divides both is the gcd: gcd = G*h with h(xi) dividing the
    content of the digits, at most xi/2, while a factor of a that is not
    an integer has a larger value at xi (Cauchy's root bound, applied to
    h's leading form in the other variables and then to h in v)."""
    xi = 2 * min(max(map(abs, a.values())), max(map(abs, b.values()))) + 2
    for _ in range(_HEU_ATTEMPTS):
        gamma = poly_gcd(_eval_at(a, v, xi), _eval_at(b, v, xi))
        cand = _xi_adic(gamma, v, xi)
        cand = _pos_leading(_div_int(cand, _int_content(cand)))
        try:
            divexact(b, cand)
            divexact(a, cand)
            return cand
        except DomainError:
            xi = xi * 73794 * isqrt(isqrt(xi)) // 27011
    return None


def poly_lcm(p: dict, q: dict) -> dict:
    if not p or not q:
        return {}
    g = poly_gcd(p, q)
    out = divexact(kernels.poly_mul(p, q), g)
    ic = _int_content(out)
    if ic not in (0, 1):
        out = _div_int(out, ic)
    return _pos_leading(out)


# ---------------------------------------------------------------------------
# factored denominators
# ---------------------------------------------------------------------------
#
# A unit binomial m1 - m2 or m1 + m2 is +-m2*(M -+ 1) with M = m1/m2, and
# with M = N^g for the gcd g of M's exponents, a unimodular change of
# variables makes N one variable.  So N^g - 1 = prod_{d | g} Phi_d(N) and
# N^g + 1 = prod_{d | 2g, d not | g} Phi_d(N) split it into irreducibles
# over Z, the cyclotomic polynomials Phi_d evaluated at N.  A factor is
# the pair (d, N), with N's exponent vector primitive and positive in its
# most significant variable; ``factor_terms`` is Phi_d(N) cleared of
# N's negative exponents, ordinary, monic and positive-leading.  A
# factorization maps factors to exponents; a product of positive-leading
# factors leads positive, so it expands to the canonical denominator.

def _divisors(n: int) -> list:
    return [d for d in range(1, n + 1) if n % d == 0]


@functools.cache
def _cyclotomic(d: int) -> list:
    """Coefficients of Phi_d, lowest degree first: y^d - 1 divided by
    every Phi_e with e a proper divisor of d (all monic)."""
    p = [-1] + [0] * (d - 1) + [1]
    for e in _divisors(d)[:-1]:
        f = _cyclotomic(e)
        quot = [0] * (len(p) - len(f) + 1)
        for i in range(len(quot) - 1, -1, -1):
            quot[i] = c = p[i + len(f) - 1]
            for j, fj in enumerate(f):
                p[i + j] -= c * fj
        p = quot
    return p


def _primitive_root(m: int) -> tuple:
    """(N, g) with m = N^g or N^-g, g the gcd of m's exponents, and N
    positive in its most significant variable (so N > 0)."""
    g = int_gcd(*(e for _, e in mono_items(m)))
    return (m // g if m > 0 else m // -g), g


@run_memo
@functools.cache
def factor_terms(f: tuple) -> dict:
    """The ordinary term map of the factor f = (d, N).  Memoized, like
    ``_expansion``, until ``reset_memo``."""
    d, n = f
    items = mono_items(n)
    pos = mono_from_pairs((v, e) for v, e in items if e > 0)
    neg = mono_from_pairs((v, -e) for v, e in items if e < 0)
    coeffs = _cyclotomic(d)
    top = len(coeffs) - 1
    return {kernels.mono_mul(kernels.mono_pow(pos, i),
                             kernels.mono_pow(neg, top - i)): c
            for i, c in enumerate(coeffs) if c}


def split_binomial(den: dict):
    """Factorization of a canonical denominator: {} for 1, the cyclotomic
    split of a binomial with unit coefficients, None for anything else."""
    if len(den) != 2:
        return {} if den == _ONE_TERMS else None
    (m1, c1), (m2, c2) = den.items()
    if abs(c1) != 1 or abs(c2) != 1:
        return None
    if m1 < m2:
        m1, m2, c2 = m2, m1, c1
    n, g = _primitive_root(kernels.mono_mul(m1, mono_inv(m2)))
    if c2 < 0:
        return {(d, n): 1 for d in _divisors(g)}
    return {(d, n): 1 for d in _divisors(2 * g) if g % d}


def _map_factors(fac: dict, smap: dict):
    """The factorization of a denominator's image under the substitution
    ``smap``: Phi_d(P^k) = prod Phi_e(P) over the e dividing d*k with
    e / gcd(e, k) == d.  None when some N maps to 1 (a constant image)."""
    out: dict = {}
    for (d, n), e in fac.items():
        image = subs_mono(n, smap)
        if not image:
            return None
        p, k = _primitive_root(image)
        for d2 in _divisors(d * k):
            if d2 // int_gcd(d2, k) == d:
                out[(d2, p)] = out.get((d2, p), 0) + e
    return out


def _fac_mul(fa: dict, fb: dict) -> dict:
    """The factorization of a product (an operand itself when the other
    is empty)."""
    if not fb:
        return fa
    if not fa:
        return fb
    out = dict(fa)
    for f, e in fb.items():
        out[f] = out.get(f, 0) + e
    return out


def _fac_lcm(fa: dict, fb: dict) -> dict:
    """The factorization of an lcm (fa itself when fb adds nothing)."""
    out = fa
    for f, e in fb.items():
        if e > fa.get(f, 0):
            if out is fa:
                out = dict(fa)
            out[f] = e
    return out


def _fac_sub(fac: dict, cut: dict) -> dict:
    """The factorization of a quotient (fac itself when cut is empty)."""
    if not cut:
        return fac
    out = dict(fac)
    for f, e in cut.items():
        if out[f] == e:
            del out[f]
        else:
            out[f] -= e
    return out


# Sums that took ``poly_gcd`` because an operand's denominator is not
# factored; ``reset_memo`` zeroes it.
SUM_GCD_FALLBACKS = 0


def _expand(fac: dict) -> dict:
    """The canonical denominator with factorization ``fac``."""
    return _expansion(frozenset(fac.items())) if fac else _ONE_TERMS


@run_memo
@functools.cache
def _expansion(fac: frozenset) -> dict:
    """The expanded product of the (factor, exponent) pairs ``fac``: a run
    meets few distinct denominators.  Memoized until ``reset_memo``."""
    out = dict(_ONE_TERMS)
    for f, e in fac:
        out = kernels.poly_mul(out, _poly_pow(factor_terms(f), e))
    return out


# the point of ``_at_primes``: variable v at the v-th prime
_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


@run_memo
@functools.cache
def _mono_at_primes(m: int) -> int:
    """An ordinary monomial's value at ``_PRIMES``, until ``reset_memo``."""
    return prod(_PRIMES[v] ** e for v, e in mono_items(m))


def _at_primes(terms: dict) -> int:
    """An ordinary term map's value at ``_PRIMES``, a ring homomorphism
    Z[vars] -> Z."""
    return sum(c * _mono_at_primes(m) for m, c in terms.items())


def _trial_cancel(t: dict, fac: dict) -> tuple:
    """(t/h, h's factorization) for a nonzero Laurent term map t, with h
    the greatest divisor of t among products of the factors in ``fac``
    (each to at most its exponent there), found by trial division of t's
    ordinary part: t's monomial part is stripped once, up front, and put
    back on the quotient.  The factors are monic, so an exact quotient by
    one has integer coefficients whatever t's integer content.  One exact
    evaluation at p = ``_PRIMES`` refutes most divisions that would fail:
    f | t gives t = f g with g integral (Gauss's lemma; a factor has
    content 1), so f(p) | t(p).  And f(p) != 0, since N(p) is a positive
    rational other than 1 and the only positive real root of a cyclotomic
    polynomial is that of Phi_1, 1.  t(p) is divided along with t; every
    factor not refuted is tried by ``divexact``.  Its callers are
    ``_over_factors`` and ``_cut``."""
    if not fac:
        return t, {}
    shift, cur = _strip_mono(t)
    at = _at_primes(cur)
    cut: dict = {}
    for f, e in fac.items():
        ft = factor_terms(f)
        fp = _at_primes(ft)
        for _ in range(e):
            if at % fp:
                break
            try:
                cur = divexact(cur, ft)
            except DomainError:
                break
            at //= fp
            cut[f] = cut.get(f, 0) + 1
    if not cut:
        return t, cut
    if shift:
        cur = kernels.poly_scale(cur, 1, shift)
    return cur, cut


def _cut(x: "RatExpr", fac: dict) -> tuple:
    """``_trial_cancel`` of x's numerator by the factors ``fac``, memoized
    in ``_CUTS`` by the factor set and then x's serial: product-memo misses
    repeat an operand against the same few denominators, so the table
    holds one key object per distinct factor set."""
    fs = frozenset(fac.items())
    cuts = _CUTS.get(fs)
    if cuts is None:
        cuts = _CUTS[fs] = {}
    out = cuts.get(x.key)
    if out is None:
        out = cuts[x.key] = _trial_cancel(x.num, fac)
    return out


def _over_factors(t: dict, fac: dict) -> "RatExpr":
    """t / the expansion of ``fac``, in canonical form, for a nonzero
    Laurent term map t: the factors that divide t are cut by
    ``_trial_cancel``, the only gcd the fraction needs, because the factors
    are irreducible, pairwise coprime and monic.  Sums and substitutions
    end here."""
    t, cut = _trial_cancel(t, fac)
    fac = _fac_sub(fac, cut)
    return RatExpr._canonical(t, _expand(fac), fac)


def _lcm_sum(ops) -> "RatExpr":
    """The sum of the canonical fractions num / den over (num, den's
    factorization) pairs, in one step over a common denominator (Knuth,
    TAOCP vol. 2, 4.5.1): the lcm L of the denominators takes each factor
    to its highest exponent, with no gcd, and the numerators times L/den
    add to t.  A zero t takes no division; any other t is reduced over L
    by ``_over_factors``."""
    lcm: dict = {}
    for _, fac in ops:
        lcm = _fac_lcm(lcm, fac)
    t: dict = {}
    for num, fac in ops:
        if fac != lcm:
            num = kernels.poly_mul(num, _expand(_fac_sub(lcm, fac)))
        for m, c in num.items():
            s = t.get(m, 0) + c
            if s:
                t[m] = s
            elif m in t:
                del t[m]
    if not t:
        return RatExpr._canonical({}, dict(_ONE_TERMS), {})
    return _over_factors(t, lcm)


# ---------------------------------------------------------------------------
# rational expressions
# ---------------------------------------------------------------------------

class RatExpr:
    """Reduced fraction of Laurent polynomials, always in canonical form:
    ``num`` and ``den`` are term maps, and ``fac`` is the factorization of
    ``den`` (see ``split_binomial``), or None when it is not known.  A
    RatExpr is the run's one object for its value (``_VALUES``), so it
    cannot be edited; ``key`` is its serial number, which no other
    RatExpr has."""

    __slots__ = ("num", "den", "fac", "key")

    def __new__(cls, num: dict, den: dict = _ONE_TERMS):
        if not den:
            raise DomainError("zero denominator")
        if num:
            num, den = _orient(num, den)
            num, den = _cancel(num, den) or (num, den)
        else:
            den = _ONE_TERMS
        return RatExpr._canonical(num, den, split_binomial(den))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot set {name!r} of a shared RatExpr to "
                             f"{value!r}")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RatExpr":
        return cls.from_laurent({0: n} if n else {})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "RatExpr":
        return cls.from_laurent({mono(**{name: power}): 1})

    @classmethod
    def from_laurent(cls, terms: dict, n: int = 1) -> "RatExpr":
        """terms / n for a Laurent term map and a positive integer n.  Over
        1 the term map is already canonical; otherwise the constructor
        cancels the integer gcd."""
        if n == 1 or not terms:
            return cls._canonical(terms, _ONE_TERMS, {})
        return cls(terms, {0: n})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def variables(self) -> set:
        return variables(self.num) | variables(self.den)

    @staticmethod
    def _canonical(nt: dict, dt: dict, fac) -> "RatExpr":
        """The run's object for term maps that are already in canonical
        form and the factorization of ``dt`` or None: the one in
        ``_VALUES``, or a new one with the next serial number.  Equality
        is tested here, once per value built, and never on a memo hit."""
        factored = fac is not None
        h = _value_hash(nt, dt, factored)
        bucket = _VALUES.get(h, ())
        for x in bucket:
            if x.num == nt and x.den == dt and (x.fac is not None) == factored:
                return x
        out = object.__new__(RatExpr)
        setattr_ = object.__setattr__
        setattr_(out, "num", nt)
        setattr_(out, "den", dt)
        setattr_(out, "fac", fac)
        setattr_(out, "key", next(_SERIALS))
        _VALUES[h] = bucket + (out,)
        return out

    # -- field operations ---------------------------------------------------
    #
    # The operators build canonical results from canonical operands.  Over
    # factored denominators neither a sum nor a product takes a gcd: the
    # raw result is reduced over the known factors (``_over_factors``).

    def __add__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        return sum_fractions([self, other])

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def mul_mono(self, m: int, sign: int = 1) -> "RatExpr":
        """The product with the signed monomial sign * m, which stays
        canonical: a denominator has no monomial factor."""
        return RatExpr._canonical(kernels.poly_scale(self.num, sign, m),
                                  self.den, self.fac)

    def __neg__(self):
        return RatExpr._canonical(kernels.poly_neg(self.num), self.den,
                                  self.fac)

    def __mul__(self, other):
        """(a/b)*(c/d) through the product memo.  A miss with both
        denominators factored cancels operand-wise (Henrici; Knuth, TAOCP
        vol. 2, 4.5.1): a against d's factors and c against b's, since
        gcd(ac, bd) = gcd(a, d) gcd(c, b) for canonical operands.  Any
        other miss goes through the constructor."""
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        if not self.num or not other.num:
            return RatExpr._canonical({}, dict(_ONE_TERMS), {})
        key = (self.key, other.key)
        hit = _PRODUCTS.get(key)
        if hit is not None:
            return hit
        fb, fd = self.fac, other.fac
        if fb is None or fd is None:
            out = RatExpr(kernels.poly_mul(self.num, other.num),
                          kernels.poly_mul(self.den, other.den))
        else:
            a, cut_d = _cut(self, fd)
            c, cut_b = _cut(other, fb)
            fac = _fac_mul(_fac_sub(fb, cut_b), _fac_sub(fd, cut_d))
            out = RatExpr._canonical(kernels.poly_mul(a, c), _expand(fac),
                                     fac)
        _PRODUCTS[key] = out
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        if other.is_zero():
            raise DomainError("division by zero")
        return self * other.inverse()

    def inverse(self) -> "RatExpr":
        """d/n with n's monomial part moved to the numerator and the sign
        chosen so that the new denominator leads positive."""
        if self.is_zero():
            raise DomainError("inverse of zero")
        d, n = _orient(self.den, self.num)
        return RatExpr._canonical(d, n, split_binomial(n))

    def __pow__(self, e: int):
        if e == 0:
            return RatExpr.from_int(1)
        if e < 0:
            return self.inverse() ** (-e)
        # powers of coprime polynomials stay coprime
        fac = self.fac
        if fac is not None:
            fac = {f: k * e for f, k in fac.items()}
        return RatExpr._canonical(_poly_pow(self.num, e),
                                  _poly_pow(self.den, e), fac)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return (self.num == ({0: other} if other else {})
                    and self.den == _ONE_TERMS)
        return (isinstance(other, RatExpr)
                and self.num == other.num and self.den == other.den)

    def cross_equal(self, other: "RatExpr") -> bool:
        """Equality by cross-multiplication (must agree with ``==``)."""
        return (kernels.poly_mul(self.num, other.den)
                == kernels.poly_mul(other.num, self.den))

    def __repr__(self):
        return f"RatExpr({self.num!r}, {self.den!r})"

    # -- substitution -------------------------------------------------------

    def subs_monomial(self, smap: dict) -> "RatExpr":
        """Simultaneous substitution through the substitution memo
        (``_SUBSTS``): ``smap`` maps a variable index to the monomial that
        replaces the variable.  On a miss a factored denominator maps
        factor by factor, and the numerator cancels against the images by
        trial division."""
        key = (self.key, tuple(smap.items()))
        out = _SUBSTS.get(key)
        if out is None:
            num, den = _subst(self.num, smap), _subst(self.den, smap)
            fac = None if self.fac is None else _map_factors(self.fac, smap)
            if fac is None or not num:
                out = RatExpr(num, den)
            else:
                out = _over_factors(_orient(num, den)[0], fac)
            _SUBSTS[key] = out
        return out


def _orient(num: dict, den: dict) -> tuple:
    """num/den with den's monomial part moved into num and the sign
    chosen so that den leads positive: the input ``_cancel`` takes."""
    shift, den = _strip_mono(den)
    if shift:
        num = kernels.poly_scale(num, 1, mono_inv(shift))
    if den[max(den)] < 0:
        num, den = kernels.poly_neg(num), kernels.poly_neg(den)
    return num, den


def _cancel(t: dict, den: dict):
    """(t/h, den/h) for a nonzero Laurent term map t and an ordinary
    denominator with no monomial factor and a positive leading
    coefficient, with h = gcd(t, den); den/h keeps both properties.  None
    when t and den are coprime."""
    shift, t_ord = _strip_mono(t)
    h = poly_gcd(t_ord, den)
    if h == _ONE_TERMS:
        return None
    t_ord = divexact(t_ord, h)
    if shift:
        t_ord = kernels.poly_scale(t_ord, 1, shift)
    return t_ord, divexact(den, h)


# Rule application multiplies coefficients by the same few R and R^-1
# entries over and over, so whole products repeat: a run meets a few
# hundred distinct operand pairs.  The sums of ``normal_order`` repeat
# too: a failing six-vertex run adds 2,189 lists of 421 distinct ones.
# Each RatExpr is the one object for its value (hash-consing; Filliatre
# & Conchon, "Type-safe modular hash-consing", ML Workshop 2006):
# ``_VALUES`` maps ``_value_hash`` of a numerator, a denominator and the
# factored flag to the tuple of the objects with that hash, and
# ``_canonical`` tells them apart by full equality, so a hash collision
# only makes a bucket longer.  ``_SERIALS`` numbers the objects, and never
# restarts, so a serial names one value even across ``reset_memo``.
# ``_PRODUCTS`` maps the pair of the operands' serials to the product,
# and ``_SUMS`` the sorted serials of an operand list, a multiset, to the
# sum: a hit needs no test of its operands.  Substitutions repeat as well:
# every coproduct puts the same charge map into the same few coefficients,
# and ``_SUBSTS`` maps an operand's serial and the map's (variable,
# monomial) items to the image, and ``_CUTS`` (``_cut``) a factor set to
# a map from a product operand's serial to its trial division by those
# factors, so that each distinct factor set is one key.  The factored
# flag is part of a value, so a product of a factored operand stays
# factored.  Sharing is sound because no RatExpr or term map is mutated
# once built; RatExpr refuses every attribute write.  ``reset_memo``
# empties the five tables and puts back ``_R0`` and ``_R1``, the shared
# constants 0 and 1.
_VALUES: dict = run_memo({})
_SERIALS = itertools.count()
_PRODUCTS: dict = run_memo({})
_SUMS: dict = run_memo({})
_SUBSTS: dict = run_memo({})
_CUTS: dict = run_memo({})


def _value_hash(num: dict, den: dict, factored: bool) -> int:
    """The bucket of a value in ``_VALUES``."""
    return hash((frozenset(num.items()), frozenset(den.items()), factored))


def reset_memo():
    """Empty every run-scoped memo (``run_memo``), so that a run starts
    cold whatever ran before it in the process; put back ``_R0`` and
    ``_R1``, the objects for 0 and 1 that other modules bound at import,
    and zero ``SUM_GCD_FALLBACKS``.  Serial numbers are not reused."""
    global SUM_GCD_FALLBACKS
    for memo in _RUN_MEMOS:
        (memo.clear if isinstance(memo, dict) else memo.cache_clear)()
    for x in (_R0, _R1):
        h = _value_hash(x.num, x.den, True)
        _VALUES[h] = _VALUES.get(h, ()) + (x,)
    SUM_GCD_FALLBACKS = 0


# the constants 0 and 1, which other modules import; ``reset_memo`` keeps
# them
_R0 = RatExpr.from_int(0)
_R1 = RatExpr.from_int(1)


def subs_mono(m: int, smap: dict) -> int:
    """A monomial under the simultaneous substitution ``smap`` (variable
    index -> monomial): every exponent is read from m itself, and the
    images are multiplied onto m with the substituted variables cleared,
    so no image is substituted again."""
    b = m + Q
    img = 0
    try:
        for v, image in smap.items():
            e = (b >> _SHIFT[v] & FIELD_MASK) - BIAS
            if e:
                m -= e << _SHIFT[v]
                img = kernels.mono_mul(img, kernels.mono_pow(image, e))
        return kernels.mono_mul(m, img) if img else m
    except DomainError:
        # a partial product left the bound: redo the sum of exponents in
        # plain integers, so that only a result outside it raises
        exps = dict(mono_items(b - Q))
        out = {v: e for v, e in exps.items() if v not in smap}
        for v, image in smap.items():
            for u, k in mono_items(image):
                out[u] = out.get(u, 0) + exps.get(v, 0) * k
        return mono_from_pairs(out.items())


def _subst(terms: dict, smap: dict) -> dict:
    out: dict = {}
    for m, c in terms.items():
        base = subs_mono(m, smap)
        val = out.get(base, 0) + c
        if val:
            out[base] = val
        elif base in out:
            del out[base]
    return out


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------

def accumulate(out: dict, key, coeff: RatExpr):
    """Add ``coeff`` into the sparse map ``out`` at ``key``, keeping only
    nonzero values."""
    cur = out.get(key)
    if cur is not None:
        coeff = cur + coeff
    if coeff.is_zero():
        out.pop(key, None)
    else:
        out[key] = coeff


def sum_fractions(coeffs: list) -> RatExpr:
    """The sum of a nonempty list of RatExprs, and the one sum routine:
    ``a + b`` is ``sum_fractions([a, b])``.  When every denominator is
    factored, the sum memo (``_SUMS``), and on a miss one ``_lcm_sum``
    over all of them; otherwise the pairwise ``+`` from the left, and for
    two operands a/b and c/d the constructor's reduction of
    (a*d + c*b) / (b*d), a sum counted in ``SUM_GCD_FALLBACKS`` unless a
    denominator is 1."""
    global SUM_GCD_FALLBACKS
    if len(coeffs) == 1:
        return coeffs[0]
    if all(c.fac is not None for c in coeffs):
        key = tuple(sorted([c.key for c in coeffs]))
        out = _SUMS.get(key)
        if out is None:
            out = _SUMS[key] = _lcm_sum([(c.num, c.fac) for c in coeffs])
        return out
    if len(coeffs) > 2:
        return sum(coeffs[1:], coeffs[0])
    (a, b), (c, d) = ((x.num, x.den) for x in coeffs)
    if b != _ONE_TERMS and d != _ONE_TERMS:
        SUM_GCD_FALLBACKS += 1
    return RatExpr(kernels.poly_add(kernels.poly_mul(a, d),
                                    kernels.poly_mul(c, b)),
                   kernels.poly_mul(b, d))


def denominator_lcm(coeffs) -> dict:
    """LCM of the denominators of the given RatExprs: primitive, with a
    positive leading coefficient and no monomial factor.  When every
    denominator is factored, the lcm takes each factor to its highest
    exponent, and its expansion is that canonical polynomial, with no
    gcd; otherwise a ``poly_lcm`` fold finds it."""
    coeffs = list(coeffs)
    if all(c.fac is not None for c in coeffs):
        fac: dict = {}
        for c in coeffs:
            fac = _fac_lcm(fac, c.fac)
        return _expand(fac)
    acc = dict(_ONE_TERMS)
    for c in coeffs:
        acc = poly_lcm(acc, c.den)
    return acc


def clear_denominator(c: RatExpr, clear: dict) -> tuple:
    """(t, n) with c * clear = t / n, for a clearing factor from
    ``denominator_lcm``.  That lcm is primitive, so it is a multiple of the
    primitive part of c's denominator but leaves out its integer content
    n; t is the numerator times the exact quotient, with no gcd, and is
    not reduced against n."""
    n = _int_content(c.den)
    return kernels.poly_mul(c.num, divexact(clear, _div_int(c.den, n))), n


def q_power(h0: int = 0, h1: int = 0, h2: int = 0, h3: int = 0) -> int:
    """Monomial for q^(h0/2 + h1/2*c1 + h2/2*c2 + h3/2*c3), h's doubled."""
    return mono_from_pairs(((S, h0), (U[0], h1), (U[1], h2), (U[2], h3)))
