"""Exact arithmetic in the coefficient field.

Elements are reduced fractions of multivariate Laurent polynomials over the
integers, each polynomial a term map as in ``kernels``.  The variable
alphabet is fixed:

    s < u1 < u2 < u3 < x < z1 < ... < z9 < w

with q = s^2 (so half-integer q-powers stay integral in s) and
u_t = q^(c_t/2) encoding the central-charge exponential of tensor leg t.
Later variables are more significant in the lexicographic order.

Canonical form of a fraction: numerator and denominator share no factor,
the denominator is an ordinary (non-Laurent) polynomial not divisible by
any variable, and its leading coefficient is positive.  Equality is plain
structural comparison of canonical forms.
"""

from __future__ import annotations

import heapq
from math import gcd as int_gcd, isqrt

from . import kernels
from .errors import DomainError

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

_ONE_TERMS = {(): 1}


# ---------------------------------------------------------------------------
# monomials: sorted tuples of (var-index, nonzero exponent)
# ---------------------------------------------------------------------------

def mono(**exps) -> tuple:
    """Build a monomial from variable-name keyword exponents."""
    pairs = []
    for name, e in exps.items():
        if name not in VAR_INDEX:
            raise DomainError(f"unknown variable {name!r}")
        if e:
            pairs.append((VAR_INDEX[name], int(e)))
    pairs.sort()
    return tuple(pairs)


def mono_from_pairs(pairs) -> tuple:
    out = sorted((v, e) for v, e in pairs if e)
    return tuple(out)


def mono_inv(m: tuple) -> tuple:
    return tuple((v, -e) for v, e in m)


def mono_key(m: tuple) -> tuple:
    """Dense exponent vector, most significant variable first."""
    key = [0] * NVARS
    for v, e in m:
        key[v] = e
    key.reverse()
    return tuple(key)


def variables(terms) -> set:
    """Indices of the variables occurring in a term map."""
    return {v for m in terms for v, _ in m}


def min_exponents(monos) -> tuple:
    """Monomial of per-variable minimum exponents over the monomials of a
    term map (its monomial part); a variable missing from a monomial
    counts as exponent 0."""
    it = iter(monos)
    lows = dict(next(it, ()))
    for m in it:
        md = dict(m)
        for v in list(lows):
            lows[v] = min(lows[v], md.get(v, 0))
        for v, e in md.items():
            if v not in lows:
                lows[v] = min(0, e)
    return mono_from_pairs(lows.items())


# ---------------------------------------------------------------------------
# multivariate gcd over the integers (ordinary polynomials)
# ---------------------------------------------------------------------------

def _strip_mono(terms: dict) -> tuple:
    """Factor a term map as monomial * ordinary-part with zero min exponents."""
    lows = min_exponents(terms)
    if not lows:
        return (), terms
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
    m = max(terms, key=mono_key)
    if terms[m] < 0:
        return kernels.poly_neg(terms)
    return terms


def _desc_key(m: tuple) -> tuple:
    """Heap key under which the lex-leading monomial is the smallest."""
    key = [0] * NVARS
    for v, e in m:
        key[NVARS - 1 - v] = -e
    return tuple(key)


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
    # a heap of remainder monomials yields the leading ones in order.
    rem = dict(p)
    heap = [(_desc_key(m), m) for m in rem]
    heapq.heapify(heap)
    dm = max(d, key=mono_key)
    dc = d[dm]
    dm_inv = mono_inv(dm)
    rest = [(m2, c2) for m2, c2 in d.items() if m2 != dm]
    quot: dict = {}
    while heap:
        m = heapq.heappop(heap)[1]
        c = rem.pop(m, 0)
        if not c:
            continue
        qm = kernels.mono_mul(m, dm_inv)
        if any(e < 0 for _, e in qm):
            raise DomainError("inexact polynomial division")
        qc, r = divmod(c, dc)
        if r:
            raise DomainError("inexact polynomial division")
        quot[qm] = qc
        for m2, c2 in rest:
            mm = kernels.mono_mul(qm, m2)
            old = rem.get(mm)
            if old is None:
                rem[mm] = -qc * c2
                heapq.heappush(heap, (_desc_key(mm), mm))
            else:
                rem[mm] = old - qc * c2
    return quot


def _vexp(m: tuple, v: int) -> int:
    for u, e in m:
        if u == v:
            return e
    return 0


def _without(m: tuple, v: int) -> tuple:
    return tuple(pair for pair in m if pair[0] != v)


def _deg(terms: dict, v: int) -> int:
    return max((_vexp(m, v) for m in terms), default=-1)


def _coeff_of(terms: dict, v: int, d: int) -> dict:
    return {(_without(m, v) if d else m): c for m, c in terms.items()
            if _vexp(m, v) == d}


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
        xshift = ((v, da - db),) if da != db else ()
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


_EVAL_POINTS = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
# three attempts; variable u is evaluated at _POINTS[attempt][u]
_POINTS = tuple(tuple(_EVAL_POINTS[(u + 5 * a) % len(_EVAL_POINTS)]
                      for u in range(NVARS)) for a in range(3))
_PRIME = 2 ** 61 - 1


def _specialize(terms: dict, v: int, points: tuple) -> dict:
    """Image in GF(_PRIME)[v]: every variable u except v evaluated at the
    integer points[u]; returns a univariate map degree -> nonzero
    residue."""
    sums: dict = {}
    for m, c in terms.items():
        d = 0
        for u, e in m:
            if u == v:
                d = e
            else:
                c *= points[u] ** e
        sums[d] = sums.get(d, 0) + c
    out = {}
    for d, c in sums.items():
        c %= _PRIME
        if c:
            out[d] = c
    return out


def _univar_gcd_degree(pu: dict, qu: dict) -> int:
    """Degree of the gcd of nonzero univariate maps degree -> residue
    (Euclid over GF(_PRIME))."""
    a = [pu.get(d, 0) for d in range(max(pu) + 1)]
    b = [qu.get(d, 0) for d in range(max(qu) + 1)]
    if len(a) < len(b):
        a, b = b, a
    while b:
        inv = pow(b[-1], -1, _PRIME)
        while len(a) >= len(b):
            f = a[-1] * inv % _PRIME
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - f * c) % _PRIME
            while a and not a[-1]:
                a.pop()
        a, b = b, a
    return len(a) - 1


def _vdeg_bound(p: dict, q: dict, v: int):
    """Sound upper bound for deg_v(gcd) via a specialization that keeps
    deg_v of both operands: the image of the gcd divides both images and
    keeps its own degree, so it divides their gcd.  None when no
    degree-preserving point was found."""
    dp, dq = _deg(p, v), _deg(q, v)
    for points in _POINTS:
        pu = _specialize(p, v, points)
        qu = _specialize(q, v, points)
        if max(pu, default=-1) == dp and max(qu, default=-1) == dq:
            return _univar_gcd_degree(pu, qu)
    return None


def _gcd_primitive(p: dict, q: dict) -> dict:
    """GCD of integer-primitive ordinary term maps, primitive result."""
    pv, qv = variables(p), variables(q)
    pvars = pv | qv
    if not pvars:
        return dict(_ONE_TERMS)
    if len(p) == 1 or len(q) == 1:
        # a single term: the gcd is the common monomial part (integer
        # contents are 1 here)
        return {min_exponents([*p, *q]): 1}
    # coprimality certificate: every variable of the gcd occurs in both
    # operands, so a proven degree bound of 0 in each shared variable
    # leaves only a constant, and the operands are primitive
    bounds: dict = {}
    for u in sorted(pv & qv):
        bounds[u] = _vdeg_bound(p, q, u)
        if bounds[u] != 0:
            break
    else:
        return dict(_ONE_TERMS)
    # main variable: smallest maximum degree keeps the sequence short
    v = min(pvars, key=lambda u: (max(_deg(p, u), _deg(q, u)), u))
    bound = bounds[v] if v in bounds else _vdeg_bound(p, q, v)
    if bound == 0:
        # the gcd is free of v: it equals the gcd of the v-contents
        return _pos_leading(poly_gcd(_vcontent(p, v), _vcontent(q, v)))
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
            m = _without(m, v)
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
    for m, c in terms.items():
        i = 0
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[kernels.mono_mul(m, ((v, i),)) if i else m] = r
            c = (c - r) // xi
            i += 1
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
# rational expressions
# ---------------------------------------------------------------------------

class RatExpr:
    """Reduced fraction of Laurent polynomials, always in canonical form:
    ``num`` and ``den`` are term maps."""

    __slots__ = ("num", "den")

    def __init__(self, num: dict, den: dict = _ONE_TERMS):
        if not den:
            raise DomainError("zero denominator")
        self.num, self.den = self._normalize(num, den)

    @staticmethod
    def _normalize(nt: dict, dt: dict) -> tuple:
        if not nt:
            return {}, dict(_ONE_TERMS)
        shift_n, n_ord = _strip_mono(nt)
        shift_d, d_ord = _strip_mono(dt)
        g = poly_gcd(n_ord, d_ord)
        if g != _ONE_TERMS:
            n_ord = divexact(n_ord, g)
            d_ord = divexact(d_ord, g)
        lead = max(d_ord, key=mono_key)
        if d_ord[lead] < 0:
            n_ord = kernels.poly_neg(n_ord)
            d_ord = kernels.poly_neg(d_ord)
        shift = kernels.mono_mul(shift_n, mono_inv(shift_d))
        if shift:
            n_ord = kernels.poly_scale(n_ord, 1, shift)
        return n_ord, d_ord

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "RatExpr":
        return cls({(): n} if n else {})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "RatExpr":
        return cls({mono(**{name: power}): 1})

    @classmethod
    def from_mono(cls, m: tuple, coeff: int = 1) -> "RatExpr":
        return cls({m: coeff} if coeff else {})

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == _ONE_TERMS and self.den == _ONE_TERMS

    def variables(self) -> set:
        return variables(self.num) | variables(self.den)

    @staticmethod
    def _canonical(nt: dict, dt: dict) -> "RatExpr":
        """Wrap term maps that are already in canonical form."""
        out = RatExpr.__new__(RatExpr)
        out.num = nt
        out.den = dt
        return out

    # -- field operations ---------------------------------------------------
    #
    # The operators build canonical results from canonical operands without
    # the gcd of the raw cross product (Henrici, JACM 1956; Knuth, TAOCP
    # vol. 2, 4.5.1).  Denominators have no monomial factor, so a gcd with
    # one only needs the ordinary part of the other operand; quotients of
    # denominators by their positive-leading gcds keep a positive leading
    # coefficient, and so do their products.

    def __add__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        return self._add(other, kernels.poly_add)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        return self._add(other, kernels.poly_sub)

    def _add(self, other, combine) -> "RatExpr":
        """a/b (+ or -) c/d.  With g = gcd(b, d), b = g*b1, d = g*d1, the
        sum t = a*d1 + c*b1 is coprime to b1 and d1, so only gcd(t, g)
        can cancel: the whole of b when b == d, nothing when g == 1."""
        a, b = self.num, self.den
        c, d = other.num, other.den
        if b == d:
            g, b1, d1 = b, _ONE_TERMS, _ONE_TERMS
        elif b == _ONE_TERMS or d == _ONE_TERMS:
            g, b1, d1 = _ONE_TERMS, b, d
        else:
            g = poly_gcd(b, d)
            if g == _ONE_TERMS:
                b1, d1 = b, d
            else:
                b1, d1 = divexact(b, g), divexact(d, g)
        t = combine(kernels.poly_mul(a, d1) if d1 != _ONE_TERMS else a,
                    kernels.poly_mul(c, b1) if b1 != _ONE_TERMS else c)
        if not t:
            return RatExpr._canonical({}, dict(_ONE_TERMS))
        if g != _ONE_TERMS:
            t, g = _cancel(t, g) or (t, g)
        den = g
        for part in (b1, d1):
            if part != _ONE_TERMS:
                den = kernels.poly_mul(den, part)
        return RatExpr._canonical(t, den)

    def __neg__(self):
        return RatExpr._canonical(kernels.poly_neg(self.num), self.den)

    def __mul__(self, other):
        """(a/b)*(c/d) = (a/g1)*(c/g2) / ((b/g2)*(d/g1)) with g1 = gcd(a, d)
        and g2 = gcd(c, b), each skipped when its denominator is 1."""
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        a, b = self.num, self.den
        c, d = other.num, other.den
        if not a or not c:
            return RatExpr._canonical({}, dict(_ONE_TERMS))
        if d != _ONE_TERMS:
            a, d = _cancel_product(a, d)
        if b != _ONE_TERMS:
            c, b = _cancel_product(c, b)
        return RatExpr._canonical(kernels.poly_mul(a, c),
                                  kernels.poly_mul(b, d))

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
        shift, n_ord = _strip_mono(self.num)
        d = kernels.poly_scale(self.den, 1, mono_inv(shift))
        if n_ord[max(n_ord, key=mono_key)] < 0:
            return RatExpr._canonical(kernels.poly_neg(d),
                                      kernels.poly_neg(n_ord))
        return RatExpr._canonical(d, n_ord)

    def __pow__(self, e: int):
        if e == 0:
            return RatExpr.from_int(1)
        if e < 0:
            return self.inverse() ** (-e)
        # powers of coprime polynomials stay coprime
        return RatExpr._canonical(_poly_pow(self.num, e),
                                  _poly_pow(self.den, e))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return (self.num == ({(): other} if other else {})
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
        """Simultaneous substitution: ``smap`` maps a variable index to the
        monomial that replaces the variable."""
        return RatExpr(_subst(self.num, smap), _subst(self.den, smap))


def _cancel(t: dict, den: dict):
    """(t/h, den/h) for a nonzero Laurent term map t and a denominator in
    canonical form, with h = gcd(t, den); den/h keeps a positive leading
    coefficient.  None when t and den are coprime."""
    shift, t_ord = _strip_mono(t)
    h = poly_gcd(t_ord, den)
    if h == _ONE_TERMS:
        return None
    t_ord = divexact(t_ord, h)
    if shift:
        t_ord = kernels.poly_scale(t_ord, 1, shift)
    return t_ord, divexact(den, h)


# Rule application multiplies coefficients by the same few R and R^-1
# entries over and over, so the cross-cancellations of products repeat.
# Each distinct (t, den) pair is cancelled once and looked up afterwards;
# a coprime pair, by far the most common, stores only None.  The memo
# shares the term maps it returns, which is sound because no term map is
# mutated once built.  Sums are not memoized: their operand pairs repeat
# less and are larger, so the memo would cost more memory than it saves
# time.  ``reset_memo`` empties it.
_PRODUCT_CANCELS: dict = {}


def _cancel_product(t: dict, den: dict) -> tuple:
    """(t/h, den/h) as ``_cancel``, through the product memo."""
    key = (frozenset(t.items()), frozenset(den.items()))
    if key not in _PRODUCT_CANCELS:
        _PRODUCT_CANCELS[key] = _cancel(t, den)
    return _PRODUCT_CANCELS[key] or (t, den)


def reset_memo():
    """Forget every memoized product cancellation, so that a run starts
    cold whatever ran before it in the process."""
    _PRODUCT_CANCELS.clear()


def subs_mono(m: tuple, smap: dict) -> tuple:
    """A monomial under the simultaneous substitution ``smap`` (variable
    index -> monomial)."""
    out = tuple((v, e) for v, e in m if v not in smap)
    for v, e in m:
        if v in smap:
            out = kernels.mono_mul(out, kernels.mono_pow(smap[v], e))
    return out


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


def denominator_lcm(coeffs) -> dict:
    """LCM of the denominators of the given RatExprs: primitive, with a
    positive leading coefficient and no monomial factor."""
    acc = dict(_ONE_TERMS)
    for c in coeffs:
        acc = poly_lcm(acc, c.den)
    return acc


def clear_denominators(entries, var: str) -> dict:
    """LCM of the reduced denominators in ``var`` over the remaining field.

    Every entry's denominator may involve only ``var`` and s (i.e. q); the
    result, multiplied onto each entry, leaves denominators free of ``var``.
    """
    if not entries:
        raise DomainError("clear_denominators of empty entry list")
    allowed = {VAR_INDEX[var], S}
    for entry in entries:
        dvars = variables(entry.den)
        if not dvars <= allowed:
            bad = ", ".join(VARS[i] for i in sorted(dvars - allowed))
            raise DomainError(
                f"denominator involves disallowed variable(s): {bad}")
    return denominator_lcm(entries)


def q_power(h0: int = 0, h1: int = 0, h2: int = 0, h3: int = 0) -> tuple:
    """Monomial for q^(h0/2 + h1/2*c1 + h2/2*c2 + h3/2*c3), h's doubled."""
    return mono_from_pairs(((S, h0), (U[0], h1), (U[1], h2), (U[2], h3)))
