"""Exact arithmetic in the coefficient field.

Elements are reduced fractions of multivariate Laurent polynomials over the
integers.  The variable alphabet is fixed:

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

from fractions import Fraction
from math import gcd as int_gcd

from . import kernels
from .errors import DomainError, ExponentError

VARS = ("s", "u1", "u2", "u3", "x",
        "z1", "z2", "z3", "z4", "z5", "z6", "z7", "z8", "z9", "w")
VAR_INDEX = {name: i for i, name in enumerate(VARS)}
NVARS = len(VARS)

S = VAR_INDEX["s"]
U = (VAR_INDEX["u1"], VAR_INDEX["u2"], VAR_INDEX["u3"])
X = VAR_INDEX["x"]
Z = tuple(VAR_INDEX[f"z{i}"] for i in range(1, 10))
W = VAR_INDEX["w"]

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


def mono_str(m: tuple) -> str:
    if not m:
        return "1"
    return "*".join(f"{VARS[v]}^{e}" if e != 1 else VARS[v] for v, e in m)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------

class LaurentPoly:
    """Immutable sparse Laurent polynomial with integer coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        if terms is None:
            terms = {}
        self.terms = terms
        self._hash = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "LaurentPoly":
        return cls({(): n} if n else {})

    @classmethod
    def var(cls, name: str, power: int = 1) -> "LaurentPoly":
        return cls({mono(**{name: power}): 1})

    @classmethod
    def from_mono(cls, m: tuple, coeff: int = 1) -> "LaurentPoly":
        return cls({m: coeff} if coeff else {})

    # -- predicates / views -------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == _ONE_TERMS

    def variables(self) -> set:
        out = set()
        for m in self.terms:
            for v, _ in m:
                out.add(v)
        return out

    def leading(self) -> tuple:
        """(monomial, coefficient) of the lex-leading term."""
        m = max(self.terms, key=mono_key)
        return m, self.terms[m]

    def content(self) -> int:
        c = 0
        for k in self.terms.values():
            c = int_gcd(c, abs(k))
        return c

    def min_exponents(self) -> tuple:
        """Monomial of per-variable minimum exponents (the monomial part)."""
        lows: dict = {}
        for i, m in enumerate(self.terms):
            md = dict(m)
            if i == 0:
                lows = md
                continue
            for v in list(lows):
                lows[v] = min(lows[v], md.get(v, 0))
            for v, e in md.items():
                if v not in lows:
                    lows[v] = min(0, e)
        return mono_from_pairs(lows.items())

    def is_ordinary(self) -> bool:
        return all(e > 0 for m in self.terms for _, e in m)

    def degree_in(self, v: int) -> int:
        if not self.terms:
            return 0
        return max((dict(m).get(v, 0) for m in self.terms), default=0)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        return LaurentPoly(kernels.poly_add(self.terms, other.terms))

    def __sub__(self, other):
        return LaurentPoly(kernels.poly_sub(self.terms, other.terms))

    def __neg__(self):
        return LaurentPoly(kernels.poly_neg(self.terms))

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(kernels.poly_scale(self.terms, other, ()))
        return LaurentPoly(kernels.poly_mul(self.terms, other.terms))

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if e < 0:
            raise DomainError("negative power of a polynomial; use RatExpr")
        out = LaurentPoly.from_int(1)
        base = self
        while e:
            if e & 1:
                out = out * base
            base = base * base
            e >>= 1
        return out

    def shift(self, m: tuple, coeff: int = 1) -> "LaurentPoly":
        return LaurentPoly(kernels.poly_scale(self.terms, coeff, m))

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.terms == ({(): other} if other else {})
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items(),
                                           key=lambda t: mono_key(t[0]))))
        return self._hash

    def __repr__(self):
        return f"LaurentPoly({self.terms!r})"

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for m in sorted(self.terms, key=mono_key, reverse=True):
            c = self.terms[m]
            if m:
                head = mono_str(m) if abs(c) == 1 else f"{abs(c)}*{mono_str(m)}"
            else:
                head = str(abs(c))
            bits.append(("-" if c < 0 else "+", head))
        sign, head = bits[0]
        out = ("-" if sign == "-" else "") + head
        for sign, head in bits[1:]:
            out += f" {sign} {head}"
        return out


ZERO = LaurentPoly.from_int(0)
ONE = LaurentPoly.from_int(1)


# ---------------------------------------------------------------------------
# multivariate gcd over the integers (ordinary polynomials)
# ---------------------------------------------------------------------------

def _strip_mono(terms: dict) -> tuple:
    """Factor a term map as monomial * ordinary-part with zero min exponents."""
    p = LaurentPoly(terms)
    lows = p.min_exponents()
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


def divexact(p: dict, d: dict) -> dict:
    """Exact division of term maps; raises DomainError if not exact."""
    if not d:
        raise DomainError("division by zero polynomial")
    if not p:
        return {}
    # long division over the rationals, then check integrality; in an
    # exact division the leading monomial is divisible at every step, so
    # a failed divisibility check means the division is inexact
    rem = {m: Fraction(c) for m, c in p.items()}
    dm = max(d, key=mono_key)
    dc = d[dm]
    dm_inv = mono_inv(dm)
    quot: dict = {}
    while rem:
        m = max(rem, key=mono_key)
        c = rem[m]
        qm = kernels.mono_mul(m, dm_inv)
        if any(e < 0 for _, e in qm):
            raise DomainError("inexact polynomial division")
        qc = c / dc
        quot[qm] = quot.get(qm, Fraction(0)) + qc
        for m2, c2 in d.items():
            mm = kernels.mono_mul(qm, m2)
            val = rem.get(mm, Fraction(0)) - qc * c2
            if val:
                rem[mm] = val
            elif mm in rem:
                del rem[mm]
    out = {}
    for m, c in quot.items():
        if c:
            if c.denominator != 1:
                raise DomainError("inexact polynomial division")
            out[m] = int(c)
    return out


def _deg(terms: dict, v: int) -> int:
    return max((dict(m).get(v, 0) for m in terms), default=-1)


def _coeff_of(terms: dict, v: int, d: int) -> dict:
    out = {}
    for m, c in terms.items():
        md = dict(m)
        if md.get(v, 0) == d:
            md.pop(v, None)
            out[mono_from_pairs(md.items())] = c
    return out


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


def _mono_gcd_with(p: dict, q: dict) -> dict:
    """GCD when at least one argument is a single term: the per-variable
    minimum exponent monomial (integer contents are 1 here)."""
    lows: dict = None
    for terms in (p, q):
        for m in terms:
            md = dict(m)
            if lows is None:
                lows = md
                continue
            for v in list(lows):
                lows[v] = min(lows[v], md.get(v, 0))
                if lows[v] == 0:
                    del lows[v]
    return {mono_from_pairs(lows.items()): 1}


def _poly_pow(p: dict, e: int) -> dict:
    out = dict(_ONE_TERMS)
    for _ in range(e):
        out = kernels.poly_mul(out, p)
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


def _specialize(terms: dict, v: int, attempt: int) -> dict:
    """Evaluate every variable except v at fixed integer points; returns a
    univariate map degree -> int."""
    out: dict = {}
    for m, c in terms.items():
        d = 0
        val = c
        for u, e in m:
            if u == v:
                d = e
            else:
                val *= _EVAL_POINTS[(u + 5 * attempt) % len(_EVAL_POINTS)] \
                    ** e
        s = out.get(d, 0) + val
        if s:
            out[d] = s
        elif d in out:
            del out[d]
    return out


def _univar_gcd_degree(pu: dict, qu: dict) -> int:
    """Degree of gcd of univariate maps degree -> int (Euclid over Q)."""
    fa = {d: Fraction(c) for d, c in pu.items()}
    fb = {d: Fraction(c) for d, c in qu.items()}
    if max(fa, default=-1) < max(fb, default=-1):
        fa, fb = fb, fa
    while fb:
        da, db = max(fa), max(fb)
        lb = fb[db]
        while fa and max(fa) >= db:
            d = max(fa)
            f = fa[d] / lb
            for d2, c2 in fb.items():
                key = d - db + d2
                val = fa.get(key, Fraction(0)) - f * c2
                if val:
                    fa[key] = val
                elif key in fa:
                    del fa[key]
        fa, fb = fb, fa
    return max(fa, default=0)


def _vdeg_bound(p: dict, q: dict, v: int):
    """Sound upper bound for deg_v(gcd) via degree-preserving
    specialization; None when no degree-preserving point was found."""
    dp, dq = _deg(p, v), _deg(q, v)
    for attempt in range(3):
        pu = _specialize(p, v, attempt)
        qu = _specialize(q, v, attempt)
        if max(pu, default=-1) == dp and max(qu, default=-1) == dq:
            return _univar_gcd_degree(pu, qu)
    return None


def _gcd_primitive(p: dict, q: dict) -> dict:
    """GCD of integer-primitive ordinary term maps, primitive result."""
    pvars = LaurentPoly(p).variables() | LaurentPoly(q).variables()
    if not pvars:
        return dict(_ONE_TERMS)
    if len(p) == 1 or len(q) == 1:
        return _mono_gcd_with(p, q)
    # main variable: smallest maximum degree keeps the sequence short
    v = min(pvars, key=lambda u: (max(_deg(p, u), _deg(q, u)), u))
    bound = _vdeg_bound(p, q, v)
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
        raw = _subresultant(a, b, v)
        rc = _vcontent(raw, v)
        if rc != _ONE_TERMS:
            raw = divexact(raw, rc)
        ic = _int_content(raw)
        if ic not in (0, 1):
            raw = _div_int(raw, ic)
    out = kernels.poly_mul(cont, raw)
    return _pos_leading(out)


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
    """Reduced fraction of Laurent polynomials, always in canonical form."""

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly = ONE):
        if den.is_zero():
            raise DomainError("zero denominator")
        nt, dt = self._normalize(num.terms, den.terms)
        self.num = LaurentPoly(nt)
        self.den = LaurentPoly(dt)
        self._hash = None

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
        return cls(LaurentPoly.from_int(n))

    @classmethod
    def var(cls, name: str, power: int = 1) -> "RatExpr":
        return cls(LaurentPoly.var(name, power))

    @classmethod
    def from_mono(cls, m: tuple, coeff: int = 1) -> "RatExpr":
        return cls(LaurentPoly.from_mono(m, coeff))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.is_one() and self.den.is_one()

    def variables(self) -> set:
        return self.num.variables() | self.den.variables()

    # -- field operations ---------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        return RatExpr(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        return RatExpr(self.num * other.den - other.num * self.den,
                       self.den * other.den)

    def __neg__(self):
        out = RatExpr.__new__(RatExpr)
        out.num = -self.num
        out.den = self.den
        out._hash = None
        return out

    def __mul__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        return RatExpr(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, int):
            other = RatExpr.from_int(other)
        if other.is_zero():
            raise DomainError("division by zero")
        return RatExpr(self.num * other.den, self.den * other.num)

    def inverse(self) -> "RatExpr":
        if self.is_zero():
            raise DomainError("inverse of zero")
        return RatExpr(self.den, self.num)

    def __pow__(self, e: int):
        if e == 0:
            return RatExpr.from_int(1)
        if e < 0:
            return self.inverse() ** (-e)
        return RatExpr(self.num ** e, self.den ** e)

    # -- comparisons --------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, int):
            return self.num == other and self.den.is_one()
        return (isinstance(other, RatExpr)
                and self.num == other.num and self.den == other.den)

    def cross_equal(self, other: "RatExpr") -> bool:
        """Equality by cross-multiplication (must agree with ``==``)."""
        return self.num * other.den == other.num * self.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __repr__(self):
        return f"RatExpr({self.num!r}, {self.den!r})"

    def __str__(self):
        if self.den.is_one():
            return str(self.num)
        return f"({self.num})/({self.den})"

    # -- substitution -------------------------------------------------------

    def subs_monomial(self, var: str, m: tuple) -> "RatExpr":
        """Replace an invertible variable by a monomial (fast exact path)."""
        v = VAR_INDEX[var]
        return RatExpr(LaurentPoly(_subst_var(self.num.terms, v, m)),
                       LaurentPoly(_subst_var(self.den.terms, v, m)))

    def substitute(self, bindings: dict) -> "RatExpr":
        """Simultaneous substitution var -> fractional monomial.

        ``bindings`` maps variable names to dicts {var-name: Fraction-or-int
        exponent}.  All exponents of the result must come out integral,
        otherwise ExponentError is raised.
        """
        frac = {}
        for name, target in bindings.items():
            if name not in VAR_INDEX:
                raise DomainError(f"unknown variable {name!r}")
            vec = {}
            for tname, e in target.items():
                if tname not in VAR_INDEX:
                    raise DomainError(f"unknown variable {tname!r}")
                e = Fraction(e)
                if e:
                    vec[VAR_INDEX[tname]] = e
            frac[VAR_INDEX[name]] = vec
        return RatExpr(LaurentPoly(_subst_frac(self.num.terms, frac)),
                       LaurentPoly(_subst_frac(self.den.terms, frac)))


def _subst_var(terms: dict, v: int, target: tuple) -> dict:
    out: dict = {}
    for m, c in terms.items():
        md = dict(m)
        e = md.pop(v, 0)
        base = mono_from_pairs(md.items())
        if e:
            base = kernels.mono_mul(base, kernels.mono_pow(target, e))
        val = out.get(base, 0) + c
        if val:
            out[base] = val
        elif base in out:
            del out[base]
    return out


def _subst_frac(terms: dict, frac: dict) -> dict:
    out: dict = {}
    for m, c in terms.items():
        vec: dict = {}
        for v, e in m:
            if v in frac:
                for tv, te in frac[v].items():
                    vec[tv] = vec.get(tv, Fraction(0)) + te * e
            else:
                vec[v] = vec.get(v, Fraction(0)) + e
        pairs = []
        for v, e in vec.items():
            if e:
                if Fraction(e).denominator != 1:
                    raise ExponentError(
                        f"non-integral exponent {e} of {VARS[v]} after "
                        "substitution")
                pairs.append((v, int(e)))
        base = mono_from_pairs(pairs)
        val = out.get(base, 0) + c
        if val:
            out[base] = val
        elif base in out:
            del out[base]
    return out


# ---------------------------------------------------------------------------
# field-level operations
# ---------------------------------------------------------------------------

def clear_denominators(entries, var: str) -> LaurentPoly:
    """LCM of the reduced denominators in ``var`` over the remaining field.

    Every entry's denominator may involve only ``var`` and s (i.e. q); the
    result, multiplied onto each entry, leaves denominators free of ``var``.
    """
    if not entries:
        raise DomainError("clear_denominators of empty entry list")
    v = VAR_INDEX[var]
    allowed = {v, S}
    acc = dict(_ONE_TERMS)
    for entry in entries:
        dvars = entry.den.variables()
        if not dvars <= allowed:
            bad = ", ".join(VARS[i] for i in sorted(dvars - allowed))
            raise DomainError(
                f"denominator involves disallowed variable(s): {bad}")
        acc = poly_lcm(acc, entry.den.terms)
    _, ord_part = _strip_mono(acc)
    ic = _int_content(ord_part)
    if ic not in (0, 1):
        ord_part = _div_int(ord_part, ic)
    return LaurentPoly(_pos_leading(ord_part))


def q_power(h0: int = 0, h1: int = 0, h2: int = 0, h3: int = 0) -> tuple:
    """Monomial for q^(h0/2 + h1/2*c1 + h2/2*c2 + h3/2*c3), h's doubled."""
    return mono_from_pairs(((S, h0), (U[0], h1), (U[1], h2), (U[2], h3)))
