"""Term-map kernels for sparse Laurent polynomials.

A monomial is one Python ``int``, its packed exponent vector (Monagan &
Pearce, CASC 2007): field v, bits 32*v .. 32*v + 31, holds the exponent of
variable v (``symfield.VARS[v]``) as a balanced digit, so the monomial with
exponents e_v is the integer sum(e_v * 2^(32*v)).  The unit monomial is 0,
the one falsy monomial.  With balanced digits

* a product of monomials is the integer sum, a quotient the difference,
  and a power the multiple;
* integer order is the lexicographic order of the exponent vectors, the
  most significant variable (the highest index) first;
* adding the bias ``Q`` (2^30 in every field) makes every digit an
  unsigned e_v + 2^30, read with a shift and a mask.

Exactness bound: every stored exponent e satisfies -2^30 <= e < 2^30.
A sum of two such monomials is still exact in balanced digits, and its
exponents are in the bound exactly when no field of its biased form has
bit 31 set: ``(m + Q) & TOPS == 0``, one add and one mask.  Every kernel
that builds a monomial checks its result so (``mono_mul``, ``mono_inv``,
``poly_mul``, ``poly_scale``, and in ``symfield`` the constructors, the
substitutions, the xi-adic expansion and the long division);
``mono_pow`` works by checked doubling.  A violation raises
``ExponentError``: an exponent is never wrapped into a neighbouring field.

A polynomial is a dict mapping monomials to (arbitrary-precision) integer
coefficients, with no zero coefficients.  These functions are the hot
inner loop of the whole engine.  Only this module and ``symfield`` know
the encoding; everything else builds monomials through ``symfield``.
"""

from .errors import ExponentError

NFIELDS = 15
FIELD_BITS = 32
FIELD_MASK = (1 << FIELD_BITS) - 1
BIAS = 1 << 30
Q = sum(BIAS << (FIELD_BITS * v) for v in range(NFIELDS))
TOPS = Q << 1


def overflow():
    """Raise the typed error for a monomial whose exponents leave the
    bound."""
    raise ExponentError("monomial exponent out of range [-2^30, 2^30)")


def mono_mul(a: int, b: int) -> int:
    """Product of two monomials."""
    m = a + b
    if (m + Q) & TOPS:
        overflow()
    return m


def mono_inv(a: int) -> int:
    """Inverse of a monomial (-2^30 has no negative in the bound)."""
    if (Q - a) & TOPS:
        overflow()
    return -a


def mono_pow(a: int, e: int) -> int:
    """a^e for any integer e, by checked doubling: every partial sum is a
    sum of two monomials in the bound, so each check is exact."""
    if e < 0:
        a, e = mono_inv(a), -e
    out = 0
    while e:
        if e & 1:
            out = mono_mul(out, a)
        e >>= 1
        if e:
            a = mono_mul(a, a)
    return out


def poly_mul(p, q):
    """Product of two term maps."""
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = ma + mb
            if (m + Q) & TOPS:
                overflow()
            c = out.get(m, 0) + ca * cb
            if c:
                out[m] = c
            elif m in out:
                del out[m]
    return out


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) + c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def poly_sub(p, q):
    out = dict(p)
    for m, c in q.items():
        s = out.get(m, 0) - c
        if s:
            out[m] = s
        elif m in out:
            del out[m]
    return out


def poly_neg(p):
    return {m: -c for m, c in p.items()}


def poly_scale(p, c, mono):
    """Multiply a term map by the single term c * mono."""
    if c == 0:
        return {}
    if not mono:
        if c == 1:
            return dict(p)
        return {m: k * c for m, k in p.items()}
    out = {}
    for m, k in p.items():
        m += mono
        if (m + Q) & TOPS:
            overflow()
        out[m] = k * c
    return out
