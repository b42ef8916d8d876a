"""Term-map kernels for sparse Laurent polynomials.

A monomial is a tuple of (variable-index, exponent) pairs, sorted by
variable index, with no zero exponents.  A polynomial is a dict mapping
monomials to (arbitrary-precision) integer coefficients, with no zero
coefficients.  These functions are the hot inner loop of the whole engine.
"""


def mono_mul(a, b):
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


def mono_pow(a, e):
    if e == 0:
        return ()
    if e == 1:
        return a
    return tuple((v, x * e) for v, x in a)


def poly_mul(p, q):
    """Product of two term maps."""
    if not p or not q:
        return {}
    if len(p) > len(q):
        p, q = q, p
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = mono_mul(ma, mb)
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
    return {mono_mul(m, mono): k * c for m, k in p.items()}
