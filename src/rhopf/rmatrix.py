"""R-matrix container and its side conditions.

Index convention (fixed for spec files and all internal contractions):
``R[i,j -> k,l]`` is the coefficient of e_k (x) e_l in R(e_i (x) e_j), with
the first tensor factor most significant, i.e. as an n^2 x n^2 matrix the
row is (k,l) and the column is (i,j), both row-major.

``contract`` is the one routine that multiplies R entries: the rule and
template readings of ``algebra.RELATIONS`` and the Yang-Baxter and
unitarity residuals here are chains of factors read by it.  A factor
names its input and output slots by index letters, and R21 is R read
with the letters of both slots swapped (R21[a,b -> c,d] = R[b,a -> d,c]).

The Yang-Baxter residual is computed with the product convention for the
middle argument, R12(z) R13(z*w) R23(w), which is the one the braid
consistency tests validate; the literal ratio variant R13(z/w) is computed
alongside for reporting.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import DomainError, SingularError
from .symfield import (RatExpr, S, VAR_INDEX, _R0, _R1, denominator_lcm,
                       mono, sum_fractions)


@dataclass(frozen=True)
class RMatrix:
    """n^2 x n^2 array of rational entries in one spectral ratio variable."""

    n: int
    var: str
    entries: dict  # (i, j, k, l) -> RatExpr, nonzero entries only
    name: str = ""

    def __post_init__(self):
        allowed = {VAR_INDEX[self.var], S}
        for key, val in self.entries.items():
            if not all(1 <= t <= self.n for t in key):
                raise DomainError(f"entry index {key} out of range")
            if not val.variables() <= allowed:
                raise DomainError(
                    f"entry {key} depends on variables other than "
                    f"{self.var} and q")

    def at(self, arg: tuple) -> dict:
        """Entries with the spectral variable replaced by a monomial."""
        return entries_at(self.entries, self.var, arg)

    def _dense(self):
        """(row-major index pairs, the n^2 x n^2 matrix with row (k,l) and
        column (i,j) holding R[i,j -> k,l])."""
        pairs = [(i, j) for i in range(1, self.n + 1)
                 for j in range(1, self.n + 1)]
        idx = {p: a for a, p in enumerate(pairs)}
        mat = [[_R0] * len(pairs) for _ in pairs]
        for (i, j, k, l), v in self.entries.items():
            mat[idx[(k, l)]][idx[(i, j)]] = v
        return pairs, mat

    def inverse_entries(self) -> dict:
        """Entries of R(x)^-1 over the function field, for the rewrite
        rules."""
        pairs, mat = self._dense()
        _, inv = _eliminate(mat, invert=True)
        if inv is None:
            raise SingularError("R is singular; rules are not expressible")
        out = {}
        for r, (k, l) in enumerate(pairs):
            for c, (i, j) in enumerate(pairs):
                if not inv[r][c].is_zero():
                    out[(i, j, k, l)] = inv[r][c]
        return out

    def determinant(self) -> RatExpr:
        return _eliminate(self._dense()[1], invert=False)[0]


def entries_at(entries: dict, var: str, arg: int) -> dict:
    """Entries with the variable ``var`` replaced by a monomial."""
    smap = {VAR_INDEX[var]: arg}
    return {key: v.subs_monomial(smap) for key, v in entries.items()}


def _eliminate(mat, invert: bool):
    """Gauss-Jordan elimination of a dense RatExpr matrix: (determinant,
    inverse), the inverse rows carried along only when ``invert``; a
    singular matrix gives (0, None)."""
    n = len(mat)
    a = [row[:] for row in mat]
    inv = [[_R1 if i == j else _R0 for j in range(n)] if invert else []
           for i in range(n)]
    det = _R1
    for col in range(n):
        piv = next((r for r in range(col, n) if not a[r][col].is_zero()),
                   None)
        if piv is None:
            return _R0, None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        det = det * a[col][col]
        p = a[col][col].inverse()
        a[col] = [v * p for v in a[col]]
        inv[col] = [v * p for v in inv[col]]
        for r in range(n):
            f = a[r][col]
            if r != col and not f.is_zero():
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
    return det, inv


@dataclass(frozen=True)
class ClearedRMatrix:
    """R' = f * R with f the minimal pole-clearing polynomial."""

    f: dict  # term map
    rprime: dict = field(repr=False)  # (i,j,k,l) -> RatExpr


# ---------------------------------------------------------------------------
# index contraction
# ---------------------------------------------------------------------------

class Table(NamedTuple):
    """One matrix in contraction form: its entries, indexed by input pair
    and by output pair."""

    entries: dict
    by_in: dict
    by_out: dict


def table(entries: dict) -> Table:
    by_in: dict = {}
    by_out: dict = {}
    for (i, j, k, l) in entries:
        by_in.setdefault((i, j), []).append((k, l))
        by_out.setdefault((k, l), []).append((i, j))
    return Table(entries, by_in, by_out)


def contract(factors, env: dict, coeff=None):
    """Yield (coefficient, bindings) for every nonzero product of entries.
    A factor is a ``Table`` of its entries at its argument followed by its
    input and output letters.  It is looked up through its bound slot, the
    input slot when its first letter is bound, and binds the letters of
    the other, a letter bound before taking its new value.  Factors are
    read in list order, so in a chain of operators the rightmost comes
    first.  The coefficient is None when there is no factor."""
    if not factors:
        yield coeff, env
        return
    ent, by_in, by_out, ins, outs = factors[0]
    forward = ins[0] in env
    known, new = (ins, outs) if forward else (outs, ins)
    kv = (env[known[0]], env[known[1]])
    for nv in (by_in if forward else by_out).get(kv, ()):
        c = ent[kv + nv if forward else nv + kv]
        if c.is_zero():
            continue
        sub = dict(env)
        sub[new[0]], sub[new[1]] = nv
        yield from contract(factors[1:], sub,
                            c if coeff is None else coeff * c)


def _residual(n: int, ins: str, lhs, rhs) -> dict:
    """lhs - rhs as a sparse (input indices, output indices) -> RatExpr
    dict of its nonzero entries, over every input index tuple bound to the
    letters ``ins``; a side is (its factors, its output letters)."""
    out: dict = {}
    for tin in itertools.product(range(1, n + 1), repeat=len(ins)):
        env = dict(zip(ins, tin))
        terms: dict = {}
        for (factors, outs), sign in ((lhs, 1), (rhs, -1)):
            for c, sub in contract(factors, env):
                c = _R1 if c is None else c
                terms.setdefault(tuple(sub[t] for t in outs), []).append(
                    c if sign > 0 else -c)
        for tout, vals in terms.items():
            v = sum_fractions(vals)
            if not v.is_zero():
                out[(tin, tout)] = v
    return out


def ybe_residual(R: RMatrix, middle: str = "prod") -> dict:
    """LHS - RHS of R12(z) R13(m) R23(w) = R23(w) R13(m) R12(z).

    ``middle`` selects m = z*w ("prod", the normative convention) or
    m = z/w ("ratio", the literal variant, reported alongside).  Fresh
    ratio variables z1 (z) and z2 (w) are used.  Returns a sparse dict
    ((i,j,k) in, (a,b,c) out) -> RatExpr of the nonzero residual entries.
    """
    if middle == "prod":
        m = mono(z1=1, z2=1)
    elif middle == "ratio":
        m = mono(z1=1, z2=-1)
    else:
        raise DomainError(f"unknown middle-argument convention {middle!r}")
    r12, r13, r23 = (table(R.at(arg)) for arg in (mono(z1=1), m, mono(z2=1)))
    # the rightmost factor acts first; rhs is the mirror chain
    lhs = [(*r23, "bc", "BC"), (*r13, "aC", "Ac"), (*r12, "AB", "ab")]
    rhs = [(*r12, "ab", "AB"), (*r13, "Ac", "aC"), (*r23, "BC", "bc")]
    return _residual(R.n, "abc", (lhs, "abc"), (rhs, "abc"))


def unitarity_residual(R: RMatrix) -> dict:
    """R21(x) R(1/x) - Id as a sparse ((i,j),(k,l)) -> RatExpr dict.  A
    singular R always leaves a residual, since det(R21(x) R(1/x)) = 0, so
    the determinant is taken only for a nonzero residual."""
    at_inv, at_x = (table(R.at(mono(**{R.var: e}))) for e in (-1, 1))
    # R(1/x), then R21(x), that is R(x) read with its letters swapped
    product = [(*at_inv, "ab", "cd"), (*at_x, "dc", "fe")]
    res = _residual(R.n, "ab", (product, "ef"), ([], "ab"))
    if res and R.determinant().is_zero():
        raise SingularError("R is singular; unitarity is ill-posed")
    return res


def clear_poles(R: RMatrix) -> ClearedRMatrix:
    """Minimal f with f*R pole-free in the spectral variable: the lcm of
    the entries' denominators, which involve only the spectral variable
    and q (``RMatrix`` checks it)."""
    f = denominator_lcm(R.entries.values())
    fr = RatExpr(f)
    rprime = {key: v * fr for key, v in R.entries.items()}
    return ClearedRMatrix(f=f, rprime=rprime)
