"""R-matrix container and its side conditions.

Index convention (fixed for spec files and all internal contractions):
``R[i,j -> k,l]`` is the coefficient of e_k (x) e_l in R(e_i (x) e_j), with
the first tensor factor most significant, i.e. as an n^2 x n^2 matrix the
row is (k,l) and the column is (i,j), both row-major.

The Yang-Baxter residual is computed with the product convention for the
middle argument, R12(z) R13(z*w) R23(w), which is the one the braid
consistency tests validate; the literal ratio variant R13(z/w) is computed
alongside for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import DomainError, SingularError
from .symfield import (RatExpr, S, VAR_INDEX, accumulate, denominator_lcm,
                       mono)

_R0 = RatExpr.from_int(0)
_R1 = RatExpr.from_int(1)


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

    def entry(self, i, j, k, l) -> RatExpr:
        return self.entries.get((i, j, k, l), _R0)

    def flip(self) -> "RMatrix":
        """R21, with R21[i,j -> k,l] = R[j,i -> l,k]."""
        flipped = {(j, i, l, k): v for (i, j, k, l), v in self.entries.items()}
        return RMatrix(self.n, self.var, flipped, name=self.name + "_21")

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

    base: RMatrix
    f: dict  # term map
    rprime: dict = field(repr=False)  # (i,j,k,l) -> RatExpr


# ---------------------------------------------------------------------------
# tensor-space composition helpers (dict maps input-tuple -> {output: val})
# ---------------------------------------------------------------------------

def _compose(after: dict, before: dict) -> dict:
    """(after o before)[in][out] = sum_mid before[in][mid] * after[mid][out]."""
    out: dict = {}
    for tin, mids in before.items():
        acc = out.setdefault(tin, {})
        for mid, v1 in mids.items():
            arow = after.get(mid)
            if not arow:
                continue
            for tout, v2 in arow.items():
                accumulate(acc, tout, v1 * v2)
        if not acc:
            del out[tin]
    return out


def _embed3(entries: dict, n: int, slot_a: int, slot_b: int) -> dict:
    """Lift two-site entries onto sites (slot_a, slot_b) of V (x) V (x) V."""
    out: dict = {}
    others = [t for t in range(3) if t not in (slot_a, slot_b)]
    spare = others[0]
    for (i, j, k, l), v in entries.items():
        for m in range(1, n + 1):
            tin = [0, 0, 0]
            tout = [0, 0, 0]
            tin[slot_a], tin[slot_b], tin[spare] = i, j, m
            tout[slot_a], tout[slot_b], tout[spare] = k, l, m
            out.setdefault(tuple(tin), {})[tuple(tout)] = v
    return out


def _as_map2(entries: dict) -> dict:
    out: dict = {}
    for (i, j, k, l), v in entries.items():
        out.setdefault((i, j), {})[(k, l)] = v
    return out


def ybe_residual(R: RMatrix, middle: str = "prod") -> dict:
    """LHS - RHS of R12(z) R13(m) R23(w) = R23(w) R13(m) R12(z).

    ``middle`` selects m = z*w ("prod", the normative convention) or
    m = z/w ("ratio", the literal variant, reported alongside).  Fresh
    ratio variables z1 (z) and z2 (w) are used.  Returns a sparse dict
    ((i,j,k) in, (a,b,c) out) -> RatExpr of the nonzero residual entries.
    """
    z = mono(z1=1)
    w = mono(z2=1)
    if middle == "prod":
        m = mono(z1=1, z2=1)
    elif middle == "ratio":
        m = mono(z1=1, z2=-1)
    else:
        raise DomainError(f"unknown middle-argument convention {middle!r}")
    r12 = _embed3(R.at(z), R.n, 0, 1)
    r13 = _embed3(R.at(m), R.n, 0, 2)
    r23 = _embed3(R.at(w), R.n, 1, 2)
    lhs = _compose(r12, _compose(r13, r23))
    rhs = _compose(r23, _compose(r13, r12))
    return _map_sub(lhs, rhs)


def _map_sub(a: dict, b: dict) -> dict:
    out: dict = {}
    keys = set(a) | set(b)
    for tin in keys:
        ra = a.get(tin, {})
        rb = b.get(tin, {})
        for tout in set(ra) | set(rb):
            v = ra.get(tout, _R0) - rb.get(tout, _R0)
            if not v.is_zero():
                out[(tin, tout)] = v
    return out


def unitarity_residual(R: RMatrix) -> dict:
    """R21(x) R(1/x) - Id as a sparse ((i,j),(k,l)) -> RatExpr dict.  A
    singular R always leaves a residual, since det(R21(x) R(1/x)) = 0, so
    the determinant is taken only for a nonzero residual."""
    x = mono(**{R.var: 1})
    xinv = mono(**{R.var: -1})
    r21 = _as_map2(R.flip().at(x))
    rinv_arg = _as_map2(R.at(xinv))
    prod = _compose(r21, rinv_arg)
    ident = {}
    for i in range(1, R.n + 1):
        for j in range(1, R.n + 1):
            ident[(i, j)] = {(i, j): _R1}
    res = _map_sub(prod, ident)
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
    return ClearedRMatrix(base=R, f=f, rprime=rprime)
