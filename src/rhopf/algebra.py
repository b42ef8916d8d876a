"""Noncommutative tensor-word calculus: generators with shifted arguments,
the exchange-rule tables of the three algebra flavors, formal-delta
handling and deterministic normal ordering.

Conventions fixed here and used everywhere:

* Generator kinds and canonical order:  Lstar(+-inv) < L(+-inv) < PhiStar
  < Phi; within a kind, words are sorted by ascending spectral-variable
  index.  Every exchange relation below is oriented toward this order.

* Argument shifts.  A generator argument is z_v * q^sigma where sigma =
  h0/2 + (h1/2) c_1 + (h2/2) c_2 + (h3/2) c_3 with integer h's (stored
  doubled so everything stays integral; c_t is the central charge of
  tensor leg t, realized in the coefficient field as u_t = q^(c_t/2)).

* Matrix-index contraction.  With R[i,j -> k,l] the coefficient of
  e_k (x) e_l in R(e_i (x) e_j), the row index of an L-type generator is
  the "output" side.  Worked 2x2 case of the Phi/L exchange, component
  (i; k,l) of Phi(x1)_1 L(x2)_2 = R(q^(c/2) x1/x2)^{-1} L(x2)_2 Phi(x1)_1:

      Phi_i(x1) l_kl(x2) = sum_{a,b} Rinv[a,b -> i,k](q^(c/2) x1/x2)
                            * l_bl(x2) Phi_a(x1)

  so for n = 2 the word Phi_1(x1) l_21(x2) rewrites into the four terms
  Rinv[a,b -> 1,2] l_b1(x2) Phi_a(x1), a,b in {1,2}.  All ten relations
  are stated once, in the table RELATIONS below, with the same reading.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (BudgetError, DomainError, KindError, ShapeError,
                     SingularError)
from .rmatrix import RMatrix, unitarity_residual
from .symfield import RatExpr, VARS, Z, mono_from_pairs, q_power

LSTAR = "Lstar"
LSTARINV = "Lstarinv"
L = "L"
LINV = "Linv"
PHISTAR = "PhiStar"
PHI = "Phi"

KIND_RANK = {LSTAR: 0, LSTARINV: 0, L: 1, LINV: 1, PHISTAR: 2, PHI: 3}
ALL_KINDS = frozenset(KIND_RANK)

FLAVOR_KINDS = {
    "particle": frozenset((PHI,)),
    "extended": frozenset((PHI, L, LINV)),
    "double": ALL_KINDS,
}

_INV_PAIRS = {(L, LINV), (LINV, L), (LSTAR, LSTARINV), (LSTARINV, LSTAR)}

_R1 = RatExpr.from_int(1)

NO_SHIFT = (0, 0, 0, 0)


class ArgShift(NamedTuple):
    """Spectral variable index plus a doubled q-shift linear form."""

    var: int
    h: tuple = NO_SHIFT


class GenOcc(NamedTuple):
    """One generator occurrence; vector kinds use row only (col = 0)."""

    kind: str
    row: int
    col: int
    arg: ArgShift


class DeltaFactor(NamedTuple):
    """delta((z_a / z_b) * q^(h/2-form)) with avar < bvar."""

    avar: int
    bvar: int
    h: tuple


def _h_add(a: tuple, b: tuple) -> tuple:
    return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])


def _h_sub(a: tuple, b: tuple) -> tuple:
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])


def _h_neg(a: tuple) -> tuple:
    return (-a[0], -a[1], -a[2], -a[3])


def charge_shift(slot: int, steps: int) -> tuple:
    """Doubled shift q^(steps/2 * c_slot) of one charge slot (1..3)."""
    h = [0, 0, 0, 0]
    h[slot] = steps
    return tuple(h)


def shift_arg(arg: ArgShift, dh: tuple) -> ArgShift:
    return ArgShift(arg.var, _h_add(arg.h, dh))


def make_delta(x: ArgShift, y: ArgShift, extra: tuple):
    """delta((X/Y) q^(extra/2-form)); None when the ratio degenerates."""
    h = _h_add(_h_sub(x.h, y.h), extra)
    a, b = x.var, y.var
    if a == b:
        return None
    if a > b:
        a, b = b, a
        h = _h_neg(h)
    return DeltaFactor(a, b, h)


def _ratio_mono(x: ArgShift, y: ArgShift, extra: tuple = NO_SHIFT) -> tuple:
    """Monomial for (X/Y) * q^(extra/2-form) in the coefficient field."""
    h = _h_add(_h_sub(x.h, y.h), extra)
    pairs = {x.var: 1}
    pairs[y.var] = pairs.get(y.var, 0) - 1
    base = q_power(*h)
    zpart = mono_from_pairs(pairs.items())
    merged = dict(base)
    for v, e in zpart:
        merged[v] = merged.get(v, 0) + e
    return mono_from_pairs(merged.items())


FLAG_NONE = ""
FLAG_CONTRADICTORY = "contradictory-delta"
FLAG_DEGENERATE = "degenerate-delta"

# a term key is (flag, deltas, legs); legs is a tuple of GenOcc tuples


class Element:
    """Canonical sum of terms over a fixed number of tensor legs."""

    __slots__ = ("nlegs", "terms", "smarks")

    def __init__(self, nlegs: int, terms=None, smarks=None):
        self.nlegs = nlegs
        self.terms = terms if terms is not None else {}
        self.smarks = smarks if smarks is not None else (False,) * nlegs

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nlegs: int = 1) -> "Element":
        return cls(nlegs)

    @classmethod
    def unit(cls, nlegs: int = 1, coeff: RatExpr = _R1) -> "Element":
        key = (FLAG_NONE, (), ((),) * nlegs)
        if coeff.is_zero():
            return cls(nlegs)
        return cls(nlegs, {key: coeff})

    @classmethod
    def word(cls, occs, nlegs: int = 1, leg: int = 0,
             coeff: RatExpr = _R1, deltas=()) -> "Element":
        legs = [()] * nlegs
        legs[leg] = tuple(occs)
        key = (FLAG_NONE, tuple(sorted(deltas)), tuple(legs))
        if coeff.is_zero():
            return cls(nlegs)
        return cls(nlegs, {key: coeff})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Element) and self.nlegs == other.nlegs
                and self.smarks == other.smarks and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nlegs, self.smarks,
                     tuple(sorted(self.terms.items(),
                                  key=lambda kv: kv[0]))))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0])

    def _check_compat(self, other: "Element"):
        if self.nlegs != other.nlegs:
            raise ShapeError(
                f"leg count mismatch: {self.nlegs} vs {other.nlegs}")
        if self.smarks != other.smarks:
            raise ShapeError("antipode marks differ between operands")

    # -- linear structure ---------------------------------------------------

    def _accumulate(self, out: dict, key, coeff: RatExpr):
        cur = out.get(key)
        if cur is None:
            if not coeff.is_zero():
                out[key] = coeff
        else:
            cur = cur + coeff
            if cur.is_zero():
                del out[key]
            else:
                out[key] = cur

    def __add__(self, other: "Element") -> "Element":
        self._check_compat(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            self._accumulate(out, key, c)
        return Element(self.nlegs, out, self.smarks)

    def __sub__(self, other: "Element") -> "Element":
        self._check_compat(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            self._accumulate(out, key, -c)
        return Element(self.nlegs, out, self.smarks)

    def __neg__(self) -> "Element":
        return Element(self.nlegs, {k: -c for k, c in self.terms.items()},
                       self.smarks)

    def scale(self, coeff: RatExpr) -> "Element":
        if coeff.is_zero():
            return Element(self.nlegs, {}, self.smarks)
        return Element(self.nlegs,
                       {k: c * coeff for k, c in self.terms.items()},
                       self.smarks)

    # -- multiplication (legwise concatenation, no normal ordering) ---------

    def __mul__(self, other: "Element") -> "Element":
        self._check_compat(other)
        if any(self.smarks):
            raise ShapeError("cannot multiply elements with pending "
                             "antipode marks")
        out: dict = {}
        for (fa, da, la), ca in self.terms.items():
            for (fb, db, lb), cb in other.terms.items():
                flag = fa or fb
                deltas = tuple(sorted(da + db))
                legs = tuple(wa + wb for wa, wb in zip(la, lb))
                self._accumulate(out, (flag, deltas, legs), ca * cb)
        return Element(self.nlegs, out, self.smarks)

    # -- charge-reference transforms ----------------------------------------

    def map_charges(self, cmap: dict, new_nlegs=None,
                    new_smarks=None) -> "Element":
        """Apply the linear substitution c_i -> sum_j cmap[i][j] c_j to every
        q-shift (arguments, deltas) and the matching u-substitution to every
        coefficient."""
        bindings = {}
        for i, row in cmap.items():
            if row == {i: 1}:
                continue
            bindings[f"u{i}"] = {f"u{j}": e for j, e in row.items() if e}
            if not bindings[f"u{i}"]:
                bindings[f"u{i}"] = {"s": 0}

        def hmap(h):
            new = [h[0], 0, 0, 0]
            for i in (1, 2, 3):
                if not h[i]:
                    continue
                row = cmap.get(i, {i: 1})
                for j, e in row.items():
                    new[j] += h[i] * e
            return tuple(new)

        out: dict = {}
        nlegs = self.nlegs if new_nlegs is None else new_nlegs
        for (flag, deltas, legs), c in self.terms.items():
            nd = tuple(sorted(
                DeltaFactor(d.avar, d.bvar, hmap(d.h)) for d in deltas))
            nl = tuple(tuple(GenOcc(g.kind, g.row, g.col,
                                    ArgShift(g.arg.var, hmap(g.arg.h)))
                             for g in w) for w in legs)
            if len(nl) != nlegs:
                raise ShapeError("charge map cannot change leg count")
            nc = c.substitute(bindings) if bindings else c
            self._accumulate(out, (flag, nd, nl), nc)
        smarks = self.smarks if new_smarks is None else new_smarks
        return Element(nlegs, out, smarks)

    def __repr__(self):
        return f"Element(nlegs={self.nlegs}, terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# toggles and the rewrite system
# ---------------------------------------------------------------------------

TOGGLE_NAMES = ("cross-bracket", "ll-star", "ybe-middle", "phistar-coproduct")


@dataclass(frozen=True)
class Toggles:
    """Convention switches between the corrected and the literal relation
    set; the default corrected set is the one the verification forces."""

    cross_bracket: str = "corrected"
    ll_star: str = "corrected"
    ybe_middle: str = "corrected"
    phistar_coproduct: str = "corrected"

    def as_dict(self) -> dict:
        return {
            "cross-bracket": self.cross_bracket,
            "ll-star": self.ll_star,
            "ybe-middle": self.ybe_middle,
            "phistar-coproduct": self.phistar_coproduct,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Toggles":
        kw = {}
        for name, val in d.items():
            if name not in TOGGLE_NAMES:
                raise DomainError(f"unknown toggle {name!r}")
            if val not in ("corrected", "literal"):
                raise DomainError(
                    f"toggle {name!r} must be 'corrected' or 'literal'")
            kw[name.replace("-", "_")] = val
        return cls(**kw)


# ---------------------------------------------------------------------------
# the defining relations
# ---------------------------------------------------------------------------

class Contraction(NamedTuple):
    """matrix[ins -> outs]((x_num / x_den) q^(steps/2 * c_t)), with matrix
    "R" or "Rinv", each slot a pair of index letters, and c_t the charge of
    the leg the relation is read on."""

    matrix: str
    ins: str
    outs: str
    num: int
    den: int
    steps: int = 0


class Side(NamedTuple):
    """A word of two generator patterns (kind, index letters, argument
    number 1 or 2), optionally contracted.  One slot of the contraction
    holds free indices of the relation; the letters of the other slot
    occur only in the word and are summed."""

    word: tuple
    matrix: Contraction = None


class BracketTerm(NamedTuple):
    """sign/(q - q^-1) delta((x1/x2) q^(delta_steps/2 * c_t))
    gen(x_arg q^(arg_steps/2 * c_t))."""

    sign: int
    delta_steps: int
    gen: tuple
    arg_steps: int


class Relation(NamedTuple):
    """lhs = rhs, or lhs - rhs = the sum of the bracket terms; a relation
    with bracket terms has its out-of-order word on the lhs."""

    rid: str
    free: str
    lhs: Side
    rhs: Side
    bracket: tuple = ()


# A kind picked by a toggle: (Toggles attribute, corrected, literal).
_LL_STAR_KIND = ("ll_star", L, LSTAR)
_CROSS_BRACKET_KIND = ("cross_bracket", L, LSTAR)

# The single statement of every defining relation: contractions, charge
# shifts, R21 readings (R21[a,b -> c,d] = R[b,a -> d,c], written out as
# index letters) and toggled kinds.  Templates and exchange rules are both
# read off these rows.
RELATIONS = (
    # R(x1/x2)[a,b -> i,j] Phi_a(x1) Phi_b(x2) = Phi_j(x2) Phi_i(x1)
    Relation("PhiPhi", "ij",
             Side(((PHI, "a", 1), (PHI, "b", 2)),
                  Contraction("R", "ab", "ij", 1, 2)),
             Side(((PHI, "j", 2), (PHI, "i", 1)))),
    # Phi_i(x1) l_kl(x2)
    #   = Rinv((x1/x2) q^(c/2))[a,b -> i,k] l_bl(x2) Phi_a(x1)
    Relation("PhiL", "ikl",
             Side(((PHI, "i", 1), (L, "kl", 2))),
             Side(((L, "bl", 2), (PHI, "a", 1)),
                  Contraction("Rinv", "ab", "ik", 1, 2, 1))),
    # R(x1/x2)[i,k -> m,p] l_ij(x1) l_kl(x2)
    #   = R(x1/x2)[j,l -> a,b] l_pb(x2) l_ma(x1)
    Relation("LL", "mpjl",
             Side(((L, "ij", 1), (L, "kl", 2)),
                  Contraction("R", "ik", "mp", 1, 2)),
             Side(((L, "pb", 2), (L, "ma", 1)),
                  Contraction("R", "jl", "ab", 1, 2))),
    Relation("LstarLstar", "mpjl",
             Side(((LSTAR, "ij", 1), (LSTAR, "kl", 2)),
                  Contraction("R", "ik", "mp", 1, 2)),
             Side(((LSTAR, "pb", 2), (LSTAR, "ma", 1)),
                  Contraction("R", "jl", "ab", 1, 2))),
    # R((x1/x2) q^-c)[i,k -> m,p] l_ij(x1) lstar_kl(x2)
    #   = R((x1/x2) q^c)[j,l -> a,b] lstar_pb(x2) l_ma(x1)
    # (the literal text has lstar_ma on the right)
    Relation("LLstar", "mpjl",
             Side(((L, "ij", 1), (LSTAR, "kl", 2)),
                  Contraction("R", "ik", "mp", 1, 2, -2)),
             Side(((LSTAR, "pb", 2), (_LL_STAR_KIND, "ma", 1)),
                  Contraction("R", "jl", "ab", 1, 2, 2))),
    # Phistar_j(x2) Phistar_i(x1)
    #   = R(x2/x1)[j,i -> b,a] Phistar_a(x1) Phistar_b(x2)
    Relation("PhistarPhistar", "ij",
             Side(((PHISTAR, "j", 2), (PHISTAR, "i", 1))),
             Side(((PHISTAR, "a", 1), (PHISTAR, "b", 2)),
                  Contraction("R", "ji", "ba", 2, 1))),
    # lstar_ks(x2) Phistar_t(x1)
    #   = R21((x2/x1) q^(-c/2))[t,s -> i,l] Phistar_i(x1) lstar_kl(x2)
    Relation("PhistarLstar", "tks",
             Side(((LSTAR, "ks", 2), (PHISTAR, "t", 1))),
             Side(((PHISTAR, "i", 1), (LSTAR, "kl", 2)),
                  Contraction("R", "st", "li", 2, 1, -1))),
    # Phi_i(x1) Phistar_j(x2) - Phistar_j(x2) Phi_i(x1)
    #   = 1/(q-q^-1) [ delta((x1/x2) q^-c) lstar_ij(x2 q^(c/2))
    #                  - delta((x1/x2) q^c) l_ij(x1 q^(c/2)) ]
    # (the literal text has lstar in the second term too)
    Relation("PhiPhistar", "ij",
             Side(((PHI, "i", 1), (PHISTAR, "j", 2))),
             Side(((PHISTAR, "j", 2), (PHI, "i", 1))),
             (BracketTerm(1, -2, (LSTAR, "ij", 2), 1),
              BracketTerm(-1, 2, (_CROSS_BRACKET_KIND, "ij", 1), 1))),
    # R21((x2/x1) q^(-c/2))[a,b -> j,k] l_ij(x1) Phistar_k(x2)
    #   = Phistar_b(x2) l_ia(x1)
    Relation("PhistarL", "iab",
             Side(((L, "ij", 1), (PHISTAR, "k", 2)),
                  Contraction("R", "ba", "kj", 2, 1, -1)),
             Side(((PHISTAR, "b", 2), (L, "ia", 1)))),
    # R((x1/x2) q^(c/2))[i,k -> m,p] lstar_ij(x1) Phi_k(x2)
    #   = Phi_p(x2) lstar_mj(x1)
    Relation("PhiLstar", "mjp",
             Side(((LSTAR, "ij", 1), (PHI, "k", 2)),
                  Contraction("R", "ik", "mp", 1, 2, 1)),
             Side(((PHI, "p", 2), (LSTAR, "mj", 1)))),
)

RELATION_IDS = tuple(rel.rid for rel in RELATIONS)
_RELATION_BY_ID = {rel.rid: rel for rel in RELATIONS}

FLAVOR_RELATIONS = {
    "particle": ("PhiPhi",),
    "extended": ("PhiPhi", "PhiL", "LL"),
    "double": RELATION_IDS,
}


class RewriteSystem:
    """Immutable rule table for one R-matrix and flavor."""

    def __init__(self, R: RMatrix, flavor: str, toggles: Toggles = None,
                 check_unitarity: bool = True):
        if flavor not in FLAVOR_KINDS:
            raise KindError(f"unknown flavor {flavor!r}")
        self.R = R
        self.n = R.n
        self.flavor = flavor
        self.toggles = toggles or Toggles()
        if R.determinant().is_zero():
            raise SingularError("R is singular; rules are not expressible")
        self._rinv = R.inverse_entries()
        if flavor == "double" and check_unitarity:
            if unitarity_residual(R):
                raise DomainError(
                    "the double flavor requires a unitary R-matrix")
        self._r_by_out = _index_by_output(R.entries)
        self._rinv_by_out = _index_by_output(self._rinv)
        self._r_by_in = _index_by_input(R.entries)
        self._rinv_by_in = _index_by_input(self._rinv)
        self._at_cache: dict = {}
        self._inv_at_cache: dict = {}
        q2 = RatExpr.var("s", 2)
        self.qfactor = (q2 - q2.inverse()).inverse()  # 1/(q - q^-1)
        self._rules = dict(_orient(_RELATION_BY_ID[rid], self.toggles)
                           for rid in FLAVOR_RELATIONS[flavor])

    # -- cached entry evaluation -------------------------------------------

    def r_at(self, argm: tuple) -> dict:
        out = self._at_cache.get(argm)
        if out is None:
            out = self._subs_entries(self.R.entries, argm)
            self._at_cache[argm] = out
        return out

    def rinv_at(self, argm: tuple) -> dict:
        out = self._inv_at_cache.get(argm)
        if out is None:
            out = self._subs_entries(self._rinv, argm)
            self._inv_at_cache[argm] = out
        return out

    def _subs_entries(self, entries: dict, argm: tuple) -> dict:
        try:
            return {k: v.subs_monomial(self.R.var, argm)
                    for k, v in entries.items()}
        except DomainError as exc:
            raise SingularError(
                f"R-matrix entry singular at the symbolic argument "
                f"{argm}") from exc

    # -- rule table ----------------------------------------------------------

    def rule_for(self, g1: GenOcc, g2: GenOcc):
        return self._rules.get((g1.kind, g2.kind))

    def allowed_kinds(self) -> frozenset:
        return FLAVOR_KINDS[self.flavor]


def _index_by_output(entries: dict) -> dict:
    out: dict = {}
    for (i, j, k, l) in entries:
        out.setdefault((k, l), []).append((i, j))
    return out


def _index_by_input(entries: dict) -> dict:
    out: dict = {}
    for (i, j, k, l) in entries:
        out.setdefault((i, j), []).append((k, l))
    return out


# ---------------------------------------------------------------------------
# reading a relation row
#
# The template of a relation is its row read at x1 = z1, x2 = z2 on leg 0.
# Its oriented rule is the row solved for the side whose word is out of
# canonical order: the other side, times the inverse of the solved side's
# contraction when it has one (R^-1 for R and back, input and output slots
# swapped), with the bracket terms moved across.  A rule is a pair
# (relation, index of the solved side); ``rule_pieces`` applies it to an
# adjacent pair g1 g2 on 0-based leg ``leg``, whose own charge slot is
# leg + 1, and returns a list of (coeff, extra_deltas, occs).
# ---------------------------------------------------------------------------

_INVERSE = {"R": "Rinv", "Rinv": "R"}


def _kind(kind, toggles: Toggles) -> str:
    if isinstance(kind, str):
        return kind
    attr, corrected, literal = kind
    return corrected if getattr(toggles, attr) == "corrected" else literal


def _occ(pattern, env: dict, x, toggles: Toggles, dh=None) -> GenOcc:
    kind, letters, arg = pattern
    col = env[letters[1]] if len(letters) == 2 else 0
    a = x[arg] if dh is None else shift_arg(x[arg], dh)
    return GenOcc(_kind(kind, toggles), env[letters[0]], col, a)


def _orient(rel: Relation, toggles: Toggles):
    """(kinds of the out-of-order word, rule) for one relation; the rule
    solves the first side whose word is out of canonical order."""
    x = (None, _z(1), _z(2))
    for s, side in enumerate((rel.lhs, rel.rhs)):
        g1, g2 = (GenOcc(_kind(kind, toggles), 0, 0, x[arg])
                  for kind, _, arg in side.word)
        if _pair_out_of_order(g1, g2):
            return (g1.kind, g2.kind), (rel, s)


def _factor(rs: "RewriteSystem", m: Contraction, x, slot: int,
            solve: bool = False):
    """A contraction evaluated at its argument: (entries, index by input,
    index by output, input letters, output letters).  ``solve`` reads the
    inverse matrix with the slots swapped."""
    name, ins, outs = m.matrix, m.ins, m.outs
    if solve:
        name, ins, outs = _INVERSE[name], outs, ins
    argm = _ratio_mono(x[m.num], x[m.den], charge_shift(slot, m.steps))
    if name == "R":
        return rs.r_at(argm), rs._r_by_in, rs._r_by_out, ins, outs
    return rs.rinv_at(argm), rs._rinv_by_in, rs._rinv_by_out, ins, outs


def _contract(factors, env: dict, coeff=None):
    """Yield (coefficient, bindings) for every nonzero product of entries:
    each factor is looked up through its bound slot and binds the letters
    of the other.  The coefficient is None when there is no factor."""
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
        yield from _contract(factors[1:], sub,
                             c if coeff is None else coeff * c)


def _word_terms(rs: "RewriteSystem", word, factors, env: dict, x):
    return [(_R1 if c is None else c, (),
             tuple(_occ(p, sub, x, rs.toggles) for p in word))
            for c, sub in _contract(factors, env)]


def _bracket_terms(rs: "RewriteSystem", rel: Relation, env: dict, x,
                   slot: int):
    deltas = [make_delta(x[1], x[2], charge_shift(slot, b.delta_steps))
              for b in rel.bracket]
    degenerate = None in deltas  # surfaced via the term flag downstream
    return [(rs.qfactor if b.sign > 0 else -rs.qfactor,
             ("degenerate",) if degenerate else (d,),
             (_occ(b.gen, env, x, rs.toggles,
                   charge_shift(slot, b.arg_steps)),))
            for b, d in zip(rel.bracket, deltas)]


def rule_pieces(rs: "RewriteSystem", rule, g1: GenOcc, g2: GenOcc,
                leg: int):
    rel, solved = rule
    sides = (rel.lhs, rel.rhs)
    env: dict = {}
    x = [None, None, None]
    for (_, letters, arg), g in zip(sides[solved].word, (g1, g2)):
        env[letters[0]] = g.row
        if len(letters) == 2:
            env[letters[1]] = g.col
        x[arg] = g.arg
    slot = leg + 1
    factors = [_factor(rs, side.matrix, x, slot, solve=(s == solved))
               for s, side in enumerate(sides) if side.matrix]
    return (_word_terms(rs, sides[1 - solved].word, factors, env, x)
            + _bracket_terms(rs, rel, env, x, slot))


# ---------------------------------------------------------------------------
# ordering, measure, scheduling
# ---------------------------------------------------------------------------

def _pair_out_of_order(g1: GenOcc, g2: GenOcc) -> bool:
    r1, r2 = KIND_RANK[g1.kind], KIND_RANK[g2.kind]
    if r1 > r2:
        return True
    if g1.kind == g2.kind and g1.arg.var > g2.arg.var:
        return True
    return False


def term_measure(key) -> tuple:
    """(total length, kind inversions, var inversions): the termination
    measure, strictly lexicographically decreasing under every rewrite."""
    _, _, legs = key
    total = 0
    kind_inv = 0
    var_inv = 0
    for word in legs:
        total += len(word)
        for a in range(len(word)):
            for b in range(a + 1, len(word)):
                ra, rb = KIND_RANK[word[a].kind], KIND_RANK[word[b].kind]
                if ra > rb:
                    kind_inv += 1
                elif word[a].kind == word[b].kind and \
                        word[a].arg.var > word[b].arg.var:
                    var_inv += 1
    return (total, kind_inv, var_inv)


def _find_contraction(e: Element, n: int):
    """First complete inverse-product contraction, in canonical term order.

    Detects sum_v f * X_av Y_vb with (X, Y) an inverse pair at the same
    argument, adjacent in one leg, the contraction running over the column
    of X and the row of Y with equal coefficients f.
    """
    for key, coeff in e.sorted_terms():
        flag, deltas, legs = key
        for li, word in enumerate(legs):
            for pos in range(len(word) - 1):
                g1, g2 = word[pos], word[pos + 1]
                if (g1.kind, g2.kind) not in _INV_PAIRS:
                    continue
                if g1.arg != g2.arg or g1.col != g2.row:
                    continue
                group = []
                ok = True
                for v in range(1, n + 1):
                    w2 = list(word)
                    w2[pos] = g1._replace(col=v)
                    w2[pos + 1] = g2._replace(row=v)
                    k2 = (flag, deltas,
                          legs[:li] + (tuple(w2),) + legs[li + 1:])
                    c2 = e.terms.get(k2)
                    if c2 is None or c2 != coeff:
                        ok = False
                        break
                    group.append(k2)
                if ok:
                    reduced = word[:pos] + word[pos + 2:]
                    newkey = (flag, deltas,
                              legs[:li] + (reduced,) + legs[li + 1:])
                    keep = g1.row == g2.col
                    return group, newkey, coeff, keep
    return None


def _find_rewrite(e: Element, rs: RewriteSystem):
    for key, coeff in e.sorted_terms():
        _, _, legs = key
        for li, word in enumerate(legs):
            for pos in range(len(word) - 1):
                g1, g2 = word[pos], word[pos + 1]
                if not _pair_out_of_order(g1, g2):
                    continue
                rule = rs.rule_for(g1, g2)
                if rule is None:
                    continue
                return key, coeff, li, pos, rule
    return None


def _apply_at(e: Element, rs: RewriteSystem, key, coeff, li, pos, rule,
              trace=None) -> Element:
    flag, deltas, legs = key
    word = legs[li]
    g1, g2 = word[pos], word[pos + 1]
    out = dict(e.terms)
    del out[key]
    result = Element(e.nlegs, out, e.smarks)
    before = term_measure(key) if trace is not None else None
    pieces = rule_pieces(rs, rule, g1, g2, li)
    add: dict = {}
    for rcoeff, extra_deltas, occs in pieces:
        nflag = flag
        nd = list(deltas)
        for d in extra_deltas:
            if d == "degenerate":
                nflag = FLAG_DEGENERATE
            else:
                nd.append(d)
        nword = word[:pos] + tuple(occs) + word[pos + 2:]
        nkey = (nflag, tuple(sorted(nd)),
                legs[:li] + (nword,) + legs[li + 1:])
        if trace is not None:
            trace.append((before, term_measure(nkey)))
        result._accumulate(add, nkey, coeff * rcoeff)
    for k, c in add.items():
        result._accumulate(result.terms, k, c)
    return result


def normal_order(e: Element, rs: RewriteSystem, trace=None,
                 max_steps: int = 200000) -> Element:
    """Deterministic normal form: repeatedly contract inverse products and
    rewrite the leftmost out-of-order adjacent pair (leftmost unfinished
    leg, first term in canonical order) until no rule applies."""
    allowed = rs.allowed_kinds()
    for (_, _, legs) in e.terms:
        for word in legs:
            for g in word:
                if g.kind not in allowed:
                    raise KindError(
                        f"kind {g.kind} not in flavor {rs.flavor}")
    steps = 0
    while True:
        steps += 1
        if steps > max_steps:
            raise BudgetError(
                f"normal_order exceeded its budget of {max_steps} steps")
        found = _find_contraction(e, rs.n)
        if found is not None:
            group, newkey, coeff, keep = found
            out = dict(e.terms)
            for k in group:
                del out[k]
            e = Element(e.nlegs, out, e.smarks)
            if keep:
                if trace is not None:
                    trace.append((term_measure(group[0]),
                                  term_measure(newkey)))
                e._accumulate(e.terms, newkey, coeff)
            continue
        found = _find_rewrite(e, rs)
        if found is None:
            return e
        key, coeff, li, pos, rule = found
        e = _apply_at(e, rs, key, coeff, li, pos, rule, trace)


# ---------------------------------------------------------------------------
# formal-delta normalization
# ---------------------------------------------------------------------------

def _subst_var_arg(arg: ArgShift, avar: int, bvar: int, dh: tuple):
    if arg.var != avar:
        return arg
    return ArgShift(bvar, _h_add(arg.h, dh))


def delta_normalize(e: Element) -> Element:
    """Use each delta's support to rewrite its term:
    f(z_a) delta((z_a/z_b) q^s) = f(z_b q^-s) delta((z_a/z_b) q^s)."""
    out: dict = {}
    acc = Element(e.nlegs, out, e.smarks)
    for key, coeff in e.terms.items():
        flag, deltas, legs = key
        if flag or not deltas:
            acc._accumulate(out, key, coeff)
            continue
        ok = True
        done: list = []
        pend = sorted(deltas)
        cur_coeff = coeff
        cur_legs = legs
        while pend:
            d = pend.pop(0)
            if d.avar == d.bvar:
                if any(d.h):
                    flag = FLAG_CONTRADICTORY
                    ok = False
                    break
                continue  # delta(1) left by a duplicate: merged
            done.append(d)
            dh = _h_neg(d.h)
            target = mono_from_pairs(
                [(d.bvar, 1)] + list(q_power(*dh)))
            cur_coeff = cur_coeff.subs_monomial(VARS[d.avar], target)
            cur_legs = tuple(
                tuple(g._replace(arg=_subst_var_arg(g.arg, d.avar, d.bvar,
                                                    dh))
                      for g in w) for w in cur_legs)
            np = []
            for d2 in pend:
                a2, b2, h2 = d2
                if a2 == d.avar:
                    a2 = d.bvar
                    h2 = _h_add(h2, dh)
                if b2 == d.avar:
                    b2 = d.bvar
                    h2 = _h_sub(h2, dh)
                if a2 > b2:
                    a2, b2 = b2, a2
                    h2 = _h_neg(h2)
                np.append(DeltaFactor(a2, b2, h2))
            pend = sorted(np)
        if not ok:
            acc._accumulate(out, (FLAG_CONTRADICTORY, deltas, legs), coeff)
            continue
        # drop exact duplicates produced by the rewriting
        dedup = tuple(sorted(set(done)))
        acc._accumulate(out, (FLAG_NONE, dedup, cur_legs), cur_coeff)
    return Element(e.nlegs, out, e.smarks)


# ---------------------------------------------------------------------------
# relation templates (one-leg elements over z1, z2)
# ---------------------------------------------------------------------------

def _z(i: int) -> ArgShift:
    return ArgShift(Z[i - 1], NO_SHIFT)


def _element(terms) -> Element:
    out = Element(1)
    for coeff, deltas, occs in terms:
        out._accumulate(out.terms, (FLAG_NONE, deltas, (occs,)), coeff)
    return out


def relation_sides(rs: RewriteSystem, relation_id: str):
    """Yield (free-index tuple, lhs Element, rhs Element) for the named
    defining relation, instantiated at spectral variables z1, z2."""
    rel = _RELATION_BY_ID.get(relation_id)
    if rel is None:
        raise KindError(f"unknown relation {relation_id!r}")
    x = (None, _z(1), _z(2))
    sides = (rel.lhs, rel.rhs)
    factors = [[_factor(rs, side.matrix, x, 1)] if side.matrix else []
               for side in sides]
    for idx in itertools.product(range(1, rs.n + 1), repeat=len(rel.free)):
        env = dict(zip(rel.free, idx))
        lhs, rhs = (_element(_word_terms(rs, side.word, f, env, x))
                    for side, f in zip(sides, factors))
        if rel.bracket:
            lhs, rhs = lhs - rhs, _element(_bracket_terms(rs, rel, env, x, 1))
        yield idx, lhs, rhs


def relation_self_residual(rs: RewriteSystem, relation_id: str):
    """Normal-ordered, delta-normalized LHS - RHS for every free index; a
    sound rule table returns all-zero elements."""
    out = []
    for idx, lhs, rhs in relation_sides(rs, relation_id):
        out.append((idx, delta_normalize(normal_order(lhs - rhs, rs))))
    return out


# ---------------------------------------------------------------------------
# braid consistency
# ---------------------------------------------------------------------------

def _apply_samekind_at(e: Element, rs: RewriteSystem, pos: int) -> Element:
    """Apply the Phi exchange at word position ``pos`` of leg 0 to every
    term, whatever the order of the pair (bypasses the deterministic
    scheduler)."""
    out: dict = {}
    acc = Element(e.nlegs, out, e.smarks)
    for key, coeff in e.terms.items():
        flag, deltas, legs = key
        word = legs[0]
        g1, g2 = word[pos], word[pos + 1]
        for rcoeff, _, occs in rule_pieces(rs, rs.rule_for(g1, g2), g1, g2,
                                           0):
            nword = word[:pos] + tuple(occs) + word[pos + 2:]
            nkey = (flag, deltas, (nword,) + legs[1:])
            acc._accumulate(out, nkey, coeff * rcoeff)
    return Element(e.nlegs, out, e.smarks)


def braid_consistency(R: RMatrix, flavor: str = "particle",
                      toggles: Toggles = None) -> dict:
    """Two independent probes of the rule table's coherence:

    * path agreement: the fully reversed word Phi(x3) Phi(x2) Phi(x1) is
      ordered along the two distinct transposition sequences (leftmost
      first, positions 0-1-0, vs rightmost first, 1-0-1); with the
      Yang-Baxter equation holding the results agree;
    * involutivity: the Phi exchange applied twice, descending and then
      ascending, must return the original word; this is exactly
      unitarity and catches scalar instances, whose Yang-Baxter equation
      is vacuous.
    """
    rs = RewriteSystem(R, flavor, toggles, check_unitarity=False)
    n = R.n
    path_residual = 0
    for i3 in range(1, n + 1):
        for i2 in range(1, n + 1):
            for i1 in range(1, n + 1):
                w = Element.word((GenOcc(PHI, i3, 0, _z(3)),
                                  GenOcc(PHI, i2, 0, _z(2)),
                                  GenOcc(PHI, i1, 0, _z(1))))
                left = w
                for pos in (0, 1, 0):
                    left = _apply_samekind_at(left, rs, pos)
                right = w
                for pos in (1, 0, 1):
                    right = _apply_samekind_at(right, rs, pos)
                path_residual += len((left - right).terms)
    invol_residual = 0
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            w = Element.word((GenOcc(PHI, j, 0, _z(2)),
                              GenOcc(PHI, i, 0, _z(1))))
            once = _apply_samekind_at(w, rs, 0)
            back = _apply_samekind_at(once, rs, 0)
            invol_residual += len((back - w).terms)
    return {
        "path_residual_terms": path_residual,
        "involutivity_residual_terms": invol_residual,
        "agree": path_residual == 0 and invol_residual == 0,
    }
