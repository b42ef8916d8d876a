"""Noncommutative tensor-word calculus: generators with shifted arguments,
the exchange-rule tables of the three algebra flavors, formal-delta
handling and deterministic normal ordering.

Conventions fixed here and used everywhere:

* Generator kinds and canonical order:  LStar, LStarInv < L, LInv <
  PhiStar < Phi; within a kind, words are sorted by ascending
  spectral-variable index.  Every exchange relation below is oriented
  toward this order.

* Argument shifts.  A generator argument is z_v * q^sigma where sigma =
  h0/2 + (h1/2) c_1 + (h2/2) c_2 + (h3/2) c_3 with integer h's; c_t is the
  central charge of tensor leg t.  The q-power is stored as the monomial
  s^h0 u1^h1 u2^h2 u3^h3 of the coefficient field (s = q^(1/2), u_t =
  q^(c_t/2)), the same monomials coefficients use, so one substitution
  (``subs_term``) moves charges and delta supports through arguments,
  deltas and coefficients alike.

* Matrix-index contraction.  With R[i,j -> k,l] the coefficient of
  e_k (x) e_l in R(e_i (x) e_j), the row index of an L-type generator is
  the "output" side.  Worked 2x2 case of the Phi/L exchange, component
  (i; k,l) of Phi(x1)_1 L(x2)_2 = R(q^(c/2) x1/x2)^{-1} L(x2)_2 Phi(x1)_1:

      Phi_i(x1) l_kl(x2) = sum_{a,b} Rinv[a,b -> i,k](q^(c/2) x1/x2)
                            * l_bl(x2) Phi_a(x1)

  so for n = 2 the word Phi_1(x1) l_21(x2) rewrites into the four terms
  Rinv[a,b -> 1,2] l_b1(x2) Phi_a(x1), a,b in {1,2}.  All ten relations
  are stated once, in the table RELATIONS below, with the same reading;
  their products of entries are read by ``rmatrix.contract``, the
  routine the Yang-Baxter and unitarity residuals use too.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass
from typing import NamedTuple

from .errors import (BudgetError, DomainError, ExponentError, KindError,
                     ShapeError, SingularError)
from .expr import format_ratexpr
from .rmatrix import RMatrix, contract, entries_at, table
from .kernels import mono_mul
from .symfield import (NVARS, RatExpr, U, Z, _R1, accumulate, mono,
                       mono_from_pairs, mono_inv, mono_items, run_memo,
                       subs_mono, sum_fractions)

# a kind's name is its spelling in element text and in reports
LSTAR = "LStar"
LSTARINV = "LStarInv"
L = "L"
LINV = "LInv"
PHISTAR = "PhiStar"
PHI = "Phi"

KIND_RANK = {LSTAR: 0, LSTARINV: 0, L: 1, LINV: 1, PHISTAR: 2, PHI: 3}
ALL_KINDS = frozenset(KIND_RANK)
# vector kinds carry one index (col = 0), matrix kinds two
VECTOR_KINDS = frozenset((PHI, PHISTAR))

FLAVOR_KINDS = {
    "particle": frozenset((PHI,)),
    "extended": frozenset((PHI, L, LINV)),
    "double": ALL_KINDS,
}

_INV_PAIRS = {(L, LINV), (LINV, L), (LSTAR, LSTARINV), (LSTARINV, LSTAR)}

# the most tensor legs an element has; leg t carries the charge slot c_t
MAX_LEGS = 3

class ArgShift(NamedTuple):
    """Spectral variable index plus a q-power: the argument z_var * q."""

    var: int
    q: int = mono()


class GenOcc(NamedTuple):
    """One generator occurrence; VECTOR_KINDS use row only (col = 0)."""

    kind: str
    row: int
    col: int
    arg: ArgShift


class DeltaFactor(NamedTuple):
    """delta((z_a / z_b) * q) with avar <= bvar, as ``make_delta`` orients
    it."""

    avar: int
    bvar: int
    q: int


@functools.cache
def charge_shift(slot: int, steps: int) -> int:
    """The q-power q^(steps/2 * c_slot) = u_slot^steps of one charge slot
    (1..MAX_LEGS)."""
    return mono_from_pairs(((U[slot - 1], steps),))


# each variable v as a monomial, v^1
_VAR_MONO = tuple(mono_from_pairs(((v, 1),)) for v in range(NVARS))


def make_delta(x: ArgShift, y: ArgShift, extra: int) -> DeltaFactor:
    """delta((X/Y) q^extra), oriented so that avar <= bvar: the argument is
    inverted on a swap, since delta(w) = delta(1/w).  avar == bvar leaves
    a delta of a q-power alone, which ``delta_normalize`` resolves."""
    q = mono_mul(mono_mul(x.q, mono_inv(y.q)), extra)
    if x.var > y.var:
        return DeltaFactor(y.var, x.var, mono_inv(q))
    return DeltaFactor(x.var, y.var, q)


def _arg_mono(x: ArgShift) -> int:
    return mono_mul(x.q, _VAR_MONO[x.var])


def _ratio_mono(x: ArgShift, y: ArgShift, extra: int) -> int:
    """Monomial for (X/Y) * q^extra in the coefficient field."""
    return mono_mul(mono_mul(_arg_mono(x), mono_inv(_arg_mono(y))), extra)


@run_memo
@functools.cache
def _subs_arg(x: ArgShift, items: tuple) -> ArgShift:
    """z_var * q under the substitution with the (variable, monomial)
    items ``items``, which sends a spectral variable to a spectral
    variable times a q-power.  A run puts the same few charge maps and
    delta supports into the same few arguments, so it is memoized."""
    smap = dict(items)
    if x.var not in smap:
        return ArgShift(x.var, subs_mono(x.q, smap))
    m = subs_mono(_arg_mono(x), smap)
    # the q-power's variables (s, u1..u3) sort before every spectral one
    var = mono_items(m)[-1][0]
    return ArgShift(var, mono_mul(m, mono_inv(_VAR_MONO[var])))


def subs_term(key, coeff: RatExpr, smap: dict):
    """(key, coefficient) of a term under the simultaneous substitution
    ``smap`` (variable index -> monomial), applied alike to the arguments,
    the deltas and the coefficient."""
    flag, deltas, legs = key
    items = tuple(smap.items())
    nd = tuple(sorted(make_delta(_subs_arg(ArgShift(d.avar, d.q), items),
                                 _subs_arg(ArgShift(d.bvar), items),
                                 mono())
                      for d in deltas))
    nl = tuple(tuple(g._replace(arg=_subs_arg(g.arg, items)) for g in w)
               for w in legs)
    return (flag, nd, nl), coeff.subs_monomial(smap)


FLAG_NONE = ""
FLAG_CONTRADICTORY = "contradictory-delta"
FLAG_DEGENERATE = "degenerate-delta"

# a term key is (flag, deltas, legs); legs is a tuple of GenOcc tuples


class Element:
    """Canonical sum of terms over a fixed number of tensor legs."""

    __slots__ = ("nlegs", "terms")

    def __init__(self, nlegs: int, terms=None):
        self.nlegs = nlegs
        self.terms = terms if terms is not None else {}

    # -- constructors -------------------------------------------------------

    @classmethod
    def unit(cls, nlegs: int = 1, coeff: RatExpr = _R1) -> "Element":
        key = (FLAG_NONE, (), ((),) * nlegs)
        if coeff.is_zero():
            return cls(nlegs)
        return cls(nlegs, {key: coeff})

    @classmethod
    def word(cls, occs) -> "Element":
        """The one-leg word ``occs`` with coefficient 1."""
        return cls(1, {(FLAG_NONE, (), (tuple(occs),)): _R1})

    # -- basic structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, Element) and self.nlegs == other.nlegs
                and self.terms == other.terms)

    def _check_compat(self, other: "Element"):
        if self.nlegs != other.nlegs:
            raise ShapeError(
                f"leg count mismatch: {self.nlegs} vs {other.nlegs}")

    # -- linear structure ---------------------------------------------------

    def __add__(self, other: "Element") -> "Element":
        self._check_compat(other)
        out = dict(self.terms)
        for key, c in other.terms.items():
            accumulate(out, key, c)
        return Element(self.nlegs, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + -other

    def __neg__(self) -> "Element":
        return Element(self.nlegs, {k: -c for k, c in self.terms.items()})

    def __repr__(self):
        return f"Element(nlegs={self.nlegs}, terms={len(self.terms)})"


# ---------------------------------------------------------------------------
# toggles and the rewrite system
# ---------------------------------------------------------------------------

TOGGLE_NAMES = ("cross-bracket", "ll-star", "ybe-middle", "phistar-coproduct")


@dataclass(frozen=True)
class Toggles:
    """Convention switches between the corrected and the literal relation
    set; the default corrected set is the one the verification forces.
    ``literal`` holds the names of the toggles set to the literal
    reading."""

    literal: frozenset = frozenset()

    def as_dict(self) -> dict:
        return {name: "literal" if name in self.literal else "corrected"
                for name in TOGGLE_NAMES}

    @classmethod
    def from_dict(cls, d: dict) -> "Toggles":
        for name, val in d.items():
            if name not in TOGGLE_NAMES:
                raise DomainError(f"unknown toggle {name!r}")
            if val not in ("corrected", "literal"):
                raise DomainError(
                    f"toggle {name!r} must be 'corrected' or 'literal'")
        return cls(frozenset(name for name, val in d.items()
                             if val == "literal"))


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


# A kind picked by a toggle: (toggle name, corrected, literal).
_LL_STAR_KIND = ("ll-star", L, LSTAR)
_CROSS_BRACKET_KIND = ("cross-bracket", L, LSTAR)

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
    """Immutable rule table for one R-matrix and flavor.  Its five
    caches are ``functools.cache`` wrappers of private methods, bound per
    system, since the rules of one system are fixed and the same
    arguments recur on every term of a check:

    * ``matrix_at(name, argm)``: the entries of the matrix ``name`` ("R"
      or "Rinv") at the argument monomial ``argm``;
    * ``rule_at(rule, arg1, arg2, leg)``: what the arguments of a ruled
      pair and its leg decide, before any index is read (see
      ``rule_pieces``);
    * ``pieces(g1, g2, leg)``: the (coeff, extra_deltas, occs) that
      replace g1 g2 on leg ``leg``;
    * ``word_data(word)``: a leg word's ``word_measure`` and the position
      of its leftmost reducible pair, or None; a generator of a kind
      outside the flavor is a ``KindError``;
    * ``differences(relation_id)``: the (free indices, lhs - rhs) pairs
      of a defining relation, from ``relation_sides``, which the
      self-normalization and the homomorphism checks both read.
    """

    def __init__(self, R: RMatrix, flavor: str, toggles: Toggles = None):
        if flavor not in FLAVOR_KINDS:
            raise KindError(f"unknown flavor {flavor!r}")
        self.R = R
        self.n = R.n
        self.flavor = flavor
        self.toggles = toggles or Toggles()
        self.tables = {"R": table(R.entries),
                       "Rinv": table(R.inverse_entries())}
        self.matrix_at = functools.cache(self._matrix_at)
        self.rule_at = functools.cache(self._rule_at)
        self.pieces = functools.cache(self._pieces)
        self.word_data = functools.cache(self._word_data)
        self.differences = functools.cache(self._differences)
        q2 = RatExpr.var("s", 2)
        self.qfactor = (q2 - q2.inverse()).inverse()  # 1/(q - q^-1)
        self._rules = dict(_orient(_RELATION_BY_ID[rid], self.toggles)
                           for rid in FLAVOR_RELATIONS[flavor])

    # -- cached entry evaluation -------------------------------------------

    def _matrix_at(self, name: str, argm: int) -> dict:
        """A pole of an entry at ``argm`` is a ``SingularError`` naming the
        argument; an exponent out of range stays an ``ExponentError``."""
        try:
            return entries_at(self.tables[name].entries, self.R.var, argm)
        except ExponentError:
            raise
        except DomainError as exc:
            arg = format_ratexpr(RatExpr.from_laurent({argm: 1}))
            raise SingularError(
                f"R-matrix entry singular at the symbolic argument "
                f"{arg}") from exc

    def r_at(self, argm: int) -> dict:
        return self.matrix_at("R", argm)

    # -- rule table ----------------------------------------------------------

    def rule_for(self, g1: GenOcc, g2: GenOcc):
        return self._rules.get((g1.kind, g2.kind))

    def _rule_at(self, rule, arg1: ArgShift, arg2: ArgShift,
                 leg: int) -> tuple:
        """(factors, word, bracket) of ``rule`` applied to a pair with the
        arguments arg1, arg2 on 0-based leg ``leg``, whose own charge slot
        is leg + 1: the contractions evaluated at their arguments, the
        patterns of the word that replaces the pair, and the bracket terms
        as (coeff, extra_deltas, pattern); each pattern has its toggled
        kind and its argument (``_at``)."""
        rel, solved = rule
        sides = (rel.lhs, rel.rhs)
        x = [None, None, None]
        for (_, _, arg), a in zip(sides[solved].word, (arg1, arg2)):
            x[arg] = a
        slot = leg + 1
        factors = tuple(_factor(self, side.matrix, x, slot,
                                solve=(s == solved))
                        for s, side in enumerate(sides) if side.matrix)
        word = tuple(_at(p, x, self.toggles) for p in sides[1 - solved].word)
        return factors, word, _bracket_at(self, rel, x, slot)

    def _pieces(self, g1: GenOcc, g2: GenOcc, leg: int) -> tuple:
        """The oriented inverse contraction for an inverse pair, else
        ``rule_pieces`` of the rule for the two kinds."""
        if (g1.kind, g2.kind) in _INV_PAIRS:
            return _contraction_pieces(self.n, g1, g2)
        return tuple(rule_pieces(self, self.rule_for(g1, g2), g1, g2, leg))

    def _differences(self, relation_id: str) -> tuple:
        return tuple((idx, lhs - rhs)
                     for idx, lhs, rhs in relation_sides(self, relation_id))

    def _word_data(self, word: tuple) -> tuple:
        for g in word:
            if g.kind not in FLAVOR_KINDS[self.flavor]:
                raise KindError(f"kind {g.kind} not in flavor {self.flavor}")
        pos = next((p for p, (g1, g2) in enumerate(zip(word, word[1:]))
                    if _reducible(g1, g2, self)), None)
        return word_measure(word), pos

    def allowed_kinds(self) -> frozenset:
        return FLAVOR_KINDS[self.flavor]


# ---------------------------------------------------------------------------
# reading a relation row
#
# The template of a relation is its row read at x1 = z1, x2 = z2 on leg 0.
# Its oriented rule is the row solved for the side whose word is out of
# canonical order: the other side, times the inverse of the solved side's
# contraction when it has one (R^-1 for R and back, input and output slots
# swapped), with the bracket terms moved across.  A rule is a pair
# (relation, index of the solved side).  A row is read in two steps:
# first at its arguments and charge slot (``RewriteSystem.rule_at`` for a
# rule, once per relation in ``relation_sides``), which evaluates the
# contractions and resolves each generator pattern's kind and argument;
# then at its indices, which ``contract`` binds.  ``rule_pieces`` applies
# a rule to an adjacent pair g1 g2 on 0-based leg ``leg`` and returns a
# list of (coeff, extra_deltas, occs); ``RewriteSystem.pieces`` caches
# it.
# ---------------------------------------------------------------------------

_INVERSE = {"R": "Rinv", "Rinv": "R"}


def toggled(value, toggles: Toggles):
    """A table entry as read under ``toggles``: the entry itself, or for a
    toggled entry (toggle name, corrected, literal) the reading the toggle
    picks."""
    if isinstance(value, str):
        return value
    name, corrected, literal = value
    return literal if name in toggles.literal else corrected


def _at(pattern, x, toggles: Toggles, dq=mono()) -> tuple:
    """A generator pattern read at the arguments ``x``: (its kind as
    ``toggles`` read it, its index letters, its argument times q^dq)."""
    kind, letters, arg = pattern
    a = x[arg]._replace(q=mono_mul(x[arg].q, dq)) if dq else x[arg]
    return toggled(kind, toggles), letters, a


def _occ(pattern, env: dict) -> GenOcc:
    """The generator of a pattern read by ``_at``, at the indices
    ``env``."""
    kind, letters, arg = pattern
    col = env[letters[1]] if len(letters) == 2 else 0
    return GenOcc(kind, env[letters[0]], col, arg)


def _orient(rel: Relation, toggles: Toggles):
    """(kinds of the out-of-order word, rule) for one relation; the rule
    solves the first side whose word is out of canonical order."""
    x = (None, _z(1), _z(2))
    for s, side in enumerate((rel.lhs, rel.rhs)):
        g1, g2 = (GenOcc(toggled(kind, toggles), 0, 0, x[arg])
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
    table = rs.tables[name]
    # R's evaluations go through ``r_at``, the name verdictbench traces
    ent = rs.r_at(argm) if name == "R" else rs.matrix_at(name, argm)
    return ent, table.by_in, table.by_out, ins, outs


def _bracket_at(rs: "RewriteSystem", rel: Relation, x, slot: int) -> tuple:
    """(coeff, extra_deltas, pattern) of each bracket term of ``rel`` at
    the arguments ``x`` on charge slot ``slot``, its pattern read by
    ``_at``."""
    deltas = [make_delta(x[1], x[2], charge_shift(slot, b.delta_steps))
              for b in rel.bracket]
    # equal arguments: surfaced via the term flag downstream
    degenerate = any(d.avar == d.bvar for d in deltas)
    return tuple((rs.qfactor if b.sign > 0 else -rs.qfactor,
                  ("degenerate",) if degenerate else (d,),
                  _at(b.gen, x, rs.toggles, charge_shift(slot, b.arg_steps)))
                 for b, d in zip(rel.bracket, deltas))


def _word_terms(factors, word, env: dict) -> list:
    """(coeff, (), occs) of the word of patterns ``word`` under the
    evaluated contractions ``factors``, at the indices ``env``."""
    return [(_R1 if c is None else c, (), tuple(_occ(p, sub) for p in word))
            for c, sub in contract(factors, env)]


def _bracket_terms(bracket, env: dict) -> list:
    return [(c, extra, (_occ(p, env),)) for c, extra, p in bracket]


def rule_pieces(rs: "RewriteSystem", rule, g1: GenOcc, g2: GenOcc,
                leg: int) -> list:
    """``rs.rule_at`` of the rule at the arguments of g1 g2 and the leg,
    read at the indices of g1 g2."""
    rel, solved = rule
    factors, word, bracket = rs.rule_at(rule, g1.arg, g2.arg, leg)
    env: dict = {}
    for (_, letters, _), g in zip((rel.lhs, rel.rhs)[solved].word, (g1, g2)):
        env[letters[0]] = g.row
        if len(letters) == 2:
            env[letters[1]] = g.col
    return _word_terms(factors, word, env) + _bracket_terms(bracket, env)


# ---------------------------------------------------------------------------
# ordering, measure, term-local reduction
# ---------------------------------------------------------------------------

def _pair_out_of_order(g1: GenOcc, g2: GenOcc) -> bool:
    return (KIND_RANK[g1.kind] > KIND_RANK[g2.kind]
            or (g1.kind == g2.kind and g1.arg.var > g2.arg.var))


def _matched(g1: GenOcc, g2: GenOcc) -> bool:
    """An inverse pair X Y at one argument, contracted over the column of
    X and the row of Y (the middle index)."""
    return ((g1.kind, g2.kind) in _INV_PAIRS and g1.arg == g2.arg
            and g1.col == g2.row)


def _contraction_pieces(n: int, g1: GenOcc, g2: GenOcc) -> tuple:
    """sum_v X[i,v] Y[v,j] = delta_ij, oriented on its v = n term:
    X[i,n] Y[n,j] -> delta_ij - sum_{v<n} X[i,v] Y[v,j]."""
    unit = ((_R1, (), ()),) if g1.row == g2.col else ()
    return unit + tuple((-_R1, (), (g1._replace(col=v), g2._replace(row=v)))
                        for v in range(1, n))


def word_measure(word) -> tuple:
    """(length, kind inversions, var inversions, sum of the middle indices
    of matched inverse pairs) of one leg word."""
    kind_inv = 0
    var_inv = 0
    for a, ga in enumerate(word):
        for gb in word[a + 1:]:
            if KIND_RANK[ga.kind] > KIND_RANK[gb.kind]:
                kind_inv += 1
            elif ga.kind == gb.kind and ga.arg.var > gb.arg.var:
                var_inv += 1
    middle = sum(g1.col for g1, g2 in zip(word, word[1:]) if _matched(g1, g2))
    return (len(word), kind_inv, var_inv, middle)


def term_measure(key) -> tuple:
    """The termination measure: ``word_measure`` summed componentwise over
    the legs, strictly lexicographically decreasing under every rule of
    the corrected readings."""
    sums = [0, 0, 0, 0]
    for word in key[2]:
        for i, m in enumerate(word_measure(word)):
            sums[i] += m
    return tuple(sums)


def _reducible(g1: GenOcc, g2: GenOcc, rs: RewriteSystem) -> bool:
    """A matched inverse pair whose middle index is n, or a ruled
    out-of-order pair."""
    return ((g1.col == rs.n and _matched(g1, g2))
            or (_pair_out_of_order(g1, g2)
                and rs.rule_for(g1, g2) is not None))


def rewrite_term(key, rs: RewriteSystem, li: int, pos: int):
    """Yield (key, coefficient) of every term that the rule for the pair at
    positions ``pos``, ``pos + 1`` of leg ``li`` puts in place of the term
    ``key`` taken with coefficient 1."""
    flag, deltas, legs = key
    word = legs[li]
    for rcoeff, extra, occs in rs.pieces(word[pos], word[pos + 1], li):
        head = ((FLAG_DEGENERATE, deltas) if "degenerate" in extra
                else (flag, tuple(sorted(deltas + extra))))
        nword = word[:pos] + occs + word[pos + 2:]
        yield head + (legs[:li] + (nword,) + legs[li + 1:],), rcoeff


def _heap_entry(key, rs: RewriteSystem) -> tuple:
    """A term's entry in the heap of ``normal_order``: (negated
    ``term_measure``, key, (leg, position) of the leftmost reducible pair,
    or None in normal form), from one ``word_data`` lookup per leg.  The
    heap takes terms by decreasing measure, then by key; a key is in it
    at most once, so the redex is never compared."""
    total = kind_inv = var_inv = middle = 0
    redex = None
    for li, word in enumerate(key[2]):
        (a, b, c, d), pos = rs.word_data(word)
        total += a
        kind_inv += b
        var_inv += c
        middle += d
        if redex is None and pos is not None:
            redex = (li, pos)
    return (-total, -kind_inv, -var_inv, -middle), key, redex


def normal_order(e: Element, rs: RewriteSystem, trace=None,
                 max_steps: int = 200000) -> Element:
    """Deterministic normal form by term-local reduction: every term is
    rewritten at its leftmost reducible pair until none is left.  Since
    every rule is term-local, the order in which pending terms are taken
    does not change the result.  Input and rewritten terms enter alike
    (``take_in``): a new term gets a list of contributions and its heap
    entry; a taken term leaves the map.  A term with a reducible pair is
    pending: pending terms are taken from a heap in order of decreasing
    ``term_measure``.  Under the corrected readings every rule strictly
    decreases it, so a term is taken after every contribution to it has
    arrived, and is rewritten once, or never when it cancels to zero; the
    literal ``ll-star`` rule can raise it (its ``L`` becomes an ``LStar``
    behind earlier ``L``-kinds), and a term may then be taken again.  A
    term in normal form is never rewritten, so it never enters the heap:
    its contributions are summed once, at the end, and the normal forms
    come out in the order of their heap entries, the order in which the
    heap would take them.  A term keeps its contributions unsummed, and
    ``sum_fractions`` adds them once: most of these sums end at zero, and
    a zero sum costs no division.  ``max_steps`` bounds the number of
    rule applications.  An input generator outside the flavor is a
    ``KindError`` of ``word_data``, raised before any rule applies."""
    parts: dict = {}  # the contributions of each term not yet taken
    heap: list = []
    entries: list = []  # the heap entries of the normal-form terms

    def take_in(key, c):
        # add c to the contributions of key; a new key's heap entry
        contributions = parts.get(key)
        if contributions is not None:
            contributions.append(c)
            return None
        parts[key] = [c]
        entry = _heap_entry(key, rs)
        if entry[2] is None:
            entries.append(entry)
        else:
            heapq.heappush(heap, entry)
        return entry

    for key, coeff in e.terms.items():
        take_in(key, coeff)
    steps = 0
    while heap:
        neg, key, redex = heapq.heappop(heap)
        coeff = sum_fractions(parts.pop(key))
        if coeff.is_zero():
            continue
        steps += 1
        if steps > max_steps:
            raise BudgetError(
                f"normal_order exceeded its budget of {max_steps} steps")
        before = tuple(-m for m in neg) if trace is not None else None
        for nkey, rcoeff in rewrite_term(key, rs, *redex):
            entry = take_in(nkey, coeff if rcoeff is _R1 else coeff * rcoeff)
            if trace is not None:
                entry = entry or _heap_entry(nkey, rs)
                trace.append((before, tuple(-m for m in entry[0])))
    out: dict = {}
    for _, key, _ in sorted(entries):
        coeff = sum_fractions(parts[key])
        if not coeff.is_zero():
            out[key] = coeff
    return Element(e.nlegs, out)


# ---------------------------------------------------------------------------
# formal-delta normalization
# ---------------------------------------------------------------------------

def delta_normalize(e: Element) -> Element:
    """Use each delta's support to rewrite its term:
    f(z_a) delta((z_a/z_b) q) = f(z_b q^-1) delta((z_a/z_b) q).  Each
    substitution also rewrites the deltas still pending."""
    out: dict = {}
    for key, coeff in e.terms.items():
        flag, pend, legs = key
        done: list = []
        c = coeff
        while pend and not flag:
            d, pend = pend[0], pend[1:]
            if d.avar != d.bvar:
                done.append(d)
                smap = {d.avar: mono_mul(mono_inv(d.q), _VAR_MONO[d.bvar])}
                (_, pend, legs), c = subs_term((flag, pend, legs), c, smap)
            elif d.q:
                flag = FLAG_CONTRADICTORY
            # else delta(1), left by a duplicate: merged
        if flag:
            accumulate(out, (flag,) + key[1:], coeff)
        else:
            # drop exact duplicates produced by the rewriting
            accumulate(out, (FLAG_NONE, tuple(sorted(set(done))), legs), c)
    return Element(e.nlegs, out)


# ---------------------------------------------------------------------------
# relation templates (one-leg elements over z1, z2)
# ---------------------------------------------------------------------------

def _z(i: int) -> ArgShift:
    return ArgShift(Z[i - 1])


def _element(terms) -> Element:
    out: dict = {}
    for coeff, deltas, occs in terms:
        accumulate(out, (FLAG_NONE, deltas, (occs,)), coeff)
    return Element(1, out)


def relation_sides(rs: RewriteSystem, relation_id: str):
    """Yield (free-index tuple, lhs Element, rhs Element) for the named
    defining relation, instantiated at spectral variables z1, z2."""
    rel = _RELATION_BY_ID.get(relation_id)
    if rel is None:
        raise KindError(f"unknown relation {relation_id!r}")
    x = (None, _z(1), _z(2))
    sides = [((_factor(rs, side.matrix, x, 1),) if side.matrix else (),
              tuple(_at(p, x, rs.toggles) for p in side.word))
             for side in (rel.lhs, rel.rhs)]
    bracket = _bracket_at(rs, rel, x, 1)
    for idx in itertools.product(range(1, rs.n + 1), repeat=len(rel.free)):
        env = dict(zip(rel.free, idx))
        lhs, rhs = (_element(_word_terms(factors, word, env))
                    for factors, word in sides)
        if rel.bracket:
            lhs, rhs = lhs - rhs, _element(_bracket_terms(bracket, env))
        yield idx, lhs, rhs


def normal_form(rs: RewriteSystem, e: Element) -> Element:
    """``e`` normal-ordered, then delta-normalized: zero for the lhs - rhs
    of a relation when the rule table holds the relation lhs = rhs."""
    return delta_normalize(normal_order(e, rs))


def relation_self_residual(rs: RewriteSystem, relation_id: str):
    """``normal_form`` of lhs - rhs for every free index of the named
    relation, read from ``rs.differences``; a sound rule table returns
    all-zero elements."""
    return [(idx, normal_form(rs, diff))
            for idx, diff in rs.differences(relation_id)]


# ---------------------------------------------------------------------------
# braid consistency
# ---------------------------------------------------------------------------

def braid_consistency(R: RMatrix) -> dict:
    """Two independent probes of the particle rule table's coherence (no
    toggle reads its one relation, PhiPhi):

    * path agreement: the fully reversed word Phi(x3) Phi(x2) Phi(x1) is
      ordered along the two distinct transposition sequences (leftmost
      first, positions 0-1-0, vs rightmost first, 1-0-1); with the
      Yang-Baxter equation holding the results agree;
    * involutivity: the Phi exchange applied twice, descending and then
      ascending, must return the original word; this is exactly
      unitarity and catches scalar instances, whose Yang-Baxter equation
      is vacuous.
    """
    rs = RewriteSystem(R, "particle")
    n = R.n

    def exchange(e: Element, pos: int) -> Element:
        # the Phi exchange at ``pos`` of leg 0 on every term, whatever the
        # order of the pair
        out: dict = {}
        for key, coeff in e.terms.items():
            for nkey, rcoeff in rewrite_term(key, rs, 0, pos):
                accumulate(out, nkey, coeff * rcoeff)
        return Element(e.nlegs, out)

    path_residual = 0
    for i3 in range(1, n + 1):
        for i2 in range(1, n + 1):
            for i1 in range(1, n + 1):
                w = Element.word((GenOcc(PHI, i3, 0, _z(3)),
                                  GenOcc(PHI, i2, 0, _z(2)),
                                  GenOcc(PHI, i1, 0, _z(1))))
                left = w
                for pos in (0, 1, 0):
                    left = exchange(left, pos)
                right = w
                for pos in (1, 0, 1):
                    right = exchange(right, pos)
                path_residual += len((left - right).terms)
    invol_residual = 0
    for j in range(1, n + 1):
        for i in range(1, n + 1):
            w = Element.word((GenOcc(PHI, j, 0, _z(2)),
                              GenOcc(PHI, i, 0, _z(1))))
            once = exchange(w, 0)
            back = exchange(once, 0)
            invol_residual += len((back - w).terms)
    return {
        "path_residual_terms": path_residual,
        "involutivity_residual_terms": invol_residual,
        "agree": path_residual == 0 and invol_residual == 0,
    }
