"""Coproduct, counit and antipode, with the tensor-leg central-charge
bookkeeping, plus the axiom and homomorphism checks.

The coproduct and the antipode of every generator kind are stated once, as
the rows of COPRODUCT and ANTIPODE below; the counit is 0 on the vector
kinds and delta_ij on the matrix kinds of KINDS.

Charge bookkeeping.  A q-shift may reference any leg's charge c_t.  Each
structural map replaces legs of every term by new legs (``_splice``),
substitutes linear forms for the charges of the replaced legs and
renumbers the charges of the legs above them; the substitution acts on
every leg of the term and on its coefficient (u_t = q^(c_t/2)):

* splitting leg t (coproduct):  c_t -> c_t + c_(t+1), higher legs shift up;
  the rows' c1/c2 mean the two new legs.
* counit on leg t:  c_t -> 0, higher legs shift down.
* antipode on leg t:  c_t -> -c_t, since the group-like q^c is inverted;
  the rows hold the one-leg formulas written beside them.
* merging legs t, t+1:  both charges map to the merged leg's c.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple

from .algebra import (MAX_LEGS, Element, GenOcc, L, LINV, LSTAR, LSTARINV,
                      PHI, PHISTAR, RewriteSystem, VECTOR_KINDS, _occ, _z,
                      charge_shift, normal_form, subs_term, toggled)
from .errors import ShapeError, UnsupportedRule
from .kernels import mono_mul
from .symfield import (RatExpr, U, accumulate, mono_from_pairs, support,
                       var_mask)


# ---------------------------------------------------------------------------
# generator tables
# ---------------------------------------------------------------------------

# the generator kinds in the order generator_list lists them; a vector
# kind (VECTOR_KINDS) has one index and counit 0, a matrix kind two and
# counit delta_ij
KINDS = (PHI, L, LINV, PHISTAR, LSTAR, LSTARINV)


def generator_list(rs: RewriteSystem, include_inverses: bool = False):
    """(label, Element) pairs for every tabled generator at argument z1:
    the charge element qc, then the kinds of the flavor in KINDS order,
    the inverse kinds LInv and LStarInv only with ``include_inverses``.
    A label is the generator's text without its argument."""
    n = rs.n
    kinds = rs.allowed_kinds()
    if not include_inverses:
        kinds -= {LINV, LSTARINV}
    out = [("qc", Element.unit(1, RatExpr.var("u1", 2)))]
    for kind in KINDS:
        if kind not in kinds:
            continue
        vector = kind in VECTOR_KINDS
        for i in range(1, n + 1):
            for j in (0,) if vector else range(1, n + 1):
                label = kind + (f"[{i}]" if vector else f"[{i},{j}]")
                out.append((label, Element.word((GenOcc(kind, i, j, _z(1)),))))
    return out


class Factor(NamedTuple):
    """kind_letters(x q^(sum_k steps[k]/2 c'_k)) on new leg ``leg``, with x
    the argument of the mapped generator and c'_k the charge of new leg k.
    The letters read i, j (the mapped generator's indices) and the summed
    m; a toggled reading is (toggle name, corrected, literal)."""

    kind: str
    letters: object
    leg: int
    steps: tuple


class HopfRow(NamedTuple):
    """The image of a generator: sign * sum_m of the word of factors (no
    sum when no factor reads m), plus the generator itself alone on new leg
    ``keep``."""

    factors: tuple
    sign: int = 1
    keep: int = None


# Delta of a generator on a leg split into new legs 0 and 1, of charges c1
# and c2.  The corrected Phistar row contracts against the row index of
# Lstar (the transpose of the literal subscripts), the reading forced by
# the counit and antipode axioms for n >= 2.
COPRODUCT = {
    # Delta Phi_i(x) = Phi_i(x) (x) 1
    #                  + sum_m L_im(x q^(c1/2)) (x) Phi_m(x q^c1)
    PHI: HopfRow((Factor(L, "im", 0, (1, 0)),
                  Factor(PHI, "m", 1, (2, 0))), keep=0),
    # Delta L_ij(x) = sum_m L_im(x q^(-c2/2)) (x) L_mj(x q^(c1/2))
    L: HopfRow((Factor(L, "im", 0, (0, -1)),
                Factor(L, "mj", 1, (1, 0)))),
    # Delta Lstar_ij(x) = sum_m Lstar_im(x q^(c2/2)) (x) Lstar_mj(x q^(-c1/2))
    LSTAR: HopfRow((Factor(LSTAR, "im", 0, (0, 1)),
                    Factor(LSTAR, "mj", 1, (-1, 0)))),
    # Delta Phistar_i(x) = 1 (x) Phistar_i(x)
    #                      + sum_m Phistar_m(x q^c2) (x) Lstar_mi(x q^(c2/2))
    # (the literal text has Lstar_im)
    PHISTAR: HopfRow((Factor(PHISTAR, "m", 0, (0, 2)),
                      Factor(LSTAR, ("phistar-coproduct", "mi", "im"), 1,
                             (0, 1))), keep=1),
    # Delta Linv_ij(x) = sum_m Linv_mj(x q^(-c2/2)) (x) Linv_im(x q^(c1/2))
    LINV: HopfRow((Factor(LINV, "mj", 0, (0, -1)),
                   Factor(LINV, "im", 1, (1, 0)))),
    # Delta Lstarinv_ij(x)
    #   = sum_m Lstarinv_mj(x q^(c2/2)) (x) Lstarinv_im(x q^(-c1/2))
    LSTARINV: HopfRow((Factor(LSTARINV, "mj", 0, (0, 1)),
                       Factor(LSTARINV, "im", 1, (-1, 0)))),
}

# S of a generator on a leg of charge c.
ANTIPODE = {
    # S L_ij(x) = Linv_ij(x)
    L: HopfRow((Factor(LINV, "ij", 0, (0,)),)),
    # S Lstar_ij(x) = Lstarinv_ij(x)
    LSTAR: HopfRow((Factor(LSTARINV, "ij", 0, (0,)),)),
    # S Phi_i(x) = -sum_m Linv_im(x q^(-c/2)) Phi_m(x q^-c)
    PHI: HopfRow((Factor(LINV, "im", 0, (-1,)),
                  Factor(PHI, "m", 0, (-2,))), sign=-1),
    # S Phistar_i(x) = -sum_m Phistar_m(x q^-c) Lstarinv_mi(x q^(-c/2))
    PHISTAR: HopfRow((Factor(PHISTAR, "m", 0, (-2,)),
                      Factor(LSTARINV, "mi", 0, (-1,))), sign=-1),
}

_TABLES = {"coproduct": COPRODUCT, "antipode": ANTIPODE}


class HopfTables:
    """The Hopf rows as read for one rewrite system: its n and its
    ``phistar-coproduct`` toggle.  ``image(name, g, slots)`` is the
    (int coeff, new legs) pairs of g's row in the table ``name``
    ("coproduct" or "antipode"), new leg k of charge slot ``slots[k]``:
    a ``functools.cache`` of ``_image``, since the same generators recur on
    every term of a check."""

    def __init__(self, rs: RewriteSystem):
        self.rs = rs
        self.image = functools.cache(self._image)

    def _image(self, name: str, g: GenOcc, slots: tuple) -> tuple:
        row = _TABLES[name].get(g.kind)
        if row is None:
            raise UnsupportedRule(f"no {name} table for kind {g.kind}")
        nlegs = len(slots)
        out = []
        if row.keep is not None:
            out.append((1, tuple((g,) if k == row.keep else ()
                                 for k in range(nlegs))))
        factors = []
        for f in row.factors:
            q = g.arg.q
            for slot, steps in zip(slots, f.steps):
                q = mono_mul(q, charge_shift(slot, steps))
            factors.append((f, toggled(f.letters, self.rs.toggles),
                            g.arg._replace(q=q)))
        summed = any("m" in letters for _, letters, _ in factors)
        for m in range(1, self.rs.n + 1) if summed else (0,):
            env = {"i": g.row, "j": g.col, "m": m}
            legs = [()] * nlegs
            for f, letters, a in factors:
                legs[f.leg] += (_occ((f.kind, letters, a), env),)
            out.append((row.sign, tuple(legs)))
        return tuple(out)


def _counit(g: GenOcc):
    return [] if g.kind in VECTOR_KINDS or g.row != g.col else [(1, ())]


# ---------------------------------------------------------------------------
# structural maps
# ---------------------------------------------------------------------------

def _splice(e: Element, leg: int, removed: int, own: dict, added: int,
            pieces, reverse: bool = False) -> Element:
    """Replace legs ``leg`` .. ``leg + removed - 1`` of every term by
    ``added`` new legs.  The generators of the replaced words, in order
    (reversed for the anti-homomorphism), go to the (int coeff, new legs)
    pairs ``pieces(g)``, multiplied out.
    ``own`` maps the charges of the replaced legs, c_i -> sum_j own[i][j]
    c_j; every charge slot above them moves by the change in leg count, as
    far as the slots reach.  The charge map is the substitution u_i ->
    prod_j u_j^cmap[i][j] (``subs_term``), made in the same pass; a term
    that holds none of the remapped u_i keeps its coefficient object."""
    if not 0 <= leg <= e.nlegs - removed:
        raise ShapeError(f"no leg {leg}")
    t = leg + 1
    shift = added - removed
    cmap = {k: {k + shift: 1} for k in range(t + removed, MAX_LEGS + 1)
            if shift and k + shift <= MAX_LEGS}
    cmap.update(own)
    smap = {U[i - 1]: mono_from_pairs((U[j - 1], k) for j, k in row.items())
            for i, row in cmap.items() if row != {i: 1}}
    mask = var_mask(smap)
    out = Element(e.nlegs + shift)
    for key, coeff in e.terms.items():
        if support(itertools.chain(
                coeff.num, coeff.den, (d.q for d in key[1]),
                (g.arg.q for w in key[2] for g in w))) & mask:
            key, coeff = subs_term(key, coeff, smap)
        flag, deltas, legs = key
        word = sum(legs[leg:leg + removed], ())
        images = [(1, ((),) * added)]
        for g in reversed(word) if reverse else word:
            images = [(c * pc, tuple(a + b for a, b in zip(new, pnew)))
                      for c, new in images for pc, pnew in pieces(g)]
        for c, new in images:
            key = (flag, deltas, legs[:leg] + new + legs[leg + removed:])
            accumulate(out.terms, key, coeff if c == 1 else coeff * c)
    return out


def coproduct(e: Element, tables: HopfTables, leg: int = 0) -> Element:
    """Apply the coproduct to one leg, growing the element by one leg."""
    if e.nlegs + 1 > MAX_LEGS:
        raise ShapeError(f"cannot exceed {MAX_LEGS} legs")
    t = leg + 1
    return _splice(e, leg, 1, {t: {t: 1, t + 1: 1}}, 2,
                   lambda g: tables.image("coproduct", g, (t, t + 1)))


def counit_apply(e: Element, leg: int = 0) -> Element:
    """Replace one leg by its counit value and renumber."""
    return _splice(e, leg, 1, {leg + 1: {}}, 0, _counit)


def antipode_apply(e: Element, tables: HopfTables, leg: int = 0) -> Element:
    """Anti-homomorphism on one leg, which negates that leg's charge."""
    t = leg + 1
    return _splice(e, leg, 1, {t: {t: -1}}, 1,
                   lambda g: tables.image("antipode", g, (t,)), reverse=True)


def merge_legs(e: Element, leg: int = 0) -> Element:
    """Concatenate legs ``leg`` and ``leg + 1``; charge references to the
    merged legs become the new leg's charge."""
    if not 0 <= leg < e.nlegs - 1:
        raise ShapeError(f"cannot merge at leg {leg}")
    t = leg + 1
    return _splice(e, leg, 2, {t: {t: 1}, t + 1: {t: 1}}, 1,
                   lambda g: [(1, ((g,),))])


# ---------------------------------------------------------------------------
# axiom and homomorphism checks
# ---------------------------------------------------------------------------

def check_counit(tables: HopfTables, gen: Element):
    """(eps (x) id) Delta = id = (id (x) eps) Delta; returns residuals."""
    d = coproduct(gen, tables, 0)
    return counit_apply(d, 0) - gen, counit_apply(d, 1) - gen


def check_coassoc(tables: HopfTables, gen: Element):
    """(Delta (x) id) Delta = (id (x) Delta) Delta; returns the residual
    as a one-element tuple."""
    d = coproduct(gen, tables, 0)
    return (coproduct(d, tables, 0) - coproduct(d, tables, 1),)


def check_antipode(tables: HopfTables, gen: Element):
    """m(S (x) id) Delta = eta eps = m(id (x) S) Delta; returns residuals."""
    eps = counit_apply(gen, 0)
    target = Element(1, {(flag, deltas, ((),)): c
                         for (flag, deltas, _), c in eps.terms.items()})
    d = coproduct(gen, tables, 0)
    merged = (merge_legs(antipode_apply(d, tables, leg), 0) for leg in (0, 1))
    return tuple(normal_form(tables.rs, m - target) for m in merged)


def check_hom_on_relation(rs: RewriteSystem, tables: HopfTables,
                          relation_id: str):
    """Delta(LHS) - Delta(RHS) for a defining relation, normal ordered and
    delta normalized; list of (free indices, residual Element).  LHS - RHS
    is read from ``rs.differences``."""
    return [(idx, normal_form(rs, coproduct(diff, tables, 0)))
            for idx, diff in rs.differences(relation_id)]


AXIOMS = ("counit", "coassoc", "antipode")


def check_axioms(tables: HopfTables, axioms=AXIOMS):
    """("axiom:label", number of nonzero residual terms) for each selected
    axiom and each generator it covers; the antipode skips the inverse
    kinds, which have no antipode row."""
    results = []
    for axiom in axioms:
        # looked up at call time, so a rebound module attribute is the one run
        check = globals()[f"check_{axiom}"]
        for label, gen in generator_list(tables.rs, axiom != "antipode"):
            nterms = sum(len(r.terms) for r in check(tables, gen))
            results.append((f"{axiom}:{label}", nterms))
    return results
