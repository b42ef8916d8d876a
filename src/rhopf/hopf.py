"""Coproduct, counit and antipode, with the tensor-leg central-charge
bookkeeping, plus the axiom and homomorphism checkers.

Charge bookkeeping.  A q-shift may reference any leg's charge c_t.  The
three structural moves substitute linear forms:

* splitting leg t (coproduct):  c_t -> c_t + c_(t+1), higher legs shift up;
  the tables' own c_1/c_2 mean the two new legs.
* counit on leg t:  c_t -> 0, higher legs shift down.
* merging legs t, t+1:  both charges map to the merged leg's c, except
  references to a leg the antipode was applied to, which map to -c (the
  group-like q^c is inverted by the antipode).  To make that single merge
  rule exact, the antipode tables store their own-charge shifts with the
  opposite sign of the one-leg formulas; ``resolve_antipode_marks``
  converts a marked element back to the one-leg reading.
"""

from __future__ import annotations

from .algebra import (ArgShift, Element, GenOcc, L, LINV, LSTAR,
                      LSTARINV, PHI, PHISTAR, RewriteSystem, _z,
                      charge_shift, delta_normalize, normal_order,
                      relation_sides, shift_arg)
from .errors import ShapeError, UnsupportedRule
from .symfield import RatExpr

_R1 = RatExpr.from_int(1)
_R0 = RatExpr.from_int(0)

MAX_LEGS = 3


def _identity_map(extra: dict = None) -> dict:
    out = {1: {1: 1}, 2: {2: 1}, 3: {3: 1}}
    if extra:
        out.update(extra)
    return out


# ---------------------------------------------------------------------------
# generator tables
# ---------------------------------------------------------------------------

class HopfTables:
    """Coproduct / counit / antipode entries per generator kind.

    ``phistar_coproduct`` follows the toggle on the rewrite system: the
    corrected reading contracts Phistar against the row index of Lstar
    (the transpose of the literal subscripts), which is the reading forced
    by the counit and antipode axioms for n >= 2.
    """

    def __init__(self, rs: RewriteSystem):
        self.rs = rs
        self.n = rs.n

    # -- coproduct fragments: list of (left occs, right occs); slot1/slot2
    #    are the charge slots of the two legs created by the split.

    def coproduct_fragments(self, g: GenOcc, slot1: int, slot2: int):
        n = self.n
        a = g.arg
        e1 = lambda k: charge_shift(slot1, k)  # noqa: E731
        e2 = lambda k: charge_shift(slot2, k)  # noqa: E731
        k_, i, j = g.kind, g.row, g.col
        if k_ == PHI:
            frags = [((g,), ())]
            for m in range(1, n + 1):
                frags.append((
                    (GenOcc(L, i, m, shift_arg(a, e1(1))),),
                    (GenOcc(PHI, m, 0, shift_arg(a, e1(2))),)))
            return frags
        if k_ == L:
            return [((GenOcc(L, i, m, shift_arg(a, e2(-1))),),
                     (GenOcc(L, m, j, shift_arg(a, e1(1))),))
                    for m in range(1, n + 1)]
        if k_ == LSTAR:
            return [((GenOcc(LSTAR, i, m, shift_arg(a, e2(1))),),
                     (GenOcc(LSTAR, m, j, shift_arg(a, e1(-1))),))
                    for m in range(1, n + 1)]
        if k_ == PHISTAR:
            corrected = self.rs.toggles.phistar_coproduct == "corrected"
            frags = [((), (g,))]
            for m in range(1, n + 1):
                row, col = (m, i) if corrected else (i, m)
                frags.append((
                    (GenOcc(PHISTAR, m, 0, shift_arg(a, e2(2))),),
                    (GenOcc(LSTAR, row, col, shift_arg(a, e2(1))),)))
            return frags
        if k_ == LINV:
            return [((GenOcc(LINV, m, j, shift_arg(a, e2(-1))),),
                     (GenOcc(LINV, i, m, shift_arg(a, e1(1))),))
                    for m in range(1, n + 1)]
        if k_ == LSTARINV:
            return [((GenOcc(LSTARINV, m, j, shift_arg(a, e2(1))),),
                     (GenOcc(LSTARINV, i, m, shift_arg(a, e1(-1))),))
                    for m in range(1, n + 1)]
        raise UnsupportedRule(f"no coproduct table for kind {k_}")

    # -- counit values

    def counit_value(self, g: GenOcc) -> RatExpr:
        if g.kind in (PHI, PHISTAR):
            return _R0
        return _R1 if g.row == g.col else _R0

    # -- antipode images, stored pre-merge (own-charge signs flipped)

    def antipode_fragments(self, g: GenOcc, slot: int):
        n = self.n
        a = g.arg
        et = lambda k: charge_shift(slot, k)  # noqa: E731
        k_, i, j = g.kind, g.row, g.col
        if k_ == L:
            return [(_R1, (GenOcc(LINV, i, j, a),))]
        if k_ == LSTAR:
            return [(_R1, (GenOcc(LSTARINV, i, j, a),))]
        if k_ == PHI:
            # one-leg reading: -sum_m Linv_im(z q^(-c/2)) Phi_m(z q^(-c))
            return [(-_R1, (GenOcc(LINV, i, m, shift_arg(a, et(-1))),
                            GenOcc(PHI, m, 0, shift_arg(a, et(-2)))))
                    for m in range(1, n + 1)]
        if k_ == PHISTAR:
            # one-leg reading: -sum_m Phistar_m(z q^-c) Lstarinv_mi(z q^(-c/2))
            return [(-_R1, (GenOcc(PHISTAR, m, 0, shift_arg(a, et(-2))),
                            GenOcc(LSTARINV, m, i, shift_arg(a, et(-1)))))
                    for m in range(1, n + 1)]
        raise UnsupportedRule(f"no antipode table for kind {k_}")


# ---------------------------------------------------------------------------
# structural maps
# ---------------------------------------------------------------------------

def coproduct(e: Element, tables: HopfTables, leg: int = 0) -> Element:
    """Apply the coproduct to one leg, growing the element by one leg."""
    if e.nlegs + 1 > MAX_LEGS:
        raise ShapeError(f"cannot exceed {MAX_LEGS} legs")
    if not 0 <= leg < e.nlegs:
        raise ShapeError(f"no leg {leg}")
    t = leg + 1
    cmap = _identity_map()
    for k in range(3, t, -1):
        cmap[k - 1] = {k: 1}  # old c_(k-1) becomes c_k for legs above t
    cmap[t] = {t: 1, t + 1: 1}
    # keep identities for untouched slots
    for k in (1, 2, 3):
        cmap.setdefault(k, {k: 1})
    mapped = e.map_charges(cmap)
    smarks = e.smarks[:leg] + (False, False) + e.smarks[leg + 1:]
    out = Element(e.nlegs + 1, {}, smarks)
    for (flag, deltas, legs), coeff in mapped.terms.items():
        word = legs[leg]
        frags = [(_R1, (), ())]
        for g in word:
            pieces = tables.coproduct_fragments(g, t, t + 1)
            frags = [(c, lw + pl, rw + pr)
                     for (c, lw, rw) in frags
                     for (pl, pr) in pieces]
        for c, lw, rw in frags:
            nlegs = legs[:leg] + (lw, rw) + legs[leg + 1:]
            out._accumulate(out.terms, (flag, deltas, nlegs), coeff * c)
    return out


def counit_apply(e: Element, tables: HopfTables, leg: int = 0) -> Element:
    """Replace one leg by its counit value and renumber."""
    if not 0 <= leg < e.nlegs:
        raise ShapeError(f"no leg {leg}")
    t = leg + 1
    cmap = _identity_map({t: {}})
    for k in range(t + 1, 4):
        cmap[k] = {k - 1: 1}
    mapped = e.map_charges(cmap)
    smarks = e.smarks[:leg] + e.smarks[leg + 1:]
    out = Element(e.nlegs - 1, {}, smarks)
    for (flag, deltas, legs), coeff in mapped.terms.items():
        word = legs[leg]
        val = coeff
        dead = False
        for g in word:
            v = tables.counit_value(g)
            if v.is_zero():
                dead = True
                break
            val = val * v
        if dead:
            continue
        nlegs = legs[:leg] + legs[leg + 1:]
        out._accumulate(out.terms, (flag, deltas, nlegs), val)
    return out


def antipode_apply(e: Element, tables: HopfTables, leg: int = 0) -> Element:
    """Anti-homomorphism on one leg; the leg is marked and the pending
    charge negation is performed by ``merge_legs`` (or by
    ``resolve_antipode_marks`` for standalone use)."""
    if not 0 <= leg < e.nlegs:
        raise ShapeError(f"no leg {leg}")
    t = leg + 1
    out = Element(e.nlegs, {},
                  e.smarks[:leg] + (True,) + e.smarks[leg + 1:])
    for (flag, deltas, legs), coeff in e.terms.items():
        word = legs[leg]
        frags = [(_R1, ())]
        for g in reversed(word):
            pieces = _antipode_premerge(tables, g, t)
            frags = [(c * pc, w + pw)
                     for (c, w) in frags
                     for (pc, pw) in pieces]
        for c, w in frags:
            nlegs = legs[:leg] + (w,) + legs[leg + 1:]
            out._accumulate(out.terms, (flag, deltas, nlegs), coeff * c)
    return out


def _antipode_premerge(tables: HopfTables, g: GenOcc, slot: int):
    """Antipode image with own-charge shifts sign-flipped, so that the
    uniform merge negation restores the one-leg formulas."""
    frags = tables.antipode_fragments(g, slot)
    out = []
    for c, occs in frags:
        flipped = tuple(
            GenOcc(o.kind, o.row, o.col,
                   ArgShift(o.arg.var, _flip_slot(o.arg.h, g.arg.h, slot)))
            for o in occs)
        out.append((c, flipped))
    return out


def _flip_slot(h: tuple, base: tuple, slot: int) -> tuple:
    """Flip the sign of the table-introduced own-charge contribution,
    keeping the pre-existing reference from the original argument."""
    out = list(h)
    introduced = h[slot] - base[slot]
    out[slot] = base[slot] - introduced
    return tuple(out)


def merge_legs(e: Element, leg: int = 0) -> Element:
    """Concatenate legs ``leg`` and ``leg + 1``; charge references to the
    merged legs become the new leg's charge, negated for a leg carrying an
    antipode mark."""
    if not 0 <= leg < e.nlegs - 1:
        raise ShapeError(f"cannot merge at leg {leg}")
    t = leg + 1
    s1 = -1 if e.smarks[leg] else 1
    s2 = -1 if e.smarks[leg + 1] else 1
    cmap = _identity_map({t: {t: s1}, t + 1: {t: s2}})
    for k in range(t + 2, 4):
        cmap[k] = {k - 1: 1}
    mapped = e.map_charges(cmap)
    smarks = e.smarks[:leg] + (False,) + e.smarks[leg + 2:]
    out = Element(e.nlegs - 1, {}, smarks)
    for (flag, deltas, legs), coeff in mapped.terms.items():
        merged = legs[leg] + legs[leg + 1]
        nlegs = legs[:leg] + (merged,) + legs[leg + 2:]
        out._accumulate(out.terms, (flag, deltas, nlegs), coeff)
    return out


def resolve_antipode_marks(e: Element) -> Element:
    """Negate the marked legs' own-charge references and clear the marks
    (the one-leg reading of a standalone antipode image)."""
    cmap = _identity_map()
    for leg, marked in enumerate(e.smarks):
        if marked:
            cmap[leg + 1] = {leg + 1: -1}
    return e.map_charges(cmap, new_smarks=(False,) * e.nlegs)


# ---------------------------------------------------------------------------
# generators of a flavor
# ---------------------------------------------------------------------------

def generator_list(rs: RewriteSystem, include_inverses: bool = False):
    """(label, Element) pairs for every tabled generator at argument z1."""
    n = rs.n
    z1 = _z(1)
    out = [("qc", Element.unit(1, RatExpr.var("u1", 2)))]
    for i in range(1, n + 1):
        out.append((f"Phi[{i}]",
                    Element.word((GenOcc(PHI, i, 0, z1),))))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            out.append((f"L[{i},{j}]",
                        Element.word((GenOcc(L, i, j, z1),))))
    if include_inverses:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                out.append((f"Linv[{i},{j}]",
                            Element.word((GenOcc(LINV, i, j, z1),))))
    if rs.flavor == "double":
        for i in range(1, n + 1):
            out.append((f"PhiStar[{i}]",
                        Element.word((GenOcc(PHISTAR, i, 0, z1),))))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                out.append((f"LStar[{i},{j}]",
                            Element.word((GenOcc(LSTAR, i, j, z1),))))
        if include_inverses:
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    out.append((f"LStarInv[{i},{j}]",
                                Element.word((GenOcc(LSTARINV, i, j, z1),))))
    return out


def _counit_of_element(tables: HopfTables, e: Element) -> RatExpr:
    """Counit of a one-leg element (used to build the eta-epsilon target)."""
    total = _R0
    cmap = {1: {}, 2: {2: 1}, 3: {3: 1}}
    mapped = e.map_charges(cmap)
    for (flag, deltas, legs), coeff in mapped.terms.items():
        val = coeff
        dead = False
        for g in legs[0]:
            v = tables.counit_value(g)
            if v.is_zero():
                dead = True
                break
            val = val * v
        if not dead:
            total = total + val
    return total


# ---------------------------------------------------------------------------
# axiom and homomorphism checks
# ---------------------------------------------------------------------------

def check_counit(rs: RewriteSystem, tables: HopfTables, gen: Element):
    """(eps (x) id) Delta = id = (id (x) eps) Delta; returns residuals."""
    d = coproduct(gen, tables, 0)
    left = counit_apply(d, tables, 0) - gen
    right = counit_apply(d, tables, 1) - gen
    return left, right


def check_coassoc(rs: RewriteSystem, tables: HopfTables, gen: Element):
    d = coproduct(gen, tables, 0)
    lhs = coproduct(d, tables, 0)
    rhs = coproduct(d, tables, 1)
    return lhs - rhs


def check_antipode(rs: RewriteSystem, tables: HopfTables, gen: Element):
    """m(S (x) id) Delta = eta eps = m(id (x) S) Delta; returns residuals."""
    target = Element.unit(1, _counit_of_element(tables, gen))
    d = coproduct(gen, tables, 0)
    left = merge_legs(antipode_apply(d, tables, 0), 0)
    right = merge_legs(antipode_apply(d, tables, 1), 0)
    lres = delta_normalize(normal_order(left - target, rs))
    rres = delta_normalize(normal_order(right - target, rs))
    return lres, rres


def check_hom_on_relation(rs: RewriteSystem, tables: HopfTables,
                          relation_id: str):
    """Delta(LHS) - Delta(RHS) for a defining relation, normal ordered and
    delta normalized; list of (free indices, residual Element)."""
    out = []
    for idx, lhs, rhs in relation_sides(rs, relation_id):
        diff = coproduct(lhs - rhs, tables, 0)
        out.append((idx, delta_normalize(normal_order(diff, rs))))
    return out


def check_axioms(rs: RewriteSystem, tables: HopfTables):
    """Counit, coassociativity and antipode residual summary per
    generator; each value is the number of nonzero residual terms."""
    results = []
    for label, gen in generator_list(rs, include_inverses=True):
        cl, cr = check_counit(rs, tables, gen)
        ca = check_coassoc(rs, tables, gen)
        results.append((f"counit:{label}", len(cl.terms) + len(cr.terms)))
        results.append((f"coassoc:{label}", len(ca.terms)))
    for label, gen in generator_list(rs, include_inverses=False):
        al, ar = check_antipode(rs, tables, gen)
        results.append((f"antipode:{label}", len(al.terms) + len(ar.terms)))
    return results
