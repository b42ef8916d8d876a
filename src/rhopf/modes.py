"""Formal-variable (mode) layer: truncated expansion of the current
relations, triangularity constraints, and the scalar-instance comparison
against the reference quantum-affine current relations.

Every relation is emitted in its pole-cleared form: the rational identity
is multiplied by the least common multiple of the coefficient
denominators in the spectral variables, after which both sides are
Laurent polynomials and the double expansion is direction-free.  For the
particle exchange relation this clearing factor is exactly f with
R' = R f; the truncated formal delta delta(z) = sum_n z^n (|n| <= N)
appears only in the cross bracket.  A mode relation is a map from words
of mode generators (kind, row, col, mode) to coefficients; the relation
asserts the sum is zero.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import NamedTuple

from .algebra import (FLAVOR_RELATIONS, L, LSTAR, RewriteSystem,
                      normal_form, relation_sides)
from .errors import DomainError, ExpansionError
from .expr import parse_expr
from .kernels import mono_mul, mono_pow, poly_scale
from .rmatrix import RMatrix
from .symfield import (_ONE_TERMS, RatExpr, Z, accumulate, clear_denominator,
                       denominator_lcm, mono, mono_from_pairs, mono_items,
                       run_memo)

_Z1, _Z2 = Z[0], Z[1]
_AXES = {_Z1: 0, _Z2: 1}  # the slot coordinate each variable reads


@dataclass(frozen=True)
class SeriesWindow:
    """Truncation order N and the guard band excluded from assertions."""

    N: int
    margin: int = 1

    def __post_init__(self):
        if not self.N > self.margin >= 0:
            raise DomainError("need N > margin >= 0")

    @property
    def lim(self) -> int:
        """Slot coordinates run over -lim..lim."""
        return self.N - self.margin

    @property
    def span(self) -> range:
        """The slot coordinates, -lim..lim."""
        return range(-self.lim, self.lim + 1)


def mode_allowed(kind: str, row: int, col: int, p: int) -> bool:
    """Triangularity flags: annihilation-free halves plus triangular zero
    modes (diagonal zero modes stay, as invertibility requires)."""
    if kind == L:
        return p > 0 or (p == 0 and row >= col)
    if kind == LSTAR:
        return p < 0 or (p == 0 and row <= col)
    return True


def _z_split(terms: dict) -> list:
    """Decompose a Laurent polynomial as [(alpha, beta, s-u-terms)] over
    monomials z1^alpha z2^beta."""
    groups: dict = {}
    for m, k in terms.items():
        md = dict(mono_items(m))
        a = md.pop(_Z1, 0)
        b = md.pop(_Z2, 0)
        rest = mono_from_pairs(md.items())
        groups.setdefault((a, b), {})[rest] = k
    return [(a, b, sub) for (a, b), sub in sorted(groups.items())]


class _Shape(NamedTuple):
    """What a piece takes from its coefficient, clearing factor, delta,
    side and window, not from its word: the exponents (a, b) of
    c z1^a z2^b relative to the slot (at slot (m, k) a generator over z1
    has mode m + a, one over z2 mode k + b), the reach (per variable None
    for a variable carrying a generator, the whole window, else the one
    slot coordinate -exponent) and the coefficient c (signed, cleared,
    delta power included).  Every term with the same shape key shares the
    object (``_shapes``)."""

    exps: tuple  # (a, b)
    reach: tuple
    coeff: RatExpr


# Piece shapes, memoized for the run (``_shapes``) by the coefficient's
# serial (``RatExpr.key``, never reused), the clearing factor's terms,
# which template variables carry a generator, the delta's q-power (None
# without a delta), the side's sign and the window: only a few coefficient
# values occur across a relation's free-index tuples (on ``example2-n3`` at
# window 5, 774 cleared coefficients over 39 distinct (coefficient,
# clearing factor) pairs), and a miss clears and splits its coefficient
# and computes the coefficient of each shape it builds.
_SHAPES: dict = run_memo({})


def _shapes(coeff: RatExpr, clear: dict, ckey: frozenset, carried: tuple,
            dq, sign: int, window: SeriesWindow) -> tuple:
    """The shapes of ``sign * clear * coeff`` times a word whose template
    variables z1, z2 carry a generator as flagged by ``carried``, and the
    truncated delta with q-power ``dq`` (None for none), that reach some
    window slot.  The clearing factor is a multiple of every denominator's
    primitive part, so a cleared coefficient is its numerator times an
    exact quotient, with no gcd, over the denominator's integer content."""
    key = (coeff.key, ckey, carried, dq, sign, window)
    out = _SHAPES.get(key)
    if out is not None:
        return out
    cleared, den = clear_denominator(coeff, clear)
    # delta((z1/z2) q) = sum_nu z1^nu z2^-nu q^nu
    dchoices = [(0, 0)] if dq is None else [
        (nu, mono_pow(dq, nu)) for nu in range(-window.N, window.N + 1)]
    out = []
    for a, b, terms in _z_split(cleared):
        for nu, dmono in dchoices:
            exps = (a + nu, b - nu)
            reach = tuple(None if c else -x for c, x in zip(carried, exps))
            if all(r is None or abs(r) <= window.lim for r in reach):
                out.append(_Shape(exps, reach, RatExpr.from_laurent(
                    poly_scale(terms, sign, dmono), den)))
    out = _SHAPES[key] = tuple(out)
    return out


def _diagonal(word: tuple) -> bool:
    """Whether every generator of ``word`` is a diagonal L or Lstar, the
    only words whose zero-mode product can be a contradiction; a generator
    is any tuple that starts (kind, row, col): an occurrence, a piece's
    template or a mode word's entry."""
    return all(g[0] in (L, LSTAR) and g[1] == g[2] for g in word)


def _read(side) -> tuple:
    """(terms, kinds, diagonal) of ``side``, from one scan of its terms:
    terms is [(word, carried, dq, coefficient)], each term's word, whether
    the template variables z1, z2 carry a generator, the q-power of its
    delta (None for none) and its coefficient; kinds is the set of sorted
    generator kinds of its delta-free words, and diagonal tells whether a
    word is all diagonal L/Lstar (``_diagonal``).  A delta-free word carries
    both z1 and z2, so each of its pieces reaches every slot; any other
    delta-free word, and a generator over another variable, is an
    ``ExpansionError``."""
    terms, kinds, diagonal = [], set(), False
    for (flag, deltas, legs), coeff in side.terms.items():
        if flag:
            raise ExpansionError(f"cannot expand a term flagged {flag!r}")
        if len(deltas) > 1:
            raise ExpansionError("multiple formal deltas in one term")
        word = legs[0]
        gvars = {g.arg.var for g in word}
        if len(gvars) < len(word):
            raise ExpansionError("two occurrences share a spectral variable")
        if gvars - {_Z1, _Z2}:
            raise ExpansionError("generator outside the template variables")
        dq = None
        if deltas:
            d = deltas[0]
            if {d.avar, d.bvar} - {_Z1, _Z2}:
                raise ExpansionError("delta outside the template variables")
            dq = d.q
        elif len(gvars) < 2:
            raise ExpansionError("a delta-free word must carry z1 and z2")
        else:
            kinds.add(tuple(sorted(g.kind for g in word)))
        diagonal = diagonal or _diagonal(word)
        terms.append((word, (_Z1 in gvars, _Z2 in gvars), dq, coeff))
    return terms, kinds, diagonal


def _expand(lterms: list, rterms: list, window: SeriesWindow):
    """(clearing factor, pieces) of lhs = rhs from their read terms
    (``_read``): the factor is the lcm of the coefficient denominators,
    and the pieces are those of the factor times lhs - rhs that reach some
    window slot, each term's word with each of its shapes (``_shapes``),
    read as (gens, shifts, shape).  gens holds per generator its kind,
    row, column, the slot coordinate it reads (0 for z1, 1 for z2) and
    that variable's exponent, so that its mode at slot s is s[axis] +
    exponent (``_word``); shifts holds the q-powers of the generators'
    arguments, empty when none carries one, the only case in which a mode
    word's coefficient is the shape's (``_coeff_at``)."""
    clear = denominator_lcm([t[3] for t in lterms + rterms])
    ckey = frozenset(clear.items())
    pieces = []
    for sign, terms in ((+1, lterms), (-1, rterms)):
        for word, carried, dq, coeff in terms:
            axes = [(g.kind, g.row, g.col, _AXES[g.arg.var]) for g in word]
            shifts = tuple(g.arg.q for g in word)
            shifts = shifts if any(shifts) else ()
            for shape in _shapes(coeff, clear, ckey, carried, dq, sign,
                                 window):
                gens = tuple([(k, r, c, x, shape.exps[x])
                              for k, r, c, x in axes])
                pieces.append((gens, shifts, shape))
    return clear, pieces


def _word(gens: tuple, slot: tuple) -> tuple:
    """The mode word of a piece template's generators at a slot: (kind,
    row, col, mode) per generator, its mode the slot coordinate it reads
    plus the exponent."""
    return tuple([(k, r, c, slot[axis] + e) for k, r, c, axis, e in gens])


def _coeff_at(coeff: RatExpr, shifts: tuple, word: tuple) -> RatExpr:
    """The coefficient of a shifted piece's mode word, the q-powers of its
    generators' arguments ``shifts``: G(z q) at mode p picks up q^-p."""
    qm = mono()
    for q, (_k, _r, _c, p) in zip(shifts, word):
        if q:
            qm = mono_mul(qm, mono_pow(q, -p))
    return coeff.mul_mono(qm) if qm else coeff


def _slot_map(pieces: list, slot: tuple) -> dict:
    """The word map at ``slot`` of the pieces (``_expand``) whose reach
    covers it: the whole window, the slot's row, its column or the slot
    itself; nonzero coefficients only."""
    m, k = slot
    out: dict = {}
    for gens, shifts, shape in pieces:
        r1, r2 = shape.reach
        if (r1 is None or r1 == m) and (r2 is None or r2 == k):
            word = _word(gens, slot)
            accumulate(out, word, _coeff_at(shape.coeff, shifts, word)
                       if shifts else shape.coeff)
    return out


def _slot_diagonals(window: SeriesWindow) -> list:
    """(m0, k0, n) per diagonal m - k = u of the window, u from -2 lim to
    2 lim: its first slot (m0, k0) = (max(-lim, u - lim), m0 - u) and its
    length n, the diagonal's slots being (m0 + t, k0 + t) for t < n."""
    lim = window.lim
    out = []
    for u in range(-2 * lim, 2 * lim + 1):
        m0 = max(-lim, u - lim)
        out.append((m0, m0 - u, 2 * lim + 1 - abs(u)))
    return out


def mode_expand_relation(rs: RewriteSystem, relation_id: str,
                         window: SeriesWindow) -> list:
    """Quadratic mode relations of one defining relation.

    Returns a list of entries, one per free-index tuple, each a dict with
    ``indices``, the ``clearing_factor`` used, ``diagonals``, ``cells``
    and ``shift_free``.  The residual word map at a slot (zero map: the
    slot holds identically) is its diagonal's map with every mode raised
    by the slot's step along the diagonal, plus its cell's map.

    A piece that reaches the whole window and has no q-shifted argument
    is shift-free: moving from slot (m, k) to (m + t, k + t) adds t to
    both slot coordinates, so to every generator's mode, whichever
    variable it reads, and leaves its coefficient the shape's.  Raising
    every mode by t is injective on words, so the shift-free pieces are
    summed once per diagonal, at its first slot (``_slot_diagonals``),
    and nothing is copied along it: ``diagonals`` maps each first slot
    (m0, k0) whose sum is nonzero to (n, word map), n the diagonal's
    length, its slots (m0 + t, k0 + t) for t < n.  The other pieces,
    pinned to a row, a column or a cell by a delta, or q-shifted, are
    summed slot by slot into ``cells``, slot -> word map, nonzero maps
    only (``PhiPhistar``'s deltas and bracket).  Both sums are
    ``_slot_map``'s.  ``shift_free`` tells whether every read term is
    delta-free and unshifted, judged from the terms (``_read``), not from
    which pieces reach the window; then ``cells`` is empty.
    """
    span = window.span
    out = []
    for idx, lhs, rhs in relation_sides(rs, relation_id):
        lterms, rterms = _read(lhs)[0], _read(rhs)[0]
        clear, pieces = _expand(lterms, rterms, window)
        free, pinned = [], []
        for piece in pieces:
            _, shifts, shape = piece
            (pinned if shifts or shape.reach != (None, None)
             else free).append(piece)
        diagonals: dict = {}
        for m0, k0, n in _slot_diagonals(window):
            first = _slot_map(free, (m0, k0))
            if first:
                diagonals[m0, k0] = (n, first)
        cells = {(m, k): _slot_map(pinned, (m, k))
                 for m in span for k in span} if pinned else {}
        out.append({
            "indices": idx,
            "clearing_factor": clear,
            "diagonals": diagonals,
            "cells": {s: d for s, d in cells.items() if d},
            "shift_free": not any(
                dq is not None or any(g.arg.q for g in word)
                for word, _, dq, _ in lterms + rterms),
        })
    return out


def _contradictions(pieces: list, window: SeriesWindow) -> int:
    """Slots where, with triangularity imposed, one word survives and it is
    a product of diagonal L/Lstar zero modes.  A piece's word has every
    mode zero only at slot -(its exponents), so only those slots of pieces
    with diagonal L/Lstar words are summed (``_slot_map``) and filtered
    word by word, which gives the map of the filtered pieces."""
    count = 0
    for slot in {(-a, -b) for gens, _, ((a, b), _, _) in pieces
                 if max(abs(a), abs(b)) <= window.lim and _diagonal(gens)}:
        surv = [w for w in _slot_map(pieces, slot)
                if all(mode_allowed(*g) for g in w)]
        if len(surv) == 1 and _diagonal(surv[0]) and \
                not any(g[3] for g in surv[0]):
            count += 1
    return count


def mode_counts(lhs, rhs, window: SeriesWindow) -> tuple:
    """(slots checked, kind mismatches, contradictions) of one relation
    entry lhs = rhs; see ``check_mode_consistency``.  One scan of each
    side (``_read``), the lhs first, raises its refusals and reads its
    kind set and whether it has a diagonal L/Lstar word."""
    lterms, lk, ldiag = _read(lhs)
    rterms, rk, rdiag = _read(rhs)
    checked = len(window.span) ** 2 if lk else 0
    mismatches = checked if rk and lk != rk else 0
    if not (ldiag or rdiag):
        return checked, mismatches, 0
    return checked, mismatches, _contradictions(
        _expand(lterms, rterms, window)[1], window)


def check_mode_consistency(rs: RewriteSystem, window: SeriesWindow) -> dict:
    """Consistency of the truncated mode presentation.

    Per relation of the active flavor this verifies: (a) the rational
    engine's residual is zero; (b) on every window slot the exchange words
    of the two sides carry matching generator-kind patterns (the literal
    L-Lstar reading fails here: it equates an L Lstar word with Lstar
    Lstar words, which contradicts independent invertible zero modes);
    (c) with triangularity imposed, no slot degenerates to a single
    surviving zero-mode product forced to vanish.

    Every term is read once (``_read``), and its refusals fire before
    anything is counted.  The kind sets of (b) depend only on which
    pieces reach a slot, never on coefficients, and every delta-free term
    has pieces and each of them reaches every slot (``_read`` refuses a
    delta-free word without both z1 and z2), so a side has one kind set
    for the whole window, read from its delta-free terms: all slots are
    checked when the lhs has a delta-free term, and all mismatch when the
    rhs has one too and the two sets differ.  A surviving word of (c) is
    the mode word of a piece, whose word is its term's, so only an entry
    with a term of diagonal L/Lstar generators, on either side, can hold
    one; any other entry builds no clearing factor and no shape.  An
    entry that can is expanded once, relative to the slot (``_expand``),
    and every free-index tuple with the same coefficient, clearing factor,
    carried variables, delta and side shares a shape for the run
    (``_shapes``).  A surviving word has every mode zero, which a piece's
    word has only at slot -(its exponents); the word maps are summed
    exactly (``_slot_map``), and filtered, at those candidate slots alone.
    The counts are therefore those of the full per-slot expansion.  Each
    relation's sides are built once and serve (a) as well."""
    report = {"relations": [], "consistent": True}
    for rid in FLAVOR_RELATIONS[rs.flavor]:
        sides = [(lhs, rhs) for _, lhs, rhs in relation_sides(rs, rid)]
        residuals = [normal_form(rs, lhs - rhs) for lhs, rhs in sides]
        current_zero = all(r.is_zero() for r in residuals)
        slots_checked = kind_mismatches = contradictions = 0
        for lhs, rhs in sides:
            s, km, c = mode_counts(lhs, rhs, window)
            slots_checked += s
            kind_mismatches += km
            contradictions += c
        ok = current_zero and kind_mismatches == 0 and contradictions == 0
        report["relations"].append({
            "relation": rid,
            "current_level_zero": current_zero,
            "slots_checked": slots_checked,
            "kind_mismatches": kind_mismatches,
            "contradictions": contradictions,
            "consistent": ok,
        })
        if not ok:
            report["consistent"] = False
    return report


# ---------------------------------------------------------------------------
# reference current relations (scalar instance <-> quantum affine sl2)
# ---------------------------------------------------------------------------

_DATA = os.path.join(os.path.dirname(__file__), "data",
                     "drinfeld_uqsl2.txt")


def load_reference_relations() -> dict:
    """Parse the reference relation file: ``name: lhs | rhs`` meaning
    lhs(z1,z2) X(z1) X(z2) = rhs(z1,z2) X(z2) X(z1)."""
    out = {}
    with open(_DATA, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            name, rest = line.split(":", 1)
            lhs_txt, rhs_txt = rest.split("|", 1)
            out[name.strip()] = (parse_expr(lhs_txt), parse_expr(rhs_txt))
    return out


def _emit_poly_pair(lhs: RatExpr, rhs: RatExpr, slots: list) -> dict:
    """Word maps of lhs(z1,z2) X(z1) X(z2) - rhs(z1,z2) X(z2) X(z1) at the
    given slots, a word the tuple of its generators' modes."""
    out: dict = {}
    for sign, poly, swapped in ((+1, lhs, False), (-1, rhs, True)):
        if poly.den != _ONE_TERMS:
            raise ExpansionError("a reference relation side has a "
                                 "denominator")
        for a, b, terms in _z_split(poly.num):
            sc = RatExpr.from_laurent(poly_scale(terms, sign, mono()))
            for m, k in slots:
                word = (k + b, m + a) if swapped else (m + a, k + b)
                accumulate(out.setdefault((m, k), {}), word, sc)
    return {s: d for s, d in out.items() if d}


def _proportional(em: dict, rm: dict) -> bool:
    """Whether two nonempty word maps agree up to a common nonzero factor:
    the same words, and every coefficient cross-multiplied against the
    leading word's equal."""
    if em.keys() != rm.keys():
        return False
    first = min(em)
    ef, rf = em[first], rm[first]
    return all(em[w] * rf == rm[w] * ef for w in em if w != first)


def _erase_kind(wm: dict) -> dict:
    """An engine word map keyed, as the reference's, by mode tuples."""
    return {tuple([g[3] for g in w]): c for w, c in wm.items()}


def drinfeld_compare(window: SeriesWindow, R: RMatrix) -> dict:
    """Coefficient-by-coefficient comparison of the scalar instance's
    cleared exchange relations against the reference current relations
    (positive current = Phi, negative current = Phistar); a slot matches
    when its two word maps, both keyed by mode tuples, are proportional.
    Every engine word of a scalar relation has the same kind, row and
    column, so dropping them keeps the words apart and in order.

    Both rows must be delta-free and unshifted, judged from their read
    terms (``shift_free``; an ``ExpansionError`` otherwise), and so is the
    reference: every piece of either side is shift-free, and a slot's
    maps are those of its diagonal's first slot with every mode raised
    by the same t.  That keeps sums, cancellations, the leading word and
    the proportionality verdict, so each diagonal is decided at its first
    slot alone, from the per-diagonal maps of ``mode_expand_relation``
    and the reference emitted there: its slots count when the maps there
    are not both empty, and all mismatch when those maps do.  The work
    is linear in the window's width."""
    if R.n != 1:
        raise DomainError("the reference comparison is scalar only")
    rs = RewriteSystem(R, "double")
    refs = load_reference_relations()
    diagonals = _slot_diagonals(window)
    firsts = [(m0, k0) for m0, k0, _ in diagonals]
    report = {"pairs": [], "match": True}
    for rid, refname in (("PhiPhi", "xplus"), ("PhistarPhistar", "xminus")):
        entries = mode_expand_relation(rs, rid, window)
        if not all(entry["shift_free"] for entry in entries):
            raise ExpansionError(
                f"{rid} has a delta or a q-shifted argument: its slots "
                "differ along a diagonal")
        engine = entries[0]["diagonals"]
        ref = _emit_poly_pair(*refs[refname], firsts)
        slots = 0
        mismatched = []
        for m0, k0, n in diagonals:
            first = (m0, k0)
            if first not in engine and first not in ref:
                continue
            slots += n
            _, em = engine.get(first, (n, {}))
            if not _proportional(_erase_kind(em), ref.get(first, {})):
                mismatched.extend((m0 + t, k0 + t) for t in range(n))
        report["pairs"].append({
            "relation": rid,
            "reference": refname,
            "slots": slots,
            "mismatched_slots": sorted(mismatched),
        })
        if mismatched:
            report["match"] = False
    return report
