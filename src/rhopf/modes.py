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

import itertools
import os
from dataclasses import dataclass

from .algebra import (FLAVOR_RELATIONS, L, LSTAR, RewriteSystem,
                      relation_sides, relation_self_residual)
from .errors import DomainError, ExpansionError
from .expr import parse_expr
from .kernels import mono_pow
from .rmatrix import RMatrix
from .symfield import (RatExpr, Z, accumulate, denominator_lcm,
                       mono_from_pairs, variables)

_Z1, _Z2 = Z[0], Z[1]
_R1 = RatExpr.from_int(1)


@dataclass(frozen=True)
class SeriesWindow:
    """Truncation order N and the guard band excluded from assertions."""

    N: int
    margin: int = 1

    def __post_init__(self):
        if not self.N > self.margin >= 0:
            raise DomainError("need N > margin >= 0")

    def slots(self):
        lim = self.N - self.margin
        for m in range(-lim, lim + 1):
            for k in range(-lim, lim + 1):
                yield (m, k)


def mode_allowed(kind: str, row: int, col: int, p: int) -> bool:
    """Triangularity flags: annihilation-free halves plus triangular zero
    modes (diagonal zero modes stay, as invertibility requires)."""
    if kind == L:
        return p > 0 or (p == 0 and row >= col)
    if kind == LSTAR:
        return p < 0 or (p == 0 and row <= col)
    return True


def _z_split(c: RatExpr) -> list:
    """Decompose a coefficient with z-free denominator as
    [(alpha, beta, s-u-coefficient)] over monomials z1^alpha z2^beta."""
    den = c.den
    if variables(den) & {_Z1, _Z2}:
        raise ExpansionError("coefficient denominator still involves the "
                             "spectral variables")
    groups: dict = {}
    for m, k in c.num.items():
        md = dict(m)
        a = md.pop(_Z1, 0)
        b = md.pop(_Z2, 0)
        rest = mono_from_pairs(md.items())
        groups.setdefault((a, b), {})[rest] = k
    return [(a, b, RatExpr(terms, den))
            for (a, b), terms in sorted(groups.items())]


def _emit_element(e, window: SeriesWindow, clear: dict,
                  sign: int, out: dict, kindsets: dict):
    """Accumulate the mode expansion of ``sign * clear * e`` into ``out``,
    a dict slot -> {mode word -> coefficient}.

    A piece c z1^a z2^b of a term's cleared coefficient reaches slot (m, k)
    when each variable carrying a generator has its slot coordinate
    anywhere in the window, and each variable without one has it at minus
    its exponent; a generator's mode is its slot coordinate plus its
    variable's exponent."""
    lim = window.N - window.margin
    span = range(-lim, lim + 1)
    cf = RatExpr(clear)
    for (flag, deltas, legs), coeff in e.terms.items():
        if flag:
            raise ExpansionError(f"cannot expand a term flagged {flag!r}")
        if len(deltas) > 1:
            raise ExpansionError("multiple formal deltas in one term")
        word = legs[0]
        gvars = {g.arg.var for g in word}
        if len(gvars) < len(word):
            raise ExpansionError("two occurrences share a spectral variable")
        dchoices = [(0, _R1)]
        if deltas:
            d = deltas[0]
            if {d.avar, d.bvar} - {_Z1, _Z2}:
                raise ExpansionError("delta outside the template variables")
            # delta((z1/z2) q) = sum_nu z1^nu z2^-nu q^nu
            dchoices = [(nu, RatExpr.from_mono(mono_pow(d.q, nu)))
                        for nu in range(-window.N, window.N + 1)]
        kinds = tuple(sorted(g.kind for g in word))
        for a, b, sc in _z_split(coeff * cf):
            for nu, dcoef in dchoices:
                base = sc * dcoef if sign > 0 else -(sc * dcoef)
                exps = (a + nu, b - nu)
                axes = [span if v in gvars else [-x] if abs(x) <= lim else []
                        for v, x in zip((_Z1, _Z2), exps)]
                for m, k in itertools.product(*axes):
                    modes = {_Z1: m + exps[0], _Z2: k + exps[1]}
                    mult = base
                    wkey = []
                    for g in word:
                        p = modes[g.arg.var]
                        wkey.append((g.kind, g.row, g.col, p))
                        if g.arg.q:
                            # G(z q): mode p picks up q^-p
                            mult = mult * RatExpr.from_mono(
                                mono_pow(g.arg.q, -p))
                    accumulate(out.setdefault((m, k), {}), tuple(wkey), mult)
                    if not deltas:
                        kindsets.setdefault((m, k), set()).add(kinds)


def mode_expand_relation(rs: RewriteSystem, relation_id: str,
                         window: SeriesWindow) -> list:
    """Quadratic mode relations of one defining relation.

    Returns a list of entries, one per free-index tuple, each a dict with
    ``slots`` (slot -> residual word map; zero map means the slot holds
    identically), ``lhs_kinds``/``rhs_kinds`` (slot -> set of word kind
    tuples, delta terms excluded) and the clearing factor used.
    """
    out = []
    for idx, lhs, rhs in relation_sides(rs, relation_id):
        clear = denominator_lcm([*lhs.terms.values(),
                                 *rhs.terms.values()])
        slots: dict = {}
        lhs_kinds: dict = {}
        rhs_kinds: dict = {}
        _emit_element(lhs, window, clear, +1, slots, lhs_kinds)
        _emit_element(rhs, window, clear, -1, slots, rhs_kinds)
        slots = {s: d for s, d in slots.items() if d}
        out.append({
            "indices": idx,
            "clearing_factor": clear,
            "slots": slots,
            "lhs_kinds": lhs_kinds,
            "rhs_kinds": rhs_kinds,
        })
    return out


def _apply_triangularity(word_map: dict) -> dict:
    out = {}
    for word, c in word_map.items():
        if all(mode_allowed(k, r, cc, p) for (k, r, cc, p) in word):
            out[word] = c
    return out


def check_mode_consistency(rs: RewriteSystem, window: SeriesWindow) -> dict:
    """Consistency of the truncated mode presentation.

    Per relation of the active flavor this verifies: (a) the rational
    engine's residual is zero; (b) on every window slot the exchange words
    of the two sides carry matching generator-kind patterns (the literal
    L-Lstar reading fails here: it equates an L Lstar word with Lstar
    Lstar words, which contradicts independent invertible zero modes);
    (c) with triangularity imposed, no slot degenerates to a single
    surviving zero-mode product forced to vanish."""
    report = {"relations": [], "consistent": True}
    for rid in FLAVOR_RELATIONS[rs.flavor]:
        current_zero = all(r.is_zero()
                           for _, r in relation_self_residual(rs, rid))
        kind_mismatches = 0
        contradictions = 0
        slots_checked = 0
        for entry in mode_expand_relation(rs, rid, window):
            for slot in entry["lhs_kinds"]:
                slots_checked += 1
                lk = entry["lhs_kinds"].get(slot, set())
                rk = entry["rhs_kinds"].get(slot, set())
                if lk and rk and lk != rk:
                    kind_mismatches += 1
            for slot, wm in entry["slots"].items():
                surv = _apply_triangularity(wm)
                if len(surv) == 1:
                    word = next(iter(surv))
                    if all(k in (L, LSTAR) and p == 0 and r == cc
                           for (k, r, cc, p) in word):
                        contradictions += 1
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


def _emit_poly_pair(lhs: RatExpr, rhs: RatExpr, window: SeriesWindow):
    """Mode slots of lhs(z1,z2) X(z1) X(z2) - rhs(z1,z2) X(z2) X(z1)."""
    slots: dict = {}
    lim = window.N - window.margin
    for sign, poly, order in ((+1, lhs, (0, 1)), (-1, rhs, (1, 0))):
        for a, b, sc in _z_split(poly):
            for m in range(-lim, lim + 1):
                for k in range(-lim, lim + 1):
                    p1, p2 = m + a, k + b
                    pair = [(0 if order == (0, 1) else 1, p1),
                            (1 if order == (0, 1) else 0, p2)]
                    word = tuple(("X", p) for _, p in sorted(pair))
                    accumulate(slots.setdefault((m, k), {}), word,
                               sc if sign > 0 else -sc)
    return {s: d for s, d in slots.items() if d}


def _normalize_word_map(wm: dict) -> dict:
    if not wm:
        return {}
    first = min(wm)
    inv = wm[first].inverse()
    return {w: c * inv for w, c in wm.items()}


def _erase_kind(wm: dict) -> dict:
    return {tuple(("X", p) for (_k, _r, _c, p) in w): c
            for w, c in wm.items()}


def drinfeld_compare(window: SeriesWindow, R: RMatrix = None) -> dict:
    """Coefficient-by-coefficient comparison of the scalar instance's
    cleared exchange relations against the reference current relations
    (positive current = Phi, negative current = Phistar); each slot is
    compared after scaling both word maps to a common leading unit."""
    from .instances import get_instance

    if R is None:
        R = get_instance("example1")
    if R.n != 1:
        raise DomainError("the reference comparison is scalar only")
    rs = RewriteSystem(R, "double", check_unitarity=False)
    refs = load_reference_relations()
    report = {"pairs": [], "match": True}
    for rid, refname in (("PhiPhi", "xplus"), ("PhistarPhistar", "xminus")):
        engine = mode_expand_relation(rs, rid, window)[0]["slots"]
        ref = _emit_poly_pair(*refs[refname], window)
        mismatched = []
        for slot in sorted(set(engine) | set(ref)):
            em = _normalize_word_map(_erase_kind(engine.get(slot, {})))
            rm = _normalize_word_map(ref.get(slot, {}))
            if em != rm:
                mismatched.append(slot)
        report["pairs"].append({
            "relation": rid,
            "reference": refname,
            "slots": len(set(engine) | set(ref)),
            "mismatched_slots": mismatched,
        })
        if mismatched:
            report["match"] = False
    return report
