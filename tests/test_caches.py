"""The per-run caches against their uncached definitions: the word data of
a ``RewriteSystem`` (measure and leftmost reducible pair of a leg word),
its rules read at their arguments (``rule_at``) and the generator images
of ``HopfTables``.  Each check puts many inputs through one shared cache,
so an entry keyed on too little is read back for an input it does not
belong to."""

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from rhopf import algebra
from rhopf.algebra import (ArgShift, GenOcc, KIND_RANK, L, LINV, LSTAR,
                           LSTARINV, PHI, RewriteSystem, TOGGLE_NAMES,
                           Toggles, VECTOR_KINDS, charge_shift, term_measure)
from rhopf.errors import UnsupportedRule
from rhopf.hopf import ANTIPODE, COPRODUCT, HopfTables
from rhopf.instances import get_instance
from rhopf.symfield import U, Z, q_power

_CACHED = settings(max_examples=150, deadline=None, database=None,
                   derandomize=True)


@functools.cache
def _rs(literal: str) -> RewriteSystem:
    """One rule table per toggle, shared by every example."""
    toggles = Toggles(frozenset((literal,)) if literal else frozenset())
    return RewriteSystem(get_instance("example2-n2"), "double", toggles)


@functools.cache
def _tables(literal: str) -> HopfTables:
    return HopfTables(_rs(literal))


_OTHER_VAR = {Z[0]: Z[1], Z[1]: Z[0]}
_OTHER_Q = {q_power(): charge_shift(1, 1), charge_shift(1, 1): q_power()}
_q = st.sampled_from(sorted(_OTHER_Q))
_PARTNER = {L: LINV, LINV: L, LSTAR: LSTARINV, LSTARINV: LSTAR}


@st.composite
def _occ(draw):
    """Any kind, the inverse kinds included; indices in 1..2, as for
    example2-n2."""
    kind = draw(st.sampled_from(sorted(KIND_RANK)))
    row = draw(st.integers(1, 2))
    col = 0 if kind in VECTOR_KINDS else draw(st.integers(1, 2))
    return GenOcc(kind, row, col, ArgShift(draw(st.sampled_from(Z[:2])),
                                           draw(_q)))


@st.composite
def _word(draw):
    """One to four letters.  A letter after a matrix kind is often its
    inverse partner at the same argument, which makes the matched pairs
    whose middle index the measure and the contraction rule read."""
    word = [draw(_occ())]
    for _ in range(draw(st.integers(0, 3))):
        prev = word[-1]
        if prev.kind in _PARTNER and draw(st.booleans()):
            word.append(GenOcc(_PARTNER[prev.kind], draw(st.integers(1, 2)),
                               draw(st.integers(1, 2)), prev.arg))
        else:
            word.append(draw(_occ()))
    return tuple(word)


def _neighbours(word):
    """The word, then each word that differs from it in one field of one
    letter: row, column, variable or q-power."""
    yield word
    for i, g in enumerate(word):
        swaps = [g._replace(row=3 - g.row),
                 g._replace(arg=g.arg._replace(var=_OTHER_VAR[g.arg.var])),
                 g._replace(arg=g.arg._replace(q=_OTHER_Q[g.arg.q]))]
        if g.col:
            swaps.append(g._replace(col=3 - g.col))
        for h in swaps:
            yield word[:i] + (h,) + word[i + 1:]


def _leftmost(word, rs):
    """The plain scan for the leftmost reducible pair of one word."""
    for pos, (g1, g2) in enumerate(zip(word, word[1:])):
        if algebra._reducible(g1, g2, rs):
            return pos
    return None


@_CACHED
@given(st.sampled_from(("", "ll-star")),
       st.lists(st.lists(_word(), min_size=1, max_size=3).map(tuple),
                min_size=1, max_size=6))
def test_word_data_equals_the_uncached_scan(literal, terms):
    rs = _rs(literal)
    for legs in terms:
        for word in (w for leg in legs for w in _neighbours(leg)):
            assert rs.word_data(word) == (term_measure(("", (), (word,))),
                                          _leftmost(word, rs))
        scans = [_leftmost(word, rs) for word in legs]
        key = ("", (), legs)
        neg, got_key, redex = algebra._heap_entry(key, rs)
        assert tuple(-m for m in neg) == term_measure(key)
        assert got_key == key
        assert redex == next(
            ((li, pos) for li, pos in enumerate(scans) if pos is not None),
            None)


def test_rule_at_equals_the_uncached_reading():
    """Every rule of every toggle's system, at every pair of arguments
    from z1, z2 times 1 or q^(c1/2) and on every leg, read through the
    system's cache equals the uncached ``_rule_at``: the calls interleave
    legs, second arguments and toggles, so a key without the leg or the
    second argument, or a cache shared between systems, serves an entry
    read for another call."""
    args = [ArgShift(var, q) for var in Z[:2] for q in sorted(_OTHER_Q)]
    systems = [_rs(literal) for literal in ("",) + TOGGLE_NAMES]
    checked = 0
    for (a1, a2), leg, rs in itertools.product(
            itertools.product(args, repeat=2), range(3), systems):
        for rule in rs._rules.values():
            got = rs.rule_at(rule, a1, a2, leg)
            assert got == rs._rule_at(rule, a1, a2, leg), (rule[0].rid, leg)
            checked += 1
    assert checked == len(args) ** 2 * 3 * sum(len(rs._rules)
                                               for rs in systems)


def test_pieces_of_a_charge_shifted_row_read_each_leg():
    """Phi L reads R^-1 at (x1/x2) q^(c/2), with c the charge of its own
    leg: on a warm system the pieces of one pair on legs 0 and 1 are
    those of cold systems, and carry u1 and u2 respectively."""
    R = get_instance("example2-n2")
    g1 = GenOcc(PHI, 1, 0, ArgShift(Z[0]))
    g2 = GenOcc(L, 1, 2, ArgShift(Z[1]))
    warm = RewriteSystem(R, "double")
    for leg in (0, 1):
        got = warm.pieces(g1, g2, leg)
        assert got == RewriteSystem(R, "double").pieces(g1, g2, leg)
        charges = set().union(*(c.variables() for c, _, _ in got)) & set(U)
        assert charges == {U[leg]}, leg


def test_toggled_kinds_are_read_per_system():
    """The literal ``ll-star`` reading puts L* where the corrected one
    keeps L, in the pieces of L(z2) L*(z1), whichever system read the
    pair first."""
    R = get_instance("example2-n2")
    g1 = GenOcc(L, 1, 1, ArgShift(Z[1]))
    g2 = GenOcc(LSTAR, 1, 1, ArgShift(Z[0]))
    want = {"": {LSTAR, L}, "ll-star": {LSTAR}}
    for order in (("", "ll-star"), ("ll-star", "")):
        for literal in order:
            toggles = Toggles(frozenset({literal} - {""}))
            rs = RewriteSystem(R, "double", toggles)
            kinds = {occ.kind for _, _, occs in rs.pieces(g1, g2, 0)
                     for occ in occs}
            assert kinds == want[literal], literal


_ROWS = {"coproduct": (COPRODUCT, ((1, 2), (2, 3))),
         "antipode": (ANTIPODE, ((1,), (2,), (3,)))}


@st.composite
def _image_call(draw):
    name = draw(st.sampled_from(sorted(_ROWS)))
    rows, slot_choices = _ROWS[name]
    return name, rows, draw(_occ()), draw(st.sampled_from(slot_choices))


@_CACHED
@given(st.sampled_from(("", "phistar-coproduct")),
       st.lists(_image_call(), min_size=1, max_size=8))
def test_image_equals_a_fresh_table(literal, calls):
    tables = _tables(literal)
    for name, rows, g, slots in calls:
        if g.kind not in rows:
            with pytest.raises(UnsupportedRule):
                tables.image(name, g, slots)
            continue
        fresh = HopfTables(tables.rs).image(name, g, slots)
        assert tables.image(name, g, slots) == fresh
