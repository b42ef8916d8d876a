"""Mode expansion: slots against a brute-force series oracle, consistency
checks, triangularity, and the reference current-relation comparison."""

import itertools
from pathlib import Path

import pytest

from rhopf import modes
from rhopf.algebra import (FLAG_CONTRADICTORY, FLAVOR_RELATIONS, L, LSTAR,
                           PHI, PHISTAR, TOGGLE_NAMES, ArgShift, DeltaFactor,
                           Element, GenOcc, RewriteSystem, Toggles,
                           relation_sides)
from rhopf.cli import parse_rspec
from rhopf.errors import DomainError, ExpansionError
from rhopf.expr import parse_expr
from rhopf.instances import INSTANCE_NAMES, get_instance
from rhopf.kernels import mono_pow
from rhopf.modes import (SeriesWindow, check_mode_consistency,
                         drinfeld_compare, load_reference_relations,
                         mode_allowed, mode_counts, mode_expand_relation)
from rhopf.rmatrix import RMatrix
from rhopf.symfield import (RatExpr, X, Z, accumulate, mono,
                            mono_from_pairs, mono_items, poly_lcm)
from test_nondiagonal import _jimbo_entries

_Z1, _Z2, _Z3 = Z[0], Z[1], Z[2]
_R1 = RatExpr.from_int(1)


def _rs(name="example1", flavor="double", toggles=None):
    return RewriteSystem(get_instance(name), flavor, toggles)


def slot_maps(entry: dict, window: SeriesWindow) -> dict:
    """Every nonzero slot map of a ``mode_expand_relation`` entry: at the
    t-th slot of a diagonal its map with every mode raised by t, plus the
    slot's cell.  Each diagonal runs from the window's lower edge to its
    upper edge."""
    lim = window.lim
    out: dict = {}
    for (m0, k0), (n, wm) in entry["diagonals"].items():
        assert min(m0, k0) == -lim and max(m0, k0) + n - 1 == lim
        for t in range(n):
            out[m0 + t, k0 + t] = {
                tuple((kind, r, col, p + t) for kind, r, col, p in word): c
                for word, c in wm.items()}
    for slot, wm in entry["cells"].items():
        for word, c in wm.items():
            accumulate(out.setdefault(slot, {}), word, c)
    return {s: d for s, d in out.items() if d}


# -- brute-force oracle -------------------------------------------------------
#
# A two-variable polynomial p(z1, z2) times the double current series
# X(z1) Y(z2) = sum X[m'] Y[k'] z1^-m' z2^-k' is expanded literally and the
# coefficient of z1^-m z2^-k collected; written independently of the
# package's emission code.

def series_slot_oracle(poly: RatExpr, word_order, window, m, k):
    out = {}
    lim = window.N
    for mono, c in poly.num.items():
        d = dict(mono_items(mono))
        a = d.pop(5, 0)   # z1 has variable index 5
        b = d.pop(6, 0)   # z2 has variable index 6
        rest = RatExpr({mono_from_pairs(d.items()): c}, poly.den)
        for mp in range(-lim, lim + 1):
            for kp in range(-lim, lim + 1):
                if a - mp == -m and b - kp == -k:
                    key = ((word_order[0], mp if word_order[0][1] == "z1"
                            else kp),
                           (word_order[1], mp if word_order[1][1] == "z1"
                            else kp))
                    key = tuple((sym, mode) for (sym, _), mode in key)
                    cur = out.get(key)
                    out[key] = rest if cur is None else cur + rest
    return {w: c for w, c in out.items() if not c.is_zero()}


def test_phi_phi_slots_match_series_oracle():
    rs = _rs()
    w = SeriesWindow(4, 1)
    entry = mode_expand_relation(rs, "PhiPhi", w)[0]
    slots = slot_maps(entry, w)
    assert RatExpr(entry["clearing_factor"]) == parse_expr("q^2*z1 - z2") \
        or RatExpr(entry["clearing_factor"]) == parse_expr("z2 - q^2*z1")
    # oracle polynomials: clearing factor times each side's coefficient
    lhs_poly = parse_expr("(x - q^2)/(x*q^2 - 1)").subs_monomial(
        {X: mono(z1=1, z2=-1)}) * RatExpr(entry["clearing_factor"])
    rhs_poly = RatExpr(entry["clearing_factor"])
    for (m, k) in [(0, 0), (1, -1), (-2, 3), (2, 2)]:
        got = slots.get((m, k), {})
        want = series_slot_oracle(lhs_poly, (("X", "z1"), ("X", "z2")),
                                  w, m, k)
        rhs = series_slot_oracle(rhs_poly, (("X", "z2"), ("X", "z1")),
                                 w, m, k)
        for word, c in rhs.items():
            cur = want.get(word)
            want[word] = -c if cur is None else cur - c
        want = {w2: c for w2, c in want.items() if not c.is_zero()}
        got_erased = {tuple(("X", p) for (_k, _r, _c, p) in w2): c
                      for w2, c in got.items()}
        assert got_erased == want, (m, k)


def test_identity_instance_modes_commute():
    rs = _rs("identity", "particle")
    w = SeriesWindow(3, 1)
    for entry in mode_expand_relation(rs, "PhiPhi", w):
        i, j = entry["indices"]
        for (m, k), wm in slot_maps(entry, w).items():
            assert len(wm) == 2
            a = wm.get(((PHI, i, 0, m), (PHI, j, 0, k)))
            b = wm.get(((PHI, j, 0, k), (PHI, i, 0, m)))
            if i == j and m == k:
                assert a is None and b is None  # identical words cancel
            else:
                assert a == RatExpr.from_int(1)
                assert b == RatExpr.from_int(-1)


def test_cross_bracket_modes_scalar():
    rs = _rs()
    w = SeriesWindow(3, 1)
    slots = slot_maps(mode_expand_relation(rs, "PhiPhistar", w)[0], w)
    # (q - q^-1) [Phi_m, Phistar_k] = q^((m-k)c/2) lstar[m+k]
    #                                 - q^((k-m)c/2) l[m+k];
    # the clearing factor is q^2 - 1, leaving the bracket side scaled by
    # q^2 - 1 and the single-mode side by q
    q = parse_expr("q")
    for (m, k) in [(0, 0), (1, 0), (-1, 2)]:
        wm = slots[(m, k)]
        assert wm[((PHI, 1, 0, m), (PHISTAR, 1, 0, k))] == \
            parse_expr("q^2 - 1")
        assert wm[((PHISTAR, 1, 0, k), (PHI, 1, 0, m))] == \
            parse_expr("1 - q^2")
        assert wm[((LSTAR, 1, 1, m + k),)] == \
            -(RatExpr.var("u1", m - k) * q)
        assert wm[((L, 1, 1, m + k),)] == RatExpr.var("u1", k - m) * q


def test_mode_consistency_example1():
    rep = check_mode_consistency(_rs(), SeriesWindow(5, 1))
    assert rep["consistent"]


def test_mode_consistency_example2_n2():
    rep = check_mode_consistency(_rs("example2-n2", "extended"),
                                 SeriesWindow(4, 1))
    assert rep["consistent"]


def test_mode_consistency_flags_literal_ll_star():
    rs = _rs(toggles=Toggles.from_dict({"ll-star": "literal"}))
    rep = check_mode_consistency(rs, SeriesWindow(4, 1))
    assert not rep["consistent"]
    bad = [r["relation"] for r in rep["relations"] if not r["consistent"]]
    assert bad == ["LLstar"]


def test_triangularity_flags():
    assert mode_allowed(L, 1, 1, 0) and mode_allowed(L, 2, 1, 0)
    assert not mode_allowed(L, 1, 2, 0)
    assert not mode_allowed(L, 1, 1, -1)
    assert mode_allowed(LSTAR, 1, 2, 0) and not mode_allowed(LSTAR, 2, 1, 0)
    assert mode_allowed(LSTAR, 1, 1, -3) and not mode_allowed(LSTAR, 1, 1, 2)
    assert mode_allowed(PHI, 1, 0, -7) and mode_allowed(PHISTAR, 1, 0, 7)


def test_truncated_delta_substitution_in_guard_band():
    # coefficients of f(z1) delta(z1/z2) and f(z2) delta(z1/z2) agree for
    # |n| <= N - deg f when delta is truncated at |nu| <= N
    N = 6
    f = {1: 1, 0: -3}  # f(t) = t - 3
    lhs = {}
    rhs = {}
    for nu in range(-N, N + 1):
        for d, c in f.items():
            lhs[(nu + d, -nu)] = lhs.get((nu + d, -nu), 0) + c
            rhs[(nu, d - nu)] = rhs.get((nu, d - nu), 0) + c
    deg = max(f)
    for a in range(-(N - 1 - deg), N - deg):
        for b in range(-(N - 1 - deg), N - deg):
            assert lhs.get((a, b), 0) == rhs.get((a, b), 0)
    # and they genuinely differ at the truncation edge
    assert any(lhs.get(k, 0) != rhs.get(k, 0)
               for k in set(lhs) | set(rhs))


def test_window_validation():
    with pytest.raises(DomainError):
        SeriesWindow(1, 1)
    with pytest.raises(DomainError):
        SeriesWindow(3, -1)


def test_reference_file_parses():
    refs = load_reference_relations()
    assert set(refs) == {"xplus", "xminus"}
    lhs, rhs = refs["xplus"]
    assert lhs == parse_expr("z1 - q^2*z2")
    assert rhs == parse_expr("q^2*z1 - z2")


def test_drinfeld_compare_windows():
    R = get_instance("example1")
    assert drinfeld_compare(SeriesWindow(5, 1), R)["match"]
    assert drinfeld_compare(SeriesWindow(2, 1), R)["match"]


def test_drinfeld_compare_q_cubed_control():
    Rq3 = RMatrix(1, "x",
                  {(1, 1, 1, 1): parse_expr("(x - q^6)/(x*q^6 - 1)")})
    rep = drinfeld_compare(SeriesWindow(5, 1), Rq3)
    assert not rep["match"]


# The full ``drinfeld_compare`` results, taken before the comparison keyed
# its words by mode tuples: the q^6 control of the benchmark (which pins
# only a digest of it), a q^4 control, and example1 at window 8.  Every
# slot of a control's window mismatches.  R = (x - 2 q^2)/(x q^2 - 2),
# taken before the comparison decided one slot per diagonal, matches on
# the diagonal m = k alone, so its verdict is not the same at every slot.

def _compare_result(lim: int, bad) -> dict:
    """The report of a window -lim..lim in which the slots (m, k) with
    ``bad(m, k)`` mismatch on both rows."""
    span = range(-lim, lim + 1)
    slots = [(m, k) for m in span for k in span if bad(m, k)]
    return {"pairs": [{"relation": rid, "reference": ref,
                       "slots": len(span) ** 2, "mismatched_slots": slots}
                      for rid, ref in (("PhiPhi", "xplus"),
                                       ("PhistarPhistar", "xminus"))],
            "match": not slots}


def _q_power_matrix(k: int) -> RMatrix:
    return RMatrix(1, "x", {(1, 1, 1, 1):
                            parse_expr(f"(x - q^{k})/(x*q^{k} - 1)")})


_DIAGONAL_MATCH = RMatrix(1, "x", {(1, 1, 1, 1):
                                 parse_expr("(x - 2*q^2)/(x*q^2 - 2)")})


@pytest.mark.parametrize("R, window, want", [
    pytest.param(_q_power_matrix(6), (5, 1),
                 _compare_result(4, lambda m, k: True), id="q6-w5-1"),
    pytest.param(_q_power_matrix(4), (4, 1),
                 _compare_result(3, lambda m, k: True), id="q4-w4-1"),
    pytest.param(get_instance("example1"), (8, 1),
                 _compare_result(7, lambda m, k: False), id="example1-w8-1"),
    pytest.param(_DIAGONAL_MATCH, (5, 1), _compare_result(4, int.__ne__),
                 id="diagonal-match-w5-1"),
    pytest.param(_DIAGONAL_MATCH, (3, 0), _compare_result(3, int.__ne__),
                 id="diagonal-match-w3-0"),
])
def test_drinfeld_compare_results_are_pinned(R, window, want):
    assert drinfeld_compare(SeriesWindow(*window), R) == want


def test_drinfeld_compare_rejects_matrix_instance():
    with pytest.raises(DomainError):
        drinfeld_compare(SeriesWindow(3, 1), get_instance("example2-n2"))


# -- every drinfeld_compare verdict against a per-slot comparison -----------
#
# ``drinfeld_compare`` decides each diagonal m - k at its first slot.  The
# oracle decides every slot: the engine maps of ``mode_expand_relation``
# expanded to every slot (``slot_maps``), the reference emitted slot by
# slot here, and a cross-multiplication with no memo.  (x - 2 q^2)/(x q^2
# - 2) matches on m = k alone, so a verdict read off another slot's map,
# or off another line of slots, fails it.

_SCALAR_GRID = {
    "example1": get_instance("example1"),
    "q4": _q_power_matrix(4),
    "q6": _q_power_matrix(6),
    "diagonal-match": _DIAGONAL_MATCH,
    **{name: RMatrix(1, "x", {(1, 1, 1, 1): parse_expr(text)})
       for name, text in (("pole-at-minus", "(3*x - q^2)/(q^2*x + 1)"),
                          ("content-2", "(x - q^2)/(2*x*q^2 - 2)"),
                          ("one", "1"), ("x", "x"))},
}


def _reference_at(pair: tuple, m: int, k: int) -> dict:
    """lhs(z1,z2) X(z1) X(z2) - rhs(z1,z2) X(z2) X(z1) at slot (m, k): a
    term c z1^a z2^b gives the modes (m + a, k + b), in the order of the
    generators' variables."""
    out: dict = {}
    lhs, rhs = pair
    for a, b, c in _split_z(lhs):
        accumulate(out, (m + a, k + b), c)
    for a, b, c in _split_z(rhs):
        accumulate(out, (k + b, m + a), -c)
    return out


def _proportional_at(em: dict, rm: dict) -> bool:
    if em.keys() != rm.keys():
        return False
    words = sorted(em)
    return all(em[w] * rm[words[0]] == rm[w] * em[words[0]] for w in words)


def _per_slot_compare(window: SeriesWindow, R: RMatrix) -> dict:
    rs = RewriteSystem(R, "double")
    refs = load_reference_relations()
    report = {"pairs": [], "match": True}
    for rid, refname in (("PhiPhi", "xplus"), ("PhistarPhistar", "xminus")):
        engine = slot_maps(mode_expand_relation(rs, rid, window)[0],
                           window)
        slots, bad = 0, []
        for m, k in itertools.product(window.span, repeat=2):
            em = {tuple(g[3] for g in w): c
                  for w, c in engine.get((m, k), {}).items()}
            rm = _reference_at(refs[refname], m, k)
            if em or rm:
                slots += 1
                if not _proportional_at(em, rm):
                    bad.append((m, k))
        report["pairs"].append({"relation": rid, "reference": refname,
                                "slots": slots, "mismatched_slots": bad})
        report["match"] = report["match"] and not bad
    return report


@pytest.mark.parametrize("window", [(1, 0), (2, 1), (3, 0), (4, 2), (5, 1),
                                    (8, 1), (16, 1), (32, 3)],
                         ids=lambda w: "w%d-%d" % w)
@pytest.mark.parametrize("name", list(_SCALAR_GRID))
def test_drinfeld_compare_matches_per_slot_comparison(name, window):
    w = SeriesWindow(*window)
    R = _SCALAR_GRID[name]
    assert drinfeld_compare(w, R) == _per_slot_compare(w, R)


# ``drinfeld_compare`` reads a diagonal off one slot only because every
# compared term is delta-free and unshifted.  A row with a delta term or a
# q-shifted argument, both of which ``mode_expand_relation`` expands, is
# refused before anything is compared.  The refusal reads the row's terms,
# so a delta term none of whose pieces reaches the window is refused too.

def _shifted_word() -> Element:
    """Phi(z1 q) Phi(z2): mode p of the first generator picks up q^-p."""
    word = (GenOcc(PHI, 1, 0, ArgShift(_Z1, mono(s=2))),
            GenOcc(PHI, 1, 0, ArgShift(_Z2)))
    return Element.word(word, coeff=parse_expr("q"))


@pytest.mark.parametrize("extra", [
    lambda: _term(((PHI, 1, 0, _Z1),), (_D12,)),
    _shifted_word,
    # no piece of it reaches the window: refused by its term alone
    lambda: Element(1, {("", (_D12,), ((),)): parse_expr("z1^100")}),
], ids=["delta", "q-shifted", "delta-outside-the-window"])
def test_drinfeld_compare_refuses_a_row_that_varies_along_a_diagonal(
        extra, monkeypatch):
    def sides(rs, rid):
        for idx, lhs, rhs in relation_sides(rs, rid):
            yield idx, lhs + extra(), rhs

    monkeypatch.setattr(modes, "relation_sides", sides)
    w = SeriesWindow(3, 1)
    rs = RewriteSystem(get_instance("example1"), "double")
    assert slot_maps(mode_expand_relation(rs, "PhiPhi", w)[0], w)
    with pytest.raises(ExpansionError, match="delta or a q-shifted"):
        drinfeld_compare(w, get_instance("example1"))


def test_drinfeld_compare_expands_each_row_once(monkeypatch):
    """One ``drinfeld_compare`` reads its engine side through two calls
    of ``mode_expand_relation``, one per compared row.  The traced pass of
    ``verdictbench/test_bench.py`` reaches ``mode_expand_relation`` only
    through ``drinfeld_compare`` and asserts that its traced call count is
    nonzero, so it relies on this count."""
    calls = []

    def counted(rs, rid, window):
        calls.append(rid)
        return expand(rs, rid, window)

    expand = modes.mode_expand_relation
    monkeypatch.setattr(modes, "mode_expand_relation", counted)
    drinfeld_compare(SeriesWindow(5, 1), _q_power_matrix(6))
    assert calls == ["PhiPhi", "PhistarPhistar"]


# -- per-slot reference for the consistency counts ------------------------------
#
# The former emitter: it builds the word map and the kind sets of every
# window slot.  The counts of ``check_mode_consistency``, read from
# relative pieces at candidate slots only, must equal the counts taken over
# these full maps.  The reference clears with its own ``poly_lcm`` fold and
# splits the cleared coefficients through the constructor, so it shares no
# code with the package's clearing and splitting.

def _split_z(c: RatExpr) -> list:
    """[(alpha, beta, coefficient of z1^alpha z2^beta)] of c."""
    groups = {}
    for m, k in c.num.items():
        d = dict(mono_items(m))
        a, b = d.pop(_Z1, 0), d.pop(_Z2, 0)
        groups.setdefault((a, b), {})[mono_from_pairs(d.items())] = k
    return [(a, b, RatExpr(t, c.den)) for (a, b), t in groups.items()]


def _emit_element(e, window: SeriesWindow, clear: dict,
                  sign: int, out: dict, kindsets: dict):
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
            dchoices = [(nu, RatExpr.from_laurent({mono_pow(d.q, nu): 1}))
                        for nu in range(-window.N, window.N + 1)]
        kinds = tuple(sorted(g.kind for g in word))
        for a, b, sc in _split_z(coeff * cf):
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
                            mult = mult * RatExpr.from_laurent(
                                {mono_pow(g.arg.q, -p): 1})
                    accumulate(out.setdefault((m, k), {}), tuple(wkey), mult)
                    if not deltas:
                        kindsets.setdefault((m, k), set()).add(kinds)


def _apply_triangularity(word_map: dict) -> dict:
    out = {}
    for word, c in word_map.items():
        if all(mode_allowed(k, r, cc, p) for (k, r, cc, p) in word):
            out[word] = c
    return out


def per_slot_counts(lhs, rhs, window):
    """(slots checked, kind mismatches, contradiction slots) over the full
    per-slot maps of lhs = rhs."""
    clear = {mono(): 1}
    for c in [*lhs.terms.values(), *rhs.terms.values()]:
        clear = poly_lcm(clear, c.den)
    slots: dict = {}
    lhs_kinds: dict = {}
    rhs_kinds: dict = {}
    _emit_element(lhs, window, clear, +1, slots, lhs_kinds)
    _emit_element(rhs, window, clear, -1, slots, rhs_kinds)
    slots = {s: d for s, d in slots.items() if d}
    kind_mismatches = 0
    contradictions = []
    slots_checked = 0
    for slot in lhs_kinds:
        slots_checked += 1
        lk = lhs_kinds.get(slot, set())
        rk = rhs_kinds.get(slot, set())
        if lk and rk and lk != rk:
            kind_mismatches += 1
    for slot, wm in slots.items():
        surv = _apply_triangularity(wm)
        if len(surv) == 1:
            word = next(iter(surv))
            if all(k in (L, LSTAR) and p == 0 and r == cc
                   for (k, r, cc, p) in word):
                contradictions.append(slot)
    return slots_checked, kind_mismatches, contradictions


SIXVERTEX_SPEC = (Path(__file__).resolve().parents[1] / "verdictbench"
                  / "sixvertex.rspec")

LITERAL_LL_STAR = Toggles.from_dict({"ll-star": "literal"})

_COUNT_CASES = [
    ("example1", "double", None),
    ("example2-n2", "extended", None),
    ("example2-n2", "extended", LITERAL_LL_STAR),
    ("example2-n2", "double", None),
    ("example2-n2", "double", LITERAL_LL_STAR),
    ("six-vertex", "double", None),
]
_COUNT_IDS = ["example1", "n2-extended", "n2-extended-ll-star-literal",
              "n2-double", "n2-double-ll-star-literal", "six-vertex"]


def _count_param(case, case_id, window):
    return pytest.param(*case, window, id="%s-w%d-%d" % (case_id, *window))


# The six-vertex entries over denominators with integer content 2, 3 and
# 4, which the primitive clearing factor leaves out of the cleared
# coefficients.
CONTENT_SPEC = """n=2; var=x
R[1,1;1,1] = 1/2
R[2,2;2,2] = 1
R[1,2;1,2] = q*(x - 1)/(2*x*q^2 - 2)
R[1,2;2,1] = (q^2 - 1)/(x*q^2 - 1)
R[2,1;2,1] = q*(x - 1)/(4*x*q^2 - 4)
R[2,1;1,2] = x*(q^2 - 1)/(3*x*q^2 - 3)
"""


def _matrix(name):
    if name == "six-vertex":
        return parse_rspec(SIXVERTEX_SPEC.read_text())[0]
    if name == "integer-content":
        return parse_rspec(CONTENT_SPEC)[0]
    if name == "sl3":
        return RMatrix(3, "x", _jimbo_entries(3), name="sl3")
    return get_instance(name)


# -- every slot map against the per-slot emitter ------------------------------
#
# ``mode_expand_relation`` stores one map per diagonal, at its first slot,
# and the cells of its pinned or q-shifted pieces; the emitter above builds
# each slot's word and coefficient from the term itself.  With the entry's
# clearing factor, the per-diagonal form expanded slot by slot
# (``slot_maps``) must give the emitter's map at every slot, for every
# relation of the double flavor: ``PhiPhistar`` carries formal deltas and
# q-shifted arguments, whose cells are added slot by slot, and
# ``ll-star=literal`` toggles the kinds of a side.  Window (1, 0) is the
# smallest, (8, 1) the benchmark's largest, and (16, 1) and (32, 3) are
# wider than any run of the benchmark.  The emitter takes about 1.3 s per
# 2 x 2 matrix at (16, 1) and 5 s at (32, 3), so the wide windows run on
# ``example1`` and, at (16, 1), on the six-vertex matrix, whose every
# relation has off-diagonal words and whose bracket has cells.

def _shift_free(lhs, rhs) -> bool:
    """Whether no term of lhs = rhs has a delta or a q-shifted argument."""
    return not any(deltas or any(g.arg.q for g in legs[0])
                   for _, deltas, legs in [*lhs.terms, *rhs.terms])


@pytest.mark.parametrize("name, toggles, window", [
    pytest.param(name, toggles, window,
                 id="%s-w%d-%d" % (case_id, *window))
    for window in [(3, 1), (5, 2), (1, 0), (8, 1)]
    for name, toggles, case_id in [
        ("example1", None, "example1"),
        ("example2-n2", None, "n2"),
        ("example2-n2", LITERAL_LL_STAR, "n2-ll-star-literal"),
        ("six-vertex", None, "six-vertex"),
        ("integer-content", None, "integer-content"),
    ]
] + [
    pytest.param(name, None, window, id="%s-w%d-%d" % (name, *window))
    for name, window in [("example1", (16, 1)), ("six-vertex", (16, 1)),
                         ("example1", (32, 3))]
])
def test_slot_maps_match_per_slot_emitter(name, toggles, window):
    rs = RewriteSystem(_matrix(name), "double", toggles)
    w = SeriesWindow(*window)
    for rid in FLAVOR_RELATIONS["double"]:
        entries = mode_expand_relation(rs, rid, w)
        for entry, (idx, lhs, rhs) in zip(entries, relation_sides(rs, rid),
                                          strict=True):
            want: dict = {}
            _emit_element(lhs, w, entry["clearing_factor"], +1, want, {})
            _emit_element(rhs, w, entry["clearing_factor"], -1, want, {})
            assert entry["indices"] == idx
            assert slot_maps(entry, w) == \
                {s: d for s, d in want.items() if d}, (rid, idx)
            assert entry["shift_free"] == _shift_free(lhs, rhs), (rid, idx)
            assert not (entry["shift_free"] and entry["cells"]), (rid, idx)


# A scalar exchange row holds one map per diagonal, 4 lim + 1 at most, and
# no cell: nothing is copied along a diagonal, so the row's size grows with
# the window's width, not with its area (225 slot maps at window (8, 1) and
# 3,969 at (32, 1) when every slot held its own).

@pytest.mark.parametrize("window", [(8, 1), (32, 1)],
                         ids=lambda w: "w%d-%d" % w)
def test_exchange_row_holds_one_map_per_diagonal(window):
    w = SeriesWindow(*window)
    entries = mode_expand_relation(_rs(), "PhiPhi", w)
    maps = sum(len(e["diagonals"]) + len(e["cells"]) for e in entries)
    assert 0 < maps <= 4 * w.lim + 1


@pytest.mark.parametrize("name, flavor, toggles, window", [
    _count_param(case, case_id, window)
    for window in [(3, 1), (4, 1), (5, 2)]
    for case, case_id in zip(_COUNT_CASES, _COUNT_IDS)
] + [
    _count_param(("sl3", "double", None), "sl3", (3, 1)),
    _count_param(("sl3", "double", LITERAL_LL_STAR), "sl3-ll-star-literal",
                 (3, 1)),
    _count_param(_COUNT_CASES[0], "example1", (8, 1)),
    _count_param(_COUNT_CASES[5], "six-vertex", (6, 2)),
    _count_param(("integer-content", "double", None), "integer-content",
                 (3, 1)),
    _count_param(("integer-content", "double", LITERAL_LL_STAR),
                 "integer-content-ll-star-literal", (3, 1)),
])
def test_consistency_counts_match_per_slot_expansion(name, flavor, toggles,
                                                     window):
    rs = RewriteSystem(_matrix(name), flavor, toggles)
    w = SeriesWindow(*window)
    rep = check_mode_consistency(rs, w)
    for row in rep["relations"]:
        want = [0, 0, 0]
        for _, lhs, rhs in relation_sides(rs, row["relation"]):
            checked, mismatched, bad = per_slot_counts(lhs, rhs, w)
            want[0] += checked
            want[1] += mismatched
            want[2] += len(bad)
        got = [row["slots_checked"], row["kind_mismatches"],
               row["contradictions"]]
        assert got == want, row["relation"]


# -- pinned consistency rows --------------------------------------------------
#
# The byte-stable ``verify-modes`` report records only pass or fail and the
# failing relations, so its digests cannot tell counts apart.  These are
# the full rows of ``check_mode_consistency`` (relation, current_level_zero,
# slots_checked, kind_mismatches, contradictions, consistent) for the
# inputs of the benchmark's ``verify-modes`` verdicts and two more, taken
# before the mode tables went in; the flavor is the CLI's default, double.

_DOUBLE_RELATIONS = ("PhiPhi", "PhiL", "LL", "LstarLstar", "LLstar",
                     "PhistarPhistar", "PhistarLstar", "PhiPhistar",
                     "PhistarL", "PhiLstar")


def _rows(*counts, mismatched=()):
    """The rows of the double flavor's relations, in report order, with
    these slot counts, every current residual zero, no contradiction, and
    kind mismatches on every slot of the relations named in
    ``mismatched``."""
    return [(rid, True, n, n if rid in mismatched else 0, 0,
             rid not in mismatched)
            for rid, n in zip(_DOUBLE_RELATIONS, counts, strict=True)]


_PINNED_ROWS = {
    ("example1", None, 5, 1): _rows(*[81] * 10),
    ("example1", None, 8, 1): _rows(*[225] * 10),
    ("example1", None, 5, 2): _rows(*[49] * 10),
    ("example2-n2", None, 5, 1): _rows(
        324, 648, 1296, 1296, 1296, 324, 648, 324, 648, 648),
    ("example2-n2", "ll-star=literal", 5, 1): _rows(
        324, 648, 1296, 1296, 1296, 324, 648, 324, 648, 648,
        mismatched=("LLstar",)),
    ("example2-n3", None, 5, 1): _rows(
        729, 2187, 6561, 6561, 6561, 729, 2187, 729, 2187, 2187),
}


@pytest.mark.parametrize("name, toggle, n, margin", list(_PINNED_ROWS))
def test_consistency_rows_are_pinned(name, toggle, n, margin):
    toggles = Toggles.from_dict(dict([toggle.split("=")])) if toggle else None
    rep = check_mode_consistency(RewriteSystem(get_instance(name), "double",
                                               toggles),
                                 SeriesWindow(n, margin))
    rows = [tuple(row.values()) for row in rep["relations"]]
    assert rows == _PINNED_ROWS[name, toggle, n, margin]
    assert rep["consistent"] == all(row[-1] for row in rows)


# -- the run-scoped shape table against the uncached expansion ---------------
#
# A table that stores nothing makes every lookup of ``_shapes`` miss, so
# the same code computes each piece from its own coefficient.  One warm
# pass over several systems and windows, with the table kept throughout,
# must give the same pieces: a key that left out the window, the side's
# sign, the clearing factor, the delta's q-power or the carried variables
# would hand a piece a shape made for another.  No relation of the built-in
# flavors has two terms that differ in the delta's q-power alone, or in
# the carried variables alone, so a hand-built entry has both.

class _Forgetful(dict):
    """A memo table that keeps nothing."""

    def __setitem__(self, key, value):
        pass


def _delta_side(coeff: str) -> Element:
    """coeff * (delta(z1/z2) L[1,1](z1) + delta(q z1/z2) L[1,1](z1)
    + delta(q z1/z2) L[1,1](z2)): one coefficient, two delta q-powers and
    two carried variables."""
    out = Element(1)
    for var, dq in ((_Z1, mono()), (_Z1, mono(s=2)), (_Z2, mono(s=2))):
        out = out + Element.word((GenOcc(L, 1, 1, ArgShift(var)),),
                                 coeff=parse_expr(coeff),
                                 deltas=(DeltaFactor(_Z1, _Z2, dq),))
    return out


def _entries(rs: RewriteSystem) -> list:
    return [(lhs, rhs) for rid in FLAVOR_RELATIONS[rs.flavor]
            for _, lhs, rhs in relation_sides(rs, rid)]


def _piece_rows(entries: list, window: SeriesWindow) -> list:
    rows = []
    for lhs, rhs in entries:
        _, pieces = modes._expand(modes._read(lhs)[0],
                                  modes._read(rhs)[0], window)
        rows.append([(gens, shifts, shape.exps, shape.reach, shape.coeff)
                     for gens, shifts, shape in pieces])
    return rows


def test_memoized_pieces_equal_uncached_ones(monkeypatch):
    inputs = [_entries(RewriteSystem(_matrix(name), "double", toggles))
              for name, toggles in (("example2-n2", None),
                                    ("example2-n2", LITERAL_LL_STAR),
                                    ("six-vertex", None),
                                    ("integer-content", None))]
    inputs.append([(_delta_side("z1 - q*z2"), _delta_side("q - 1"))])
    windows = [SeriesWindow(3, 1), SeriesWindow(5, 2)]
    monkeypatch.setattr(modes, "_SHAPES", _Forgetful())
    uncached = [_piece_rows(entries, w) for entries in inputs for w in windows]
    monkeypatch.setattr(modes, "_SHAPES", {})
    warm = [_piece_rows(entries, w) for entries in inputs for w in windows]
    assert warm == uncached
    # the tables were read: far fewer shapes were made than pieces
    assert 0 < len(modes._SHAPES) < sum(map(len, itertools.chain(*warm))) / 4


# Every delta-free term of a relation side is a word of one generator over
# z1 and one over z2, so each of its pieces reaches the whole window and a
# side has one kind set (``mode_counts``).  Checked on the relation sides
# of every built-in instance and of the six-vertex matrix, under each
# flavor, with no toggle and with each literal toggle.

@pytest.mark.parametrize("name", [*INSTANCE_NAMES, "six-vertex"])
def test_delta_free_relation_words_carry_z1_and_z2(name):
    for flavor, toggle in itertools.product(
            ("particle", "extended", "double"), (None, *TOGGLE_NAMES)):
        toggles = Toggles.from_dict({toggle: "literal"}) if toggle else None
        rs = RewriteSystem(_matrix(name), flavor, toggles)
        for rid in FLAVOR_RELATIONS[flavor]:
            for idx, lhs, rhs in relation_sides(rs, rid):
                for (_, deltas, legs) in [*lhs.terms, *rhs.terms]:
                    if not deltas:
                        assert sorted(g.arg.var for g in legs[0]) == \
                            [_Z1, _Z2], (flavor, toggle, rid, idx)


# ``mode_counts`` reads each side once, and that scan gives its terms, its
# kind set and whether it has a diagonal L/Lstar word.  The reference below
# reads the terms, then scans them again for each of the other two, as
# ``mode_counts`` did before; both must give the same counts on every
# relation entry.

def _three_scan_counts(lhs, rhs, window: SeriesWindow) -> tuple:
    lterms, rterms = modes._read(lhs)[0], modes._read(rhs)[0]
    lk, rk = ({tuple(sorted(g.kind for g in word))
               for word, _, dq, _ in terms if dq is None}
              for terms in (lterms, rterms))
    checked = len(window.span) ** 2 if lk else 0
    mismatches = checked if rk and lk != rk else 0
    if not any(all(g.kind in (L, LSTAR) and g.row == g.col for g in word)
               for word, _, _, _ in lterms + rterms):
        return checked, mismatches, 0
    _, pieces = modes._expand(lterms, rterms, window)
    return checked, mismatches, modes._contradictions(pieces, window)


@pytest.mark.parametrize("name", [*INSTANCE_NAMES, "six-vertex"])
def test_one_scan_counts_match_three_scans(name):
    w = SeriesWindow(5, 1)
    for flavor, toggle in itertools.product(
            ("particle", "extended", "double"), (None, *TOGGLE_NAMES)):
        toggles = Toggles.from_dict({toggle: "literal"}) if toggle else None
        rs = RewriteSystem(_matrix(name), flavor, toggles)
        for rid in FLAVOR_RELATIONS[flavor]:
            for idx, lhs, rhs in relation_sides(rs, rid):
                assert mode_counts(lhs, rhs, w) == \
                    _three_scan_counts(lhs, rhs, w), (flavor, toggle, rid, idx)


def _side(*terms):
    """The sum of coefficient * word over (coefficient text, generators)
    terms, a generator (kind, row, col, spectral variable)."""
    out = Element(1)
    for coeff, gens in terms:
        out = out + Element.word(
            tuple(GenOcc(k, r, c, ArgShift(v)) for k, r, c, v in gens),
            coeff=parse_expr(coeff))
    return out


def _term(gens, deltas=(), flag=""):
    """q * the word of (kind, row, col, spectral variable) generators, as
    a one-term side with the given deltas and flag."""
    word = tuple(GenOcc(k, r, c, ArgShift(v)) for k, r, c, v in gens)
    return Element(1, {(flag, deltas, (word,)): parse_expr("q")})


_BOTH = ((L, 1, 1, _Z1), (LSTAR, 1, 1, _Z2))  # reaches the whole window


def _off(gens: tuple) -> tuple:
    """The generators with L[1,1] made L[1,2] and Lstar[1,1] Lstar[2,1]:
    no word of them is diagonal, so an entry of them only reaches the
    early return of ``mode_counts``."""
    return tuple((k, *{L: (1, 2), LSTAR: (2, 1)}[k], v) for k, _, _, v in gens)


# Each refusal is checked beside a diagonal companion, which sends the
# entry on to the expansion, and beside an off-diagonal one with the bad
# term off-diagonal too, which shows that the refusal fires before the
# early return for an entry that cannot hold a contradiction.
_VARIANTS = (lambda gens: gens, _off)


@pytest.mark.parametrize("word", [
    ((LSTAR, 1, 1, _Z2),),  # no z1: it would reach one row
    ((L, 1, 1, _Z1),),  # no z2: one column
    (),  # neither: one cell
    ((L, 1, 1, _Z1), (LSTAR, 1, 1, _Z3)),  # z3 has no slot coordinate
], ids=["row", "column", "cell", "z3"])
def test_delta_free_word_without_z1_and_z2_is_refused(word):
    w = SeriesWindow(4, 1)
    for gens in _VARIANTS:
        lhs = _side(("1", gens(_BOTH)), ("z1", gens(word)))
        rhs = _side(("q", gens(_BOTH)))
        with pytest.raises(ExpansionError):
            mode_counts(lhs, rhs, w)
        with pytest.raises(ExpansionError):
            mode_counts(rhs, lhs, w)


def test_generator_outside_z1_and_z2_is_refused():
    """A generator over z3 has no slot coordinate, with a delta too."""
    for gens in _VARIANTS:
        side = _side(("1", gens(_BOTH))) + _term(
            gens(((L, 1, 1, _Z3),)), (DeltaFactor(_Z1, _Z2, mono()),))
        with pytest.raises(ExpansionError, match="generator outside"):
            mode_counts(side, _side(("1", gens(_BOTH))), SeriesWindow(3, 1))


_D12 = DeltaFactor(_Z1, _Z2, mono())


# Each term passes every other refusal of ``_read``, so each case needs
# its own, and the message tells which one fired.
@pytest.mark.parametrize("word, deltas, flag, message", [
    (_BOTH, (), FLAG_CONTRADICTORY, "flagged"),
    (_BOTH[:1], (_D12, DeltaFactor(_Z1, _Z2, mono(s=2))), "",
     "multiple formal deltas"),
    (((L, 1, 1, _Z1), (LSTAR, 1, 1, _Z1)), (_D12,), "",
     "share a spectral variable"),
    (_BOTH[:1], (DeltaFactor(_Z1, _Z3, mono()),), "",
     "delta outside the template variables"),
], ids=["flagged", "two-deltas", "shared-variable", "delta-over-z3"])
def test_unexpandable_term_is_refused(word, deltas, flag, message):
    w = SeriesWindow(3, 1)
    for gens in _VARIANTS:
        lhs = _side(("1", gens(_BOTH))) + _term(gens(word), deltas, flag)
        rhs = _side(("q", gens(_BOTH)))
        with pytest.raises(ExpansionError, match=message):
            mode_counts(lhs, rhs, w)
        with pytest.raises(ExpansionError, match=message):
            mode_counts(rhs, lhs, w)


def _zero_mode_word(text: str) -> Element:
    """zero * L[1,1](z1) LStar[1,1](z2) + off * L[1,2](z1) LStar[2,1](z2)
    for ``text`` "zero" or "zero | off"."""
    zero, _, off = text.partition("|")
    return _side((zero, _BOTH), (off or "0", _off(_BOTH)))


@pytest.mark.parametrize("lhs, rhs, slots", [
    ("1", "0", [(0, 0)]),
    ("z1^2/z2", "0", [(-2, 1)]),
    # at (0, 0) the word with L mode 1 survives too; at (-1, 0) only the
    # zero-mode word does
    ("1 + z1", "0", [(-1, 0)]),
    ("z1", "q*z1", [(-1, 0)]),
    ("z1", "z1", []),
    ("z1^4", "0", []),  # its zero-mode slot (-4, 0) is outside the window
    ("0 | 1", "1", [(0, 0)]),  # the zero-mode word only on the rhs
    # beside an off-diagonal word, whose L[1,2] zero mode triangularity
    # drops
    ("1 | 1", "0", [(0, 0)]),
])
def test_zero_mode_contradictions(lhs, rhs, slots):
    lhs, rhs = _zero_mode_word(lhs), _zero_mode_word(rhs)
    w = SeriesWindow(4, 1)
    checked, mismatched, bad = per_slot_counts(lhs, rhs, w)
    assert (checked, mismatched, bad) == (49, 0, slots)
    assert mode_counts(lhs, rhs, w) == (checked, mismatched, len(bad))


# Only an entry with a term of diagonal L/Lstar generators can hold a
# contradiction, so only those are expanded by ``mode_counts``; their
# number on the double flavor depends neither on the window nor on the
# instance's coefficients.
@pytest.mark.parametrize("name, expanded", [
    ("example1", 4), ("example2-n2", 14), ("example2-n3", 30)])
def test_only_entries_with_diagonal_words_are_expanded(name, expanded,
                                                       monkeypatch):
    calls = []

    def counted(lterms, rterms, window):
        calls.append(None)
        return expand(lterms, rterms, window)

    expand = modes._expand
    monkeypatch.setattr(modes, "_expand", counted)
    rep = check_mode_consistency(_rs(name), SeriesWindow(5, 1))
    assert len(calls) == expanded
    assert rep["consistent"]
