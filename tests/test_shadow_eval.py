"""Shadow evaluation of the field's memos on live traffic.

The product, sum and substitution memos answer a repeated operation with
a result stored earlier, so a wrong hit returns a valid canonical value
that is the wrong one; drawn inputs seldom repeat an operation, so the
field oracles meet few hits.  Here every distinct product, sum and
substitution of full ``verify-hopf`` runs is recorded, hits included, and
checked at two fixed rational points with ``fractions.Fraction``: ev(a)
ev(b) = ev(a b), the sum of the ev(a_i) is ev(sum a_i), and the image of
a under a monomial map, evaluated at a point, is a evaluated at the
point with each substituted variable set to its image's value there.  A
point is skipped only where a denominator evaluates to exactly 0.
Monomials are decoded here, from the packed layout alone, not through
``symfield``.  The memos' results are also checked to be the shared value
objects they stand for."""

import sys
from fractions import Fraction
from pathlib import Path

import pytest

from rhopf import expr, symfield
from rhopf.cli import main
from rhopf.errors import DomainError
from rhopf.symfield import RatExpr

SIXVERTEX_SPEC = str(Path(__file__).resolve().parents[1] / "verdictbench"
                     / "sixvertex.rspec")

# the packed layout: one 32-bit field per variable of ``symfield.VARS``,
# field v holding the exponent of variable v plus 2^30
_BITS = 32
_BIAS = 1 << 30
_MASK = (1 << _BITS) - 1
_NVARS = len(symfield.VARS)
_OFFSET = sum(_BIAS << (_BITS * v) for v in range(_NVARS))


def _exponents(m: int) -> list:
    b = m + _OFFSET
    return [(b >> (_BITS * v) & _MASK) - _BIAS for v in range(_NVARS)]


# two points with no variable at 0 (a Laurent monomial divides by it)
_POINTS = (tuple(Fraction(v + 2, 2 * v + 3) for v in range(_NVARS)),
           tuple(Fraction(-(3 * v + 5), v + 7) for v in range(_NVARS)))


class _Evaluator:
    """Values of term maps at one point, memoized per monomial and per
    term-map object (the records keep every object alive)."""

    def __init__(self, point):
        self.point = point
        self.monos = {}
        self.maps = {}

    def mono(self, m: int) -> Fraction:
        val = self.monos.get(m)
        if val is None:
            val = Fraction(1)
            for x, e in zip(self.point, _exponents(m)):
                if e:
                    val *= x ** e
            self.monos[m] = val
        return val

    def terms(self, t: dict) -> Fraction:
        val = self.maps.get(id(t))
        if val is None:
            val = self.maps[id(t)] = sum(
                (c * self.mono(m) for m, c in t.items()), Fraction(0))
        return val

    def __call__(self, x):
        """x's value, or None where its denominator is 0."""
        if isinstance(x, int):
            return Fraction(x)
        den = self.terms(x.den)
        return None if den == 0 else self.terms(x.num) / den


def _record(monkeypatch):
    """Patch products, sums and substitutions to record (operation,
    operands, result) once per distinct triple of objects, a
    substitution's operands being its value and the (variable, monomial)
    items of its map; returns the record list and the per-kind call
    counts."""
    records, seen = [], set()
    calls = {"mul": 0, "sum": 0, "subs": 0}

    def keep(op, operands, out):
        calls[op] += 1
        key = (op, tuple(x if isinstance(x, tuple) else id(x)
                         for x in operands), id(out))
        if key not in seen:
            seen.add(key)
            records.append((op, operands, out))

    mul = RatExpr.__mul__

    def recorded_mul(self, other):
        out = mul(self, other)
        keep("mul", (self, other), out)
        return out

    sum_fractions = symfield.sum_fractions

    def recorded_sum(coeffs):
        out = sum_fractions(coeffs)
        keep("sum", tuple(coeffs), out)
        return out

    subs = RatExpr.subs_monomial

    def recorded_subs(self, smap):
        out = subs(self, smap)
        keep("subs", (self, tuple(smap.items())), out)
        return out

    monkeypatch.setattr(RatExpr, "__mul__", recorded_mul)
    monkeypatch.setattr(RatExpr, "__rmul__", recorded_mul)
    monkeypatch.setattr(RatExpr, "subs_monomial", recorded_subs)
    for name, mod in list(sys.modules.items()):
        if name.startswith("rhopf") and \
                vars(mod).get("sum_fractions") is sum_fractions:
            monkeypatch.setattr(mod, "sum_fractions", recorded_sum)
    return records, calls


def _violations(records) -> tuple:
    """(the records whose identity fails at a point, the number of checks
    made)."""
    evs = [_Evaluator(point) for point in _POINTS]
    pushed = {}

    def at_image(ev, items):
        """The evaluator at ev's point with each variable of the map
        ``items`` set to the value of its image there."""
        key = (id(ev), items)
        if key not in pushed:
            point = list(ev.point)
            for v, image in items:
                point[v] = ev.mono(image)
            pushed[key] = _Evaluator(tuple(point))
        return pushed[key]

    bad, checked = [], 0
    for op, operands, out in records:
        for ev in evs:
            if op == "subs":
                x, items = operands
                vals = [at_image(ev, items)(x)]
            else:
                vals = [ev(x) for x in operands]
            got = ev(out)
            if got is None or None in vals:
                continue
            checked += 1
            want = vals[0] * vals[1] if op == "mul" else sum(vals)
            if want != got:
                bad.append((op, operands, out))
                break
    return bad, checked


def test_evaluator_decodes_the_packed_layout():
    m = symfield.mono(s=-3, u2=2, x=1, w=-1)
    exps = _exponents(m)
    assert exps[symfield.S] == -3 and exps[symfield.U[1]] == 2
    assert exps[symfield.X] == 1 and exps[symfield.W] == -1
    assert sum(map(abs, exps)) == 7
    ev = _Evaluator(_POINTS[0])
    p = _POINTS[0]
    assert ev.mono(m) == (p[symfield.S] ** -3 * p[symfield.U[1]] ** 2
                          * p[symfield.X] / p[symfield.W])
    assert ev(RatExpr({m: 2}, {0: 1, symfield.mono(x=1): -1})) == \
        2 * ev.mono(m) / (1 - p[symfield.X])


def test_memo_results_agree_with_shadow_evaluation(monkeypatch, tmp_path):
    """Every product, sum and substitution of six-vertex ``verify-hopf``
    (corrected and with the literal L/L* exchange) and of example2-n3
    evaluates correctly, and the memos answered many of them.  Some value
    is substituted under more than one map, so a memo keyed by the value
    alone would return a wrong image."""
    records, calls = _record(monkeypatch)
    misses = {"mul": 0, "sum": 0, "subs": 0}
    for argv, code in (
            (["--spec", SIXVERTEX_SPEC], 0),
            (["--spec", SIXVERTEX_SPEC, "--toggle", "ll-star=literal"], 1),
            (["--instance", "example2-n3"], 0)):
        assert main(["verify-hopf", *argv,
                     "--out", str(tmp_path / "r.json")]) == code
        misses["mul"] += len(symfield._PRODUCTS)
        misses["sum"] += len(symfield._SUMS)
        misses["subs"] += len(symfield._SUBSTS)
    for op in calls:
        assert calls[op] > 2 * misses[op] > 0, op
    maps = {}
    for op, operands, _ in records:
        if op == "subs":
            maps.setdefault(id(operands[0]), set()).add(operands[1])
    assert max(map(len, maps.values())) > 1
    bad, checked = _violations(records)
    assert bad == []
    assert checked > 1.9 * len(records)


def test_memo_results_are_the_shared_values(tmp_path):
    """The memos hold no copies: after six-vertex ``verify-hopf`` with the
    literal L/L* exchange, every product, sum and substitution they hold
    is the value table's one object for its value, and the table holds
    each value once."""
    assert main(["verify-hopf", "--spec", SIXVERTEX_SPEC, "--toggle",
                 "ll-star=literal", "--out", str(tmp_path / "r.json")]) == 1
    results = [*symfield._PRODUCTS.values(), *symfield._SUMS.values(),
               *symfield._SUBSTS.values()]
    assert len(results) > 1000
    for x in results:
        assert RatExpr._canonical(x.num, x.den, x.fac) is x
        bucket = symfield._VALUES[symfield._value_hash(
            x.num, x.den, x.fac is not None)]
        assert sum(y is x for y in bucket) == 1
    for bucket in symfield._VALUES.values():
        for i, x in enumerate(bucket):
            assert not any(x == y and (x.fac is None) == (y.fac is None)
                           for y in bucket[i + 1:])


@pytest.mark.parametrize("op", ["mul", "sum", "subs"])
def test_shadow_evaluation_catches_a_wrong_result(op):
    """The check fails on a record whose stored result is another
    value, as a wrong memo hit would return; for a substitution, also on
    the image under another map."""
    a = RatExpr({symfield.mono(z1=1): 1}, {0: 1, symfield.mono(s=2): 1})
    b = RatExpr({symfield.mono(x=-1): 3})
    if op == "subs":
        smap = {symfield.Z[0]: symfield.mono(z2=1, u1=2),
                symfield.S: symfield.mono(s=-1)}
        operands = (a, tuple(smap.items()))
        right = a.subs_monomial(smap)
        other = a.subs_monomial({symfield.Z[0]: symfield.mono(z2=1)})
    else:
        operands = (a, b)
        right = a * b if op == "mul" else symfield.sum_fractions([a, b])
        other = right + 1
    assert _violations([(op, operands, right)])[0] == []
    wrong = [(op, operands, other)]
    assert _violations(wrong)[0] == wrong


def test_every_refuted_division_is_inexact(monkeypatch, tmp_path):
    """Over six-vertex ``verify-hopf`` with the literal L/L* exchange,
    every division that trial division refutes by its evaluation at the
    primes, without a ``divexact``, is one that ``divexact`` rejects: the
    factor does not divide the quotient left.  (The factors are pairwise
    coprime, so dividing by the others does not change that.)"""
    divexact, trial_cancel = symfield.divexact, symfield._trial_cancel
    tried = []
    refuted = []

    def recorded_divexact(p, d):
        tried.append(d)
        return divexact(p, d)

    def checked_trial(t, fac):
        tried.clear()
        out, cut = trial_cancel(t, fac)
        rest = symfield._strip_mono(out)[1]
        for f, e in fac.items():
            ft = symfield.factor_terms(f)
            if cut.get(f, 0) < e and sum(d is ft for d in tried) == \
                    cut.get(f, 0):
                refuted.append(f)
                with pytest.raises(DomainError):
                    divexact(rest, ft)
        return out, cut

    monkeypatch.setattr(symfield, "divexact", recorded_divexact)
    monkeypatch.setattr(symfield, "_trial_cancel", checked_trial)
    assert main(["verify-hopf", "--spec", SIXVERTEX_SPEC, "--toggle",
                 "ll-star=literal", "--out", str(tmp_path / "r.json")]) == 1
    assert len(refuted) > 1000


def test_memoized_cuts_and_texts_equal_fresh_ones(tmp_path):
    """After six-vertex ``verify-hopf`` with the literal L/L* exchange
    and example2-n3, every trial division that ``_CUTS`` holds equals a
    fresh ``_trial_cancel`` of its operand, found by serial among the
    run's values, and every coefficient text that ``expr._TEXTS`` holds
    equals a fresh formatting of its value."""
    sizes = []
    for argv, code in (
            (["--spec", SIXVERTEX_SPEC, "--toggle", "ll-star=literal"], 1),
            (["--instance", "example2-n3"], 0)):
        assert main(["verify-hopf", *argv,
                     "--out", str(tmp_path / "r.json")]) == code
        values = {x.key: x for bucket in symfield._VALUES.values()
                  for x in bucket}
        for fac, cuts in symfield._CUTS.items():
            for serial, cut in cuts.items():
                assert cut == symfield._trial_cancel(values[serial].num,
                                                     dict(fac))
        for serial, text in expr._TEXTS.items():
            assert text == expr._fraction_text(values[serial])
        sizes.append((sum(map(len, symfield._CUTS.values())),
                      len(expr._TEXTS)))
    assert sizes[0][0] > 500 and sizes[0][1] > 90 and sizes[1][0] > 100
