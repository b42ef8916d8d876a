"""Rewrite engine: rule values against hand-derived forms, normal
ordering, delta handling, termination and idempotence fuzz, braid
probes."""

import random
from pathlib import Path

import pytest

from rhopf import algebra, hopf
from rhopf.algebra import (ArgShift, DeltaFactor, Element, GenOcc, L, LINV,
                           LSTAR, LSTARINV, PHI, PHISTAR, RewriteSystem,
                           VECTOR_KINDS, braid_consistency, delta_normalize,
                           make_delta, normal_order,
                           relation_self_residual, relation_sides,
                           term_measure, FLAVOR_RELATIONS)
from rhopf.cli import main
from rhopf.elemio import parse_element
from rhopf.errors import BudgetError, KindError, RhopfError, ShapeError
from rhopf.expr import parse_expr
from rhopf.instances import get_instance
from rhopf.symfield import (RatExpr, U, X, Z, accumulate, mono,
                            mono_from_pairs, mono_items, q_power)

Z1, Z2, Z3 = Z[0], Z[1], Z[2]
R1 = RatExpr.from_int(1)


def _phi(i, var, q=mono()):
    return GenOcc(PHI, i, 0, ArgShift(var, q))


def _phistar(i, var, q=mono()):
    return GenOcc(PHISTAR, i, 0, ArgShift(var, q))


def _l(i, j, var, q=mono()):
    return GenOcc(L, i, j, ArgShift(var, q))


def _scalar_rs(flavor="double", toggles=None):
    return RewriteSystem(get_instance("example1"), flavor, toggles)


# -- rule values ------------------------------------------------------------

def test_phi_phi_rule_scalar():
    rs = _scalar_rs("particle")
    e = Element.word((_phi(1, Z2), _phi(1, Z1)))
    out = normal_order(e, rs)
    expected = Element.word((_phi(1, Z1), _phi(1, Z2)),
                            coeff=parse_expr("(z1 - q^2*z2)/(q^2*z1 - z2)"))
    assert out == expected


def test_phi_l_rule_scalar():
    rs = _scalar_rs("extended")
    e = Element.word((_phi(1, Z1), _l(1, 1, Z2)))
    out = normal_order(e, rs)
    # oracle: inverse entry at (z1/z2) q^(c/2), built independently;
    # q^(c/2) is the charge variable u1
    coeff = parse_expr("(x*q^2 - 1)/(x - q^2)").subs_monomial(
        {X: mono(z1=1, z2=-1, u1=1)})
    expected = Element.word((_l(1, 1, Z2), _phi(1, Z1)), coeff=coeff)
    assert out == expected


def test_phi_phistar_rule_scalar_delta_terms():
    rs = _scalar_rs("double")
    e = Element.word((_phi(1, Z1), _phistar(1, Z2)))
    out = normal_order(e, rs)
    qf = parse_expr("q/(q^2 - 1)")
    swap = Element.word((_phistar(1, Z2), _phi(1, Z1)))
    d1 = DeltaFactor(Z1, Z2, q_power(0, -2, 0, 0))
    d2 = DeltaFactor(Z1, Z2, q_power(0, 2, 0, 0))
    t1 = Element.word((GenOcc(LSTAR, 1, 1,
                              ArgShift(Z2, q_power(0, 1, 0, 0))),),
                      coeff=qf, deltas=(d1,))
    t2 = Element.word((GenOcc(L, 1, 1, ArgShift(Z1, q_power(0, 1, 0, 0))),),
                      coeff=-qf, deltas=(d2,))
    assert out == swap + t1 + t2


def test_ll_rule_diagonal_component_has_unit_coefficient():
    rs = RewriteSystem(get_instance("example2-n2"), "extended")
    e = Element.word((_l(1, 1, Z2), _l(1, 1, Z1)))
    out = normal_order(e, rs)
    assert out == Element.word((_l(1, 1, Z1), _l(1, 1, Z2)))


def test_kind_error_for_flavor_p():
    rs = _scalar_rs("particle")
    e = Element.word((_phi(1, Z1), _l(1, 1, Z2)))
    with pytest.raises(KindError):
        normal_order(e, rs)


def test_unknown_flavor_and_relation_are_kind_errors():
    with pytest.raises(KindError, match="unknown flavor 'bogus'"):
        RewriteSystem(get_instance("example1"), "bogus")
    rs = _scalar_rs("double")
    with pytest.raises(KindError, match="unknown relation 'Bogus'"):
        next(relation_sides(rs, "Bogus"))


# -- linear structure --------------------------------------------------------

def test_add_shape_error():
    with pytest.raises(ShapeError):
        Element.unit(1) + Element.unit(2)


# -- normal ordering and contraction -----------------------------------------

def test_normal_order_idempotent_on_examples():
    rs = _scalar_rs("double")
    e = Element.word((_phi(1, Z2), _phistar(1, Z1), _l(1, 1, Z1)))
    once = normal_order(e, rs)
    assert normal_order(once, rs) == once


def test_inverse_contraction_n2():
    rs = RewriteSystem(get_instance("example2-n2"), "extended")
    arg = ArgShift(Z1)
    for i in (1, 2):
        for j in (1, 2):
            e = Element.zero()
            for k in (1, 2):
                e = e + Element.word((GenOcc(LINV, i, k, arg),
                                      GenOcc(L, k, j, arg)))
            out = normal_order(e, rs)
            if i == j:
                assert out == Element.unit()
            else:
                assert out.is_zero()


def test_incomplete_contraction_does_not_fire():
    rs = RewriteSystem(get_instance("example2-n2"), "extended")
    arg = ArgShift(Z1)
    e = Element.word((GenOcc(LINV, 1, 1, arg), GenOcc(L, 1, 1, arg)))
    assert normal_order(e, rs) == e  # sum over the middle index missing


@pytest.mark.parametrize("flavor,text,expected", [
    ("extended", "LInv[1,2](z1) L[2,1](z1)", "1 - LInv[1,1](z1) L[1,1](z1)"),
    ("double", "L[1,2](z2) LInv[2,1](z2)", "1 - L[1,1](z2) LInv[1,1](z2)"),
    ("double", "L[2,2](z2) LInv[2,1](z2)", "- L[2,1](z2) LInv[1,1](z2)"),
    ("double", "LStarInv[2,2](z1) LStar[2,2](z1)",
     "1 - LStarInv[2,1](z1) LStar[1,2](z1)"),
])
def test_inverse_contraction_oriented_on_index_n(flavor, text, expected):
    """X[i,n] Y[n,j] -> delta_ij - sum_{v<n} X[i,v] Y[v,j] on one term."""
    rs = RewriteSystem(get_instance("example2-n2"), flavor)
    assert normal_order(parse_element(text), rs) == parse_element(expected)


# -- delta normalization ------------------------------------------------------

def test_delta_absorbs_ratio_prefactor():
    d = DeltaFactor(Z1, Z2, mono())
    e = Element(1, {("", (d,), ((),)): parse_expr("z1/z2")})
    out = delta_normalize(e)
    assert out == Element(1, {("", (d,), ((),)): R1})


def test_delta_rewrites_argument_to_support():
    d = DeltaFactor(Z1, Z2, q_power(0, -2, 0, 0))  # delta((z1/z2) q^-c)
    stay = Element.word((GenOcc(LSTAR, 1, 1,
                                ArgShift(Z2, q_power(0, 1, 0, 0))),),
                        deltas=(d,))
    assert delta_normalize(stay) == stay
    move = Element.word((GenOcc(LSTAR, 1, 1,
                                ArgShift(Z1, q_power(0, -1, 0, 0))),),
                        deltas=(d,))
    assert delta_normalize(move) == stay


def test_delta_forces_coefficient_cancellation():
    d = DeltaFactor(Z1, Z2, q_power(0, -2, 0, 0))
    f = parse_expr("z1*z2 + q")
    # f(z1,z2) delta - f(z2 q^c, z2) delta = 0
    fsub = f.subs_monomial({Z1: mono(z2=1, u1=2)})
    e = (Element(1, {("", (d,), ((),)): f})
         - Element(1, {("", (d,), ((),)): fsub}))
    assert delta_normalize(e).is_zero()


@pytest.mark.parametrize("text,expected", [
    # z1 -> z2 q^-c, then z2 -> z3, through the argument shifts
    ("{z1/z2 + z2} * delta(z1/z2*q[0,2,0,0]) delta(z2/z3) "
     "Phi[1](z1) L[1,1](z2*q[0,1,0,0])",
     "{z3 + u1^-2} * delta(z1/z2*q[0,2,0,0]) delta(z2/z3) "
     "Phi[1](z3*q[0,-2,0,0]) L[1,1](z3*q[0,1,0,0])"),
    # z1 -> z2 q^-c turns the pending delta(z1/z3) into
    # delta(z2/z3*q[0,-2,0,0]), whose support then sends z2 -> z3 q^c
    ("{z1 + z3} * delta(z1/z2*q[0,2,0,0]) delta(z1/z3) Phi[1](z1)",
     "{2*z3} * delta(z1/z2*q[0,2,0,0]) delta(z2/z3*q[0,-2,0,0]) "
     "Phi[1](z3)"),
], ids=["chain", "shared-variable"])
def test_delta_support_chains_through_pending_deltas(text, expected):
    assert delta_normalize(parse_element(text)) == parse_element(expected)


def test_contradictory_deltas_flagged():
    d1 = DeltaFactor(Z1, Z2, mono())
    d2 = DeltaFactor(Z1, Z2, q_power(2, 0, 0, 0))
    e = Element(1, {("", (d1, d2), ((),)): R1})
    out = delta_normalize(e)
    assert len(out.terms) == 1
    (flag, _, _), = out.terms
    assert flag == "contradictory-delta"


def test_duplicate_deltas_merged():
    d = DeltaFactor(Z1, Z2, q_power(2, 0, 0, 0))
    e = Element(1, {("", (d, d), ((),)): R1})
    out = delta_normalize(e)
    assert out == Element(1, {("", (d,), ((),)): R1})


def test_degenerate_delta_flagged_by_rule():
    rs = _scalar_rs("double")
    e = Element.word((_phi(1, Z1), _phistar(1, Z1)))  # same variable
    out = normal_order(e, rs)
    flags = {flag for (flag, _, _) in out.terms}
    assert "degenerate-delta" in flags


def test_make_delta_orientation():
    d = make_delta(ArgShift(Z2), ArgShift(Z1, q_power(0, 2, 0, 0)), mono())
    assert d == DeltaFactor(Z1, Z2, q_power(0, 2, 0, 0))


# -- defining relations, termination, braid -----------------------------------

@pytest.mark.parametrize("name,flavor", [
    ("example1", "particle"), ("example1", "extended"), ("example1", "double"),
    ("example2-n2", "extended"), ("example2-n2", "double"), ("identity", "double"),
])
def test_relations_self_normalize(name, flavor):
    rs = RewriteSystem(get_instance(name), flavor)
    for rid in FLAVOR_RELATIONS[flavor]:
        for idx, res in relation_self_residual(rs, rid):
            assert res.is_zero(), (rid, idx)


def _random_word(rng, rs, kinds, length):
    occs = []
    for _ in range(length):
        kind = rng.choice(kinds)
        var = rng.choice([Z1, Z2, Z3])
        h = (rng.choice([-2, -1, 0, 1, 2]), rng.choice([-1, 0, 1]), 0, 0)
        row = rng.randint(1, rs.n)
        col = 0 if kind in VECTOR_KINDS else rng.randint(1, rs.n)
        occs.append(GenOcc(kind, row, col, ArgShift(var, q_power(*h))))
    return Element.word(tuple(occs))


def test_termination_measure_decreases_fuzzed():
    from rhopf.errors import SingularError
    rng = random.Random(99)
    systems = [(_scalar_rs("double"), [PHI, PHISTAR, L, LSTAR]),
               (RewriteSystem(get_instance("example2-n2"), "extended"),
                [PHI, L, LINV])]
    steps = 0
    contractions = 0
    while steps < 800:
        rs, kinds = systems[rng.randrange(2)]
        e = _random_word(rng, rs, kinds, rng.randint(2, 4))
        trace = []
        try:
            normal_order(e, rs, trace=trace)
        except SingularError:
            continue  # rule hit a pole of an entry at a symbolic argument
        for before, after in trace:
            assert after < before
            contractions += after[:3] == before[:3]
        steps += len(trace)
    assert steps >= 800
    assert contractions  # only a contraction keeps the first three parts


def test_normal_order_idempotent_fuzzed():
    from rhopf.errors import SingularError
    rng = random.Random(100)
    rs = _scalar_rs("double")
    done = 0
    while done < 60:
        e = _random_word(rng, rs, [PHI, PHISTAR, L, LSTAR],
                         rng.randint(2, 4))
        try:
            once = normal_order(e, rs)
        except SingularError:
            continue
        assert normal_order(once, rs) == once
        done += 1


def test_step_budget_raises_typed_error():
    rs = _scalar_rs("particle")
    # two rewrites: (z3, z1) then (z3, z2)
    e = Element.word((_phi(1, Z3), _phi(1, Z1), _phi(1, Z2)))
    with pytest.raises(BudgetError) as err:
        normal_order(e, rs, max_steps=1)
    assert isinstance(err.value, RhopfError)
    out = normal_order(e, rs, max_steps=3)
    assert [w for (_, _, (w,)) in out.terms] == [
        (_phi(1, Z1), _phi(1, Z2), _phi(1, Z3))]
    assert normal_order(e, rs, max_steps=2) == out  # one per application


def test_singular_argument_raises():
    from rhopf.errors import SingularError
    rs = _scalar_rs("extended")
    # Phi(z1 q) L(z1 q^(-1) q^(c/2)): the exchange evaluates the inverse
    # entry at exactly q^2, a pole of (x q^2 - 1)/(x - q^2)
    e = Element.word((_phi(1, Z1, q_power(2, 0, 0, 0)),
                      _l(1, 1, Z1, q_power(-2, 1, 0, 0))))
    with pytest.raises(SingularError) as exc:
        normal_order(e, rs)
    # the argument is named as field text, not as a packed monomial
    assert str(exc.value) == ("R-matrix entry singular at the symbolic "
                              "argument q^2")


def test_term_measure_components():
    key = ("", (), ((_phi(1, Z2), _phi(1, Z1)),))
    assert term_measure(key) == (2, 0, 1, 0)
    key = ("", (), ((_phi(1, Z1), _l(1, 1, Z2)),))
    assert term_measure(key) == (2, 1, 0, 0)
    # the middle index of a matched inverse pair, on any leg
    arg = ArgShift(Z1)
    pair = (GenOcc(LINV, 1, 2, arg), _l(2, 1, Z1))
    assert term_measure(("", (), ((), pair))) == (2, 0, 0, 2)
    unmatched = (GenOcc(LINV, 1, 2, arg), _l(1, 1, Z1))
    assert term_measure(("", (), (unmatched,))) == (2, 0, 0, 0)


def test_braid_consistency_instances():
    for name in ("example1", "example2-n2", "example2-n3", "identity"):
        assert braid_consistency(get_instance(name))["agree"]
    broken = braid_consistency(get_instance("broken-nonunitary"))
    assert not broken["agree"]
    assert broken["involutivity_residual_terms"] > 0


# -- inverse-kind overlaps --------------------------------------------------

SIXVERTEX_SPEC = str(Path(__file__).resolve().parents[1] / "verdictbench"
                     / "sixvertex.rspec")


def test_inverse_kind_terms_have_one_reducible_pair(monkeypatch):
    """The inverse contraction and the exchange rules overlap without
    resolving, so a term holding an inverse kind with two reducible pairs
    has a normal form that depends on which pair is rewritten.  No such
    term is rewritten in the verify-hopf runs below: every rewritten term
    with an inverse kind has exactly one reducible pair."""
    counts = []
    rewrite = algebra.rewrite_term

    def counting(key, rs, li, pos):
        legs = key[2]
        if any(g.kind in (LINV, LSTARINV) for word in legs for g in word):
            counts.append(sum(algebra._reducible(g1, g2, rs)
                              for word in legs
                              for g1, g2 in zip(word, word[1:])))
        return rewrite(key, rs, li, pos)

    monkeypatch.setattr(algebra, "rewrite_term", counting)
    # the known overlap is counted: contraction at 0, exchange at 1
    normal_order(parse_element("LInv[1,2](z2) L[2,1](z2) L[1,1](z1)"),
                 RewriteSystem(get_instance("example2-n2"), "extended"))
    assert counts[0] == 2
    counts.clear()
    for argv, code in (
            (["--instance", "example2-n2", "--flavor", "double"], 0),
            (["--instance", "example2-n3", "--flavor", "double"], 0),
            (["--spec", SIXVERTEX_SPEC, "--flavor", "double"], 0),
            (["--instance", "example2-n2", "--toggle",
              "phistar-coproduct=literal"], 1)):
        assert main(["verify-hopf", *argv]) == code, argv
    assert 1 in counts and max(counts) == 1



# -- charge maps --------------------------------------------------------------

# two-leg terms whose coefficients, arguments and deltas do and do not
# carry the charges u1..u3
_CHARGED = (
    "{u1^2 + q} * Phi[1](z1) PhiStar[2](z2) (x) 1"
    " + {(q - u2)/(q*u2 - 1)} * L[1,2](z1) (x) 1"
    " + L[2,1](z1*q[1,1,0,0]) (x) Phi[1](z2)"
    " + delta(z1/z2*q[0,0,-1,0]) Phi[2](z1) (x) 1"
    " + {x/(x - q^2)} * Phi[2](z2) (x) L[1,1](z3*q[2,0,0,1])"
    " + {u3 - 1} * LStar[2,2](z1) (x) PhiStar[1](z2*q[0,0,1,0])"
    " + delta(z1/z3*q[1,0,0,0]) Phi[1](z1) (x) L[2,2](z2)"
    " + {q/(u1*q - 1)} * Phi[2](z1) (x) PhiStar[1](z3)"
    " + {z2/(u2*z1 + q)} * L[2,1](z2) (x) 1")
_CHARGE_MAPS = ({1: {2: 1}, 2: {1: 1}}, {1: {1: 1, 2: 1}}, {2: {3: -1}},
                {1: {1: 1}, 2: {2: 1, 3: 2}}, {1: {1: 1}})


def _charges_held(key, coeff) -> set:
    """The charge slots whose u occurs in a term's coefficient, argument
    q-powers or delta q-powers."""
    _, deltas, legs = key
    qs = [d.q for d in deltas] + [g.arg.q for w in legs for g in w]
    found = coeff.variables() | {v for q in qs for v, _ in mono_items(q)}
    return {t for t in (1, 2, 3) if U[t - 1] in found}


@pytest.mark.parametrize("cmap", _CHARGE_MAPS)
def test_map_charges_equals_term_by_term_substitution(cmap):
    """The charge map of ``hopf._splice``, with leg 0 replaced by itself,
    equals ``subs_term`` on every term, and a term that holds none of the
    remapped charges passes through as it is."""
    e = parse_element(_CHARGED)
    smap = {U[i - 1]: mono_from_pairs((U[j - 1], k) for j, k in row.items())
            for i, row in cmap.items() if row != {i: 1}}
    want: dict = {}
    for key, c in e.terms.items():
        accumulate(want, *algebra.subs_term(key, c, smap))
    got = hopf._splice(e, 0, 1, cmap, 1, lambda g: [(1, ((g,),))])
    assert got == Element(e.nlegs, want)
    remapped = {i for i, row in cmap.items() if row != {i: 1}}
    untouched = [key for key, c in e.terms.items()
                 if not _charges_held(key, c) & remapped]
    for key in untouched:
        assert got.terms[key] is e.terms[key]
    assert 0 < len(untouched) < len(e.terms) or not remapped
