"""R-matrix side conditions: Yang-Baxter, unitarity, pole clearing."""

import pytest

from rhopf import rmatrix
from rhopf.algebra import RewriteSystem
from rhopf.cli import main
from rhopf.errors import DomainError, SingularError
from rhopf.expr import parse_expr
from rhopf.instances import get_instance
from rhopf.rmatrix import (RMatrix, _residual, clear_poles, table,
                           unitarity_residual, ybe_residual)
from rhopf.symfield import RatExpr, VAR_INDEX, X, mono, variables
from test_acceptance import PASSING_INSTANCES


def test_ybe_identity_is_zero():
    assert ybe_residual(get_instance("identity"), "prod") == {}
    assert ybe_residual(get_instance("identity"), "ratio") == {}


def test_ybe_zero_on_diagonal_instances():
    for name in ("example1", "example2-n2", "example2-n3"):
        R = get_instance(name)
        assert ybe_residual(R, "prod") == {}
        # diagonal entries commute, so the literal middle argument passes
        # here as well; the braid probes discriminate instead
        assert ybe_residual(R, "ratio") == {}


def test_diagonal_ybe_matches_entrywise_product_oracle():
    # both sides of the equation are the entrywise product of the three
    # diagonal factors; verify the engine agrees on a sample entry
    R = get_instance("example2-n2")
    z = {X: mono(z1=1)}
    w = {X: mono(z2=1)}
    zw = {X: mono(z1=1, z2=1)}
    f11 = R.entries[1, 2, 1, 2]
    lhs = (f11.subs_monomial(z) * R.entries[1, 1, 1, 1].subs_monomial(zw)
           * R.entries[2, 1, 2, 1].subs_monomial(w))
    res = ybe_residual(R, "prod")
    assert res == {}
    assert not lhs.is_zero()  # sanity: the oracle product is nontrivial
    # the engine's value of that entry: the YBE left chain R12(z1)
    # R13(z1*z2) R23(z2) on the input (a, b, c) = (1, 2, 1), which R23
    # reads at (2, 1), R13 at (1, 1) and R12 at (1, 2)
    r12, r13, r23 = (table(R.at(arg)) for arg in
                     (mono(z1=1), mono(z1=1, z2=1), mono(z2=1)))
    chain = [(*r23, "bc", "BC"), (*r13, "aC", "Ac"), (*r12, "AB", "ab")]
    [(value, env)] = rmatrix.contract(chain, {"a": 1, "b": 2, "c": 1})
    assert (env["a"], env["b"], env["c"]) == (1, 2, 1)
    assert value == lhs


def test_perturbed_diagonal_entry_caught_by_unitarity_not_ybe():
    R0 = get_instance("example2-n2")
    entries = dict(R0.entries)
    entries[(1, 1, 1, 1)] = parse_expr("(x - q^3)/(x*q^2 - 1)")
    R = RMatrix(2, "x", entries)
    assert ybe_residual(R, "prod") == {}  # still diagonal
    assert unitarity_residual(R) != {}


def test_unitarity_scalar_example():
    assert unitarity_residual(get_instance("example1")) == {}
    # oracle: R(1/x) = (1 - q^2 x)/(q^2 - x) is 1/R(x) by cross products
    r = parse_expr("(x - q^2)/(x*q^2 - 1)")
    rinv_arg = parse_expr("(1 - q^2*x)/(q^2 - x)")
    assert r * rinv_arg == 1


def test_unitarity_identity_and_instances():
    for name in PASSING_INSTANCES:
        assert unitarity_residual(get_instance(name)) == {}


def test_unitarity_monomial_vs_affine_scalar():
    # R(x) = x satisfies the condition, R(x) = x + 1 does not
    Rx = RMatrix(1, "x", {(1, 1, 1, 1): parse_expr("x")})
    assert unitarity_residual(Rx) == {}
    assert unitarity_residual(get_instance("broken-nonunitary")) != {}


def test_left_and_right_inverse_agree_for_unitary_instances():
    for name in PASSING_INSTANCES:
        R = get_instance(name)
        at_x, at_inv = (table(R.at(mono(**{R.var: e}))) for e in (1, -1))
        # R21(x) R(1/x), then R(1/x) R21(x); R21 is R with its letters
        # swapped
        for chain in ([(*at_inv, "ab", "cd"), (*at_x, "dc", "fe")],
                      [(*at_x, "ba", "dc"), (*at_inv, "cd", "ef")]):
            assert _residual(R.n, "ab", (chain, "ef"), ([], "ab")) == {}


def test_clear_poles_scalar():
    cleared = clear_poles(get_instance("example1"))
    assert RatExpr(cleared.f) == parse_expr("x*q^2 - 1")
    assert cleared.rprime[(1, 1, 1, 1)] == parse_expr("x - q^2")


def test_clear_poles_identity():
    R = get_instance("identity")
    cleared = clear_poles(R)
    assert RatExpr(cleared.f) == 1
    assert cleared.rprime == R.entries


def test_clear_poles_n2_lcm():
    cleared = clear_poles(get_instance("example2-n2"))
    expected = parse_expr("(x*q^2 - 1)*(x*q^-1 - 1)")
    ratio = RatExpr(cleared.f) / expected
    assert len(ratio.num) == 1 and len(ratio.den) == 1


def test_clear_poles_denominators_free_of_var():
    for name in PASSING_INSTANCES:
        R = get_instance(name)
        cleared = clear_poles(R)
        vidx = VAR_INDEX[R.var]
        for v in cleared.rprime.values():
            assert vidx not in variables(v.den)


def test_singular_matrix_rejected():
    R = RMatrix(2, "x", {(i, j, i, j): parse_expr("1")
                         for (i, j) in ((1, 1), (1, 2), (2, 1))})
    with pytest.raises(SingularError) as err:
        unitarity_residual(R)
    assert str(err.value) == "R is singular; unitarity is ill-posed"


def test_bad_index_and_middle_convention_are_domain_errors():
    with pytest.raises(DomainError, match="out of range"):
        RMatrix(1, "x", {(1, 1, 1, 2): parse_expr("1")})
    with pytest.raises(DomainError, match="unknown middle-argument"):
        ybe_residual(get_instance("identity"), "bogus")


@pytest.mark.parametrize("flavor, calls", [("extended", [True]),
                                           ("double", [True])])
def test_rewrite_system_eliminates_once(flavor, calls, monkeypatch):
    """Building the rules inverts R by one Gauss-Jordan pass, whatever
    the flavor, and takes no determinant."""
    seen = []

    def recording(mat, invert):
        seen.append(invert)
        return eliminate(mat, invert)
    eliminate = rmatrix._eliminate
    monkeypatch.setattr(rmatrix, "_eliminate", recording)
    RewriteSystem(get_instance("example2-n3"), flavor)
    assert seen == calls


def test_nonunitary_residual_takes_the_determinant(monkeypatch):
    """A nonzero residual is checked for a singular R, a zero one is not."""
    seen = []

    def recording(mat, invert):
        seen.append(invert)
        return eliminate(mat, invert)
    eliminate = rmatrix._eliminate
    monkeypatch.setattr(rmatrix, "_eliminate", recording)
    assert unitarity_residual(get_instance("example1")) == {}
    assert seen == []
    assert unitarity_residual(get_instance("broken-nonunitary")) != {}
    assert seen == [False]


def test_inverse_entries_roundtrip_nondiagonal():
    # a non-diagonal invertible example exercises Gauss-Jordan
    entries = {
        (1, 1, 1, 1): parse_expr("1"), (2, 2, 2, 2): parse_expr("1"),
        (1, 2, 2, 1): parse_expr("q"), (2, 1, 1, 2): parse_expr("q^-1"),
        (1, 2, 1, 2): parse_expr("x"),
    }
    R = RMatrix(2, "x", entries)
    inv = R.inverse_entries()
    # compose R o Rinv = identity
    rinv, r = table(inv), table(R.entries)
    chain = [(*rinv, "ab", "cd"), (*r, "cd", "ef")]
    assert _residual(2, "ab", (chain, "ef"), ([], "ab")) == {}


def test_flip_matrix_swaps_a_pivot_row(tmp_path):
    """The flip R[i,j;j,i] = 1 of n = 2 has a zero where the elimination
    first looks for the pivot of the second column, so a row swap is taken
    and flips the determinant's sign: det = -1, and the flip is its own
    inverse.  It is a unitary Yang-Baxter matrix, so ``check-r`` passes."""
    one = RatExpr.from_int(1)
    R = RMatrix(2, "x", {(i, j, j, i): one for i in (1, 2) for j in (1, 2)})
    assert R.determinant() == -one
    assert R.inverse_entries() == R.entries
    spec = tmp_path / "flip.rspec"
    spec.write_text("n=2; var=x\n" + "".join(
        f"R[{i},{j};{j},{i}] = 1\n" for i in (1, 2) for j in (1, 2)))
    assert main(["check-r", "--spec", str(spec)]) == 0
