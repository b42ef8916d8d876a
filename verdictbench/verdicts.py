"""The benchmark's workloads and the hand-written expectation of every
verdict in them.

A verdict is one run a user waits for: a ``rhopf`` command line passed to
``rhopf.cli.main``, or, for the q^6 control, one call of
``modes.drinfeld_compare``.  Exit codes, failing check ids and reasons
come from the README, the ROADMAP and the negative-control tests, never
from the program's output.  ``digest`` pins the sha256 of the byte-stable
JSON report (``--out`` without ``--timings``) that the seed code writes;
for the q^6 control it pins the sorted JSON dump of the returned dict.

Why each workload exists is written next to it and in NOTES.md.
"""

from __future__ import annotations

from dataclasses import dataclass

# Placeholder in an argv for the path of the committed six-vertex spec.
SIXVERTEX = "{sixvertex}"

# Entries of the six-vertex fixture in tests/test_nondiagonal.py, keyed
# (i, j, k, l) as in ``R[i,j;k,l]``; sixvertex.rspec must parse to exactly
# these values.
_B = "q*(x - 1)/(x*q^2 - 1)"
SIXVERTEX_ENTRIES = {
    (1, 1, 1, 1): "1",
    (2, 2, 2, 2): "1",
    (1, 2, 1, 2): _B,
    (1, 2, 2, 1): "(q^2 - 1)/(x*q^2 - 1)",
    (2, 1, 2, 1): _B,
    (2, 1, 1, 2): "x*(q^2 - 1)/(x*q^2 - 1)",
}


@dataclass(frozen=True)
class Verdict:
    name: str
    argv: tuple  # None for the q^6 drinfeld_compare control
    exit_code: int
    fails: frozenset  # ids of every check with status "fail", advisory too
    reason: str
    digest: str  # None: never produced a report on the seed code
    known_undecided: bool = False


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-verdict limit; a verdict past it is undecided
    verdicts: tuple


def _cli(name, argv, exit_code, fails, reason, digest, **kw):
    return Verdict(name, tuple(argv), exit_code, frozenset(fails), reason,
                   digest, **kw)


_LITERAL_LL_STAR = ("hom-LLstar", "hom-PhistarL", "hom-PhiLstar")
_LITERAL_PHISTAR = ("hom-PhistarPhistar", "hom-PhistarLstar",
                    "hom-PhiPhistar", "hom-PhistarL", "axiom-coassoc",
                    "axiom-antipode")

# Diagonal R: rule application is multiplication-heavy and hom-LL /
# hom-LLstar on example2-n3 are the largest normal_order inputs.
HOPF_DIAGONAL = Workload("hopf-diagonal", 60, (
    _cli("check-r:example1", ["check-r", "--instance", "example1"], 0, (),
         "the scalar instance satisfies YBE, unitarity and pole clearing",
         "01f9b052f08de3f9bef2f9354e6855071a57f7bbbc720e9b8ed355b445d61f2c"),
    _cli("check-r:example2-n2", ["check-r", "--instance", "example2-n2"],
         0, (), "diagonal instances pass both YBE middle arguments",
         "68f3ea01645cf88f8d99fc65bb921ac38207733e88d24c266a768fba981234b2"),
    _cli("check-r:example2-n3", ["check-r", "--instance", "example2-n3"],
         0, (), "diagonal instances pass both YBE middle arguments",
         "5770532dbe238b9cd34d3796e7a65319c03c82f18082a8fbe788d5c369e0461e"),
    _cli("verify-hopf:example1",
         ["verify-hopf", "--instance", "example1", "--flavor", "double"],
         0, (), "the corrected toggle set passes every axiom check",
         "e268e15adfde5580d9f66446ff27fd18d5a720367954886af413d7f60a7fb05a"),
    _cli("verify-hopf:example2-n2",
         ["verify-hopf", "--instance", "example2-n2", "--flavor", "double"],
         0, (), "the corrected toggle set passes every axiom check",
         "b805d98a7815ae0d63154d061b6a8424dd89b75ca0a024d31a5fafee434f6e72"),
    _cli("verify-hopf:example2-n3",
         ["verify-hopf", "--instance", "example2-n3", "--flavor", "double"],
         0, (), "the corrected toggle set passes every axiom check",
         "b774dde34c207296d186066d6ce213c24357b698f179010505cec4f2bcd90212"),
))

# Non-diagonal R: Element._accumulate drives RatExpr.__add__ into
# subresultant gcds with real common factors.
HOPF_SIXVERTEX = Workload("hopf-sixvertex", 60, (
    _cli("check-r:six-vertex", ["check-r", "--spec", SIXVERTEX], 0,
         ("ybe-middle-ratio",),
         "the ratio middle argument fails on a non-diagonal matrix, as an "
         "advisory entry under the default toggles",
         "f37cb23085b56f561489b8e7ae23effb53ee7034788c35a8253121d12df66861"),
    _cli("verify-hopf:six-vertex",
         ["verify-hopf", "--spec", SIXVERTEX, "--flavor", "double"], 0, (),
         "the full double structure verifies on the six-vertex matrix",
         "d58eac3405470356a05fbc7af36b32761858aa1a62caa983ea3256080da3d8d7"),
))

# Checks that must fail for their documented reason; their residuals
# never cancel, so the gcds are large and coprime.
NEGATIVE_CONTROLS = Workload("negative-controls", 30, (
    _cli("check-r:broken-nonunitary",
         ["check-r", "--instance", "broken-nonunitary"], 1, ("unitarity",),
         "broken-nonunitary is the deliberate non-unitary control",
         "4075687b583f7234e0b07004f2de54ad1c031fe83f91530acc2555aceecca27b"),
    _cli("verify-hopf:example2-n2:ll-star=literal",
         ["verify-hopf", "--instance", "example2-n2", "--toggle",
          "ll-star=literal"], 1, _LITERAL_LL_STAR,
         "the literal L/L* exchange breaks the homomorphism on the "
         "relations that contain it",
         "97c697ffae54e71a31ebe7c5f96a05fbf1c426acb71e6f1ec12168ae8f8b429b"),
    _cli("verify-hopf:example2-n2:cross-bracket=literal",
         ["verify-hopf", "--instance", "example2-n2", "--toggle",
          "cross-bracket=literal"], 1, ("hom-PhiPhistar",),
         "the literal delta-term assignment breaks the Phi/Phi* bracket",
         "4f0ebdb169f654a5629b4a5095a999ed803c4f7caed8881054c27afc910fe609"),
    _cli("verify-hopf:example2-n2:phistar-coproduct=literal",
         ["verify-hopf", "--instance", "example2-n2", "--toggle",
          "phistar-coproduct=literal"], 1, _LITERAL_PHISTAR,
         "the literal Phi* coproduct contraction breaks every relation "
         "with Phi* and coassociativity and the antipode",
         "f481b3bfd0f4fe19e9466b7bfb3149a9bd3f63616a6b395e6f37ebfcf3bf4289"),
    _cli("verify-modes:example2-n2:ll-star=literal",
         ["verify-modes", "--instance", "example2-n2", "--toggle",
          "ll-star=literal"], 1, ("mode-consistency",),
         "the literal L/L* reading equates an L L* word with L* L* words",
         "778f46eb68077f0f4bc9685b307518c049b5071709e7d6b30939361cf2878e61"),
    _cli("check-r:six-vertex:ybe-middle=literal",
         ["check-r", "--spec", SIXVERTEX, "--toggle", "ybe-middle=literal"],
         1, ("ybe-middle-ratio",),
         "with the ratio convention selected its YBE failure is normative",
         "accf6b85d4e4591eec78c30c91ba9e7288697c45a64364895b40f015e565ca10"),
    _cli("verify-hopf:six-vertex:ll-star=literal",
         ["verify-hopf", "--spec", SIXVERTEX, "--toggle", "ll-star=literal"],
         1, _LITERAL_LL_STAR,
         "the literal L/L* exchange; did not finish in 9 minutes on the "
         "seed, so it is expected to be undecided", None,
         known_undecided=True),
))

# Mode expansion: many tiny RatExpr normalisations with trivial gcds.
MODES_WINDOW = Workload("modes-window", 30, (
    _cli("verify-modes:example1:w5",
         ["verify-modes", "--instance", "example1", "--window", "5"], 0, (),
         "the scalar instance matches the reference current relations",
         "267cb3fa4ee0f6c871b9888d8a8f5abbfacfb47b8f74f9d24282b9ca7ffbbd53"),
    _cli("verify-modes:example1:w8",
         ["verify-modes", "--instance", "example1", "--window", "8"], 0, (),
         "the scalar instance matches the reference current relations",
         "267cb3fa4ee0f6c871b9888d8a8f5abbfacfb47b8f74f9d24282b9ca7ffbbd53"),
    _cli("verify-modes:example2-n2:w5",
         ["verify-modes", "--instance", "example2-n2", "--window", "5"], 0,
         (), "mode consistency holds; the reference comparison is skipped",
         "63ee08eb37c5d1b4cddada28953fca763155db1f4b448ba8557f880e67974035"),
    _cli("verify-modes:example2-n3:w5",
         ["verify-modes", "--instance", "example2-n3", "--window", "5"], 0,
         (), "mode consistency holds; the reference comparison is skipped",
         "b2d21e005373a17bca89b57e46ae99e3804b485a1651385f1502fa20a22c4d16"),
    Verdict("drinfeld-compare:q^6", None, 1,
            frozenset(("PhiPhi", "PhistarPhistar")),
            "R with q^6 in place of q^2 must not match the q^2 reference "
            "currents",
            "14a95264bf7a615d73a2aa683187d283b7a2d234dcfc3d0641055f53e497f7b9"),
))

WORKLOADS = {w.name: w for w in (HOPF_DIAGONAL, HOPF_SIXVERTEX,
                                 NEGATIVE_CONTROLS, MODES_WINDOW)}
