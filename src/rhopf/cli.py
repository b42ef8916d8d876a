"""Command-line driver: R-matrix spec ingestion, check orchestration and
machine-readable reports.

Subcommands: check-r, verify-hopf, verify-modes, normal-order.  Exit code
0 when every selected check passes, 1 when a check fails, 2 on parse,
configuration or file errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .algebra import (FLAVOR_RELATIONS, RewriteSystem, Toggles,
                      braid_consistency, normal_form, relation_self_residual)
from .elemio import format_element, parse_element
from .errors import DomainError, ParseError, RhopfError
from .expr import _format_poly, format_ratexpr, parse_expr
from .hopf import AXIOMS, HopfTables, check_axioms, check_hom_on_relation
from .instances import INSTANCES, get_instance
from .modes import SeriesWindow, check_mode_consistency, drinfeld_compare
from .rmatrix import RMatrix, clear_poles, unitarity_residual, ybe_residual
from .report import FAIL, PASS, SKIPPED, CheckResult, VerificationReport
from .symfield import SPECTRAL, VAR_INDEX, reset_memo, variables

_ENTRY_RE = re.compile(
    r"^R\[\s*(\d+)\s*,\s*(\d+)\s*;\s*(\d+)\s*,\s*(\d+)\s*\]\s*=\s*(.+)$")
_ASSIGN_RE = re.compile(r"^(n|var|name)\s*=\s*(\S+)$")
_TOGGLE_RE = re.compile(r"^toggle\s+([a-z-]+)\s*=\s*(\w+)$")


def _split_statements(line: str):
    """Split on ';' outside square brackets (entry indices contain one);
    returns (0-based start column, statement) pairs."""
    out = []
    depth = 0
    start = 0
    for pos, ch in enumerate(line):
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth -= 1
        elif ch == ";" and depth == 0:
            out.append((start, line[start:pos]))
            start = pos + 1
    out.append((start, line[start:]))
    return out


def parse_rspec(text: str):
    """Parse an R-matrix spec file; returns (RMatrix, toggles dict)."""
    n = None
    var = None
    name = ""
    toggles = {}
    entries = {}
    headers = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        for start, stmt in _split_statements(line):
            start += len(stmt) - len(stmt.lstrip())
            stmt = stmt.strip()
            if not stmt:
                continue
            m = _ASSIGN_RE.match(stmt)
            if m:
                key, val = m.group(1), m.group(2)
                col = start + m.start(2) + 1
                if key in headers:
                    raise ParseError(f"{key}= is given twice", lineno,
                                     start + 1)
                headers.add(key)
                if key == "n":
                    if not val.isdigit() or int(val) < 1:
                        raise ParseError("n must be a positive integer",
                                         lineno, col)
                    n = int(val)
                elif key == "var":
                    if VAR_INDEX.get(val) not in SPECTRAL:
                        raise ParseError(
                            f"var= must be a spectral variable (z1..z9, x, "
                            f"w), not {val!r}", lineno, col)
                    var = val
                else:
                    name = val
                continue
            m = _TOGGLE_RE.match(stmt)
            if m:
                try:
                    Toggles.from_dict({m.group(1): m.group(2)})
                except DomainError as exc:
                    raise ParseError(str(exc), lineno, start + 1) from exc
                toggles[m.group(1)] = m.group(2)
                continue
            m = _ENTRY_RE.match(stmt)
            if m:
                if n is None or var is None:
                    raise ParseError("n= and var= must precede entries",
                                     lineno, start + 1)
                idx = tuple(int(m.group(t)) for t in range(1, 5))
                for t, v in enumerate(idx, start=1):
                    if not 1 <= v <= n:
                        raise ParseError(
                            f"entry index {v} out of range 1..{n}",
                            lineno, start + m.start(t) + 1)
                if idx in entries:  # zero-valued statements count too
                    raise ParseError("entry R[{},{};{},{}] is given twice"
                                     .format(*idx), lineno, start + 1)
                entries[idx] = parse_expr(m.group(5),
                                          (lineno, start + m.start(5) + 1))
                continue
            raise ParseError(f"cannot parse statement {stmt!r}", lineno,
                             start + 1)
    if n is None or var is None:
        raise ParseError("missing n= or var= header", 1, 1)
    entries = {key: v for key, v in entries.items() if not v.is_zero()}
    rows = {(k, l) for (_, _, k, l) in entries}
    for k in range(1, n + 1):
        for l in range(1, n + 1):
            if (k, l) not in rows:
                raise ParseError(
                    f"row ({k},{l}) of the n^2 x n^2 matrix has no nonzero "
                    "entry; the matrix cannot be invertible", 1, 1)
    return RMatrix(n, var, entries, name=name or "custom"), toggles


# ---------------------------------------------------------------------------
# residual formatting
# ---------------------------------------------------------------------------

# the entries of a map residual that a report prints
_SHOWN = 8


def _fmt_map_residual(res: dict) -> str:
    bits = []
    for key in sorted(res)[:_SHOWN]:
        tin, tout = key
        bits.append(f"[{','.join(map(str, tin))} -> "
                    f"{','.join(map(str, tout))}] "
                    f"{format_ratexpr(res[key])}")
    if len(res) > _SHOWN:
        bits.append(f"... {len(res) - _SHOWN} more entries")
    return "; ".join(bits)


def _timed(report: VerificationReport, check_id: str, fn, advisory=False):
    """Run one check; ``fn`` returns (ok, residual text) or (ok, residual
    text, note)."""
    t0 = time.perf_counter()
    try:
        ok, residual, *note = fn()
        note = note[0] if note else None
        status = PASS if ok else FAIL
    except RhopfError as exc:
        status = FAIL
        residual = None
        note = f"{type(exc).__name__}: {exc}"
    report.add(CheckResult(check_id, status,
                           residual=residual if status == FAIL else None,
                           wall_time=time.perf_counter() - t0,
                           advisory=advisory, note=note))


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------

def _plan_check_r(R: RMatrix, toggles: Toggles, report: VerificationReport):
    normative = "ratio" if "ybe-middle" in toggles.literal else "prod"
    for middle in ("prod", "ratio"):
        def ybe(middle=middle):
            res = ybe_residual(R, middle)
            return not res, _fmt_map_residual(res) if res else None
        _timed(report, f"ybe-middle-{middle}", ybe,
               advisory=(middle != normative))

    def unit():
        res = unitarity_residual(R)
        return not res, _fmt_map_residual(res) if res else None
    _timed(report, "unitarity", unit)

    def poles():
        cleared = clear_poles(R)
        f_note = "f = " + _format_poly(cleared.f)
        vidx = VAR_INDEX[R.var]
        bad = [key for key, v in cleared.rprime.items()
               if vidx in variables(v.den)]
        residual = f"entries with uncleared poles: {sorted(bad)}"
        return not bad, residual if bad else None, f_note
    _timed(report, "clear-poles", poles)


def _plan_verify_hopf(R: RMatrix, flavor: str, toggles: Toggles,
                      report: VerificationReport):
    def braid():
        res = braid_consistency(R)
        txt = (f"path terms: {res['path_residual_terms']}, involutivity "
               f"terms: {res['involutivity_residual_terms']}")
        return res["agree"], txt
    _timed(report, "braid-consistency", braid)

    try:
        rs = RewriteSystem(R, flavor, toggles)
        if flavor == "double" and unitarity_residual(R):
            raise DomainError("the double flavor requires a unitary R-matrix")
    except RhopfError as exc:
        report.add(CheckResult("build-rules", FAIL,
                               note=f"{type(exc).__name__}: {exc}"))
        return
    tables = HopfTables(rs)

    def selfnorm():
        bad = []
        for rid in FLAVOR_RELATIONS[flavor]:
            for idx, res in relation_self_residual(rs, rid):
                if not res.is_zero():
                    bad.append(f"{rid}{idx}: {format_element(res)}")
        return not bad, "; ".join(bad) if bad else None
    _timed(report, "relations-self-normalize", selfnorm)

    for rid in FLAVOR_RELATIONS[flavor]:
        def hom(rid=rid):
            bad = []
            for idx, res in check_hom_on_relation(rs, tables, rid):
                if not res.is_zero():
                    bad.append(f"{idx}: {format_element(res)}")
            return not bad, "; ".join(bad) if bad else None
        _timed(report, f"hom-{rid}", hom)

    for axiom in AXIOMS:
        def axioms(axiom=axiom):
            bad = [check_id.split(":", 1)[1] for check_id, nterms
                   in check_axioms(tables, (axiom,)) if nterms]
            return not bad, ", ".join(bad) if bad else None
        _timed(report, f"axiom-{axiom}", axioms)


def _plan_verify_modes(R: RMatrix, flavor: str, toggles: Toggles,
                       window: SeriesWindow, report: VerificationReport,
                       is_example1: bool):
    def modes():
        rs = RewriteSystem(R, flavor, toggles)
        rep = check_mode_consistency(rs, window)
        bad = [r["relation"] for r in rep["relations"]
               if not r["consistent"]]
        return rep["consistent"], ", ".join(bad) if bad else None
    _timed(report, "mode-consistency", modes)

    if is_example1:
        def drin():
            rep = drinfeld_compare(window, R)
            bad = [f"{p['relation']}: {p['mismatched_slots']}"
                   for p in rep["pairs"] if p["mismatched_slots"]]
            return rep["match"], "; ".join(bad) if bad else None
        _timed(report, "drinfeld-compare", drin)
    else:
        report.add(CheckResult("drinfeld-compare", SKIPPED,
                               note="reference comparison is defined for "
                                    "the scalar instance example1"))


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser):
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--instance", choices=INSTANCES,
                     help="built-in R-matrix instance")
    src.add_argument("--spec", help="R-matrix spec file")
    p.add_argument("--toggle", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="convention toggle, VALUE in {corrected, literal}")


def _add_report(p: argparse.ArgumentParser):
    """The report options, for the commands that write a report."""
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in the JSON report (off by "
                        "default so reports are byte-stable)")


def _load(args):
    file_toggles = {}
    if args.instance:
        R = get_instance(args.instance)
        name = args.instance
        flags = INSTANCES[args.instance][1]
    else:
        with open(args.spec, encoding="utf-8") as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as exc:
                raise ParseError(f"spec file is not UTF-8: {exc}") from exc
        R, file_toggles = parse_rspec(text)
        name = R.name
        flags = []
    for item in args.toggle:
        if "=" not in item:
            raise ParseError(f"bad toggle {item!r}, expected NAME=VALUE")
        key, val = item.split("=", 1)
        file_toggles[key.strip()] = val.strip()
    toggles = Toggles.from_dict(file_toggles)
    return R, name, flags, toggles


def _run(args) -> int:
    """The subcommand of parsed arguments; its exit code."""
    R, name, flags, toggles = _load(args)
    if args.command == "normal-order":
        rs = RewriteSystem(R, args.flavor, toggles)
        e = parse_element(args.element, n=R.n)
        sys.stdout.write(format_element(normal_form(rs, e)) + "\n")
        return 0
    report = VerificationReport(instance=name, toggles=toggles.as_dict())
    report.flags.extend(flags)
    if args.command == "check-r":
        _plan_check_r(R, toggles, report)
    elif args.command == "verify-hopf":
        _plan_verify_hopf(R, args.flavor, toggles, report)
    elif args.command == "verify-modes":
        window = SeriesWindow(args.window, args.margin)
        _plan_verify_modes(R, args.flavor, toggles, window, report,
                           is_example1=(args.instance == "example1"))
    sys.stdout.write(report.text_summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timings=args.timings))
    return report.exit_code()


def main(argv=None) -> int:
    # each run starts cold, so its work does not depend on earlier runs in
    # the same process
    reset_memo()
    parser = argparse.ArgumentParser(
        prog="rhopf",
        description="exact verification of R-matrix exchange algebras and "
                    "their Hopf structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("check-r", help="Yang-Baxter (both middle-argument "
                        "conventions), unitarity, pole clearing")
    _add_common(p1)
    _add_report(p1)

    p2 = sub.add_parser("verify-hopf", help="braid consistency, relation "
                        "homomorphism checks, Hopf axioms")
    _add_common(p2)
    _add_report(p2)
    p2.add_argument("--flavor", default="double",
                    choices=("extended", "double"),
                    help="the particle flavor has no coproduct: the "
                         "coproduct of Phi needs L")

    p3 = sub.add_parser("verify-modes", help="mode-level consistency and "
                        "the scalar reference comparison")
    _add_common(p3)
    _add_report(p3)
    p3.add_argument("--flavor", default="double",
                    choices=("particle", "extended", "double"))
    p3.add_argument("--window", type=int, default=5, metavar="N")
    p3.add_argument("--margin", type=int, default=1, metavar="M")

    p4 = sub.add_parser("normal-order", help="normal-order an element "
                        "expression")
    _add_common(p4)
    p4.add_argument("--flavor", default="double",
                    choices=("particle", "extended", "double"))
    p4.add_argument("element", help="element expression (see README)")

    args, extra = parser.parse_known_args(argv)
    if extra:
        # an unknown option's value may have been read as a positional
        # argument, which leaves that argument's own text unrecognized:
        # name the options alone when there are any
        named = [a for a in extra if a.startswith("-")] or extra
        parser.error(f"unrecognized arguments: {' '.join(named)}")
    try:
        return _run(args)
    except (RhopfError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
