"""Command-line driver: R-matrix spec ingestion, check orchestration and
machine-readable reports.

Subcommands: check-r, verify-hopf, verify-modes, normal-order.  Exit code
0 when every selected check passes, 1 when a check fails, 2 on parse or
configuration errors.
"""

from __future__ import annotations

import argparse
import re
import sys
import time

from .algebra import (FLAVOR_RELATIONS, RewriteSystem, Toggles,
                      braid_consistency, delta_normalize, normal_order,
                      relation_self_residual)
from .elemio import format_element, parse_element
from .errors import ParseError, RhopfError
from .expr import _format_poly, format_ratexpr, parse_expr
from .hopf import (HopfTables, check_antipode, check_coassoc, check_counit,
                   check_hom_on_relation, generator_list)
from .instances import INSTANCE_NAMES, get_instance, instance_flags
from .modes import SeriesWindow, check_mode_consistency, drinfeld_compare
from .rmatrix import RMatrix, clear_poles, unitarity_residual, ybe_residual
from .report import FAIL, PASS, SKIPPED, CheckResult, VerificationReport
from .symfield import VAR_INDEX

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
                if key == "n":
                    if not val.isdigit() or int(val) < 1:
                        raise ParseError("n must be a positive integer",
                                         lineno, 1)
                    n = int(val)
                elif key == "var":
                    var = val
                else:
                    name = val
                continue
            m = _TOGGLE_RE.match(stmt)
            if m:
                toggles[m.group(1)] = m.group(2)
                continue
            m = _ENTRY_RE.match(stmt)
            if m:
                if n is None or var is None:
                    raise ParseError("n= and var= must precede entries",
                                     lineno, 1)
                idx = tuple(int(m.group(t)) for t in range(1, 5))
                for t, v in enumerate(idx, start=1):
                    if not 1 <= v <= n:
                        raise ParseError(
                            f"entry index {v} out of range 1..{n}",
                            lineno, start + m.start(t) + 1)
                val = parse_expr(m.group(5), line_offset=lineno)
                if not val.is_zero():
                    entries[idx] = val
                continue
            raise ParseError(f"cannot parse statement {stmt!r}", lineno, 1)
    if n is None or var is None:
        raise ParseError("missing n= or var= header", 1, 1)
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

def _fmt_map_residual(res: dict, limit: int = 8) -> str:
    bits = []
    for key in sorted(res)[:limit]:
        tin, tout = key
        bits.append(f"[{','.join(map(str, tin))} -> "
                    f"{','.join(map(str, tout))}] "
                    f"{format_ratexpr(res[key])}")
    if len(res) > limit:
        bits.append(f"... {len(res) - limit} more entries")
    return "; ".join(bits)


def _timed(report: VerificationReport, check_id: str, fn, advisory=False,
           note=None):
    t0 = time.perf_counter()
    try:
        ok, residual = fn()
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
    normative = "prod" if toggles.ybe_middle == "corrected" else "ratio"
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
        vidx = VAR_INDEX[R.var]
        bad = [key for key, v in cleared.rprime.items()
               if vidx in v.den.variables()]
        if bad:
            return False, f"entries with uncleared poles: {sorted(bad)}"
        return True, None
    try:
        f_note = "f = " + _format_poly(clear_poles(R).f.terms)
    except RhopfError:
        f_note = None
    _timed(report, "clear-poles", poles, note=f_note)


def _plan_verify_hopf(R: RMatrix, flavor: str, toggles: Toggles,
                      report: VerificationReport):
    def braid():
        res = braid_consistency(R, "particle", toggles)
        txt = (f"path terms: {res['path_residual_terms']}, involutivity "
               f"terms: {res['involutivity_residual_terms']}")
        return res["agree"], txt
    _timed(report, "braid-consistency", braid)

    try:
        rs = RewriteSystem(R, flavor, toggles)
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

    def counits():
        bad = []
        for label, gen in generator_list(rs, include_inverses=True):
            l, r = check_counit(rs, tables, gen)
            if not (l.is_zero() and r.is_zero()):
                bad.append(label)
        return not bad, ", ".join(bad) if bad else None
    _timed(report, "axiom-counit", counits)

    def coassoc():
        bad = []
        for label, gen in generator_list(rs, include_inverses=True):
            if not check_coassoc(rs, tables, gen).is_zero():
                bad.append(label)
        return not bad, ", ".join(bad) if bad else None
    _timed(report, "axiom-coassoc", coassoc)

    def antipode():
        bad = []
        for label, gen in generator_list(rs, include_inverses=False):
            l, r = check_antipode(rs, tables, gen)
            if not (l.is_zero() and r.is_zero()):
                bad.append(label)
        return not bad, ", ".join(bad) if bad else None
    _timed(report, "axiom-antipode", antipode)


def _plan_verify_modes(R: RMatrix, flavor: str, toggles: Toggles,
                       window: SeriesWindow, report: VerificationReport,
                       is_example1: bool):
    def modes():
        rs = RewriteSystem(R, flavor, toggles, check_unitarity=False)
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
    src.add_argument("--instance", choices=INSTANCE_NAMES,
                     help="built-in R-matrix instance")
    src.add_argument("--spec", help="R-matrix spec file")
    p.add_argument("--toggle", action="append", default=[],
                   metavar="NAME=VALUE",
                   help="convention toggle, VALUE in {corrected, literal}")
    p.add_argument("--out", help="write the JSON report to this path")
    p.add_argument("--timings", action="store_true",
                   help="include wall times in the JSON report (off by "
                        "default so reports are byte-stable)")


def _load(args):
    file_toggles = {}
    if args.instance:
        R = get_instance(args.instance)
        name = args.instance
        flags = instance_flags(args.instance)
    else:
        with open(args.spec, encoding="utf-8") as fh:
            R, file_toggles = parse_rspec(fh.read())
        name = R.name
        flags = []
    for item in args.toggle:
        if "=" not in item:
            raise ParseError(f"bad toggle {item!r}, expected NAME=VALUE")
        key, val = item.split("=", 1)
        file_toggles[key.strip()] = val.strip()
    toggles = Toggles.from_dict(file_toggles)
    return R, name, flags, toggles


def _emit(report: VerificationReport, args) -> int:
    sys.stdout.write(report.text_summary())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json(include_timings=args.timings))
    return report.exit_code()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="rhopf",
        description="exact verification of R-matrix exchange algebras and "
                    "their Hopf structures")
    sub = parser.add_subparsers(dest="command", required=True)

    p1 = sub.add_parser("check-r", help="Yang-Baxter (both middle-argument "
                        "conventions), unitarity, pole clearing")
    _add_common(p1)

    p2 = sub.add_parser("verify-hopf", help="braid consistency, relation "
                        "homomorphism checks, Hopf axioms")
    _add_common(p2)
    p2.add_argument("--flavor", default="double",
                    choices=("particle", "extended", "double"))

    p3 = sub.add_parser("verify-modes", help="mode-level consistency and "
                        "the scalar reference comparison")
    _add_common(p3)
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

    args = parser.parse_args(argv)

    try:
        R, name, flags, toggles = _load(args)
    except (RhopfError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2

    if args.command == "normal-order":
        try:
            rs = RewriteSystem(R, args.flavor, toggles,
                               check_unitarity=False)
            e = parse_element(args.element)
            out = delta_normalize(normal_order(e, rs))
            sys.stdout.write(format_element(out) + "\n")
            return 0
        except RhopfError as exc:
            sys.stderr.write(f"error: {exc}\n")
            return 2

    report = VerificationReport(instance=name, toggles=toggles.as_dict())
    report.flags.extend(flags)
    try:
        if args.command == "check-r":
            _plan_check_r(R, toggles, report)
        elif args.command == "verify-hopf":
            _plan_verify_hopf(R, args.flavor, toggles, report)
        elif args.command == "verify-modes":
            window = SeriesWindow(args.window, args.margin)
            _plan_verify_modes(R, args.flavor, toggles, window, report,
                               is_example1=(name == "example1"))
    except (RhopfError, IndexError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    return _emit(report, args)


if __name__ == "__main__":
    sys.exit(main())
