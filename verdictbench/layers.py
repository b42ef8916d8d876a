"""Per-layer spans and counts for the benchmark's traced run.

rhopf has no tracing of its own yet, so the tracer works from outside the
program: every module binding and class attribute that holds one of the
functions in TARGETS is replaced by a wrapper, and ``restore`` puts the
original objects back.  Wrapping every binding matters because ``hopf``,
``modes`` and ``cli`` call names imported from ``algebra``, ``rmatrix``
and the other layers.

Spans are aggregated per name as they close (calls, total time, self
time), so a traced pass over millions of kernel calls keeps no per-call
records.  Self time is a span's duration minus the duration of the
wrapped calls made inside it.
"""

from __future__ import annotations

import importlib
import sys
import weakref
from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name).  An attribute "Cls.meth" is looked up on
# the class.
TARGETS = (
    ("rhopf.symfield", "RatExpr.__add__", "symfield.add"),
    ("rhopf.symfield", "RatExpr.__mul__", "symfield.mul"),
    ("rhopf.symfield", "poly_gcd", "symfield.poly_gcd"),
    ("rhopf.symfield", "divexact", "symfield.divexact"),
    ("rhopf.symfield", "RatExpr.subs_monomial", "symfield.subs_monomial"),
    ("rhopf.kernels", "poly_mul", "kernels.poly_mul"),
    ("rhopf.kernels", "poly_add", "kernels.poly_add"),
    ("rhopf.kernels", "poly_sub", "kernels.poly_sub"),
    ("rhopf.kernels", "poly_scale", "kernels.poly_scale"),
    ("rhopf.algebra", "normal_order", "algebra.normal_order"),
    ("rhopf.algebra", "RewriteSystem.r_at", "algebra.r_at"),
    ("rhopf.algebra", "RewriteSystem.__init__",
     "algebra.rewrite_system_build"),
    ("rhopf.algebra", "delta_normalize", "algebra.delta_normalize"),
    ("rhopf.algebra", "braid_consistency", "algebra.braid_consistency"),
    ("rhopf.hopf", "coproduct", "hopf.coproduct"),
    ("rhopf.hopf", "merge_legs", "hopf.merge_legs"),
    ("rhopf.hopf", "antipode_apply", "hopf.antipode_apply"),
    ("rhopf.hopf", "check_hom_on_relation", "hopf.check_hom"),
    ("rhopf.hopf", "check_counit", "hopf.check_counit"),
    ("rhopf.hopf", "check_coassoc", "hopf.check_coassoc"),
    ("rhopf.hopf", "check_antipode", "hopf.check_antipode"),
    ("rhopf.modes", "mode_expand_relation", "modes.mode_expand_relation"),
    ("rhopf.modes", "check_mode_consistency",
     "modes.check_mode_consistency"),
    ("rhopf.modes", "drinfeld_compare", "modes.drinfeld_compare"),
    ("rhopf.rmatrix", "ybe_residual", "rmatrix.ybe_residual"),
    ("rhopf.rmatrix", "unitarity_residual", "rmatrix.unitarity_residual"),
    ("rhopf.rmatrix", "clear_poles", "rmatrix.clear_poles"),
    ("rhopf.rmatrix", "RMatrix.inverse_entries", "rmatrix.inverse_entries"),
    ("rhopf.rmatrix", "RMatrix.determinant", "rmatrix.determinant"),
    ("rhopf.elemio", "format_element", "elemio.format_element"),
    ("rhopf.expr", "parse_expr", "expr.parse_expr"),
    ("rhopf.report", "VerificationReport.to_json", "report.to_json"),
)

RELATION_IDS = ("PhiPhi", "PhiL", "LL", "LstarLstar", "LLstar",
                "PhistarPhistar", "PhistarLstar", "PhiPhistar", "PhistarL",
                "PhiLstar")

_ONE = {(): 1}


class Tracer:
    """Install with ``with Tracer() as tr:``; leaving the block restores
    every binding it replaced."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total, self
        self.counts = Counter()
        self.patched = []  # (owner, attribute, original object)
        self._stack = []  # wrapped-child time of each open span
        self._gcd_depth = 0
        self._r_at_keys = weakref.WeakKeyDictionary()

    # -- install / restore -------------------------------------------------

    def __enter__(self):
        try:
            for module, attr, name in TARGETS:
                owner = importlib.import_module(module)
                for part in attr.split(".")[:-1]:
                    owner = getattr(owner, part)
                original = getattr(owner, attr.split(".")[-1])
                self._patch_everywhere(original, self._wrapper(name,
                                                               original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)
        self.patched = []

    def _patch_everywhere(self, original, wrapper):
        owners = []
        for modname, mod in list(sys.modules.items()):
            if modname != "rhopf" and not modname.startswith("rhopf."):
                continue
            owners.append(mod)
            owners.extend(v for v in vars(mod).values()
                          if isinstance(v, type)
                          and v.__module__ == modname)
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self.patched.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    # -- spans -------------------------------------------------------------

    def _close(self, name, dt):
        stack = self._stack
        child = stack.pop()
        span = self.spans[name]
        span[0] += 1
        span[1] += dt
        span[2] += dt - child
        if stack:
            stack[-1] += dt

    def _wrapper(self, name, fn):
        stack = self._stack
        close = self._close
        counts = self.counts
        special = {
            "symfield.poly_gcd": self._gcd_wrapper,
            "hopf.check_hom": self._hom_wrapper,
        }.get(name)
        if special is not None:
            return special(name, fn)

        if name == "kernels.poly_mul":
            def wrapper(p, q):
                counts["kernels.poly_mul.term_products"] += len(p) * len(q)
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(p, q)
                finally:
                    close(name, perf_counter() - t0)
        elif name == "algebra.normal_order":
            def wrapper(e, rs, trace=None, **kw):
                counts["algebra.normal_order.terms_in"] += len(e.terms)
                steps = trace if trace is not None else []
                before = len(steps)
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(e, rs, steps, **kw)
                finally:
                    close(name, perf_counter() - t0)
                    counts["algebra.rewrite_steps"] += len(steps) - before
        elif name == "algebra.r_at":
            keys = self._r_at_keys

            def wrapper(rs, argm):
                seen = keys.setdefault(rs, set())
                if argm in seen:
                    counts["algebra.r_at.hits"] += 1
                else:
                    seen.add(argm)
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(rs, argm)
                finally:
                    close(name, perf_counter() - t0)
        else:
            def wrapper(*args, **kw):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    return fn(*args, **kw)
                finally:
                    close(name, perf_counter() - t0)
        wrapper.__wrapped__ = fn
        return wrapper

    def _gcd_wrapper(self, name, fn):
        """Counts outermost calls only; recursive calls get their own span
        name so that self times stay right."""
        stack = self._stack
        close = self._close
        counts = self.counts
        inner = name + ".inner"

        def wrapper(p, q):
            outer = self._gcd_depth == 0
            self._gcd_depth += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                g = fn(p, q)
            finally:
                self._gcd_depth -= 1
                close(name if outer else inner, perf_counter() - t0)
            if outer:
                if g != _ONE:
                    counts["symfield.poly_gcd.nontrivial"] += 1
                terms = max(len(p), len(q))
                if terms > counts["symfield.poly_gcd.max_terms"]:
                    counts["symfield.poly_gcd.max_terms"] = terms
            return g
        wrapper.__wrapped__ = fn
        return wrapper

    def _hom_wrapper(self, name, fn):
        stack = self._stack
        close = self._close

        def wrapper(rs, tables, relation_id):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(rs, tables, relation_id)
            finally:
                close(f"{name}.{relation_id}", perf_counter() - t0)
        wrapper.__wrapped__ = fn
        return wrapper

    # -- verdict boundaries ------------------------------------------------

    def snapshot(self):
        return ({k: list(v) for k, v in self.spans.items()},
                Counter(self.counts))

    def rollback(self, snap):
        """Drop everything recorded since ``snap``: used for a verdict cut
        off by its time limit, whose partial counts depend on timing."""
        spans, counts = snap
        self.spans.clear()
        self.spans.update({k: list(v) for k, v in spans.items()})
        self.counts.clear()
        self.counts.update(counts)
        self._stack.clear()
        self._gcd_depth = 0

    # -- metrics -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: name -> (value, unit)."""
        spans = self.spans
        c = self.counts

        def calls(name):
            return spans[name][0] if name in spans else 0

        def total(name):
            return spans[name][1] if name in spans else 0.0

        def self_s(name):
            return spans[name][2] if name in spans else 0.0

        gcd_calls = calls("symfield.poly_gcd")
        r_at_calls = calls("algebra.r_at")
        out = {
            "symfield.add.calls": (calls("symfield.add"), "count"),
            "symfield.add.self_s": (self_s("symfield.add"), "s"),
            "symfield.mul.calls": (calls("symfield.mul"), "count"),
            "symfield.mul.self_s": (self_s("symfield.mul"), "s"),
            "symfield.poly_gcd.calls": (gcd_calls, "count"),
            "symfield.poly_gcd.s": (total("symfield.poly_gcd"), "s"),
            "symfield.poly_gcd.nontrivial_ratio": (
                c["symfield.poly_gcd.nontrivial"] / gcd_calls
                if gcd_calls else 0.0, "ratio"),
            "symfield.poly_gcd.max_terms": (
                c["symfield.poly_gcd.max_terms"], "terms"),
            "symfield.divexact.calls": (calls("symfield.divexact"), "count"),
            "symfield.divexact.s": (total("symfield.divexact"), "s"),
            "symfield.subs_monomial.calls": (
                calls("symfield.subs_monomial"), "count"),
            "kernels.poly_mul.calls": (calls("kernels.poly_mul"), "count"),
            "kernels.poly_mul.s": (total("kernels.poly_mul"), "s"),
            "kernels.poly_mul.term_products": (
                c["kernels.poly_mul.term_products"], "count"),
            "kernels.poly_addsub.calls": (
                calls("kernels.poly_add") + calls("kernels.poly_sub"),
                "count"),
            "kernels.poly_scale.calls": (calls("kernels.poly_scale"),
                                         "count"),
            "algebra.normal_order.calls": (calls("algebra.normal_order"),
                                           "count"),
            "algebra.normal_order.self_s": (
                self_s("algebra.normal_order"), "s"),
            "algebra.normal_order.terms_in": (
                c["algebra.normal_order.terms_in"], "count"),
            "algebra.rewrite_steps": (c["algebra.rewrite_steps"], "count"),
            "algebra.r_at.calls": (r_at_calls, "count"),
            "algebra.r_at.hit_ratio": (
                c["algebra.r_at.hits"] / r_at_calls if r_at_calls else 0.0,
                "ratio"),
            "algebra.delta_normalize.s": (total("algebra.delta_normalize"),
                                          "s"),
            "algebra.rewrite_system_build.s": (
                total("algebra.rewrite_system_build"), "s"),
            "algebra.braid_consistency.s": (
                total("algebra.braid_consistency"), "s"),
            "hopf.coproduct.calls": (calls("hopf.coproduct"), "count"),
            "hopf.coproduct.self_s": (self_s("hopf.coproduct"), "s"),
            "hopf.merge_legs.s": (total("hopf.merge_legs"), "s"),
            "hopf.antipode_apply.s": (total("hopf.antipode_apply"), "s"),
        }
        for rid in RELATION_IDS:
            out[f"hopf.check_hom.{rid}.s"] = (total(f"hopf.check_hom.{rid}"),
                                              "s")
        out.update({
            "hopf.axioms.s": (total("hopf.check_counit")
                              + total("hopf.check_coassoc")
                              + total("hopf.check_antipode"), "s"),
            "modes.mode_expand_relation.calls": (
                calls("modes.mode_expand_relation"), "count"),
            "modes.mode_expand_relation.s": (
                total("modes.mode_expand_relation"), "s"),
            "modes.check_mode_consistency.s": (
                total("modes.check_mode_consistency"), "s"),
            "modes.drinfeld_compare.s": (total("modes.drinfeld_compare"),
                                         "s"),
        })
        for fn in ("ybe_residual", "unitarity_residual"):
            out[f"rmatrix.{fn}.s"] = (total(f"rmatrix.{fn}"), "s")
        for fn in ("clear_poles", "inverse_entries", "determinant"):
            out[f"rmatrix.{fn}.calls"] = (calls(f"rmatrix.{fn}"), "count")
            out[f"rmatrix.{fn}.s"] = (total(f"rmatrix.{fn}"), "s")
        out.update({
            "elemio.format_element.calls": (calls("elemio.format_element"),
                                            "count"),
            "elemio.format_element.s": (total("elemio.format_element"), "s"),
            "expr.parse_expr.calls": (calls("expr.parse_expr"), "count"),
            "report.to_json.s": (total("report.to_json"), "s"),
        })
        return out
