#!/usr/bin/env python3
"""Time-to-verdict benchmark for rhopf.

    python3 verdictbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One process, one thread: it imports rhopf
from ``src/`` and runs each verdict of the workload (see verdicts.py)
through ``rhopf.cli.main``, as a user's CLI run would, and checks every
verdict against its hand-written expectation.  Passes over the workload
repeat until ``--seconds`` have gone by (at least one pass); the seed only
permutes the order of the verdicts within each pass.  Times are reported
in seconds at a reference machine speed, measured while each verdict runs
(see SpeedProbe).  A verdict that runs past the workload's limit, counted
in the same seconds, is cut off from a signal handler and counted as
undecided; a wall-clock SIGALRM at BACKSTOP times the limit backs it up.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` then runs one
more pass with every layer wrapped (layers.py) and prints the per-layer
metrics and the tracing overhead instead.  ``--workload all`` runs every
workload in turn, each in its own child process, and prints a table of
every end-to-end metric.  The last line of output is always one JSON
object.  Exit code 0 when the run completed, 2 when it could not.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time

from layers import Tracer
from verdicts import SIXVERTEX, SIXVERTEX_ENTRIES, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SPEC = os.path.join(HERE, "sixvertex.rspec")
REPORT = os.path.join(HERE, "_out", "report.json")
SETUP_REPS = 7
PROBE_PERIOD_S = 0.01  # process CPU time between two speed samples
PROBE_REF_S = 30e-6  # probe loop time at the reference speed
BACKSTOP = 3  # wall-clock limit, in multiples of the verdict limit

RIGHT, WRONG, UNDECIDED = "right", "wrong", "undecided"


class BenchError(Exception):
    """The benchmark cannot run: missing sources or a bad spec file."""


class Undecided(BaseException):
    """Raised from a signal handler in the middle of a verdict; derives
    from BaseException so that no ``except Exception`` in rhopf swallows
    it."""


def _on_alarm(signum, frame):
    raise Undecided()


# ---------------------------------------------------------------------------
# machine speed
# ---------------------------------------------------------------------------

def _probe_loop():
    x = 0
    for i in range(300):
        x = (x * 31 + i) & 0xFFFF
    return x


class SpeedProbe:
    """Samples the machine's speed while the program runs.

    On a shared host the same pass takes 20 % more or less time from one
    minute to the next, far beyond what a code change should be judged
    by.  So every PROBE_PERIOD_S of process CPU time a SIGPROF handler
    times a small loop that allocates nothing and so does not depend on
    the program's state; its time tracks the slowdown the program sees
    at that moment.  ``factor`` turns a measured time into seconds at the
    reference speed, the speed at which the loop takes PROBE_REF_S.

    With ``limit_s`` the handler also raises Undecided once the elapsed
    time, at the reference speed, reaches the limit, so that a verdict
    cut off has done the same work however fast the host was.
    """

    def __init__(self, limit_s=None):
        self.limit_s = limit_s
        self.samples = []
        self._sum = 0.0
        self._start = None

    def _sample(self):
        t0 = time.perf_counter()
        _probe_loop()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self._sum += t1 - t0
        return t1

    def _tick(self, signum, frame):
        now = self._sample()
        if (self.limit_s is not None
                and (now - self._start) * self.factor() >= self.limit_s):
            raise Undecided()

    def __enter__(self):
        self._start = self._sample()
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        self._sample()

    def factor(self) -> float:
        return PROBE_REF_S * len(self.samples) / self._sum


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Program:
    """The freshly imported rhopf modules and the parsed six-vertex spec."""

    def __init__(self):
        self.cli = importlib.import_module("rhopf.cli")
        self.expr = importlib.import_module("rhopf.expr")
        self.modes = importlib.import_module("rhopf.modes")
        self.rmatrix = importlib.import_module("rhopf.rmatrix")
        if not os.path.abspath(self.cli.__file__).startswith(SRC + os.sep):
            raise BenchError(f"rhopf imported from {self.cli.__file__}, "
                             f"not from {SRC}")
        with open(SPEC, encoding="utf-8") as fh:
            self.sixvertex, _ = self.cli.parse_rspec(fh.read())


def fresh_program() -> Program:
    """Worker set-up as a CLI run pays it: import rhopf, parse the spec."""
    for name in [m for m in sys.modules
                 if m == "rhopf" or m.startswith("rhopf.")]:
        del sys.modules[name]
    return Program()


def check_spec(prog: Program):
    """The committed spec must be the six-vertex fixture and satisfy the
    side conditions its verdicts rely on."""
    R = prog.sixvertex
    want = {k: prog.expr.parse_expr(v) for k, v in SIXVERTEX_ENTRIES.items()}
    if (R.n, R.var) != (2, "x") or R.entries != want:
        raise BenchError(f"{SPEC} does not parse to the six-vertex entries")
    if prog.rmatrix.ybe_residual(R, "prod"):
        raise BenchError("six-vertex spec: Yang-Baxter residual is nonzero")
    if prog.rmatrix.unitarity_residual(R):
        raise BenchError("six-vertex spec: unitarity residual is nonzero")


# ---------------------------------------------------------------------------
# one verdict
# ---------------------------------------------------------------------------

def _q6_control(prog: Program) -> dict:
    R = prog.rmatrix.RMatrix(
        1, "x", {(1, 1, 1, 1): prog.expr.parse_expr("(x - q^6)/(x*q^6 - 1)")},
        name="q6-control")
    return prog.modes.drinfeld_compare(prog.modes.SeriesWindow(5, 1), R)


def _execute(prog: Program, verdict):
    """Runs the verdict: the CLI's exit code, or the q^6 control's dict."""
    if verdict.argv is None:
        return _q6_control(prog)
    argv = [SPEC if a == SIXVERTEX else a for a in verdict.argv]
    return prog.cli.main(argv + ["--out", REPORT])


def _outcome(verdict, result):
    """(exit code, failing check ids, report bytes) of a finished verdict."""
    if verdict.argv is None:
        fails = {p["relation"] for p in result["pairs"]
                 if p["mismatched_slots"]}
        blob = json.dumps(result, sort_keys=True, indent=2).encode()
        return (0 if result["match"] else 1), fails, blob
    with open(REPORT, "rb") as fh:
        blob = fh.read()
    fails = {c["check_id"] for c in json.loads(blob)["checks"]
             if c["status"] == "fail"}
    return result, fails, blob


def run_verdict(prog: Program, verdict, limit_s: float, tracer=None):
    """Returns (status, wall seconds, cpu seconds, problem text), the times
    in seconds at the reference speed."""
    gc.collect()
    with contextlib.suppress(FileNotFoundError):
        os.remove(REPORT)
    snap = tracer.snapshot() if tracer is not None else None
    sink = io.StringIO()
    probe = SpeedProbe(limit_s)
    status = problem = None
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        with probe:
            signal.setitimer(signal.ITIMER_REAL, BACKSTOP * limit_s)
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(sink):
                    result = _execute(prog, verdict)
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
    except Undecided:
        status = UNDECIDED
    except (Exception, SystemExit) as exc:  # a crash is a wrong verdict
        status, problem = WRONG, f"raised {type(exc).__name__}: {exc}"
    wall = (time.perf_counter() - w0) * probe.factor()
    cpu = (time.process_time() - c0) * probe.factor()
    if status == UNDECIDED and tracer is not None:
        tracer.rollback(snap)
    if status is None:
        try:
            problem = _compare(verdict, *_outcome(verdict, result))
        except (OSError, ValueError, KeyError) as exc:
            problem = f"no readable report: {exc!r}"
        status = WRONG if problem else RIGHT
    return status, wall, cpu, problem


def _compare(verdict, code, fails, blob) -> str:
    bad = []
    if code != verdict.exit_code:
        bad.append(f"exit code {code}, expected {verdict.exit_code}")
    if fails != verdict.fails:
        bad.append(f"failing checks {sorted(fails)}, expected "
                   f"{sorted(verdict.fails)}")
    digest = hashlib.sha256(blob).hexdigest()
    if digest != verdict.digest and not (verdict.known_undecided
                                         and verdict.digest is None):
        bad.append(f"report sha256 {digest}, pinned {verdict.digest}")
    return "; ".join(bad)


# ---------------------------------------------------------------------------
# passes and metrics
# ---------------------------------------------------------------------------

def run_pass(prog: Program, workload, order, tracer=None, log=None):
    """One pass in the given order; returns per-verdict rows of (verdict,
    status, wall, cpu)."""
    rows = []
    for i in order:
        v = workload.verdicts[i]
        status, wall, cpu, problem = run_verdict(prog, v, workload.limit_s,
                                                 tracer)
        rows.append((v, status, wall, cpu))
        if log is not None:
            log(f"  {status:9} {wall:8.3f}s  {v.name}"
                + (f"  -- {problem}" if problem else ""))
    return rows


def pass_summary(rows) -> dict:
    decided = [wall for _, status, wall, _ in rows if status != UNDECIDED]
    return {
        "wall_s": sum(r[2] for r in rows),
        "cpu_s": sum(r[3] for r in rows),
        "slowest_verdict_s": max(decided, default=0.0),
        "attempted": len(rows),
        "wrong": sum(1 for r in rows if r[1] == WRONG),
        "undecided": sum(1 for r in rows if r[1] == UNDECIDED),
    }


def end_to_end(setup_times, passes) -> dict:
    sums = [pass_summary(rows) for rows in passes]
    attempted = sum(s["attempted"] for s in sums)
    wrong = sum(s["wrong"] for s in sums)
    undecided = sum(s["undecided"] for s in sums)

    def med(key):
        return statistics.median(s[key] for s in sums)
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (med("wall_s"), "s"),
        "cpu_s": (med("cpu_s"), "s"),
        "slowest_verdict_s": (med("slowest_verdict_s"), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        # right = 1 - error_ratio, decided = 1 - undecided_ratio: stated
        # as shares that are never 0, so that a relative bound applies
        "right_verdict_ratio": ((attempted - wrong) / attempted, "ratio"),
        "decided_ratio": ((attempted - undecided) / attempted, "ratio"),
    }, attempted, wrong, undecided


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()}})


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    if not os.path.isdir(os.path.join(SRC, "rhopf")):
        raise BenchError(f"no rhopf sources under {SRC}")
    sys.path.insert(0, SRC)
    os.makedirs(os.path.dirname(REPORT), exist_ok=True)
    check_spec(fresh_program())
    setup_times = []
    for _ in range(SETUP_REPS):
        with SpeedProbe() as probe:
            t0 = time.perf_counter()
            prog = fresh_program()
            setup_times.append(time.perf_counter() - t0)
        setup_times[-1] *= probe.factor()

    signal.signal(signal.SIGALRM, _on_alarm)
    rng = random.Random(args.seed)
    n = len(workload.verdicts)
    passes, orders = [], []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        orders.append(rng.sample(range(n), n))
        print(f"pass {len(passes) + 1} of {workload.name} (seed {args.seed})")
        passes.append(run_pass(prog, workload, orders[-1], log=print))

    metrics, attempted, wrong, undecided = end_to_end(setup_times, passes)
    print(f"error_ratio {wrong / attempted:.6g} ratio")
    print(f"undecided_ratio {undecided / attempted:.6g} ratio")
    if args.trace:
        # a known undecided verdict would only be rolled back out of the
        # traced counts, so the traced pass leaves it out
        order = [i for i in orders[0]
                 if not workload.verdicts[i].known_undecided]
        print(f"traced pass of {workload.name}")
        with Tracer() as tracer:
            rows = run_pass(prog, workload, order, tracer, log=print)
        traced = pass_summary(rows)
        attempted += traced["attempted"]
        wrong += traced["wrong"]
        metrics = tracer.metrics()
        untraced_wall = sum(wall for v, _, wall, _ in passes[0]
                            if not v.known_undecided)
        metrics["trace.overhead_s"] = (traced["wall_s"] - untraced_wall, "s")
        metrics["trace.overhead_ratio"] = (
            traced["wall_s"] / untraced_wall - 1, "ratio")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(_result_line(wrong == 0, attempted, wrong, metrics))
    return 0


def run_all(args) -> int:
    """Every workload in its own child process, one after the other."""
    rows, merged = [], {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout + proc.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        correct = correct and res["correct"]
        attempted += res["attempted"]
        failed += res["failed"]
        for metric, m in res["metrics"].items():
            rows.append((name, metric, m["value"], m["unit"]))
            merged[f"{name}.{metric}"] = (m["value"], m["unit"])
    for name, metric, value, unit in rows:
        print(f"{name:18} {metric:40} {value:12.6g} {unit}")
    print(_result_line(correct, attempted, failed, merged))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_workload(args)
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
