"""Self-tests of the benchmark's own checks.

    PYTHONPATH=src python3 -m pytest verdictbench -q

They run a few cheap verdicts in-process and show that a wrong
expectation, a verdict past its limit and the traced run are each
handled as run.py claims.
"""

import dataclasses
import os
import shutil
import signal
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
from layers import TARGETS, Tracer  # noqa: E402
from verdicts import (HOPF_DIAGONAL, MODES_WINDOW, WORKLOADS,  # noqa: E402
                      Workload)

sys.path.insert(0, run.SRC)


@pytest.fixture(scope="module")
def prog():
    os.makedirs(os.path.dirname(run.REPORT), exist_ok=True)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        yield run.Program()
    finally:
        signal.signal(signal.SIGALRM, previous)


def _verdict(workload, name):
    return next(v for v in workload.verdicts if v.name == name)


def _bindings():
    """Every module-level and class-level binding of the rhopf package."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "rhopf" and not modname.startswith("rhopf."):
            continue
        owners = [mod] + [v for v in vars(mod).values()
                          if isinstance(v, type) and v.__module__ == modname]
        for owner in owners:
            for attr, value in vars(owner).items():
                out[(modname, getattr(owner, "__qualname__", ""), attr)] = \
                    value
    return out


@pytest.mark.parametrize("planted", [
    {"exit_code": 1},
    {"fails": frozenset({"unitarity"})},
    {"digest": "0" * 64},
])
def test_planted_wrong_expectation_is_an_error(prog, planted):
    good = _verdict(HOPF_DIAGONAL, "check-r:example1")
    bad = dataclasses.replace(good, **planted)
    rows = run.run_pass(prog, Workload("planted", 30, (good, bad)), [0, 1])
    metrics, attempted, wrong, undecided = run.end_to_end([0.1], [rows])
    assert (attempted, wrong, undecided) == (2, 1, 0)
    assert metrics["right_verdict_ratio"][0] == 0.5


def test_tiny_limit_makes_a_verdict_undecided(prog):
    v = _verdict(HOPF_DIAGONAL, "verify-hopf:example2-n2")
    rows = run.run_pass(prog, Workload("tiny", 0.01, (v,)), [0])
    metrics, attempted, wrong, undecided = run.end_to_end([0.1], [rows])
    assert (attempted, wrong, undecided) == (1, 0, 1)
    assert metrics["decided_ratio"][0] == 0.0


def _traced(prog):
    """One traced pass of cheap verdicts plus one cut off mid-way."""
    cheap = tuple(_verdict(w, name) for w, name in (
        (HOPF_DIAGONAL, "check-r:example2-n2"),
        (HOPF_DIAGONAL, "verify-hopf:example1"),
        (MODES_WINDOW, "verify-modes:example1:w5"),
        (MODES_WINDOW, "drinfeld-compare:q^6"),
    ))
    cut = (_verdict(HOPF_DIAGONAL, "verify-hopf:example2-n2"),)
    with Tracer() as tracer:
        assert len(tracer.patched) >= len(TARGETS)
        for owner, attr, original in tracer.patched:
            assert vars(owner)[attr] is not original
        rows = run.run_pass(prog, Workload("cheap", 30, cheap),
                            range(len(cheap)), tracer)
        rows += run.run_pass(prog, Workload("cut", 0.05, cut), [0], tracer)
    assert [r[1] for r in rows] == [run.RIGHT] * len(cheap) + [run.UNDECIDED]
    return tracer


def test_traced_run_restores_every_binding(prog):
    before = _bindings()
    tracer = _traced(prog)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.patched == []


def _counts(tracer):
    """The traced metrics that are not times: they must repeat exactly."""
    return {k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"}


def test_traced_counts_repeat_exactly(prog):
    first = _counts(_traced(prog))
    second = _counts(_traced(prog))
    assert first == second
    for name in ("symfield.mul.calls", "symfield.poly_gcd.calls",
                 "kernels.poly_mul.term_products", "algebra.rewrite_steps",
                 "modes.mode_expand_relation.calls", "hopf.coproduct.calls"):
        assert first[name] > 0, name


def test_speed_probe_disarms_its_timer():
    with run.SpeedProbe() as probe:
        sum(range(10**6))
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert len(probe.samples) >= 2 and probe.factor() > 0


def _with_spec(prog, R):
    clone = object.__new__(run.Program)
    clone.__dict__.update(vars(prog), sixvertex=R)
    return clone


def test_spec_check_rejects_any_other_matrix(prog):
    run.check_spec(prog)
    R = prog.sixvertex
    swapped = dict(R.entries)
    swapped[(1, 2, 2, 1)] = R.entries[(2, 1, 1, 2)]
    swapped[(2, 1, 1, 2)] = R.entries[(1, 2, 2, 1)]
    with pytest.raises(run.BenchError):
        run.check_spec(_with_spec(prog, dataclasses.replace(
            R, entries=swapped)))


def test_expectation_table_is_complete():
    names = [v.name for w in WORKLOADS.values() for v in w.verdicts]
    assert len(names) == len(set(names))
    for w in WORKLOADS.values():
        for v in w.verdicts:
            assert v.reason
            assert (v.digest is None) == v.known_undecided, v.name
            assert (v.exit_code == 1) == (w.name == "negative-controls"
                                          or v.argv is None), v.name


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "verdictbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "verdictbench/run.py", "--workload", "hopf-diagonal",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
