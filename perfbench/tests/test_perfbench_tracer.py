"""Span arithmetic and wrapper hygiene of the tracer."""

import math
from pathlib import Path

import pytest

import harness
import tracer
import workloads
from weyl_uncert import analysis, cli, families, fock, numerics, spin, verify

MODULES = {"cli": cli, "analysis": analysis, "families": families, "fock": fock,
           "numerics": numerics, "spin": spin, "verify": verify}


def _recorder_with(spans):
    """A recorder holding (name, start, end, parent, pass) spans given by hand."""
    rec = tracer.Recorder()
    for name, start, end, parent, pass_id in spans:
        rec.name_id.append(rec._id(name))
        rec.start.append(start)
        rec.end.append(end)
        rec.parent.append(parent)
        rec.pass_id.append(pass_id)
        rec.size.append(0.0)
    return rec


def test_self_time_subtracts_only_direct_children():
    # op [0, 100] > report [10, 60] > char_set [20, 30], char_set [35, 55] > det3 [40, 45]
    #             > report [70, 90]
    start = [0, 10, 20, 35, 40, 70]
    end = [100, 60, 30, 55, 45, 90]
    parent = [-1, 0, 1, 1, 3, 0]
    assert tracer.self_times(start, end, parent) == [30, 20, 10, 15, 5, 20]


def test_self_time_counts_overlapping_children_once():
    # Children that overlap (or stick out of the parent) cover the union, clipped.
    start = [0, 10, 20, 90]
    end = [100, 40, 50, 120]
    parent = [-1, 0, 0, 0]
    assert tracer.self_times(start, end, parent)[0] == 100 - 40 - 10


def test_layer_metrics_per_pass_on_synthetic_spans():
    ns = 10**9
    rec = _recorder_with([
        ("op.scan", 0, 4 * ns, -1, 0),
        ("fock.report", 1 * ns, 3 * ns, 0, 0),
        ("fock.char_set", 1 * ns, 2 * ns, 1, 0),
        ("fock.char_set", 3 * ns, 4 * ns, 0, 0),
        ("op.scan", 10 * ns, 12 * ns, -1, 1),
        ("fock.report", 10 * ns, 12 * ns, 4, 1),
        ("fock.char_set", 10 * ns, 11 * ns, 5, 1),
        ("fock.char_set", 11 * ns, 11 * ns, 5, 1),
        ("fock.report", 20 * ns, 21 * ns, -1, 7),  # outside the traced passes
    ])
    m = tracer.layer_metrics(rec, {0: 4.0, 1: 2.0})
    assert m["fock.report.calls"] == 1.0
    assert m["fock.char_set.calls"] == 2.0
    assert m["fock.char_set.per_report"] == 2.0
    assert m["fock.report.self_s"] == pytest.approx(1.0)  # median of 1 s and 1 s
    assert m["fock.char_set.self_s"] == pytest.approx(1.5)  # median of 2 s and 1 s
    assert m["fock.char_set.share"] == pytest.approx(3.0 / 6.0)
    assert m["spin.char_set.per_report"] == 0.0
    assert set(m) == set(tracer.metric_units()) - {"trace.overhead_ratio"}


def _snapshot():
    out = []
    for t in tracer.TARGETS:
        owner = tracer._resolve(MODULES, t.owner)
        out.append(owner[t.key] if isinstance(owner, dict) else vars(owner)[t.key])
    return out


def test_wrappers_restore_every_attribute_exactly():
    before = _snapshot()
    rec = tracer.Recorder()
    with rec.installed(MODULES):
        during = _snapshot()
        assert all(a is not b for a, b in zip(before, during))
        assert isinstance(vars(numerics.Hermitian3)["from_upper"], classmethod)
    after = _snapshot()
    assert all(a is b for a, b in zip(before, after))


def test_wrappers_are_restored_when_the_traced_code_raises():
    before = _snapshot()
    with pytest.raises(ZeroDivisionError):
        with tracer.Recorder().installed(MODULES):
            1 / 0
    assert all(a is b for a, b in zip(before, _snapshot()))


def test_failed_install_leaves_nothing_wrapped():
    before = _snapshot()
    partial = {k: v for k, v in MODULES.items() if k != "verify"}  # the last targets are in verify
    with pytest.raises(KeyError):
        tracer.Recorder().install(partial)
    assert all(a is b for a, b in zip(before, _snapshot()))


def test_calls_outside_an_op_span_are_not_recorded():
    rec = tracer.Recorder()
    state = fock.FockState([1.0, 0.0, 0.0])
    with rec.installed(MODULES):
        fock.report(state, 1, math.pi)
        assert len(rec.start) == 0
        with rec.op_span("probe"):
            fock.report(state, 1, math.pi)
    names = [s[0] for s in rec.spans()]
    assert names == ["op.probe", "fock.report", "fock.char_set", "fock.gram_matrices",
                     "numerics.Hermitian3", "numerics.Hermitian3", "numerics.det3",
                     "numerics.det3"]
    parents = [s[3] for s in rec.spans()]
    assert parents == [-1, 0, 1, 1, 3, 3, 1, 1]


def test_traced_figures_pass_reads_two_char_sets_per_report(tmp_path: Path):
    wl = workloads.make("figures", 3, 0, tmp_path)
    rec = tracer.Recorder()
    with rec.installed(MODULES):
        rec.begin_pass(0)
        res = harness.run_pass(wl.pass_ops(), rec)
    assert res.failures == []
    m = tracer.layer_metrics(rec, {0: res.seconds})
    assert m["fock.char_set.per_report"] == 2.0
    assert m["cli.main.calls"] == len(workloads.FIGURES_COMMANDS)
    assert m["spin.report.calls"] == 0.0
    assert sum(v for k, v in m.items() if k.endswith(".share")) <= 1.0
