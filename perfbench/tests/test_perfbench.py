"""Tests of the benchmark itself: seeded inputs, span arithmetic,
failure counting and the exactness of the traced work counts.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import tracing
import workloads
from mdirac.poly import TruncatedPoly

BENCH = Path(__file__).resolve().parents[1]


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]()
    assert _same(wl.make_inputs(7), wl.make_inputs(7))
    if name != "nf_pipeline":
        assert not _same(wl.make_inputs(7), wl.make_inputs(8))


def test_same_seed_same_probe_points():
    wl = workloads.ProbeBrackets()
    a = wl.setup(wl.make_inputs(3))
    b = wl.setup(wl.make_inputs(3))
    assert np.array_equal(a["slice_points"], b["slice_points"])
    assert np.array_equal(a["neumann_points"], b["neumann_points"])
    flow = workloads.ProjectedFlow()
    assert np.array_equal(flow.setup(flow.make_inputs(3))["x"],
                          flow.setup(flow.make_inputs(3))["x"])


def test_self_time_on_hand_built_tree():
    #   0 root  [0, 10]
    #   1   a   [1, 4]      children: 4
    #   2   b   [3, 6]      overlaps a
    #   3   c   [8, 12]     runs past the root's end
    #   4     d [2, 3]
    start = [0.0, 1.0, 3.0, 8.0, 2.0]
    end = [10.0, 4.0, 6.0, 12.0, 3.0]
    parent = [-1, 0, 0, 0, 1]
    got = tracing.self_times(start, end, parent)
    # root: 10 - |[1, 6] u [8, 10]| = 10 - 7
    assert got == pytest.approx([3.0, 2.0, 3.0, 4.0, 1.0])
    assert tracing.root_ids(parent) == [0, 0, 0, 0, 0]


def test_tracer_summary_groups_by_root():
    ticks = iter(range(100))
    tr = tracing.Tracer("t", clock=lambda: float(next(ticks)))
    inner = tr.wrap("leaf", lambda: tr.count("work", 2))
    outer = tr.wrap("mid", lambda: (inner(), inner()))
    for root in ("setup", "item"):
        sid = tr.open(root)
        outer()
        tr.close(sid)
    summ = tr.summary()
    # each leaf span is one tick long; mid lasts 5 ticks, 2 of them leaves
    assert summ[("item", "leaf")] == [2, 2.0]
    assert summ[("item", "mid")] == [1, 3.0]
    assert summ[("item", "item")] == [1, 2.0]
    assert summ[("setup", "leaf")] == [2, 2.0]
    assert tr.counts[("item", "work")] == 4
    assert tr.counts[("setup", "work")] == 4


class _Corrupting:
    """A workload whose items pass through ``corrupt`` before checking."""

    def __init__(self, wl, corrupt):
        self.wl = wl
        self.corrupt = corrupt

    def item(self, state, index):
        return self.corrupt(self.wl.item(state, index))

    def verify(self, state, result):
        return self.wl.verify(state, result)


class _Stored:
    """A workload whose every item returns one stored result."""

    def __init__(self, wl, result):
        self.wl = wl
        self.result = result

    def item(self, state, index):
        return self.result

    def verify(self, state, result):
        return self.wl.verify(state, result)


def _assert_counted_as_failed(wl, state, corrupt, check):
    loop = harness.run_loop(_Corrupting(wl, corrupt), state, math.inf, 2)
    assert loop["failed"] == 2
    assert len(loop["times"]) == 2
    assert check in loop["first_failures"][0]


@pytest.fixture(scope="module")
def small_nf():
    """A cheaper configuration of the pipeline item: K = 3, chart 3."""
    wl = workloads.NfPipeline(K=3, chart_degree=3)
    state = wl.setup(wl.make_inputs(0))
    return wl, state, wl.item(state, 0)


def test_nf_item_with_perturbed_resonant_coefficient_fails(small_nf):
    wl, state, outs = small_nf
    assert wl.verify(state, outs) == []

    def corrupt(outs):
        nf = outs[0]["nf_dirac"]
        res = dict(nf.resonant_terms)
        res[3] = res[3] + TruncatedPoly.monomial((1, 0, 0, 2, 0, 0), 1e-6, 3)
        bad = [dict(o) for o in outs]
        bad[0]["nf_dirac"] = dataclasses.replace(nf, resonant_terms=res)
        return bad

    # the stored result stands in for re-running the pipeline
    _assert_counted_as_failed(_Stored(wl, outs), state, corrupt,
                              "resonant_distance")


def test_nf_reference_catches_an_error_shared_by_both_paths(small_nf):
    wl, state, outs = small_nf
    reference = {
        "%g" % om: {"eta": list(out["nf_chart"].H2.eta),
                    "resonant": {"3": [[list(e), c] for e, c in
                                       out["nf_chart"].resonant_terms[3]
                                       .terms.items()]}}
        for om, out in zip(wl.OMEGAS, outs)}
    state = dict(state, reference=reference)
    assert wl.verify(state, outs) == []
    bump = TruncatedPoly.monomial((1, 0, 0, 2, 0, 0), 1e-6, 3)
    bad = [dict(o) for o in outs]
    for path in ("nf_chart", "nf_dirac"):
        nf = outs[0][path]
        res = dict(nf.resonant_terms)
        res[3] = res[3] + bump
        bad[0][path] = dataclasses.replace(nf, resonant_terms=res)
    failed = wl.verify(state, bad)
    assert not any("resonant_distance" in f for f in failed)
    assert any("reference_resonant_chart" in f for f in failed)
    assert any("reference_resonant_dirac" in f for f in failed)


def test_flow_item_with_drift_above_tolerance_fails():
    wl = workloads.ProjectedFlow()
    state = wl.setup(wl.make_inputs(1))
    traj = wl.item(state, 0)
    assert wl.verify(state, traj) == []

    def corrupt(t):
        t.diagnostics["H"][-1] += 2e-8
        return t

    _assert_counted_as_failed(wl, state, corrupt, "energy_drift")


def test_probe_item_with_broken_antisymmetry_fails():
    wl = workloads.ProbeBrackets()
    state = wl.setup(wl.make_inputs(1))
    assert wl.verify(state, wl.item(state, 0)) == []

    def corrupt(outs):
        outs[-1]["brackets"][0, 1] += 1e-9
        return outs

    _assert_counted_as_failed(wl, state, corrupt, "dsp_antisymmetry")


def test_raising_item_is_counted_and_timed():
    class Boom:
        def item(self, state, index):
            raise RuntimeError("boom")

        def verify(self, state, result):
            raise AssertionError("not reached")

    loop = harness.run_loop(Boom(), None, math.inf, 3)
    assert loop["failed"] == 3 and len(loop["times"]) == 3


def _traced_counts(wl, seed):
    tr = tracing.Tracer("test")
    undo = tracing.instrument(tr)
    try:
        state = wl.setup(wl.make_inputs(seed), tr.wrap)
        loop = harness.run_loop(wl, state, math.inf, 1, tr)
    finally:
        undo()
    assert loop["failed"] == 0
    m = harness.per_layer(tr, 1, loop["wall_s"], loop["wall_s"])
    return {k: m[k][0] for k in ("poly.mul_calls", "poly.mul_term_pairs",
                                 "poly.add_calls", "poly.mul_kept_ratio")}


def test_mul_counts_repeat_exactly_across_traced_runs():
    wl = workloads.NfPipeline(K=3, chart_degree=3)
    first = _traced_counts(wl, 0)
    assert first["poly.mul_calls"] > 0 and first["poly.mul_term_pairs"] > 0
    assert _traced_counts(wl, 0) == first


def test_instrument_restores_the_package():
    from mdirac import models
    before = (TruncatedPoly.__mul__, models.chart_series)
    tracing.instrument(tracing.Tracer("x"))()
    assert (TruncatedPoly.__mul__, models.chart_series) == before


def test_newton_iterations_are_counted_inside_projection():
    from mdirac import dynamics, models
    tr = tracing.Tracer("x")
    undo = tracing.instrument(tr)
    try:
        base = models.dsp_sphere_callables()
        x = np.zeros(12)
        x[0] = x[3] = 1.1          # off both spheres
        sid = tr.open("item")
        dynamics.project_onto_constraints(base, x)
        base.jacobian(x)           # outside the projection: not counted
        tr.close(sid)
    finally:
        undo()
    assert tr.counts[("item", "dynamics.newton_iters")] >= 2


def test_run_without_package_exits_nonzero_and_prints_no_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in BENCH.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "probe_brackets",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    loop = {"wall_s": 2.0, "times": [0.5] * 4, "failed": 0}
    e2e = harness.end_to_end(loop, 0.1)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(m["unit"] == e2e[m["name"]][1] for m in spec["end_to_end"])
    layer = harness.per_layer(tracing.Tracer("x"), 1, 1.0, 1.0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(layer)
    assert all(m["unit"] == layer[m["name"]][1] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
