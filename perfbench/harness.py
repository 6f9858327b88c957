"""Closed-loop driver: set-up, timed items, metrics and the result line.

One caller runs the items one after another; the next item starts only
after the previous one has been verified.  Items keep starting until
the next one would be predicted (from the last item's time) to end past
the time budget, and at least one item always runs.  An item that
raises or fails a check counts as failed; its time stays in the
timings.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS, untraced

#: set-up repetitions per run; setup_s reports their median
SETUP_REPS = 3
#: items of the untraced and of the traced loop in a --trace 1 run, at most
TRACE_MAX_ITEMS = 50
#: items beyond the order statistic reported as item_tail_ms
TAIL_BEYOND = 10

ROOT = Path(__file__).resolve().parents[1]


def run_loop(wl, state, budget_s: float, max_items: int | None = None,
             tracer: tracing.Tracer | None = None) -> dict:
    """Closed loop of verified items; returns times and failure counts."""
    times: list = []
    failed = 0
    first_failures: list = []
    t0 = time.perf_counter()
    while True:
        index = len(times)
        sid = tracer.open("item") if tracer is not None else None
        t = time.perf_counter()
        try:
            result = wl.item(state, index)
            error = None
        except Exception:       # a failed item is counted, never dropped
            result, error = None, traceback.format_exc(limit=3)
        times.append(time.perf_counter() - t)
        if sid is not None:
            tracer.close(sid)
        bad = [error] if error else wl.verify(state, result)
        if bad:
            failed += 1
            if len(first_failures) < 3:
                first_failures.append("item %d: %s" % (index, "; ".join(bad)))
        elapsed = time.perf_counter() - t0
        if max_items is not None and len(times) >= max_items:
            break
        if elapsed + times[-1] > budget_s:
            break
    return {"wall_s": time.perf_counter() - t0, "times": times,
            "failed": failed, "first_failures": first_failures}


def tail_index(n: int) -> int:
    """Index in the sorted times of the highest order statistic with
    TAIL_BEYOND items beyond it; the maximum when there are fewer."""
    return max(0, n - 1 - TAIL_BEYOND)


def end_to_end(loop: dict, setup_s: float) -> dict:
    times = sorted(loop["times"])
    n = len(times)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (loop["wall_s"], "s"),
        "items_per_s": (n / loop["wall_s"], "1/s"),
        "item_p50_ms": (1e3 * statistics.median(times), "ms"),
        "item_tail_ms": (1e3 * times[tail_index(n)], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def _per(value: float, n: int) -> float:
    return value / n if n else 0.0


def per_layer(tracer: tracing.Tracer, n_items: int, wall_traced: float,
              wall_untraced: float) -> dict:
    """Per-layer metrics of the traced loop, per item, plus the set-up
    spans and the tracing overhead."""
    summ = tracer.summary()

    def calls(name, phase="item"):
        return summ.get((phase, name), [0, 0.0])[0]

    def self_s(name, phase="item"):
        return summ.get((phase, name), [0, 0.0])[1]

    def count(key):
        return tracer.counts.get(("item", key), 0.0)

    pairs = count("poly.mul_term_pairs")
    steps = count("dynamics.steps")
    m = {}
    for key, name in (("poly.mul_calls", "poly.mul"),
                      ("poly.add_calls", "poly.add"),
                      ("poly.eval_calls", "poly.eval"),
                      ("smooth.jet_calls", "smooth.jet"),
                      ("dirac.context_calls", "dirac.context"),
                      ("dirac.bracket_calls", "dirac.bracket"),
                      ("dirac.field_calls", "dirac.field"),
                      ("dynamics.projection_calls", "dynamics.projection")):
        m[key] = (_per(calls(name), n_items), "count/item")
    m["poly.mul_term_pairs"] = (_per(pairs, n_items), "count/item")
    m["poly.mul_kept_ratio"] = (
        count("poly.mul_kept_terms") / pairs if pairs else 0.0, "ratio")
    m["dynamics.steps"] = (_per(steps, n_items), "count/item")
    m["dynamics.newton_iters_per_step"] = (
        count("dynamics.newton_iters") / steps if steps else 0.0, "ratio")
    for name in ("poly.mul", "poly.scale", "poly.add", "poly.derivative",
                 "poly.compose_batch", "poly.bracket", "poly.lie_transform",
                 "poly.eval", "smooth.jet", "dirac.context", "dirac.bracket",
                 "dirac.project", "dirac.moser", "dirac.probe",
                 "dirac.neumann_inverse", "dirac.field",
                 "symmetry.drift_check", "symmetry.stationarity",
                 "birkhoff.frame", "birkhoff.chart", "birkhoff.flatten",
                 "birkhoff.structure", "birkhoff.normal_form",
                 "birkhoff.residual", "birkhoff.intertwining",
                 "models.pipeline", "models.slice", "dynamics.integrate",
                 "dynamics.projection", "dynamics.monitor"):
        m[name + "_self_s"] = (_per(self_s(name), n_items), "s/item")
    m["trace.item_glue_self_s"] = (_per(self_s("item"), n_items), "s/item")
    m["trace.item_s"] = (_per(wall_traced, n_items), "s/item")
    for name in ("models.equilibrium", "symmetry.slice"):
        m[name + "_self_s"] = (self_s(name, "setup"), "s")
    m["trace.overhead_ratio"] = (wall_traced / wall_untraced, "ratio")
    return m


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "mdirac").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "seed": seed,
        "commit": _git_commit(),
        "src_sha256": _source_digest(),
    }


def set_up(wl, inputs: dict, span=untraced, reps: int = SETUP_REPS):
    """Set up (and warm up) ``reps`` times; the last state and the
    median time.

    The heap left by the imports and the set-up is then frozen out of
    the garbage collector: otherwise every full collection in the timed
    loop rescans the numpy/scipy module objects, a pause set by what was
    imported rather than by the items' own allocations.
    """
    durations = []
    for _ in range(reps):
        t = time.perf_counter()
        state = wl.setup(inputs, span)
        wl.warm_up(state)
        durations.append(time.perf_counter() - t)
    gc.collect()
    gc.freeze()
    return state, statistics.median(durations)


def run(workload: str, seed: int, seconds: float, trace: bool,
        import_s: float) -> dict:
    wl = WORKLOADS[workload]()
    env = environment(seed)
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    inputs = wl.make_inputs(seed)
    state, setup_median = set_up(wl, inputs)
    setup_s = import_s + setup_median

    if not trace:
        loop = run_loop(wl, state, seconds)
        metrics = end_to_end(loop, setup_s)
        attempted, failed = len(loop["times"]), loop["failed"]
        _print_summary(workload, seed, loop)
    else:
        plain = run_loop(wl, state, seconds / 2.0, TRACE_MAX_ITEMS)
        n = len(plain["times"])
        run_id = "%s-s%d-%d-%d" % (workload, seed, os.getpid(),
                                   time.time_ns())
        tracer = tracing.Tracer(run_id)
        undo = tracing.instrument(tracer)
        try:
            sid = tracer.open("setup")
            state, _ = set_up(wl, inputs, tracer.wrap, reps=1)
            tracer.close(sid)
            traced = run_loop(wl, state, float("inf"), n, tracer)
        finally:
            undo()
        metrics = per_layer(tracer, n, traced["wall_s"], plain["wall_s"])
        attempted = 2 * n
        failed = plain["failed"] + traced["failed"]
        _print_summary(workload, seed, plain)
        _print_summary(workload, seed, traced)
        out_dir = ROOT / ".bench_traces"
        out_dir.mkdir(exist_ok=True)
        path = out_dir / (run_id + ".npz")
        tracer.dump(path, {"env": env, "workload": workload,
                           "items": n, "metrics": metrics})
        print("trace %s: %d spans" % (path.relative_to(ROOT),
                                      len(tracer.start)), flush=True)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u}
                    for k, (v, u) in metrics.items()},
    }


def _print_summary(workload: str, seed: int, loop: dict) -> None:
    n = len(loop["times"])
    tail = ("order statistic %d of %d (%d beyond)"
            % (tail_index(n) + 1, n, n - 1 - tail_index(n)))
    print("%s seed=%d items=%d failed=%d fail_ratio=%.4g wall_s=%.3f "
          "item_tail=%s" % (workload, seed, n, loop["failed"],
                            loop["failed"] / n, loop["wall_s"], tail),
          flush=True)
    for line in loop["first_failures"]:
        print("FAILED " + line, file=sys.stderr, flush=True)
