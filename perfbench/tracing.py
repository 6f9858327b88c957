"""In-memory span tracing of calls into the mdirac layers.

A :class:`Tracer` records one span per traced call: name, start, end,
parent span and the run identifier shared by every span of the run.
Spans live in flat arrays while the run is going and are written once,
at the end, by :meth:`Tracer.dump`.  The self time of a span is its
duration minus the part of its interval that its child spans cover.

:func:`instrument` wraps the public entry points of each layer where the
caller looks them up: ``mdirac.models`` and ``mdirac.birkhoff`` bind
names with ``from ... import``, so a name is replaced in the namespace
of the module that calls it (for example ``mdirac.models.chart_series``),
and methods such as ``TruncatedPoly.__mul__`` are replaced on the class.
"""

from __future__ import annotations

import functools
import json
import numbers
import time
from array import array
from collections import defaultdict

import numpy as np


class Tracer:
    """Span recorder for one single-threaded run.

    ``wrap(name, fn)`` returns ``fn`` with a span around every call;
    ``count(key, n)`` adds to a counter kept per root span name, so work
    done while setting up is kept apart from work done by the items.
    """

    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[tuple, float] = defaultdict(float)

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        sid = len(self.start)
        self.name_id.append(self._intern(name))
        self.parent.append(self._stack[-1])
        self.end.append(float("nan"))
        self._stack.append(sid)
        self.start.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.end[sid] = self.clock()
        if self._stack.pop() != sid:
            raise RuntimeError("spans closed out of order")

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return traced

    def innermost(self) -> str | None:
        sid = self._stack[-1]
        return None if sid < 0 else self.names[self.name_id[sid]]

    def count(self, key: str, n: float = 1) -> None:
        root = self._stack[1] if len(self._stack) > 1 else -1
        phase = None if root < 0 else self.names[self.name_id[root]]
        self.counts[(phase, key)] += n

    def spans(self) -> dict:
        """Closed spans as parallel arrays (ids are array positions)."""
        return {
            "name": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def summary(self) -> dict:
        """(root name, span name) -> [calls, self seconds]."""
        sp = self.spans()
        self_s = self_times(sp["start"], sp["end"], sp["parent"])
        roots = root_ids(sp["parent"])
        names = [self.names[i] for i in sp["name"].tolist()]
        out: dict = defaultdict(lambda: [0, 0.0])
        for sid, dt in enumerate(self_s):
            acc = out[(names[roots[sid]], names[sid])]
            acc[0] += 1
            acc[1] += dt
        return dict(out)

    def dump(self, path, meta: dict) -> None:
        """Write every span and the run metadata to one .npz file."""
        sp = self.spans()
        np.savez_compressed(
            path, names=np.array(self.names), run_id=np.array(self.run_id),
            meta=np.array(json.dumps(meta, sort_keys=True)), **sp)


def root_ids(parent) -> list[int]:
    """Root span of every span; parents are recorded before children."""
    parent = np.asarray(parent).tolist()
    roots = [0] * len(parent)
    for sid, par in enumerate(parent):
        roots[sid] = sid if par < 0 else roots[par]
    return roots


def self_times(start, end, parent) -> list[float]:
    """Duration of each span minus the union of its children's
    intervals, each clipped to the parent's interval."""
    start, end, parent = (np.asarray(a).tolist() for a in (start, end, parent))
    n = len(start)
    children: dict[int, list[int]] = defaultdict(list)
    for sid in range(n):
        if parent[sid] >= 0:
            children[parent[sid]].append(sid)
    out = [0.0] * n
    for sid in range(n):
        s, e = start[sid], end[sid]
        covered = 0.0
        cur_s = cur_e = None
        for c in sorted(children.get(sid, ()), key=lambda c: start[c]):
            cs, ce = max(start[c], s), min(end[c], e)
            if ce <= cs:
                continue
            if cur_e is None or cs > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = cs, ce
            else:
                cur_e = max(cur_e, ce)
        if cur_e is not None:
            covered += cur_e - cur_s
        out[sid] = (e - s) - covered
    return out


def _traced_mul(tracer: Tracer, mul):
    """Products of two polynomials are spanned as ``poly.mul`` and
    counted with their term pairs |a|*|b| and kept output terms;
    products with a scalar are spanned as ``poly.scale``."""
    @functools.wraps(mul)
    def traced(a, b):
        if isinstance(b, numbers.Real):
            sid = tracer.open("poly.scale")
            try:
                return mul(a, b)
            finally:
                tracer.close(sid)
        sid = tracer.open("poly.mul")
        try:
            out = mul(a, b)
        finally:
            tracer.close(sid)
        tracer.count("poly.mul_term_pairs", len(a.terms) * len(b.terms))
        tracer.count("poly.mul_kept_terms", len(out.terms))
        return out
    return traced


def _traced_integrate(tracer: Tracer, integrate):
    """``dynamics.integrate`` span, counting the steps it took."""
    inner = tracer.wrap("dynamics.integrate", integrate)

    @functools.wraps(integrate)
    def traced(*args, **kwargs):
        traj = inner(*args, **kwargs)
        tracer.count("dynamics.steps", traj.times.size - 1)
        return traj
    return traced


def _counting_constraints_init(tracer: Tracer, init):
    """Closed-form constraint stand-ins whose Jacobian calls made inside
    ``dynamics.projection`` are counted as Newton iterations."""
    @functools.wraps(init)
    def traced(self, values, jacobian, k):
        def counted(x):
            if tracer.innermost() == "dynamics.projection":
                tracer.count("dynamics.newton_iters")
            return jacobian(x)
        init(self, values, counted, k)
    return traced


def instrument(tracer: Tracer):
    """Wrap the layer entry points; returns a function that undoes it."""
    from mdirac import birkhoff, dirac, dynamics, models, poly, smooth

    T = poly.TruncatedPoly
    SM = smooth.SmoothMap
    spans = [
        # poly: series algebra and pointwise evaluation
        (T, "__add__", "poly.add"),
        (T, "eval", "poly.eval"),
        (T, "gradient", "poly.eval"),
        (T, "derivative", "poly.derivative"),
        (poly.CanonicalStructure, "bracket", "poly.bracket"),
        (poly.StructuredStructure, "bracket", "poly.bracket"),
        (models, "compose_batch", "poly.compose_batch"),
        (birkhoff, "compose_batch", "poly.compose_batch"),
        (birkhoff, "lie_transform", "poly.lie_transform"),
        # smooth: jets of SmoothMaps
        (SM, "value", "smooth.jet"),
        (SM, "__call__", "smooth.jet"),
        (SM, "jacobian", "smooth.jet"),
        (SM, "hessian", "smooth.jet"),
        # dirac: pointwise linear algebra and the series inverse
        (dirac.DiracContext, "__init__", "dirac.context"),
        (dirac, "dirac_bracket", "dirac.bracket"),
        (dirac, "dirac_project", "dirac.project"),
        (birkhoff, "dirac_project", "dirac.project"),
        (dirac, "moser_multipliers", "dirac.moser"),
        (dirac, "project_to_constraints", "dirac.probe"),
        (dirac, "poly_mat_neumann_inverse", "dirac.neumann_inverse"),
        (birkhoff, "poly_mat_neumann_inverse", "dirac.neumann_inverse"),
        # symmetry
        (models, "adapted_slice_directions", "symmetry.slice"),
        (models, "build_slice", "symmetry.slice"),
        (models, "check_drift_free", "symmetry.drift_check"),
        (models, "stationarity_test", "symmetry.stationarity"),
        # birkhoff
        (models, "darboux_frame", "birkhoff.frame"),
        (models, "chart_series", "birkhoff.chart"),
        (models, "darboux_flatten", "birkhoff.flatten"),
        (models, "dirac_chart_structure", "birkhoff.structure"),
        (models, "run_normal_form_report", "birkhoff.normal_form"),
        (birkhoff, "conjugation_defect", "birkhoff.residual"),
        (birkhoff, "transform_symplectic_defect", "birkhoff.residual"),
        (models, "intertwining_check", "birkhoff.intertwining"),
        # models
        (models, "dsp_equilibria", "models.equilibrium"),
        (models, "dsp_slice", "models.slice"),
        (models, "dsp_pipeline", "models.pipeline"),
        # dynamics
        (dynamics, "project_onto_constraints", "dynamics.projection"),
    ]
    custom = [
        (T, "__mul__", _traced_mul),
        (dynamics, "integrate", _traced_integrate),
        (models.CallableConstraints, "__init__", _counting_constraints_init),
    ]
    saved = []
    for owner, attr, name in spans:
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(name, orig))
    for owner, attr, make in custom:
        orig = owner.__dict__[attr]
        saved.append((owner, attr, orig))
        setattr(owner, attr, make(tracer, orig))

    def undo():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)
    return undo
