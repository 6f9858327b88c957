"""The benchmark workloads: seeded inputs, set-up, one item, verification.

Each workload generates its inputs from the seed alone
(``make_inputs``), builds the models those inputs need (``setup``),
runs one item against the package (``item``) and checks the item's
outputs with the check names and tolerances of the registered
experiment that computes the same quantities (``verify``, which
returns the names of the failed checks).

* ``nf_pipeline``: the case-2 slice-to-normal-form pipeline at two spin
  rates; truncated-series algebra in ``poly`` and ``birkhoff``.
* ``projected_flow``: a long projected RK4 run of the lab-frame
  pendulum field; ``dynamics`` and the closed-form Dirac field.
* ``probe_brackets``: Dirac brackets, projections and Moser
  multipliers at seeded probes; ``poly`` evaluation and pointwise
  ``dirac`` linear algebra.

``setup`` takes a ``span(name, fn)`` hook that the traced run uses to
put spans around the callables the benchmark itself builds and hands to
the package (the projected field and the monitors).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from mdirac import dirac, dynamics, models
from mdirac.poly import TruncatedPoly
from mdirac.smooth import SmoothMap, hamiltonian_vector_field

REFERENCE_NF = Path(__file__).with_name("reference_nf.json")


def untraced(name, fn):
    return fn


def _bound(failed, name, value, tol):
    """Record ``name`` as failed unless value < tol (NaN fails)."""
    if not value < tol:
        failed.append("%s=%.3e (tol %.0e)" % (name, value, tol))


# ----------------------------------------------------------------------
# nf_pipeline
# ----------------------------------------------------------------------

#: check names and tolerances of the ``dsp_case2`` experiment
DSP_CASE2_TOL = {
    "drift_residual": 1e-7,
    "hessian_cross_block": 1e-9,
    "stationarity": 1e-8,
    "intertwining": 1e-8,
    "eta_distance": 1e-9,
    "resonant_distance": 1e-7,
    "commutation_chart": 1e-9,
    "commutation_dirac": 1e-9,
    "symplectic_defect": 1e-9,
}


def _coeff_gap(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys),
               default=0.0)


def resonant_coefficients(nf) -> dict:
    """Degree -> {exponent tuple: coefficient} of a normal form's
    resonant terms."""
    return {int(k): dict(p.terms) for k, p in nf.resonant_terms.items()}


class NfPipeline:
    """One item is the full ``dsp_pipeline`` at the case-2 relative
    equilibrium for each spin rate in ``OMEGAS``: slice, drift-free and
    stationarity checks, chart, Darboux flattening, both normal-form
    paths and the intertwining check.

    The spin rates are fixed, not seeded, because the sparsity of the
    chart series depends on them; the seed draws the probes of the
    drift-free and intertwining checks.  Besides the ``dsp_case2``
    checks, the frequencies and resonant coefficients of both paths are
    compared with ``reference_nf.json`` (same tolerances as
    ``eta_distance`` and ``resonant_distance``), so a change that breaks
    both paths alike still fails.
    """

    name = "nf_pipeline"
    OMEGAS = (1.0, 0.6)

    def __init__(self, K: int = 4, chart_degree: int = 5):
        self.K = K
        self.chart_degree = chart_degree

    def make_inputs(self, seed: int) -> dict:
        return {"probe_seed": int(seed) % (2 ** 31)}

    def setup(self, inputs: dict, span=untraced) -> dict:
        p = models.DspParams()
        eqs = [models.dsp_equilibria(p, 2, omega=om) for om in self.OMEGAS]
        reference = None
        if (self.K, self.chart_degree) == (4, 5):
            reference = json.loads(REFERENCE_NF.read_text())
        return {"params": p, "equilibria": eqs, "reference": reference,
                "probe_seed": inputs["probe_seed"]}

    def warm_up(self, state: dict) -> None:
        # every stage but the chart and the normal forms
        models.dsp_pipeline(state["params"], state["equilibria"][0],
                            seed=state["probe_seed"], normal_form=False)

    def item(self, state: dict, index: int) -> list:
        return [models.dsp_pipeline(state["params"], re, K=self.K,
                                    chart_degree=self.chart_degree,
                                    seed=state["probe_seed"])
                for re in state["equilibria"]]

    def verify(self, state: dict, outs: list) -> list:
        failed: list = []
        for om, out in zip(self.OMEGAS, outs):
            failed += ["Omega=%g: %s" % (om, f)
                       for f in self._verify_one(out, om, state["reference"])]
        return failed

    def _verify_one(self, out: dict, omega: float, reference) -> list:
        tol = DSP_CASE2_TOL
        failed: list = []
        if not out["drift"]["is_drift_free"]:
            failed.append("drift_free")
        _bound(failed, "drift_residual", out["drift"]["max_residual"],
               tol["drift_residual"])
        if "halted" in out:
            return failed + ["halted: %s" % out["halted"]]
        _bound(failed, "hessian_cross_block",
               out["drift"]["hessian_cross_block"],
               tol["hessian_cross_block"])
        _bound(failed, "stationarity",
               out["stationarity"]["max_directional_derivative"],
               tol["stationarity"])
        _bound(failed, "intertwining", out["intertwining"]["max_residual"],
               tol["intertwining"])
        if "nf_chart" not in out:
            return failed + ["normal_form_completed: %s"
                             % out.get("normal_form_error")]
        chart, on_level = out["nf_chart"], out["nf_dirac"]
        _bound(failed, "eta_distance",
               float(np.max(np.abs(chart.H2.eta - on_level.H2.eta))),
               tol["eta_distance"])
        res_chart = resonant_coefficients(chart)
        res_level = resonant_coefficients(on_level)
        degrees = range(3, self.K + 1)
        _bound(failed, "resonant_distance",
               max(_coeff_gap(res_chart.get(k, {}), res_level.get(k, {}))
                   for k in degrees),
               tol["resonant_distance"])
        _bound(failed, "commutation_chart",
               max(chart.residual_report["commutation"].values()),
               tol["commutation_chart"])
        _bound(failed, "commutation_dirac",
               max(on_level.residual_report["commutation"].values()),
               tol["commutation_dirac"])
        _bound(failed, "symplectic_defect",
               chart.residual_report["symplectic_defect"],
               tol["symplectic_defect"])
        if reference is not None:
            ref = reference["%g" % omega]
            ref_res = {int(k): {tuple(e): c for e, c in terms}
                       for k, terms in ref["resonant"].items()}
            for label, nf, res in (("chart", chart, res_chart),
                                   ("dirac", on_level, res_level)):
                _bound(failed, "reference_eta_%s" % label,
                       float(np.max(np.abs(nf.H2.eta - ref["eta"]))),
                       tol["eta_distance"])
                _bound(failed, "reference_resonant_%s" % label,
                       max(_coeff_gap(res.get(k, {}), ref_res.get(k, {}))
                           for k in degrees),
                       tol["resonant_distance"])
        return failed


def write_reference(path=REFERENCE_NF) -> None:
    """Recompute ``reference_nf.json`` from the chart path of one item,
    one resonant term per line."""
    wl = NfPipeline()
    outs = wl.item(wl.setup(wl.make_inputs(0)), 0)
    blocks = []
    for om, out in zip(wl.OMEGAS, outs):
        chart = out["nf_chart"]
        degrees = []
        for k, terms in sorted(resonant_coefficients(chart).items()):
            lines = ",\n".join("    [%s, %r]" % (json.dumps(list(e)), c)
                                for e, c in sorted(terms.items()))
            degrees.append('   "%d": [%s]' % (k, "\n" + lines + "\n   "
                                             if lines else ""))
        blocks.append(' "%g": {\n  "eta": %s,\n  "resonant": {\n%s\n  }\n }'
                      % (om, json.dumps([float(e) for e in chart.H2.eta]),
                         ",\n".join(degrees)))
    Path(path).write_text("{\n" + ",\n".join(blocks) + "\n}\n")


# ----------------------------------------------------------------------
# projected_flow
# ----------------------------------------------------------------------

#: check names and tolerances of the ``dsp_flow`` experiment
DSP_FLOW_TOL = {
    "momentum_drift": 1e-8,
    "energy_drift": 1e-8,
    "constraint_residual": 1e-10,
}


class ProjectedFlow:
    """One item is a block of ``BLOCK_STEPS`` projected RK4 steps of the
    lab-frame pendulum field on the four sphere-pairing constraints,
    continuing from the state the previous item ended in.

    The run starts from a seeded point near the case-2 equilibrium (the
    ``dsp_flow`` start radius), projected onto the slice constraints.
    Momentum, energy and constraint monitors are evaluated at every step,
    and their drift is measured from the start of the whole run, never
    reset per item.
    """

    name = "projected_flow"
    DT = 1e-3
    BLOCK_STEPS = 400
    START_RADIUS = 2e-5

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        return {"start_offset": rng.standard_normal(12)}

    def setup(self, inputs: dict, span=untraced) -> dict:
        p = models.DspParams()
        re = models.dsp_equilibria(p, 2, omega=1.0)
        slc = models.dsp_slice(p, re)
        base = models.dsp_sphere_callables()
        z0 = dirac.project_to_constraints(
            slc.full_constraints,
            re.x0 + self.START_RADIUS * inputs["start_offset"])
        field = span("dirac.field", dirac.dirac_field_callable(
            models.dsp_gradient(p, 0.0), base.jacobian))
        _, H_poly = models.dsp_hamiltonian(p)
        ahat = np.kron(np.eye(2), models.AZ)
        monitors = {
            "J": lambda x: float(x[6:] @ (ahat @ x[:6])),
            "H": lambda x: H_poly.eval(x),
            "phi": lambda x: float(np.max(np.abs(base.values(x)))),
        }
        monitors = {k: span("dynamics.monitor", g)
                    for k, g in monitors.items()}
        return {"field": field, "constraints": base, "monitors": monitors,
                "x": z0, "J0": monitors["J"](z0), "H0": monitors["H"](z0)}

    def _block(self, state: dict, x, steps: int):
        return dynamics.integrate(
            state["field"], x, T=steps * self.DT, dt=self.DT,
            method="projected_rk4", constraints=state["constraints"],
            monitors=state["monitors"])

    def warm_up(self, state: dict) -> None:
        self._block(state, state["x"], 10)

    def item(self, state: dict, index: int):
        traj = self._block(state, state["x"], self.BLOCK_STEPS)
        state["x"] = traj.states[-1]
        return traj

    def verify(self, state: dict, traj) -> list:
        tol = DSP_FLOW_TOL
        d = traj.diagnostics
        failed: list = []
        _bound(failed, "momentum_drift",
               float(np.max(np.abs(d["J"] - state["J0"]))),
               tol["momentum_drift"])
        _bound(failed, "energy_drift",
               float(np.max(np.abs(d["H"] - state["H0"]))),
               tol["energy_drift"])
        _bound(failed, "constraint_residual", float(np.max(d["phi"])),
               tol["constraint_residual"])
        return failed


# ----------------------------------------------------------------------
# probe_brackets
# ----------------------------------------------------------------------

#: check names and tolerances of ``sphere_dirac`` (the pendulum slice
#: set) and of ``neumann_flow``'s multiplier check
PROBE_TOL = {
    "dsp_antisymmetry": 1e-10,
    "dsp_annihilation": 1e-9,
    "dsp_tangency": 1e-9,
    "moser_vs_dirac": 1e-10,
}


class ProbeBrackets:
    """One item is a block of ``PROBES_PER_ITEM`` probes.  At each probe
    a seeded point near the case-2 equilibrium is projected onto the
    6-constraint slice set, a ``DiracContext`` is built there, and the
    Dirac brackets of every ordered pair of the seeded test functions,
    their brackets with each constraint and their projected fields are
    evaluated.  A second seeded point is projected onto the Neumann
    constraint set, where the Moser-multiplier field is compared with
    the Dirac projection.

    A probe takes about 10 ms, short enough that single probes slowed by
    other tenants of a shared machine set the tail; a block of eight
    probes keeps ``item_tail_ms`` steady from run to run.

    Radii and the Neumann model follow ``sphere_dirac`` and
    ``neumann_flow``; the test functions have ``sphere_dirac``'s eight
    terms of degree 1 to 3, in a fixed degree pattern so that every seed
    asks for the same amount of work.  The probe pool is cycled if a run
    uses more items than it holds.
    """

    name = "probe_brackets"
    PROBES_PER_ITEM = 8
    POOL = 4096
    N_FUNCTIONS = 5
    #: one term per entry; square-free terms, so every seed gives test
    #: functions with the same number of terms and of derivative terms
    TERM_DEGREES = (1, 1, 2, 2, 2, 3, 3, 3)
    SERIES_DEGREE = 6
    DSP_RADIUS = 1e-2
    NEUMANN_RADIUS = 0.4
    NEUMANN_A = (1.0, 2.0, 4.0)
    NEUMANN_REF = (1.0, 0.0, 0.0, 0.0, 0.4, -0.2)

    def make_inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        functions = []
        for _ in range(self.N_FUNCTIONS):
            terms: dict = {}
            for deg in self.TERM_DEGREES:
                while True:
                    exp = np.zeros(12, dtype=int)
                    exp[rng.choice(12, size=deg, replace=False)] = 1
                    exp = tuple(int(e) for e in exp)
                    if exp not in terms:
                        break
                terms[exp] = float(rng.standard_normal())
            functions.append(sorted(terms.items()))
        return {
            "functions": functions,
            "slice_offsets": rng.standard_normal((self.POOL, 12)),
            "neumann_offsets": rng.standard_normal((self.POOL, 6)),
        }

    def setup(self, inputs: dict, span=untraced) -> dict:
        p = models.DspParams()
        re = models.dsp_equilibria(p, 2, omega=1.0)
        slc = models.dsp_slice(p, re)
        fs = []
        for terms in inputs["functions"]:
            fs.append(SmoothMap.from_poly(
                TruncatedPoly(12, self.SERIES_DEGREE, dict(terms))))
        neumann = models.neumann_model(np.diag(self.NEUMANN_A))
        return {
            "x0": re.x0, "full": slc.full_constraints, "functions": fs,
            "neumann": neumann, "neumann_cs": neumann.constraints,
            "neumann_field": hamiltonian_vector_field(neumann.H),
            "slice_points": re.x0 + self.DSP_RADIUS * inputs["slice_offsets"],
            "neumann_points": (np.array(self.NEUMANN_REF)
                               + self.NEUMANN_RADIUS
                               * inputs["neumann_offsets"]),
        }

    def warm_up(self, state: dict) -> None:
        self.item(state, 0)

    def item(self, state: dict, index: int) -> list:
        first = index * self.PROBES_PER_ITEM
        return [self._probe(state, (first + m) % self.POOL)
                for m in range(self.PROBES_PER_ITEM)]

    def _probe(self, state: dict, j: int) -> dict:
        fs = state["functions"]
        full = state["full"]
        z = dirac.project_to_constraints(full, state["slice_points"][j])
        ctx = dirac.DiracContext(full, z)
        brackets = np.array([[dirac.dirac_bracket(f, g, ctx) for g in fs]
                             for f in fs])
        with_phi = np.array([[dirac.dirac_bracket(phi, f, ctx) for f in fs]
                             for phi in full.constraints])
        projected = np.array([dirac.dirac_project(f, ctx) for f in fs])

        model = state["neumann"]
        zn = dirac.project_to_constraints(state["neumann_cs"],
                                          state["neumann_points"][j])
        nctx = dirac.DiracContext(state["neumann_cs"], zn)
        lam = dirac.moser_multipliers(model.H, nctx)
        moser = state["neumann_field"].value(zn) - lam @ nctx.XG
        return {"G": ctx.G, "brackets": brackets, "with_phi": with_phi,
                "projected": projected, "moser": moser,
                "neumann_projected": dirac.dirac_project(model.H, nctx)}

    def verify(self, state: dict, outs: list) -> list:
        failed: list = []
        for out in outs:
            failed += self._verify_probe(out)
        return failed

    def _verify_probe(self, out: dict) -> list:
        tol = PROBE_TOL
        failed: list = []
        b = out["brackets"]
        _bound(failed, "dsp_antisymmetry", float(np.max(np.abs(b + b.T))),
               tol["dsp_antisymmetry"])
        _bound(failed, "dsp_annihilation",
               float(np.max(np.abs(out["with_phi"]))),
               tol["dsp_annihilation"])
        _bound(failed, "dsp_tangency",
               float(np.max(np.abs(out["projected"] @ out["G"].T))),
               tol["dsp_tangency"])
        _bound(failed, "moser_vs_dirac",
               float(np.max(np.abs(out["moser"] - out["neumann_projected"]))),
               tol["moser_vs_dirac"])
        return failed


WORKLOADS = {w.name: w for w in (NfPipeline, ProjectedFlow, ProbeBrackets)}


if __name__ == "__main__":
    write_reference()
