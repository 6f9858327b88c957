"""Registered experiments behind the command-line runner.

Each registry record (:class:`Experiment`) holds a runner and the one
schema of its config: every model and numerics key with its kind and
default, plus the cross-key rules.  An :class:`ExperimentConfig` is
checked against it once, when built; ``run_experiment`` then runs the
named quantitative checks and returns a JSON-ready report plus optional
artifacts (trajectory tables, normal-form data).  Reports are
deterministic for a fixed config and seed, and the serializer sorts
keys, so identical inputs give byte-identical report files.

The registry covers the full battery: bracket axioms and the
closed-form sphere brackets, the double-spherical-pendulum spinning
cases with their slice, normal-form and flow checks, the static-stratum
and Kustaanheimo-Stiefel refusal diagnostics, the Neumann and separable
Moser models, the quartic-oscillator normal-form oracle, and the
numerical hygiene audit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .poly import (
    DEFAULT_MAX_DEGREE,
    CanonicalStructure,
    TruncatedPoly,
    poisson_bracket,
)
from .smooth import SmoothMap, fd_jet, hamiltonian_vector_field
from .dirac import (
    DiracContext,
    dirac_bracket,
    dirac_field_callable,
    dirac_project,
    moser_multipliers,
    sample_probes,
    singularity_diagnostics,
)
from .symmetry import NotLocallyFreeError
from .birkhoff import run_normal_form_report
from .models import (
    DspParams,
    dsp_action,
    dsp_case_configuration,
    dsp_equilibria,
    dsp_gradient,
    dsp_hamiltonian,
    dsp_pipeline,
    dsp_slice,
    dsp_spheres,
    dsp_stationarity,
    ks_model,
    moser_filter_integrals,
    neumann_model,
    quaternion_product,
    separable_oscillator_model,
    sphere_pairs,
)
from .dynamics import (
    Trajectory,
    conserved_monitor,
    flow_compare,
    integrate,
    relatedness_check,
)


class ConfigError(ValueError):
    """Configuration problem: unknown keys, bad types, bad values."""


# ----------------------------------------------------------------------
# configuration schema
# ----------------------------------------------------------------------


def _is_real(v) -> bool:
    """An int or float, not a bool, that is a finite float."""
    try:
        return (isinstance(v, (int, float)) and not isinstance(v, bool)
                and math.isfinite(v))
    except OverflowError:
        return False


class Kind(NamedTuple):
    """A config value's kind: name (shown in refusals and by ``mdirac
    list --json``), test, and the conversion of an accepted value."""

    name: str
    test: Callable
    convert: Callable

    def check(self, where: str, value):
        if not self.test(value):
            raise ConfigError("%s must be a %s" % (where, self.name))
        return self.convert(value)


def _count(least: int) -> Kind:
    """A count or order; an integral float is accepted."""
    return Kind("positive integer" + (" >= %d" % least) * (least > 1),
                lambda v: _is_real(v) and v >= least
                and float(v).is_integer(), int)


def _reals(name: str, ok) -> Kind:
    return Kind(name, lambda v: isinstance(v, list)
                and all(map(_is_real, v)) and ok(v),
                lambda v: [float(t) for t in v])


COUNT = _count(1)
REAL = Kind("finite real", _is_real, float)
POSITIVE = TOLERANCE = Kind("positive real",
                            lambda v: _is_real(v) and v > 0, float)
NON_NEGATIVE = Kind("non-negative real", lambda v: _is_real(v) and v >= 0,
                    float)
REALS = _reals("non-empty list of reals", lambda v: len(v) > 0)
REAL3 = _reals("list of 3 reals", lambda v: len(v) == 3)
POSITIVE3 = _reals("list of 3 positive reals",
                   lambda v: len(v) == 3 and min(v) > 0)
SEED = Kind("non-negative integer", lambda v: type(v) is int and v >= 0, int)
PATH = Kind("string path", lambda v: isinstance(v, str), str)
OBJECT = Kind("JSON object", lambda v: isinstance(v, dict), dict)


@dataclass(frozen=True)
class Experiment:
    """Registry record: the runner and the one schema of its config.

    ``model`` and ``numerics`` map each key to (kind, default), None for
    a spin selector the case leaves unset; ``rules`` holds the cross-key
    rules as (text, check(cfg)) pairs; ``checks`` maps every check the
    runner may record to its kind (see :func:`_checks`).
    ``runner(cfg, checks)`` only computes: it fills the CheckSet, returns
    (report extras, artifacts).
    """

    runner: Callable
    description: str
    model: dict
    numerics: dict
    rules: tuple
    checks: dict

    def schema(self) -> dict:
        """JSON-ready keys, defaults, kinds, rules and check names."""
        def table(spec):
            return {k: {"kind": kind.name, "default": d}
                    for k, (kind, d) in spec.items()}
        num = dict(table(self.numerics), tolerances={
            "kind": "max or min check name -> " + TOLERANCE.name,
            "default": {}})
        return {"description": self.description, "model": table(self.model),
                "numerics": num, "rules": [text for text, _ in self.rules],
                "checks": self.checks}


def _checks(words: str) -> dict:
    """Check name -> kind from space-separated ``name[:kind]`` words: "max"
    (the default) for a ``bound``, "min" for an ``exceeds`` (negative
    control), "flag" for a boolean outcome."""
    return dict((w.split(":") + ["max"])[:2] for w in words.split())


def _overlay(section: str, given: dict, spec: dict, experiment: str) -> dict:
    values = {k: d for k, (_, d) in spec.items()}
    for key, val in given.items():
        if key not in spec:
            raise ConfigError("unknown %s key %r for %s"
                              % (section, key, experiment))
        values[key] = spec[key][0].check("%s key %r" % (section, key), val)
    return values


@dataclass(frozen=True)
class ExperimentConfig:
    """Run request, checked once against its registry record when built:
    unknown keys, value kinds and cross-key rules raise ConfigError.
    ``params`` and ``num`` hold the given model and numerics values over
    the record's defaults.  (Tolerance overrides are checked against the
    record's check names when ``run_experiment`` builds the CheckSet,
    still before the runner.)
    """

    experiment: str
    seed: int = 0
    output_dir: str | None = None
    model: dict = field(default_factory=dict)
    numerics: dict = field(default_factory=dict)
    params: dict = field(init=False, repr=False, compare=False)
    num: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        name = self.experiment
        if not isinstance(name, str) or name not in EXPERIMENTS:
            raise ConfigError(
                "unknown experiment %r; run 'list' for the registry" % (name,))
        SEED.check("seed", self.seed)
        if self.output_dir is not None:
            PATH.check("output_dir", self.output_dir)
        OBJECT.check("model", self.model)
        OBJECT.check("numerics", self.numerics)
        rec = EXPERIMENTS[name]
        num = {k: v for k, v in self.numerics.items() if k != "tolerances"}
        object.__setattr__(self, "params",
                           _overlay("model", self.model, rec.model, name))
        object.__setattr__(self, "num",
                           _overlay("numerics", num, rec.numerics, name))
        for _, check in rec.rules:
            check(self)


def parse_config(data) -> ExperimentConfig:
    """ExperimentConfig of a decoded JSON object (ConfigError if bad)."""
    OBJECT.check("config", data)
    unknown = sorted(set(data) - {"experiment", "seed", "output_dir",
                                  "model", "numerics"})
    if unknown:
        raise ConfigError("unknown config keys: %s" % ", ".join(unknown))
    if "experiment" not in data:
        raise ConfigError("config needs an 'experiment' name")
    return ExperimentConfig(**data)


def _at_least(key: str, floor: str):
    """Rule: numerics[key] >= numerics[floor]."""
    def check(cfg):
        if cfg.num[key] < cfg.num[floor]:
            raise ConfigError("numerics key %r (%g) must be at least %s (%g)"
                              % (key, cfg.num[key], floor, cfg.num[floor]))
    return "%s >= %s" % (key, floor), check


def _one_spin(cfg):
    given = [k for k in ("mu", "omega") if k in cfg.model]
    if len(given) == 2:
        raise ConfigError("give exactly one of model.mu / model.omega")
    if given:
        cfg.params["omega" if given[0] == "mu" else "mu"] = None


class CheckSet:
    """Accumulates the named pass/fail checks of one experiment.

    ``names`` maps each check the experiment may record to its kind:
    ``bound`` ("max") passes when value < tol, ``exceeds`` ("min") when
    value > floor (negative controls), ``flag`` records a boolean
    outcome.  Each override (``numerics.tolerances``) must be a positive
    real keyed by a max or min check name; anything else is refused with
    ConfigError when the set is built.  Recording a check that is not
    listed under its kind raises ValueError.
    """

    def __init__(self, names: dict, overrides: dict):
        OBJECT.check("tolerances", overrides)
        self.names = names
        self.table = {}
        self._over = {nm: TOLERANCE.check("tolerance %r" % nm, tol)
                      for nm, tol in overrides.items()}
        unmatched = sorted(nm for nm in self._over
                           if names.get(nm) not in ("max", "min"))
        if unmatched:
            raise ConfigError("tolerance overrides match no check: %s"
                              % ", ".join(unmatched))

    def _record(self, name, entry):
        if self.names.get(name) != entry["kind"]:
            raise ValueError("check %r is not listed as a %s check"
                             % (name, entry["kind"]))
        self.table[name] = entry

    def bound(self, name, value, tol):
        tol = self._over.get(name, tol)
        self._record(name, {"value": float(value), "tol": float(tol),
                            "kind": "max", "passed": bool(value < tol)})

    def exceeds(self, name, value, floor):
        floor = self._over.get(name, floor)
        self._record(name, {"value": float(value), "tol": float(floor),
                            "kind": "min", "passed": bool(value > floor)})

    def flag(self, name, ok, detail=None):
        entry = {"kind": "flag", "passed": bool(ok)}
        if detail is not None:
            entry["detail"] = detail
        self._record(name, entry)

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.table.values())


def to_jsonable(obj):
    """Recursively convert numpy scalars/arrays and tuple keys so the
    report serializes with the stock json encoder."""
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(k, tuple):
                k = ",".join(str(t) for t in k)
            elif not isinstance(k, str):
                k = str(k)
            out[k] = to_jsonable(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


# ----------------------------------------------------------------------
# shared model plumbing
# ----------------------------------------------------------------------


def _dsp_setup(params: dict):
    """DspParams and the spin selector keyword of a pendulum model."""
    p = DspParams(**{k: params[k] for k in ("m1", "m2", "l1", "l2", "g")})
    if params["mu"] is not None:
        return p, {"mu": params["mu"]}
    return p, {"omega": params["omega"]}


def _equilibrium_summary(re) -> dict:
    return {
        "case": re.case_id,
        "case_name": re.case_name,
        "Omega": re.Omega,
        "mu": re.mu,
        "x0": re.x0,
        "kkt_residual": re.residual,
    }


def _dsp_field_agreement(p, re, slc, n_probes, radius, tilt, seed):
    """Max pointwise gap between the 6-constraint and sphere-only Dirac
    fields of H_Omega, and the same gap for a tilted (non-invariant)
    Hamiltonian as the negative control."""
    grad = dsp_gradient(p, re.Omega)
    jac6 = slc.full_constraints.jacobian
    jac4 = dsp_spheres().jacobian
    probes = sample_probes(slc.full_constraints, re.x0, n_probes, radius,
                           seed)
    w = np.zeros(12)
    w[1] = tilt
    gaps = []
    for g in (grad, lambda x: grad(x) + w):
        X6 = dirac_field_callable(g, jac6)
        X4 = dirac_field_callable(g, jac4)
        gaps.append(float(max(np.max(np.abs(X6(z) - X4(z))) for z in probes)))
    return tuple(gaps)


def _thin(traj: Trajectory) -> Trajectory:
    """Subsample a trajectory to at most 2001 CSV rows, keeping the
    endpoints."""
    n = traj.times.size
    stride = max(1, int(math.ceil((n - 1) / 2000))) if n > 1 else 1
    idx = list(range(0, n, stride))
    if idx[-1] != n - 1:
        idx.append(n - 1)
    return Trajectory(
        times=traj.times[idx], states=traj.states[idx],
        diagnostics={k: v[idx] for k, v in traj.diagnostics.items()})


def _random_poly(rng, n_vars, n_terms=8, K=6):
    """Seeded sparse random polynomial with terms of degree 1..3."""
    terms = {}
    for _ in range(n_terms):
        e = [0] * n_vars
        for i in rng.integers(0, n_vars, size=int(rng.integers(1, 4))):
            e[i] += 1
        terms[tuple(e)] = rng.standard_normal()
    return TruncatedPoly(n_vars, K, terms)


def _random_polys(rng, n_vars, n_funcs):
    return [SmoothMap.from_poly(_random_poly(rng, n_vars))
            for _ in range(n_funcs)]


def _axiom_residuals(cs, probes, fs):
    """Worst antisymmetry, annihilation and tangency residuals of the
    Dirac bracket/projection over probes and test functions."""
    antisym = annihil = tangency = 0.0
    for x in probes:
        ctx = DiracContext(cs, x)
        for i, f in enumerate(fs):
            for g in fs[i:]:
                antisym = max(antisym, abs(dirac_bracket(f, g, ctx)
                                           + dirac_bracket(g, f, ctx)))
            for phi in cs.constraints:
                annihil = max(annihil, abs(dirac_bracket(phi, f, ctx)))
            tangency = max(tangency, float(
                np.max(np.abs(ctx.G @ dirac_project(f, ctx)))))
    return antisym, annihil, tangency


# ----------------------------------------------------------------------
# experiments
# ----------------------------------------------------------------------


def _run_sphere_dirac(cfg: ExperimentConfig, checks: CheckSet):
    num = cfg.num
    rng = np.random.default_rng(cfg.seed)
    cs = sphere_pairs(1)

    def sphere_probe():
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        p = rng.standard_normal(3)
        return np.concatenate([q, p - (p @ q) * q])

    probes = [sphere_probe() for _ in range(num["n_probes"])]
    fs = _random_polys(rng, 6, num["n_functions"])
    antisym, annihil, tangency = _axiom_residuals(cs, probes, fs)
    checks.bound("sphere_antisymmetry", antisym, 1e-10)
    checks.bound("sphere_annihilation", annihil, 1e-9)
    checks.bound("sphere_tangency", tangency, 1e-9)

    # closed-form sphere brackets at the same probes
    x6 = [SmoothMap.from_poly(TruncatedPoly.variable(i, 6, 2))
          for i in range(6)]
    err_qp = err_pp = err_qq = 0.0
    for x in probes:
        q, p = x[:3], x[3:]
        ctx = DiracContext(cs, x)
        for a in range(3):
            for b in range(3):
                got = dirac_bracket(x6[a], x6[3 + b], ctx)
                err_qp = max(err_qp, abs(
                    got - ((1.0 if a == b else 0.0) - q[a] * q[b])))
                got = dirac_bracket(x6[3 + a], x6[3 + b], ctx)
                err_pp = max(err_pp, abs(got - (q[b] * p[a] - q[a] * p[b])))
                err_qq = max(err_qq, abs(dirac_bracket(x6[a], x6[b], ctx)))
    checks.bound("closed_form_qp", err_qp, 1e-12)
    checks.bound("closed_form_pp", err_pp, 1e-12)
    checks.bound("closed_form_qq", err_qq, 1e-12)

    # the same axioms on the pendulum 6-constraint slice set
    p2 = DspParams()
    re = dsp_equilibria(p2, 2, omega=1.0)
    slc = dsp_slice(p2, re)
    full = slc.full_constraints
    zp = sample_probes(full, re.x0, num["n_probes"], num["dsp_radius"],
                       cfg.seed + 1)
    fs12 = _random_polys(rng, 12, num["n_functions"])
    antisym, annihil, tangency = _axiom_residuals(full, zp, fs12)
    checks.bound("dsp_antisymmetry", antisym, 1e-10)
    checks.bound("dsp_annihilation", annihil, 1e-9)
    checks.bound("dsp_tangency", tangency, 1e-9)
    return {"n_probes": num["n_probes"]}, {}


def _run_dsp_case(cfg: ExperimentConfig, checks: CheckSet, case_id: int):
    p, kw = _dsp_setup(cfg.params)
    num = cfg.num
    re = dsp_equilibria(p, case_id, **kw)
    out = dsp_pipeline(p, re, K=num["K"], chart_degree=num["chart_degree"],
                       n_probes=num["n_probes"],
                       drift_radius=num["drift_radius"],
                       twin_radius=num["twin_radius"], seed=cfg.seed)
    extra = {"equilibrium": _equilibrium_summary(re)}
    artifacts = {}

    checks.flag("drift_free", out["drift"]["is_drift_free"])
    checks.bound("drift_residual", out["drift"]["max_residual"], 1e-7)
    if "halted" in out:
        extra["halted"] = out["halted"]
        return extra, artifacts
    checks.bound("hessian_cross_block",
                 out["drift"]["hessian_cross_block"], 1e-9)
    checks.bound("stationarity",
                 out["stationarity"]["max_directional_derivative"], 1e-8)
    checks.bound("intertwining", out["intertwining"]["max_residual"], 1e-8)

    agree, neg = _dsp_field_agreement(p, re, out["slice"],
                                      num["field_probes"],
                                      num["field_radius"], num["tilt"],
                                      cfg.seed + 2)
    checks.bound("field_agreement", agree, 1e-8)
    checks.exceeds("field_negative_control", neg, 1e-3)

    if case_id == 2:
        checks.flag("normal_form_completed", "consistency" in out,
                    detail=out.get("normal_form_error"))
        if "consistency" in out:
            c = out["consistency"]
            checks.bound("eta_distance", c["eta_distance"], 1e-9)
            checks.bound("resonant_distance",
                         max(c["resonant_distance"].values()), 1e-7)
            checks.bound("commutation_chart", c["commutation_chart"], 1e-9)
            checks.bound("commutation_dirac", c["commutation_dirac"], 1e-9)
            checks.bound("symplectic_defect",
                         c["symplectic_defect_chart"], 1e-9)
            extra["frequencies"] = list(out["nf_chart"].H2.eta)
            artifacts["nf_result.json"] = to_jsonable({
                "chart_path": out["nf_chart"].to_json_dict(),
                "dirac_path": out["nf_dirac"].to_json_dict(),
                "consistency": c,
            })
    else:
        checks.flag("normal_form_refused", "normal_form_error" in out,
                    detail=out.get("normal_form_error"))
        extra["normal_form_error"] = out.get("normal_form_error")

    # parameters past the case's bound, and on it
    if case_id in _CASE_BOUNDS:
        _, past, on = _CASE_BOUNDS[case_id]
        checks.flag("bound_rejects_violation", not _admits(past, case_id))
        checks.flag("bound_allows_equality", _admits(on, case_id))
    return extra, artifacts


# parameter domain of cases 3 and 4: its bound, a point past it, one on it
_CASE_BOUNDS = {
    3: ("l1/l2 <= 1", DspParams(l1=1.3, l2=1.0), DspParams(l1=1.0, l2=1.0)),
    4: ("(m2/(m1+m2))(l2/l1) <= 1", DspParams(m1=0.1, m2=5.0, l1=1.0, l2=2.0),
        DspParams(m1=1.0, m2=1.0, l1=1.0, l2=2.0))}


def _admits(p: DspParams, case_id: int) -> bool:
    """Whether the case's stationary configuration exists at p."""
    try:
        dsp_case_configuration(p, case_id)
    except ValueError:
        return False
    return True


def _run_dsp_static_negative(cfg: ExperimentConfig, checks: CheckSet):
    p = DspParams(**cfg.params)
    re = dsp_equilibria(p, 1)
    checks.flag("static_momentum_zero", re.mu == 0.0)
    checks.flag("marked_singular", re.singular)
    try:
        dsp_slice(p, re)
        refused, msg = False, None
    except NotLocallyFreeError as err:
        refused, msg = True, str(err)
    checks.flag("slice_refused_fixed_point", refused, detail=msg)
    st = dsp_stationarity(p, re.x0)
    checks.bound("stationarity", st["max_directional_derivative"], 1e-8)
    try:
        dsp_equilibria(p, 1, omega=0.3)
        checks.flag("static_rejects_spin", False)
    except ValueError:
        checks.flag("static_rejects_spin", True)
    return {"equilibrium": _equilibrium_summary(re)}, {}


def _run_dsp_flow(cfg: ExperimentConfig, checks: CheckSet):
    p, kw = _dsp_setup(cfg.params)
    num = cfg.num
    re = dsp_equilibria(p, 2, **kw)
    slc = dsp_slice(p, re)
    base = dsp_spheres()
    full = slc.full_constraints
    H, _ = dsp_hamiltonian(p)
    momentum = SmoothMap.from_poly(dsp_action().momentum_polys()[0])
    residual = lambda x: float(np.max(np.abs(base.values(x))))

    # projected run of the lab-frame dynamics on the sphere constraints
    z0 = sample_probes(full, re.x0, 1, num["start_radius"], cfg.seed)[0]
    X_lab = dirac_field_callable(H.gradient, base.jacobian)
    traj = integrate(X_lab, z0, T=num["T_project"], dt=num["dt"],
                     method="projected_rk4", constraints=base,
                     monitors={"J": momentum, "H": H, "phi": residual})
    drift = conserved_monitor(traj, ("J", "H"))
    checks.bound("momentum_drift", drift["J"], 1e-8)
    checks.bound("energy_drift", drift["H"], 1e-8)
    checks.bound("constraint_residual",
                 float(np.max(traj.diagnostics["phi"])), 1e-10)

    # slice flow versus sphere flow of the rotating-frame Hamiltonian
    grad = dsp_gradient(p, re.Omega)
    X6 = dirac_field_callable(grad, full.jacobian)
    X4 = dirac_field_callable(grad, base.jacobian)
    div = flow_compare(X6, X4, z0, T=num["T_compare"], dt=num["dt"])
    checks.bound("flow_divergence", div, 1e-7)
    return ({"equilibrium": _equilibrium_summary(re)},
            {"dsp_flow.csv": _thin(traj)})


def _run_neumann_flow(cfg: ExperimentConfig, checks: CheckSet):
    A = np.diag(cfg.params["A"])
    num = cfg.num
    model = neumann_model(A)
    cs = model.constraints
    x_ref = np.array([1.0, 0.0, 0.0, 0.0, 0.4, -0.2])
    probes = sample_probes(cs, x_ref, num["n_probes"],
                           num["probe_radius"], cfg.seed)

    # multiplier field equals the Dirac projection
    XH = hamiltonian_vector_field(model.H)
    worst = 0.0
    for x in probes:
        ctx = DiracContext(cs, x)
        lam = moser_multipliers(model.H, ctx)
        fld = XH.value(x) - lam @ ctx.XG
        worst = max(worst, float(np.max(np.abs(
            fld - dirac_project(model.H, ctx)))))
    checks.bound("moser_vs_dirac", worst, 1e-10)

    # long projected run of the constrained field
    XD = dirac_field_callable(model.H.gradient, cs.jacobian)
    residual = lambda x: float(np.max(np.abs(cs.values(x))))
    traj = integrate(XD, x_ref, T=num["T"], dt=num["dt"],
                     method="projected_rk4", constraints=cs,
                     monitors={"H": model.H, "phi": residual})
    checks.bound("energy_drift", conserved_monitor(traj, ["H"])["H"], 1e-8)
    checks.bound("constraint_residual",
                 float(np.max(traj.diagnostics["phi"])), 1e-10)
    return {"n_probes": num["n_probes"]}, {"neumann_flow.csv": _thin(traj)}


def _run_moser_separable(cfg: ExperimentConfig, checks: CheckSet):
    w = np.asarray(cfg.params["omega"])
    num = cfg.num
    model = separable_oscillator_model(w)
    cs = model.constraints
    x0 = np.array([0.4, -0.2, 0.0, 0.1, 0.5, 0.0])
    probes = sample_probes(cs, x0, num["n_probes"],
                           num["probe_radius"], cfg.seed)

    filt = moser_filter_integrals(model, probes)
    checks.bound("canonical_defect", filt["canonical_defect"], 1e-9)
    checks.bound("integral_residuals", filt["max_residual"], 1e-8)

    try:
        moser_filter_integrals(separable_oscillator_model(w, broken=True),
                               probes)
        checks.flag("broken_pair_refused", False)
    except ValueError as err:
        checks.flag("broken_pair_refused", True, detail=str(err))

    # conserved mode energies along the constrained flow
    modes = dict(zip(model.residual_names, model.residual_integrals()))
    XD = dirac_field_callable(model.H.gradient, cs.jacobian)
    traj = integrate(XD, x0, T=num["T"], dt=num["dt"],
                     method="projected_rk4", constraints=cs, monitors=modes)
    drift = conserved_monitor(traj, model.residual_names)
    checks.bound("flow_drift", max(drift.values()), 1e-8)

    # flow residual of the integrals against the Dirac bracket, and the
    # bracket identity for an invariant coupling family
    fns = dict(modes, F1=SmoothMap.from_poly(model.F_polys[0]))
    xv = lambda i: TruncatedPoly.variable(i, 6, DEFAULT_MAX_DEGREE)
    coupling = xv(0) * xv(0) * xv(1) * xv(1)
    rel = relatedness_check(lambda e: model.H_poly + e * coupling,
                            cs, fns, probes, num["eps"])
    checks.bound("bracket_identity", rel["max_residual"], 1e-8)
    return {"flow_residuals": filt["flow_residuals"],
            "relatedness": rel["per_eps"]}, {}


def _run_ks_diagnostic(cfg: ExperimentConfig, checks: CheckSet):
    model = ks_model()
    rng = np.random.default_rng(cfg.seed)

    rep0 = singularity_diagnostics(model.constraints, np.zeros(8))
    checks.flag("origin_not_regular", "not_regular_level" in rep0["flags"])
    checks.flag("origin_rank_zero", rep0["rank_dphi"] == 0,
                detail=rep0["rank_dphi"])
    x_reg = np.array([1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0])
    rep1 = singularity_diagnostics(model.constraints, x_reg)
    checks.flag("regular_point_clean", "not_regular_level"
                not in rep1["flags"])

    # phase invariance: the bilinear form under the left action, the
    # Hopf map under the right action (left multiplication conjugates
    # the image instead of fixing it)
    bl_err = hopf_err = norm_err = 0.0
    for _ in range(cfg.num["n_points"]):
        x = rng.standard_normal(8)
        th = rng.uniform(0.0, 2.0 * math.pi)
        u = (math.cos(th), math.sin(th), 0.0, 0.0)
        z, wq = x[:4], x[4:]
        xr = np.concatenate([quaternion_product(u, z),
                             quaternion_product(u, wq)])
        bl_err = max(bl_err, abs(model.bl_poly.eval(xr)
                                 - model.bl_poly.eval(x)))
        hopf_err = max(hopf_err, float(np.max(np.abs(
            model.hopf(np.array(quaternion_product(z, u)))
            - model.hopf(z)))))
        norm_err = max(norm_err, abs(
            np.linalg.norm(model.hopf(z)) - z @ z))
    checks.bound("bl_phase_invariance", bl_err, 1e-10)
    checks.bound("hopf_phase_invariance", hopf_err, 1e-10)
    checks.bound("hopf_norm_identity", norm_err, 1e-10)
    checks.flag("hopf_first_component_zero", model.hopf_polys[0].is_zero())
    return {"origin_diagnostics": {"rank_dphi": rep0["rank_dphi"],
                                   "flags": rep0["flags"]}}, {}


def _run_oscillator_bnf(cfg: ExperimentConfig, checks: CheckSet):
    beta = cfg.params["beta"]
    K = cfg.num["K"]
    q = TruncatedPoly.variable(0, 2, K)
    p = TruncatedPoly.variable(1, 2, K)
    H = 0.5 * (q * q + p * p) + beta * q ** 4
    res = run_normal_form_report(H, CanonicalStructure(1), K=K)

    import scipy.integrate  # local: its import slows every CLI start-up

    # circle average of cos^4 gives the resonant coefficient directly
    avg, _ = scipy.integrate.quad(
        lambda th: math.cos(th) ** 4, 0.0, 2.0 * math.pi)
    coeff = beta * avg / (2.0 * math.pi)
    expected = coeff * (q * q + p * p) ** 2
    dist = (res.resonant_terms[4] - expected).max_abs_coeff()
    checks.bound("resonant_quartic_coefficient", dist, 1e-12)
    checks.bound("cubic_resonant_terms",
                 res.resonant_terms[3].max_abs_coeff(), 1e-12)
    rr = res.residual_report
    checks.bound("commutation", max(rr["commutation"].values()), 1e-9)
    checks.bound("conjugation_defect", rr["conjugation_defect"], 1e-8)
    checks.bound("symplectic_defect", rr["symplectic_defect"], 1e-9)
    return {"oracle_coefficient": coeff}, {
        "nf_result.json": to_jsonable(res.to_json_dict())}


def _run_hygiene(cfg: ExperimentConfig, checks: CheckSet):
    num = cfg.num
    rng = np.random.default_rng(cfg.seed)

    p = DspParams(m1=1.3, m2=0.7, l1=1.1, l2=0.9, g=3.0)
    Hm, _ = dsp_hamiltonian(p)
    Jp = dsp_action().momentum_polys()[0]
    suite = {"dsp_H": Hm, "dsp_J": SmoothMap.from_poly(Jp)}
    spheres = dsp_spheres()
    for nm, phi in zip(spheres.names, spheres.constraints):
        suite["dsp_" + nm] = phi
    nm_model = neumann_model(np.diag([1.0, 2.0, 4.0]))
    suite["neumann_H"] = nm_model.H
    suite["separable_H"] = separable_oscillator_model().H
    suite["ks_BL"] = SmoothMap.from_poly(ks_model().bl_poly)

    worst = {}
    for name, fn in suite.items():
        err = 0.0
        for _ in range(num["n_points"]):
            x = num["scale"] * rng.standard_normal(fn.domain_dim)
            ga = fn.gradient(x)
            gf = fd_jet(fn, x).ravel()
            err = max(err, float(np.max(np.abs(ga - gf))
                                 / max(1.0, np.max(np.abs(ga)))))
        worst[name] = err
    checks.bound("gradient_max_rel_err", max(worst.values()), 1e-6)

    # Jacobi identity on random degree-3 triples (canonical bracket)
    ps = CanonicalStructure(2)
    jac_worst = 0.0
    for _ in range(num["n_triples"]):
        f, g, h = (_random_poly(rng, 4, n_terms=10, K=7)
                   for _ in range(3))
        total = (poisson_bracket(f, poisson_bracket(g, h, ps), ps)
                 + poisson_bracket(g, poisson_bracket(h, f, ps), ps)
                 + poisson_bracket(h, poisson_bracket(f, g, ps), ps))
        jac_worst = max(jac_worst, total.max_abs_coeff())
    checks.bound("jacobi_defect", jac_worst, 1e-12)
    return {"gradient_rel_err": worst}, {}


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------


def _pendulum(**defaults) -> dict:
    """Pendulum model schema: positive masses and lengths, non-negative
    gravity and, for a spinning case, the spin selectors omega and mu."""
    kinds = dict(m1=POSITIVE, m2=POSITIVE, l1=POSITIVE, l2=POSITIVE,
                 g=NON_NEGATIVE, omega=REAL, mu=REAL)
    return {k: (kinds[k], d) for k, d in defaults.items()}


_ONE_SPIN = ("exactly one of mu / omega; giving one replaces the case's "
             "default of the other", _one_spin)
_CASE2 = _pendulum(m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=0.0, omega=1.0, mu=None)


def _in_domain(case_id: int):
    """Rule: the case's stationary configuration exists (``_admits``)."""
    text = "case %d domain: %s" % (case_id, _CASE_BOUNDS[case_id][0])

    def check(cfg):
        if not _admits(_dsp_setup(cfg.params)[0], case_id):
            raise ConfigError("model parameters outside the " + text)
    return text, check


def _dsp_case(case_id: int, description: str, model: dict):
    rules = (_ONE_SPIN, _at_least("chart_degree", "K"))
    checks = ("drift_free:flag drift_residual hessian_cross_block "
              "stationarity intertwining field_agreement "
              "field_negative_control:min ")
    checks += ("normal_form_completed:flag eta_distance resonant_distance "
               "commutation_chart commutation_dirac symplectic_defect"
               if case_id == 2 else "normal_form_refused:flag")
    if case_id in _CASE_BOUNDS:
        rules += (_in_domain(case_id),)
        checks += " bound_rejects_violation:flag bound_allows_equality:flag"
    return Experiment(
        lambda cfg, checks: _run_dsp_case(cfg, checks, case_id), description,
        model, {"K": (_count(3), 4), "chart_degree": (COUNT, 5),
                "n_probes": (COUNT, 20), "field_probes": (COUNT, 100),
                "drift_radius": (POSITIVE, 5e-5),
                "twin_radius": (POSITIVE, 1e-5),
                "field_radius": (POSITIVE, 1e-5), "tilt": (REAL, 0.05)},
        rules, _checks(checks))


EXPERIMENTS = {
    "sphere_dirac": Experiment(
        _run_sphere_dirac,
        "Dirac bracket axioms on the sphere pair and the pendulum slice "
        "set, plus the closed-form sphere brackets",
        {}, {"n_probes": (COUNT, 200), "n_functions": (COUNT, 5),
             "dsp_radius": (POSITIVE, 1e-2)}, (),
        _checks("sphere_antisymmetry sphere_annihilation sphere_tangency "
                "closed_form_qp closed_form_pp closed_form_qq "
                "dsp_antisymmetry dsp_annihilation dsp_tangency")),
    "dsp_case2": _dsp_case(
        2, "Double spherical pendulum, both links horizontal: drift-free "
        "slice, order-4 normal form on two bracket paths, field twin",
        _CASE2),
    "dsp_case3": _dsp_case(
        3, "Double spherical pendulum, inner link horizontal: drift-free "
        "slice, degenerate quadratic part refusal, parameter bound",
        _pendulum(m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=0.0, omega=None,
                  mu=1.0)),
    "dsp_case4": _dsp_case(
        4, "Double spherical pendulum, outer link horizontal: drift-free "
        "slice, repeated-frequency refusal, parameter bound",
        _pendulum(m1=1.5, m2=1.0, l1=1.0, l2=0.8, g=0.0, omega=0.7,
                  mu=None)),
    "dsp_static_negative": Experiment(
        _run_dsp_static_negative,
        "Hanging equilibrium: slice construction must refuse the fixed "
        "point of the rotation action",
        _pendulum(m1=1.0, m2=1.0, l1=1.0, l2=1.0, g=1.0), {}, (),
        _checks("static_momentum_zero:flag marked_singular:flag stationarity "
                "slice_refused_fixed_point:flag static_rejects_spin:flag")),
    "dsp_flow": Experiment(
        _run_dsp_flow,
        "Projected pendulum integration (momentum and constraint "
        "conservation) and slice-vs-sphere flow agreement",
        _CASE2, {"T_project": (POSITIVE, 50.0), "T_compare": (POSITIVE, 10.0),
                 "dt": (POSITIVE, 1e-3), "start_radius": (POSITIVE, 2e-5)},
        (_ONE_SPIN, _at_least("T_project", "dt"),
         _at_least("T_compare", "dt")),
        _checks("momentum_drift energy_drift constraint_residual "
                "flow_divergence")),
    "neumann_flow": Experiment(
        _run_neumann_flow,
        "Neumann oscillator on the sphere: multiplier field identity "
        "and a long projected run",
        {"A": (REAL3, [1.0, 2.0, 4.0])},
        {"n_probes": (COUNT, 100), "T": (POSITIVE, 100.0),
         "dt": (POSITIVE, 1e-3), "probe_radius": (POSITIVE, 0.4)},
        (_at_least("T", "dt"),),
        _checks("moser_vs_dirac energy_drift constraint_residual")),
    "moser_separable": Experiment(
        _run_moser_separable,
        "Separable constrained oscillator: canonical pair filter, "
        "integral drift, bracket-level near-integrability",
        {"omega": (POSITIVE3, [1.0, math.sqrt(2.0), math.sqrt(5.0)])},
        {"n_probes": (COUNT, 20), "T": (POSITIVE, 100.0),
         "dt": (POSITIVE, 1e-3), "probe_radius": (POSITIVE, 0.3),
         "eps": (REALS, [0.0, 1e-3, 1e-2])},
        (_at_least("T", "dt"),),
        _checks("canonical_defect integral_residuals broken_pair_refused:flag "
                "flow_drift bracket_identity")),
    "ks_diagnostic": Experiment(
        _run_ks_diagnostic,
        "Bilinear quaternion constraint: singular level at the origin, "
        "phase invariance, Hopf map identities",
        {}, {"n_points": (COUNT, 50)}, (),
        _checks("origin_not_regular:flag origin_rank_zero:flag "
                "regular_point_clean:flag bl_phase_invariance "
                "hopf_phase_invariance hopf_norm_identity "
                "hopf_first_component_zero:flag")),
    "oscillator_bnf": Experiment(
        _run_oscillator_bnf,
        "Quartic oscillator normal form against the circle-average "
        "oracle",
        {"beta": (REAL, 1.0)}, {"K": (_count(4), 4)}, (),
        _checks("resonant_quartic_coefficient cubic_resonant_terms "
                "commutation conjugation_defect symplectic_defect")),
    "hygiene": Experiment(
        _run_hygiene,
        "Finite-difference gradient audit and the polynomial Jacobi "
        "identity",
        {}, {"n_points": (COUNT, 100), "n_triples": (COUNT, 6),
             "scale": (POSITIVE, 0.7)}, (),
        _checks("gradient_max_rel_err jacobi_defect")),
}


def list_experiments() -> list:
    """Sorted (name, description) pairs of the registry."""
    return [(name, EXPERIMENTS[name].description)
            for name in sorted(EXPERIMENTS)]


def run_experiment(cfg: ExperimentConfig):
    """Run a validated config: build the CheckSet from the record's check
    names and the tolerance overrides (refusing bad ones before the
    runner starts), run the experiment, and assemble the report.
    Returns (report, artifacts) where artifacts maps file names to
    Trajectory or JSON-ready dict values."""
    rec = EXPERIMENTS[cfg.experiment]
    checks = CheckSet(rec.checks, cfg.numerics.get("tolerances", {}))
    extra, artifacts = rec.runner(cfg, checks)
    report = {"experiment": cfg.experiment, "seed": cfg.seed,
              "checks": checks.table, "passed": checks.passed}
    report.update(extra)
    return to_jsonable(report), artifacts
