"""Fixed-step integration of ambient and constrained flows, with
conserved-quantity monitoring, flow comparison, and the bracket-level
near-integrability check.

Integrators are deliberately fixed-step (rk4 and projected rk4): the
acceptance numbers must be reproducible, and the working horizons are
desk scale.  Fields and monitors are called as functions of the
state: SmoothMaps (polynomial maps, callable as their value) or plain
callables, such as a field from ``dirac.dirac_field_callable``.
The constrained integrator only needs ``values``, ``jacobian`` and ``k``
from its constraint argument, a ConstraintSet or a
``models.CallableConstraints`` over one's values and Jacobian.  The start
point is checked with a ``dirac.DiracContext``, and the post-step Newton
projection ``project_onto_constraints`` is ``dirac.project_to_constraints``
under the name this module looks up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dirac import DiracContext, dirac_bracket, probe_list
from .dirac import project_to_constraints as project_onto_constraints
from .smooth import SmoothMap, canonical_bracket_value


@dataclass
class Trajectory:
    """Sampled flow: strictly increasing times, one state row per time,
    and optional per-sample diagnostics."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.times.ndim != 1 or self.states.shape[0] != self.times.size:
            raise ValueError("one state row per sample time is required")
        if self.times.size > 1 and np.min(np.diff(self.times)) <= 0:
            raise ValueError("sample times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory contains non-finite states")

    @property
    def dim(self) -> int:
        return self.states.shape[1]


def write_csv(traj: Trajectory, path) -> None:
    """Write `t,x1..xn,diag:<name>...` rows with 17 significant digits."""
    names = sorted(traj.diagnostics)
    cols = ["t"] + ["x%d" % (i + 1) for i in range(traj.dim)]
    cols += ["diag:%s" % nm for nm in names]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k, t in enumerate(traj.times):
            row = [t] + list(traj.states[k])
            row += [traj.diagnostics[nm][k] for nm in names]
            fh.write(",".join("%.17g" % v for v in row) + "\n")


def _rk4_step(f, x, dt):
    k1 = f(x)
    k2 = f(x + 0.5 * dt * k1)
    k3 = f(x + 0.5 * dt * k2)
    k4 = f(x + dt * k3)
    return x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(vec_field, x0, T: float, dt: float, method: str = "rk4",
              constraints=None, monitors=None) -> Trajectory:
    """Fixed-step flow of a vector field from x0 over [0, T].

    method is ``rk4`` or ``projected_rk4`` (post-step Newton projection
    onto the given second-class constraints).  monitors, a name ->
    function map, is evaluated at every sample into the trajectory
    diagnostics.  The step count is round(T / dt), which must be at
    least one.
    """
    if not (np.isfinite(T) and np.isfinite(dt)) or T <= 0 or dt <= 0:
        raise ValueError("T and dt must be positive and finite")
    x = np.array(x0, dtype=float)
    n_steps = int(round(T / dt))
    if n_steps == 0:
        raise ValueError("T = %g is under half a step dt = %g: round(T / dt) "
                         "must be at least one step" % (T, dt))
    if method == "projected_rk4":
        if constraints is None:
            raise ValueError("projected_rk4 needs a constraint set")
        if x.size % 2:
            raise ValueError("phase dimension must be even")
        DiracContext(constraints, x).require_second_class()
    elif method != "rk4":
        raise ValueError("unknown method %r" % method)
    monitors = monitors or {}

    times = np.empty(n_steps + 1)
    states = np.empty((n_steps + 1, x.size))
    diag = {nm: np.empty(n_steps + 1) for nm in monitors}

    def record(k, t, x):
        times[k] = t
        states[k] = x
        for nm, g in monitors.items():
            diag[nm][k] = g(x)

    record(0, 0.0, x)
    for k in range(1, n_steps + 1):
        x = _rk4_step(vec_field, x, dt)
        if method == "projected_rk4":
            x = project_onto_constraints(constraints, x)
        if not np.isfinite(x).all():
            raise RuntimeError("state became non-finite at t = %g" % (k * dt))
        record(k, k * dt, x)
    return Trajectory(times=times, states=states, diagnostics=diag)


def conserved_monitor(traj: Trajectory, names) -> dict:
    """Max drift |f(x(t)) - f(x(0))| over the trajectory, per named
    monitor, read from the values ``integrate`` recorded in
    ``traj.diagnostics``."""
    out = {}
    for nm in names:
        if nm not in traj.diagnostics:
            raise ValueError("monitor %r was not recorded" % nm)
        vals = traj.diagnostics[nm]
        out[nm] = float(np.max(np.abs(vals - vals[0])))
    return out


def flow_compare(field_a, field_b, x0, T: float, dt: float) -> float:
    """Integrate both fields from x0 with rk4 on the same grid; max
    divergence."""
    ta = integrate(field_a, x0, T, dt)
    tb = integrate(field_b, x0, T, dt)
    return float(np.max(np.linalg.norm(ta.states - tb.states, axis=1)))


def relatedness_check(H_family, constraints, test_fns, probes,
                      eps_list) -> dict:
    """Bracket-level near-integrability transfer check.

    For each epsilon, compares the Dirac bracket of H_eps over the
    constraint set with its canonical bracket against the given
    invariant test functions at probes on the locus: residual
    |{H_eps, f}_D - {H_eps, f}|.  Passes when every residual is below
    1e-8.  Raises ValueError on an empty eps_list, which would pass with
    nothing checked.

    H_family: callable eps -> TruncatedPoly.  test_fns: name -> SmoothMap.
    """
    eps_list = list(eps_list)
    if not eps_list:
        raise ValueError("relatedness_check needs at least one eps value")
    probes = probe_list(probes)
    contexts = [DiracContext(constraints, x) for x in probes]
    per_eps = {}
    worst = 0.0
    for eps in eps_list:
        H = SmoothMap.from_poly(H_family(eps))
        res = {}
        for nm, fn in test_fns.items():
            vals = []
            for x, ctx in zip(probes, contexts):
                d = dirac_bracket(H, fn, ctx)
                m = canonical_bracket_value(H, fn, x)
                vals.append(abs(d - m))
            res[nm] = float(max(vals))
            worst = max(worst, res[nm])
        per_eps[float(eps)] = res
    return {
        "per_eps": per_eps,
        "max_residual": worst,
        "passed": bool(worst < 1e-8),
        "n_probes": len(probes),
    }
