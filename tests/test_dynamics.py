"""Tests for the integrators, conservation monitoring, flow comparison
and the bracket-level near-integrability check."""

import numpy as np
import pytest

from mdirac.dirac import dirac_field_callable, sample_probes
from mdirac.dynamics import (
    Trajectory,
    conserved_monitor,
    flow_compare,
    integrate,
    project_onto_constraints,
    relatedness_check,
    write_csv,
)
from mdirac.models import (
    CallableConstraints,
    DspParams,
    dsp_equilibria,
    dsp_gradient,
    dsp_slice,
    dsp_spheres,
    neumann_model,
    separable_oscillator_model,
)
from mdirac.poly import DEFAULT_MAX_DEGREE, TruncatedPoly
from mdirac.smooth import SmoothMap


def harmonic_field(x):
    return np.array([x[1], -x[0]])


def harmonic_energy(x):
    return 0.5 * (x[0] ** 2 + x[1] ** 2)


def neumann_callables():
    def values(x):
        q, p = x[:3], x[3:]
        return np.array([0.5 * (q @ q - 1.0), q @ p])

    def jacobian(x):
        q, p = x[:3], x[3:]
        G = np.zeros((2, 6))
        G[0, :3] = q
        G[1, :3] = p
        G[1, 3:] = q
        return G

    return CallableConstraints(values, jacobian, 2)


def neumann_field(A):
    def field(x):
        q, p = x[:3], x[3:]
        return np.concatenate([p, -A @ q + (q @ A @ q - p @ p) * q])

    return field


# ----------------------------------------------------------------------
# integrate
# ----------------------------------------------------------------------


def test_rk4_harmonic_oscillator():
    x0 = np.array([1.0, 0.0])
    traj = integrate(harmonic_field, x0, T=10.0, dt=1e-3,
                     monitors={"E": harmonic_energy})
    drift = conserved_monitor(traj, ["E"])
    assert drift["E"] < 1e-9
    # exact solution (cos t, -sin t)
    want = np.column_stack([np.cos(traj.times), -np.sin(traj.times)])
    assert np.max(np.abs(traj.states - want)) < 1e-9


def test_zero_field_constant_trajectory():
    x0 = np.array([0.3, -0.7, 1.1])
    traj = integrate(lambda x: np.zeros(3), x0, T=1.0, dt=0.1)
    assert np.all(traj.states == x0)
    assert traj.times.size == 11


def test_time_reversal():
    x0 = np.array([1.0, 0.0])
    fwd = integrate(harmonic_field, x0, T=10.0, dt=1e-3)
    back = integrate(lambda x: -harmonic_field(x), fwd.states[-1],
                     T=10.0, dt=1e-3)
    assert np.max(np.abs(back.states[-1] - x0)) < 1e-8


def test_integrate_input_validation():
    x0 = np.zeros(2)
    with pytest.raises(ValueError):
        integrate(harmonic_field, x0, T=-1.0, dt=0.1)
    with pytest.raises(ValueError):
        integrate(harmonic_field, x0, T=1.0, dt=0.1, method="euler")
    with pytest.raises(ValueError):
        integrate(harmonic_field, x0, T=1.0, dt=0.1, method="projected_rk4")


def test_integrate_rejects_zero_steps():
    # under half a step, T would integrate nothing and show zero drift
    with pytest.raises(ValueError, match="round"):
        integrate(harmonic_field, [1.0, 0.0], T=1e-4, dt=1e-3)
    assert integrate(harmonic_field, [1.0, 0.0], T=1e-3, dt=1e-3) \
        .times.size == 2


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
def test_nonfinite_state_detected():
    with pytest.raises(RuntimeError, match="non-finite"):
        integrate(lambda x: x ** 2, np.array([1.0]), T=20.0, dt=0.1)


def test_projected_rk4_requires_second_class():
    cs = neumann_callables()
    one = CallableConstraints(lambda x: cs.values(x)[:1],
                              lambda x: cs.jacobian(x)[:1], 1)
    x0 = np.array([1.0, 0, 0, 0, 0.4, 0.0])
    with pytest.raises(ValueError, match="second-class"):
        integrate(neumann_field(np.eye(3)), x0, T=1.0, dt=0.1,
                  method="projected_rk4", constraints=one)


def test_projection_newton_failure_reported():
    cs = neumann_callables()
    with pytest.raises(RuntimeError):
        project_onto_constraints(cs, np.zeros(6))


def test_neumann_projected_long_run():
    A = np.diag([1.0, 2.0, 4.0])
    cs = neumann_callables()
    x0 = np.array([1.0, 0, 0, 0, 0.4, -0.2])
    x0 = project_onto_constraints(cs, x0)
    traj = integrate(neumann_field(A), x0, T=100.0, dt=1e-3,
                     method="projected_rk4", constraints=cs,
                     monitors={"res": lambda x: np.max(np.abs(cs.values(x))),
                               "E": lambda x: 0.5 * (x[3:] @ x[3:]
                                                     + x[:3] @ A @ x[:3])})
    assert np.max(traj.diagnostics["res"]) < 1e-10
    drift = conserved_monitor(traj, ["E"])
    assert drift["E"] < 1e-8


def test_trajectory_validation():
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 0.0], states=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=np.array([[0.0], [np.nan]]))
    with pytest.raises(ValueError):
        Trajectory(times=[0.0, 1.0], states=np.zeros((3, 2)))


def test_write_csv_roundtrip(tmp_path):
    traj = integrate(harmonic_field, np.array([1.0, 0.0]), T=0.1, dt=0.01,
                     monitors={"E": harmonic_energy})
    path = tmp_path / "traj.csv"
    write_csv(traj, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "t,x1,x2,diag:E"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    np.testing.assert_allclose(data[:, 0], traj.times, atol=1e-16)
    np.testing.assert_allclose(data[:, 1:3], traj.states, atol=1e-16)
    np.testing.assert_allclose(data[:, 3], traj.diagnostics["E"], atol=1e-16)


# ----------------------------------------------------------------------
# conserved_monitor, flow_compare
# ----------------------------------------------------------------------


def test_constant_function_zero_drift():
    traj = integrate(harmonic_field, np.array([1.0, 0.0]), T=1.0, dt=0.01,
                     monitors={"c": lambda x: 4.2})
    drift = conserved_monitor(traj, ["c"])
    assert drift["c"] == 0.0


def test_flow_compare_identical_fields():
    div = flow_compare(harmonic_field, harmonic_field,
                       np.array([1.0, 0.0]), T=1.0, dt=1e-3)
    assert div < 1e-12


def test_dsp_slice_flow_matches_manifold_flow():
    # the momentum-level and slice cuts are dynamically invisible for the
    # invariant Hamiltonian near the drift-free equilibrium
    p = DspParams()
    re = dsp_equilibria(p, 2, omega=1.0)
    slc = dsp_slice(p, re)
    grad = dsp_gradient(p, re.Omega)
    X6 = dirac_field_callable(grad, slc.full_constraints.jacobian)
    X4 = dirac_field_callable(grad, dsp_spheres().jacobian)
    z = sample_probes(slc.full_constraints, re.x0, 1, 2e-5, 7)[0]
    assert flow_compare(X6, X4, z, T=1.0, dt=1e-3) < 5e-9


def test_dsp_flow_divergence_for_noninvariant_hamiltonian():
    p = DspParams()
    re = dsp_equilibria(p, 2, omega=1.0)
    slc = dsp_slice(p, re)
    grad0 = dsp_gradient(p, re.Omega)
    w = np.zeros(12)
    w[1] = 1.0
    grad = lambda x: grad0(x) + 0.05 * w
    X6 = dirac_field_callable(grad, slc.full_constraints.jacobian)
    X4 = dirac_field_callable(grad, dsp_spheres().jacobian)
    z = sample_probes(slc.full_constraints, re.x0, 1, 2e-5, 7)[0]
    assert flow_compare(X6, X4, z, T=1.0, dt=1e-3) > 1e-3


def test_neumann_dirac_field_agrees_with_closed_form_in_flow():
    A = np.diag([1.0, 2.0, 4.0])
    model = neumann_model(A)
    cs = neumann_callables()
    x0 = project_onto_constraints(cs, np.array([1.0, 0, 0, 0, 0.4, -0.2]))
    grad = lambda x: np.concatenate([A @ x[:3], x[3:]])
    XD = dirac_field_callable(grad, cs.jacobian)
    div = flow_compare(XD, neumann_field(A), x0, T=5.0, dt=1e-3)
    assert div < 1e-10


# ----------------------------------------------------------------------
# relatedness_check
# ----------------------------------------------------------------------


def separable_setup():
    model = separable_oscillator_model()
    x0 = np.array([0.4, -0.2, 0.0, 0.1, 0.5, 0.0])
    probes = sample_probes(model.constraints, x0, 10, 0.3, 9)
    fns = {nm: SmoothMap.from_poly(pp)
           for nm, pp in zip(model.residual_names, model.residual_polys)}
    fns["F1"] = SmoothMap.from_poly(model.F_polys[0])
    return model, probes, fns


def test_relatedness_invariant_family():
    model, probes, fns = separable_setup()
    x = lambda i: TruncatedPoly.variable(i, 6, DEFAULT_MAX_DEGREE)
    coupling = x(0) * x(0) * x(1) * x(1)
    rep = relatedness_check(lambda e: model.H_poly + e * coupling,
                            model.constraints, fns, probes,
                            [0.0, 1e-3, 1e-2])
    assert rep["passed"]
    assert rep["max_residual"] < 1e-12


def test_relatedness_flags_constrained_mode_coupling():
    model, probes, fns = separable_setup()
    x = lambda i: TruncatedPoly.variable(i, 6, DEFAULT_MAX_DEGREE)
    bad = x(0) * x(0) * x(2)
    rep = relatedness_check(lambda e: model.H_poly + e * bad,
                            model.constraints, fns, probes, [1e-2])
    assert not rep["passed"]
    assert rep["per_eps"][0.01]["F1"] > 1e-4
    assert rep["per_eps"][0.01]["E1"] < 1e-12


def test_relatedness_constant_test_function():
    model, probes, _ = separable_setup()
    one = SmoothMap.from_poly(
        TruncatedPoly.zero(6, DEFAULT_MAX_DEGREE) + 1.0)
    rep = relatedness_check(lambda e: model.H_poly, model.constraints,
                            {"c": one}, probes, [0.0])
    assert rep["max_residual"] == 0.0


def test_relatedness_rejects_empty_eps_list():
    # no eps would pass with max_residual 0.0 and nothing checked
    model, probes, fns = separable_setup()
    with pytest.raises(ValueError, match="eps"):
        relatedness_check(lambda e: model.H_poly, model.constraints, fns,
                          probes, [])


def test_relatedness_builds_one_context_per_probe(monkeypatch):
    import mdirac.dynamics as dyn

    built = []

    class CountingContext(dyn.DiracContext):
        def __init__(self, cs, x):
            built.append(1)
            super().__init__(cs, x)

    monkeypatch.setattr(dyn, "DiracContext", CountingContext)
    model, probes, fns = separable_setup()
    eps_list = [0.0, 1e-3, 1e-2]
    rep = relatedness_check(lambda e: model.H_poly, model.constraints,
                            fns, probes, eps_list)
    assert rep["passed"]
    assert len(built) == len(probes)
    assert len(fns) * len(eps_list) > 1
