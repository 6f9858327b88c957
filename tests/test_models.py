"""Tests for the concrete models: double spherical pendulum, Moser-type
constrained systems, and the Kustaanheimo-Stiefel diagnostics."""

import math

import numpy as np
import pytest
import scipy.linalg

from mdirac.birkhoff import (
    chart_series,
    darboux_flatten,
    darboux_frame,
    linear_normalize,
    quadratic_matrix,
)
from mdirac.dirac import (
    DiracContext,
    dirac_project,
    sample_probes,
    singularity_diagnostics,
)
from mdirac.models import (
    DspParams,
    dsp_action,
    dsp_case_configuration,
    dsp_equilibria,
    dsp_gradient,
    dsp_hamiltonian,
    dsp_locked_inertia,
    dsp_pipeline,
    dsp_slice,
    dsp_sphere_callables,
    dsp_spheres,
    ks_model,
    moser_filter_integrals,
    neumann_model,
    quaternion_conjugate,
    quaternion_product,
    separable_oscillator_model,
)
from mdirac.poly import TruncatedPoly, compose_batch
from mdirac.smooth import SmoothMap
from mdirac.symmetry import NotLocallyFreeError, check_drift_free, stationarity_test


def group_element(action, alpha):
    """exp(sum_i alpha_i A_i) on phase space."""
    return scipy.linalg.expm(sum(a * action.phase_generator(i)
                                 for i, a in enumerate(alpha)))


UNIT = DspParams()


def rot_about(axis, theta):
    axis = np.asarray(axis, dtype=float)
    axis = axis / np.linalg.norm(axis)
    K = np.array([[0, -axis[2], axis[1]],
                  [axis[2], 0, -axis[0]],
                  [-axis[1], axis[0], 0]])
    return np.eye(3) + math.sin(theta) * K + (1 - math.cos(theta)) * K @ K


def slice_h2_matrix(p, re):
    """Hessian of H_Omega restricted to the flattened slice chart."""
    slc = dsp_slice(p, re)
    _, H_poly = dsp_hamiltonian(p)
    J_poly = dsp_action().momentum_polys()[0]
    H_om = H_poly - re.Omega * J_poly
    frame = darboux_frame(slc.full_constraints, slc.x0)
    flat = darboux_flatten(chart_series(slc.full_constraints, frame, K=2))
    Hc = compose_batch([H_om], flat.ambient_polys())[0].truncated(2)
    return quadratic_matrix(Hc.homogeneous_part(2))


def slice_eta(p, re):
    return linear_normalize(slice_h2_matrix(p, re)).eta


# ----------------------------------------------------------------------
# parameters, Hamiltonian, invariance
# ----------------------------------------------------------------------


def test_unit_inverse_inertia_block():
    np.testing.assert_allclose(UNIT.alpha,
                               np.array([[1.0, -1.0], [-1.0, 2.0]]),
                               atol=1e-14)


def test_params_validated():
    with pytest.raises(ValueError):
        DspParams(m1=-1.0)
    with pytest.raises(ValueError):
        DspParams(l2=0.0)


def test_hamiltonian_energy_of_known_state():
    # hanging at rest: H = -(m1+m2) g l1 - m2 g l2
    p = DspParams(m1=2.0, m2=0.5, l1=1.2, l2=0.7, g=9.8)
    Hm, _ = dsp_hamiltonian(p)
    x = np.zeros(12)
    x[:3] = [0, 0, -1]
    x[3:6] = [0, 0, -1]
    want = -(p.m1 + p.m2) * p.g * p.l1 - p.m2 * p.g * p.l2
    assert Hm.value(x) == pytest.approx(want, rel=1e-14)


def test_hamiltonian_and_momentum_rotation_invariant():
    p = DspParams(m1=1.3, m2=0.7, l1=1.1, l2=0.9, g=3.0)
    Hm, _ = dsp_hamiltonian(p)
    act = dsp_action()
    J = act.momentum_polys()[0]
    rng = np.random.default_rng(11)
    for _ in range(6):
        x = rng.standard_normal(12)
        R = group_element(act, [rng.uniform(-3, 3)])
        y = R @ x
        assert Hm.value(y) == pytest.approx(Hm.value(x), abs=1e-12)
        assert J.eval(y) == pytest.approx(J.eval(x), abs=1e-12)


def test_spheres_hold_on_case_configurations():
    cs = dsp_spheres()
    for case in (1, 2, 3, 4):
        q1, q2 = dsp_case_configuration(UNIT, case)
        x = np.concatenate([q1, q2, np.zeros(6)])
        np.testing.assert_allclose(cs.values(x), 0.0, atol=1e-14)


# ----------------------------------------------------------------------
# relative equilibria
# ----------------------------------------------------------------------


def test_static_case_is_singular_any_gravity():
    for g in (9.81, 1.0, 0.0):
        re = dsp_equilibria(DspParams(g=g), 1)
        assert re.singular
        assert re.residual < 1e-10
        assert re.mu == 0.0


def test_static_case_rejects_spin():
    with pytest.raises(ValueError):
        dsp_equilibria(UNIT, 1, omega=0.3)


def test_spinning_cases_exact_without_gravity():
    p0 = DspParams(g=0.0)
    for case, kw in ((2, dict(omega=1.0)), (3, dict(mu=1.0)),
                     (4, dict(omega=0.5))):
        pp = p0 if case != 4 else DspParams(m1=1.5, l2=0.8, g=0.0)
        re = dsp_equilibria(pp, case, **kw)
        assert re.residual < 1e-10, (case, re.residual)
        assert re.newton_iterations <= 2


def test_case2_momentum_value():
    # aligned horizontal: mu = (A + B + C) Omega, = 5 Omega at unit params
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    assert re.mu == pytest.approx(5.0, rel=1e-12)
    re = dsp_equilibria(UNIT, 2, mu=2.0)
    assert re.Omega == pytest.approx(0.4, rel=1e-12)


def test_spinning_cases_need_exactly_one_momentum_datum():
    with pytest.raises(ValueError):
        dsp_equilibria(UNIT, 2)
    with pytest.raises(ValueError):
        dsp_equilibria(UNIT, 2, mu=1.0, omega=1.0)


def test_case3_bound_violation():
    # inward-link solution needs l1 <= l2
    with pytest.raises(ValueError):
        dsp_case_configuration(DspParams(l1=1.3, l2=1.0), 3)


def test_case4_bound_violation():
    # needs m2 l2 <= (m1 + m2) l1
    with pytest.raises(ValueError):
        dsp_case_configuration(DspParams(m1=0.1, m2=5.0, l1=1.0, l2=2.0), 4)


def test_kkt_multipliers_balance_gradient():
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    Hm, H_poly = dsp_hamiltonian(UNIT)
    J_poly = dsp_action().momentum_polys()[0]
    cs = dsp_spheres()
    grad = (H_poly - re.Omega * J_poly).gradient(re.x0)
    grad -= cs.jacobian(re.x0).T @ re.multipliers
    np.testing.assert_allclose(grad, 0.0, atol=1e-10)


# ----------------------------------------------------------------------
# locked inertia, stationarity, drift
# ----------------------------------------------------------------------


def test_locked_inertia_case2_value():
    q1, q2 = dsp_case_configuration(UNIT, 2)
    li = dsp_locked_inertia(UNIT)
    assert li.value(np.concatenate([q1, q2]))[0, 0] == pytest.approx(5.0)


def config_tangent_dirs(q0):
    G = np.zeros((2, 6))
    G[0, :3] = q0[:3]
    G[1, 3:] = q0[3:]
    _, _, Vt = scipy.linalg.svd(G)
    return list(Vt[2:])


def test_locked_inertia_stationary_at_all_cases():
    li = dsp_locked_inertia(UNIT)
    for case in (1, 2, 3, 4):
        q1, q2 = dsp_case_configuration(UNIT, case)
        q0 = np.concatenate([q1, q2])
        rep = stationarity_test(li, q0, config_tangent_dirs(q0))
        assert rep["stationary"], (case, rep)
        assert rep["max_directional_derivative"] < 1e-8


def test_stationarity_fails_off_the_critical_set():
    li = dsp_locked_inertia(UNIT)
    q1, q2 = dsp_case_configuration(UNIT, 2)
    q2 = rot_about([0, 1, 0], 0.1) @ q2
    q0 = np.concatenate([q1, q2])
    rep = stationarity_test(li, q0, config_tangent_dirs(q0))
    assert not rep["stationary"]
    assert rep["max_directional_derivative"] > 1e-3


def drift_report(p, re, seed=0):
    slc = dsp_slice(p, re)
    _, H_poly = dsp_hamiltonian(p)
    J_poly = dsp_action().momentum_polys()[0]
    H_om = H_poly - re.Omega * J_poly
    S = SmoothMap.from_poly(H_om).hessian(re.x0)
    H2 = TruncatedPoly.from_quadratic_form(S, 2).shifted(-re.x0)
    probes = sample_probes(slc.full_constraints, re.x0, 12, 5e-5, seed)
    return slc, check_drift_free(SmoothMap.from_poly(H2), slc, probes)


def test_adapted_slice_is_drift_free_spinning_cases():
    for case, p, kw in ((2, UNIT, dict(omega=1.0)),
                        (3, UNIT, dict(mu=1.0)),
                        (4, DspParams(m1=1.5, l2=0.8), dict(omega=0.7))):
        re = dsp_equilibria(p, case, **kw)
        slc, rep = drift_report(p, re, seed=case)
        assert rep["is_drift_free"], (case, rep)
        assert rep["hessian_cross_block"] < 1e-9
        # adapted direction normalizes the cross matrix to the identity
        np.testing.assert_allclose(slc.B, np.eye(1), atol=1e-10)


def test_slice_raises_on_static_stratum():
    re = dsp_equilibria(UNIT, 1)
    with pytest.raises(NotLocallyFreeError):
        dsp_slice(UNIT, re)


# ----------------------------------------------------------------------
# pipeline and spectral data
# ----------------------------------------------------------------------


def test_case2_oscillator_frequencies():
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    eta = slice_eta(UNIT, re)
    np.testing.assert_allclose(eta, [1.0, math.sqrt(6.0), math.sqrt(30.0)],
                               rtol=1e-9)


def test_frequency_scaling():
    # eta is homogeneous of degree one in the restricted Hessian; the
    # "all masses x2" version of the claim at fixed Omega instead leaves
    # eta invariant, since the equilibrium momenta double and that
    # non-symplectic rescaling exactly absorbs the factor
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    S = slice_h2_matrix(UNIT, re)
    eta = linear_normalize(S).eta
    np.testing.assert_allclose(linear_normalize(2.0 * S).eta, 2.0 * eta,
                               rtol=1e-12)
    p2 = DspParams(m1=2.0, m2=2.0)
    eta_m = slice_eta(p2, dsp_equilibria(p2, 2, omega=1.0))
    np.testing.assert_allclose(eta_m, eta, rtol=1e-9)


def test_pipeline_case2_consistency():
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    out = dsp_pipeline(UNIT, re, K=3, chart_degree=3, n_probes=8)
    assert out["drift"]["is_drift_free"]
    assert out["stationarity"]["stationary"]
    c = out["consistency"]
    assert c["eta_distance"] < 1e-9
    assert all(v < 1e-7 for v in c["resonant_distance"].values())
    assert c["commutation_chart"] < 1e-9
    assert c["commutation_dirac"] < 1e-9
    assert out["intertwining"]["passed"]


def test_pipeline_rejects_chart_degree_below_K():
    # a degree-3 chart truncates terms a K = 4 normal form reads: its
    # resonant coefficients would be wrong yet pass every check
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    with pytest.raises(ValueError, match="chart_degree"):
        dsp_pipeline(UNIT, re, K=4, chart_degree=3)


def test_pipeline_records_refusal_at_degenerate_case():
    re = dsp_equilibria(UNIT, 3, mu=1.0)
    out = dsp_pipeline(UNIT, re, K=3, chart_degree=3, n_probes=6)
    assert out["drift"]["is_drift_free"]
    assert "normal_form_error" in out
    assert "nf_chart" not in out
    assert out["intertwining"]["passed"]


def test_closed_form_gradient_matches_polynomial():
    # dsp_gradient(p, Omega) is grad(H - Omega J), with gravity and with
    # the case-2 spin rate
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    J_poly = dsp_action().momentum_polys()[0]
    rng = np.random.default_rng(81)
    points = rng.standard_normal((20, 12))
    for p in (UNIT, DspParams(m1=1.3, m2=0.7, l1=0.9, l2=1.1, g=9.81)):
        _, H_poly = dsp_hamiltonian(p)
        for Omega in (0.0, re.Omega):
            H_om = SmoothMap.from_poly(H_poly - Omega * J_poly)
            grad = dsp_gradient(p, Omega)
            for x in points:
                np.testing.assert_allclose(grad(x), H_om.gradient(x),
                                           rtol=0, atol=1e-13)


def test_closed_form_constraints_match_polynomial_sets():
    # dsp_sphere_callables is dsp_spheres' values and Jacobian, and the
    # one jet kernel of a set gives each constraint's own value and
    # gradient, bit for bit
    re = dsp_equilibria(UNIT, 2, omega=1.0)
    slc = dsp_slice(UNIT, re)
    rng = np.random.default_rng(82)
    points = re.x0 + 0.5 * rng.standard_normal((20, 12))
    fast, spheres = dsp_sphere_callables(), dsp_spheres()
    assert fast.k == spheres.k == 4
    for x in points:
        assert np.array_equal(fast.values(x), spheres.values(x))
        assert np.array_equal(fast.jacobian(x), spheres.jacobian(x))
        for cs in (spheres, slc.full_constraints):
            phis = cs.constraints
            assert np.array_equal(cs.values(x), [f.value(x) for f in phis])
            assert np.array_equal(cs.jacobian(x),
                                  [f.gradient(x) for f in phis])


# ----------------------------------------------------------------------
# Moser-type models
# ----------------------------------------------------------------------


def neumann_probe_points(model, n=8, seed=5):
    x0 = np.zeros(6)
    x0[0] = 1.0
    x0[4] = 0.3
    return sample_probes(model.constraints, x0, n, 0.2, seed)


def test_neumann_constrained_field_closed_form():
    A = np.diag([1.0, 2.0, 4.0])
    model = neumann_model(A)
    for x in neumann_probe_points(model):
        q, p = x[:3], x[3:]
        want = np.concatenate([p, -A @ q + (q @ A @ q - p @ p) * q])
        X = dirac_project(model.H, DiracContext(model.constraints, x))
        np.testing.assert_allclose(X, want, atol=1e-10)


def test_neumann_energy_passes_filter():
    model = neumann_model(np.diag([1.0, 2.0, 4.0]))
    rep = moser_filter_integrals(model, neumann_probe_points(model))
    assert rep["passed"]
    assert rep["max_residual"] < 1e-10


def test_separable_oscillator_mode_energies_commute():
    model = separable_oscillator_model()
    x0 = np.array([0.4, -0.2, 0.0, 0.1, 0.5, 0.0])
    probes = sample_probes(model.constraints, x0, 10, 0.3, 9)
    rep = moser_filter_integrals(model, probes)
    assert rep["passed"]
    assert rep["canonical_defect"] < 1e-12
    assert rep["max_residual"] < 1e-10


def test_broken_pairing_is_refused():
    good = separable_oscillator_model()
    bad = separable_oscillator_model(broken=True)
    x0 = np.array([0.4, -0.2, 0.0, 0.1, 0.5, 0.0])
    probes = sample_probes(good.constraints, x0, 6, 0.3, 9)
    with pytest.raises(ValueError, match="canonical"):
        moser_filter_integrals(bad, probes)


def test_moser_filter_probe_list_and_iterator():
    model = separable_oscillator_model()
    x0 = np.array([0.4, -0.2, 0.0, 0.1, 0.5, 0.0])
    probes = sample_probes(model.constraints, x0, 6, 0.3, 9)
    with pytest.raises(ValueError, match="probe"):
        moser_filter_integrals(model, [])
    # an iterator is read once: the bracket loop sees every probe too
    rep = moser_filter_integrals(model, iter(probes))
    assert rep["n_probes"] == len(probes)
    assert rep == moser_filter_integrals(model, probes)


# ----------------------------------------------------------------------
# quaternions and the Kustaanheimo-Stiefel model
# ----------------------------------------------------------------------


def test_quaternion_product_table():
    e = np.eye(4)
    one, i, j, k = e
    np.testing.assert_allclose(quaternion_product(i, j), k)
    np.testing.assert_allclose(quaternion_product(j, k), i)
    np.testing.assert_allclose(quaternion_product(k, i), j)
    np.testing.assert_allclose(quaternion_product(i, i), -one)


def test_quaternion_norm_multiplicative():
    rng = np.random.default_rng(2)
    for _ in range(5):
        a, b = rng.standard_normal(4), rng.standard_normal(4)
        ab = quaternion_product(a, b)
        assert np.linalg.norm(ab) == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12)


def test_bilinear_form_closed_expression():
    ks = ks_model()
    rng = np.random.default_rng(4)
    for _ in range(6):
        x = rng.standard_normal(8)
        z, w = x[:4], x[4:]
        want = z[1] * w[0] - z[0] * w[1] + z[3] * w[2] - z[2] * w[3]
        assert ks.bl_poly.eval(x) == pytest.approx(want, abs=1e-12)


def test_bilinear_form_phase_invariant():
    ks = ks_model()
    rng = np.random.default_rng(6)
    for _ in range(6):
        x = rng.standard_normal(8)
        theta = rng.uniform(-3, 3)
        u = np.array([math.cos(theta), math.sin(theta), 0.0, 0.0])
        y = np.concatenate([quaternion_product(u, x[:4]),
                            quaternion_product(u, x[4:])])
        assert ks.bl_poly.eval(y) == pytest.approx(ks.bl_poly.eval(x),
                                                   abs=1e-12)


def test_hopf_map_values():
    ks = ks_model()
    assert ks.hopf_polys[0].is_zero()
    rng = np.random.default_rng(8)
    for _ in range(6):
        z = rng.standard_normal(4)
        pi = ks.hopf(z)
        assert np.linalg.norm(pi) == pytest.approx(z @ z, rel=1e-12)
        # matches the conjugation form z i z-bar
        want = quaternion_product(
            z, quaternion_product(np.array([0.0, 1.0, 0.0, 0.0]),
                                  quaternion_conjugate(z)))
        np.testing.assert_allclose(pi, want, atol=1e-12)


def test_ks_level_degenerates_at_origin():
    ks = ks_model()
    rep = singularity_diagnostics(ks.constraints, np.zeros(8))
    assert "not_regular_level" in rep["flags"]
    assert rep["rank_dphi"] == 0
    x = np.zeros(8)
    x[0] = 1.0
    x[5] = 1.0
    rep = singularity_diagnostics(ks.constraints, x)
    assert "not_regular_level" not in rep["flags"]
