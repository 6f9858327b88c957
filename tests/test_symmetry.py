"""Tests for group actions, momentum maps, slices and locked inertia."""

import numpy as np
import pytest
import scipy.linalg

from mdirac.dirac import ConstraintSet, DiracContext, classify, dirac_project
from mdirac.poly import TruncatedPoly
from mdirac.smooth import SmoothMap, hamiltonian_vector_field
from mdirac.symmetry import (
    GroupAction,
    LockedInertia,
    MomentumData,
    NotLocallyFreeError,
    build_slice,
    check_drift_free,
    stationarity_test,
)


def momentum_map(action, x):
    """Momentum components J_i(q,p) = p . xi_{i,Q}(q) of the lift."""
    m = action.config_dim
    q, p = x[:m], x[m:]
    return np.array([p @ (a @ q) for a in action.config_generators])


def group_element(action, alpha):
    """exp(sum_i alpha_i A_i) on phase space."""
    return scipy.linalg.expm(sum(a * action.phase_generator(i)
                                 for i, a in enumerate(alpha)))


ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def rot3(axis=2):
    a = np.zeros((3, 3))
    i, j = {0: (1, 2), 1: (2, 0), 2: (0, 1)}[axis]
    a[j, i] = 1.0
    a[i, j] = -1.0
    return a


# ----------------------------------------------------------------------
# group actions and momentum maps
# ----------------------------------------------------------------------


def test_momentum_is_angular_momentum():
    act = GroupAction([rot3(2)])
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(6)
        q, p = x[:3], x[3:]
        want = np.cross(q, p)[2]
        assert momentum_map(act, x)[0] == pytest.approx(want, rel=1e-12)


def test_momentum_zero_at_zero_momentum():
    act = GroupAction([ROT2])
    x = np.array([1.0, 2.0, 0.0, 0.0])
    np.testing.assert_allclose(momentum_map(act, x), 0.0)


def test_noncommuting_generators_rejected():
    with pytest.raises(ValueError):
        GroupAction([rot3(0), rot3(2)])


def test_phase_generator_is_cotangent_lift():
    act = GroupAction([ROT2])
    A = act.phase_generator(0)
    np.testing.assert_allclose(A[:2, :2], ROT2)
    np.testing.assert_allclose(A[2:, 2:], -ROT2.T)
    np.testing.assert_allclose(A[:2, 2:], 0.0)


def test_momentum_field_equals_generator():
    # X_{J_i} = xi_{i,M} exactly for the lift
    act = GroupAction([rot3(2)])
    md = MomentumData(act, mu=[0.0])
    X = hamiltonian_vector_field(SmoothMap.from_poly(md.J_polys[0]))
    rng = np.random.default_rng(7)
    for _ in range(6):
        x = rng.standard_normal(6)
        np.testing.assert_allclose(X.value(x), act.generator_field(0, x),
                                   atol=1e-12)


def test_group_element_preserves_momentum():
    act = GroupAction([rot3(2)])
    R = group_element(act, [0.83])
    rng = np.random.default_rng(8)
    for _ in range(4):
        x = rng.standard_normal(6)
        np.testing.assert_allclose(momentum_map(act, R @ x),
                                   momentum_map(act, x), atol=1e-12)


def test_commuting_momenta_first_class():
    # two independent plane rotations of R^4 commute; their momentum
    # constraints are first-class everywhere on a joint level
    a1 = np.zeros((4, 4))
    a1[:2, :2] = ROT2
    a2 = np.zeros((4, 4))
    a2[2:, 2:] = ROT2
    act = GroupAction([a1, a2])
    md = MomentumData(act, mu=[0.3, -0.2])
    cs = ConstraintSet(md.Phi)
    rng = np.random.default_rng(9)
    probes = []
    while len(probes) < 8:
        x = rng.standard_normal(8)
        # adjust momenta onto the level by scaling the two planes
        from mdirac.dirac import project_to_constraints
        probes.append(project_to_constraints(cs, x))
    assert classify(cs, probes) == "FirstClass"


# ----------------------------------------------------------------------
# slice construction
# ----------------------------------------------------------------------


def planar_slice(mu=0.7):
    act = GroupAction([ROT2])
    md = MomentumData(act, mu=[mu])
    x0 = np.array([1.0, 0.0, 0.0, mu])   # J = p . (a q) = mu
    return build_slice(None, md, x0, generator_rows(act, x0)), md, x0


def generator_rows(action, x):
    """The generator fields at x as rows, the generator-direction
    slice."""
    return np.vstack([action.generator_field(i, x)
                      for i in range(action.group_dim)])


def test_build_slice_planar_gram():
    slc, md, x0 = planar_slice()
    xi = md.action.generator_field(0, x0)
    assert slc.B.shape == (1, 1)
    assert abs(slc.B[0, 0]) == pytest.approx(xi @ xi, rel=1e-12)


def test_slice_combined_set_second_class():
    slc, _, x0 = planar_slice()
    assert classify(slc.full_constraints, [x0]) == "SecondClass"


def test_build_slice_fixed_point_raises():
    act = GroupAction([ROT2])
    md = MomentumData(act, mu=[0.0])
    with pytest.raises(NotLocallyFreeError):
        build_slice(None, md, np.zeros(4), generator_rows(act, np.zeros(4)))


def test_build_slice_rejects_off_level_point():
    act = GroupAction([ROT2])
    md = MomentumData(act, mu=[0.5])
    x = np.array([1.0, 0.0, 0.0, 0.0])                        # J = 0
    with pytest.raises(ValueError):
        build_slice(None, md, x, generator_rows(act, x))


def test_upsilon_vanishes_at_x0():
    slc, _, x0 = planar_slice()
    for u in slc.Upsilon:
        assert abs(u.value(x0)) < 1e-14


# ----------------------------------------------------------------------
# drift-free checks
# ----------------------------------------------------------------------


def test_drift_free_negative_for_momentum_constraint():
    # F = Phi drifts by construction: residual = |B|
    slc, md, x0 = planar_slice()
    rep = check_drift_free(md.Phi[0], slc, [x0])
    assert not rep["is_drift_free"]
    assert rep["max_residual"] == pytest.approx(abs(slc.B[0, 0]), rel=1e-10)


def test_drift_free_positive_constructed():
    # F = (J - mu)^2 vanishes to second order on the level: exactly
    # drift-free there, with zero Hessian cross block
    slc, md, x0 = planar_slice()
    F = SmoothMap.from_poly(md.Phi_polys[0] * md.Phi_polys[0])
    from mdirac.dirac import sample_probes
    probes = sample_probes(slc.full_constraints, x0, 6, 0.05, seed=3)
    rep = check_drift_free(F, slc, probes)
    assert rep["is_drift_free"]
    assert rep["max_residual"] < 1e-12
    assert rep["hessian_cross_block"] < 1e-8


def test_drift_free_rejects_off_slice_probe():
    slc, md, x0 = planar_slice()
    with pytest.raises(ValueError):
        check_drift_free(md.Phi[0], slc, [x0 + 0.1])


def test_drift_free_rejects_empty_probe_list():
    slc, md, _ = planar_slice()
    with pytest.raises(ValueError, match="probe"):
        check_drift_free(md.Phi[0], slc, [])


# ----------------------------------------------------------------------
# locked inertia and stationarity
# ----------------------------------------------------------------------


def test_locked_inertia_planar():
    act = GroupAction([ROT2])
    li = LockedInertia(lambda q: np.eye(2), act)
    q = np.array([0.6, -0.8])
    # |a q|^2 = |q|^2 for a rotation generator
    np.testing.assert_allclose(li.value(q), [[1.0]], atol=1e-14)


def test_stationarity_detects_critical_directions():
    act = GroupAction([ROT2])
    g = np.diag([4.0, 1.0])
    li = LockedInertia(lambda q: g, act)
    # I(q) = (aq)^T g (aq) = 4 q2^2 + q1^2; along (0,1) at q0=(1,0) the
    # derivative vanishes; at a generic point it does not
    rep = stationarity_test(li, np.array([1.0, 0.0]), [np.array([0.0, 1.0])])
    assert rep["stationary"]
    rep2 = stationarity_test(li, np.array([0.7, 0.7]),
                             [np.array([0.0, 1.0])])
    assert not rep2["stationary"]
    assert rep2["max_directional_derivative"] > 1e-3


# ----------------------------------------------------------------------
# equivariance of the Dirac field (sphere pair + invariant H)
# ----------------------------------------------------------------------


def test_dirac_field_equivariance():
    n, K = 6, 4
    g1 = TruncatedPoly.zero(n, K)
    g2 = TruncatedPoly.zero(n, K)
    H = TruncatedPoly.zero(n, K)
    A = np.diag([1.0, 1.0, 3.0])   # z-rotation invariant
    for a in range(3):
        qa = TruncatedPoly.variable(a, n, K)
        pa = TruncatedPoly.variable(3 + a, n, K)
        g1 = g1 + qa * qa
        g2 = g2 + qa * pa
        H = H + 0.5 * pa * pa
        for b in range(3):
            qb = TruncatedPoly.variable(b, n, K)
            H = H + 0.5 * A[a, b] * qa * qb
    cs = ConstraintSet.from_polys([g1 - 1.0, g2])
    Hm = SmoothMap.from_poly(H)
    act = GroupAction([rot3(2)])
    R = group_element(act, [1.1])
    rng = np.random.default_rng(12)
    for _ in range(4):
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        p = rng.standard_normal(3)
        p -= (p @ q) * q
        x = np.concatenate([q, p])
        vx = dirac_project(Hm, DiracContext(cs, x))
        vR = dirac_project(Hm, DiracContext(cs, R @ x))
        np.testing.assert_allclose(vR, R @ vx, atol=1e-9)
