"""Tests for the Darboux chart machinery and the normal form driver."""

import itertools
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm
from scipy.special import binom

from mdirac.birkhoff import (
    DarbouxFrame,
    NearResonanceWarning,
    TAU_RES,
    _form_defect,
    _pullback_form_of,
    birkhoff_normal_form,
    chart_series,
    darboux_flatten,
    darboux_frame,
    dirac_chart_structure,
    intertwining_check,
    linear_normalize,
    oscillator_poly,
    run_normal_form_report,
    split_resonant,
    transport_structure,
)
from mdirac.dirac import ConstraintSet, poly_mat_neumann_inverse, sample_probes
from mdirac.poly import (
    CanonicalStructure,
    StructuredStructure,
    TruncatedPoly,
    poisson_bracket,
)
from mdirac.smooth import SmoothMap, canonical_J
from mdirac.symmetry import GroupAction, MomentumData, build_slice


def coeff_distance(a, b):
    """Largest absolute coefficient of a - b."""
    return (a - b).max_abs_coeff()


def chart_symplectic_defect(chart, through_degree):
    """Largest coefficient of W - J0 in degrees 0..through_degree."""
    return _form_defect(_pullback_form_of(chart.map, chart.K),
                        through_degree)


ROT2 = np.array([[0.0, -1.0], [1.0, 0.0]])


def tstar_sphere(K=5, A=(4.0, 2.0, 1.0)):
    """Constraint pair of T*S^2 in R^6 plus an anisotropic oscillator."""
    n = 6
    g1 = TruncatedPoly.constant(-1.0, n, K)
    g2 = TruncatedPoly.zero(n, K)
    H = TruncatedPoly.zero(n, K)
    for a in range(3):
        qa = TruncatedPoly.variable(a, n, K)
        pa = TruncatedPoly.variable(3 + a, n, K)
        g1 = g1 + qa * qa
        g2 = g2 + qa * pa
        H = H + 0.5 * pa * pa + 0.5 * A[a] * qa * qa
    cs = ConstraintSet.from_polys([g1, g2])
    return cs, H


X0_SPHERE = np.array([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])


# ----------------------------------------------------------------------
# frames and charts
# ----------------------------------------------------------------------


def test_frame_trivial_plane():
    K = 3
    q2 = TruncatedPoly.variable(1, 4, K)
    p2 = TruncatedPoly.variable(3, 4, K)
    cs = ConstraintSet.from_polys([q2, p2])
    fr = darboux_frame(cs, np.zeros(4))
    assert fr.d == 1
    V = fr.basis
    # spans the (q1, p1) plane with unit pairing
    assert np.max(np.abs(V[[1, 3], :])) < 1e-12
    np.testing.assert_allclose(V.T @ canonical_J(2) @ V, canonical_J(1),
                               atol=1e-12)


def test_frame_sphere_tangent():
    cs, _ = tstar_sphere()
    fr = darboux_frame(cs, X0_SPHERE)
    assert fr.d == 2
    G = cs.jacobian(X0_SPHERE)
    assert np.max(np.abs(G @ fr.basis)) < 1e-10
    np.testing.assert_allclose(fr.basis.T @ canonical_J(3) @ fr.basis,
                               canonical_J(2), atol=1e-10)


def test_chart_affine_is_linear():
    K = 4
    q2 = TruncatedPoly.variable(1, 4, K) - 0.3
    p2 = TruncatedPoly.variable(3, 4, K)
    cs = ConstraintSet.from_polys([q2, p2])
    x0 = np.array([0.0, 0.3, 0.0, 0.0])
    fr = darboux_frame(cs, x0)
    ch = chart_series(cs, fr, K=K)
    for a in range(4):
        lin = TruncatedPoly.from_linear(fr.basis[a, :], K)
        assert coeff_distance(ch.map[a], lin) < 1e-12


def test_chart_circle_binomial_series():
    K = 7
    q1 = TruncatedPoly.variable(0, 2, K)
    q2 = TruncatedPoly.variable(1, 2, K)
    cs = ConstraintSet.from_polys([q1 * q1 + q2 * q2 - 1.0])
    x0 = np.array([0.0, 1.0])
    fr = DarbouxFrame(x0=x0, basis=np.array([[1.0], [0.0]]), d=0)
    ch = chart_series(cs, fr, K=K)
    # second component reproduces sqrt(1 - u^2) - 1
    for k in range(0, K + 1):
        want = binom(0.5, k // 2) * (-1.0) ** (k // 2) if k % 2 == 0 else 0.0
        if k == 0:
            want -= 1.0  # centered chart drops the base point
        got = ch.map[1].coefficient((k,))
        assert got == pytest.approx(want, abs=1e-12)
    assert coeff_distance(ch.map[0],
                          TruncatedPoly.variable(0, 1, K)) < 1e-12


def test_chart_sphere_residual():
    cs, _ = tstar_sphere()
    fr = darboux_frame(cs, X0_SPHERE)
    ch = chart_series(cs, fr, K=5)
    amb = ch.ambient_polys()
    for phi in cs.polys:
        res = phi.compose(amb)
        assert res.max_abs_coeff() < 1e-9


def test_flatten_makes_chart_symplectic():
    cs, _ = tstar_sphere()
    fr = darboux_frame(cs, X0_SPHERE)
    ch = chart_series(cs, fr, K=5)
    # the raw chart is not symplectic beyond the linear part
    assert chart_symplectic_defect(ch, 3) > 1e-6
    flat = darboux_flatten(ch)
    assert chart_symplectic_defect(flat, 3) < 1e-9
    # still a chart of the same level, same linear part
    amb = flat.ambient_polys()
    for phi in cs.polys:
        assert phi.compose(amb).max_abs_coeff() < 1e-9
    for a in range(6):
        assert abs(flat.map[a].coefficient(
            (1, 0, 0, 0)) - fr.basis[a, 0]) < 1e-12


def test_dirac_chart_structure_inverts_pullback_form():
    cs, _ = tstar_sphere()
    fr = darboux_frame(cs, X0_SPHERE)
    ch = chart_series(cs, fr, K=4)
    pi = dirac_chart_structure(cs, ch, 4).pi
    W = _pullback_form_of(ch.map, 4)
    Winv = poly_mat_neumann_inverse(W, 4)
    J2 = canonical_J(2)
    for a in range(4):
        for b in range(4):
            assert coeff_distance(pi[a, b], -1.0 * Winv[a, b]) < 1e-9
            assert abs(pi[a, b].coefficient((0, 0, 0, 0))
                       - J2[a, b]) < 1e-12


def test_dirac_chart_structure_on_flattened_chart():
    """Transported structure still matches -W^{-1} for the flat chart."""
    cs, _ = tstar_sphere()
    fr = darboux_frame(cs, X0_SPHERE)
    flat = darboux_flatten(chart_series(cs, fr, K=5))
    assert flat.transition is not None and flat.parent is not None
    pi = dirac_chart_structure(cs, flat, 4).pi
    W = _pullback_form_of([p.truncated(4) for p in flat.map], 4)
    Winv = poly_mat_neumann_inverse(W, 4)
    for a in range(4):
        for b in range(4):
            # degree 3 is the last order the K=5 chart determines in W
            da = pi[a, b] + 1.0 * Winv[a, b]
            worst = max(da.homogeneous_part(k).max_abs_coeff()
                        for k in range(4))
            assert worst < 1e-9


def test_dirac_chart_structure_rejects_unrecorded_reparametrization():
    cs, _ = tstar_sphere()
    fr = darboux_frame(cs, X0_SPHERE)
    flat = darboux_flatten(chart_series(cs, fr, K=5))
    # same map with the transition record stripped: the linear dual
    # inverse no longer applies and the construction must refuse
    from mdirac.birkhoff import ChartSeries
    stripped = ChartSeries(frame=flat.frame, map=flat.map, K=flat.K)
    with pytest.raises(ValueError):
        dirac_chart_structure(cs, stripped, stripped.K)


# ----------------------------------------------------------------------
# quadratic normalization
# ----------------------------------------------------------------------


def test_linear_normalize_already_normal():
    S = np.diag([1.0, 2.0, 1.0, 2.0])
    qd = linear_normalize(S)
    np.testing.assert_allclose(qd.eta, [1.0, 2.0], atol=1e-12)
    T = qd.linear_transform
    np.testing.assert_allclose(T.T @ S @ T, S, atol=1e-10)


def test_linear_normalize_one_dof():
    qd = linear_normalize(np.diag([2.0, 4.5]))
    np.testing.assert_allclose(qd.eta, [3.0], atol=1e-12)


def test_linear_normalize_recovers_conjugated_frequencies():
    rng = np.random.default_rng(5)
    D = np.diag([0.7, 1.3, 0.7, 1.3])
    J0 = canonical_J(2)
    A = rng.standard_normal((4, 4))
    T0 = expm(J0 @ (A + A.T) * 0.2)
    T0inv = np.linalg.inv(T0)
    S = T0inv.T @ D @ T0inv
    qd = linear_normalize(S)
    np.testing.assert_allclose(qd.eta, [0.7, 1.3], atol=1e-9)
    # transformed form is exactly the oscillator
    out = qd.linear_transform.T @ S @ qd.linear_transform
    np.testing.assert_allclose(out, D, atol=1e-9)


def test_linear_normalize_homogeneity():
    rng = np.random.default_rng(6)
    A = rng.standard_normal((4, 4))
    T0 = expm(canonical_J(2) @ (A + A.T) * 0.1)
    T0inv = np.linalg.inv(T0)
    S = T0inv.T @ np.diag([0.5, 2.0, 0.5, 2.0]) @ T0inv
    e1 = linear_normalize(S).eta
    e2 = linear_normalize(2.0 * S).eta
    np.testing.assert_allclose(e2, 2.0 * e1, rtol=1e-10)


def test_linear_normalize_rejects_hyperbolic():
    with pytest.raises(ValueError):
        linear_normalize(np.diag([1.0, -1.0]))


def test_linear_normalize_rejects_equal_moduli():
    with pytest.raises(ValueError):
        linear_normalize(np.eye(4))


# ----------------------------------------------------------------------
# homological operator
# ----------------------------------------------------------------------


def monomials_of_degree(n_vars, k):
    """Exponent tuples of the degree-k monomials in n_vars variables."""
    return sorted(tuple(combo.count(v) for v in range(n_vars)) for combo
                  in itertools.combinations_with_replacement(range(n_vars), k))


def homological_matrix(eta, k):
    """(L, basis, index): the reference matrix L of f -> {H2, f} on
    degree-k polynomials, built from the canonical bracket in the real
    monomial basis (column = image of a basis monomial)."""
    d = len(eta)
    basis = monomials_of_degree(2 * d, k)
    index = {e: i for i, e in enumerate(basis)}
    H2 = oscillator_poly(eta, k)
    ps = CanonicalStructure(d)
    L = np.zeros((len(basis), len(basis)))
    for col, exp in enumerate(basis):
        img = ps.bracket(H2, TruncatedPoly.monomial(exp, 1.0, k))
        for e, c in img.terms.items():
            L[index[e], col] = c
    return L, basis, index


def homological_eigenvalues(eta, k):
    """The eigenvalue split_resonant assigns to z^a zbar^b, over every
    complex monomial of degree k."""
    d = len(eta)
    return np.array([1j * float(np.dot(eta, np.asarray(e[:d])
                                       - np.asarray(e[d:])))
                     for e in monomials_of_degree(2 * d, k)])


def kernel_dim_of_matrix(L):
    s = np.linalg.svd(L, compute_uv=False)
    return int(np.sum(s < 1e-10 * max(1.0, s[0])))


def kernel_dimension(eta, k):
    """Number of eigenvalues of modulus below TAU_RES."""
    return int(np.sum(np.abs(homological_eigenvalues(eta, k)) < TAU_RES))


def test_homological_kernel_one_dof_quadratic():
    M, basis, index = homological_matrix([1.0], 2)
    assert kernel_dim_of_matrix(M) == 1 == kernel_dimension([1.0], 2)
    # kernel is spanned by Q^2 + P^2
    vec = np.zeros(len(basis))
    vec[index[(2, 0)]] = 1.0
    vec[index[(0, 2)]] = 1.0
    assert np.max(np.abs(M @ vec)) < 1e-12


def test_homological_kernel_one_dof_cubic_empty():
    assert kernel_dim_of_matrix(homological_matrix([1.0], 3)[0]) == 0
    assert kernel_dimension([1.0], 3) == 0


def test_homological_kernel_resonant_quartic():
    assert kernel_dim_of_matrix(homological_matrix([1.0, 1.0], 4)[0]) == 9
    assert kernel_dimension([1.0, 1.0], 4) == 9


def test_homological_eigenvalue_multiset():
    eta = [1.0, math.sqrt(2.0)]
    got = np.linalg.eigvals(homological_matrix(eta, 3)[0])
    want = homological_eigenvalues(eta, 3)
    # purely imaginary spectrum: compare as multisets of imaginary parts
    assert np.max(np.abs(got.real)) < 1e-10
    np.testing.assert_allclose(np.sort(got.imag), np.sort(want.imag),
                               atol=1e-10)


def test_split_resonant_against_reference_matrix():
    """On a dense homogeneous input the split is H_res + H_nr, H_res in
    the kernel of the reference matrix and Gamma its preimage of H_nr."""
    rng = np.random.default_rng(12)
    for eta, k in (([1.0, math.sqrt(2.0)], 3), ([1.0, 1.0], 4),
                   ([1.0, 2.0], 3)):
        M, basis, index = homological_matrix(eta, k)
        Hk = TruncatedPoly(2 * len(eta), k,
                           {e: rng.standard_normal() for e in basis})
        res, nr, gam = split_resonant(Hk, eta)
        vec = {}
        for name, f in (("res", res), ("nr", nr), ("gam", gam)):
            vec[name] = np.zeros(len(basis))
            for e, c in f.terms.items():
                vec[name][index[e]] = c
        assert coeff_distance(res + nr, Hk) < 1e-12
        assert np.max(np.abs(M @ vec["res"])) < 1e-10
        np.testing.assert_allclose(M @ vec["gam"], vec["nr"], atol=1e-10)
        assert kernel_dim_of_matrix(M) == kernel_dimension(eta, k)


# ----------------------------------------------------------------------
# resonant splitting
# ----------------------------------------------------------------------


def test_split_kernel_passthrough():
    K = 4
    q = TruncatedPoly.variable(0, 2, K)
    p = TruncatedPoly.variable(1, 2, K)
    act = (q * q + p * p) ** 2
    res, nr, gam = split_resonant(act, [1.0])
    assert coeff_distance(res, act) < 1e-12
    assert nr.is_zero() and gam.is_zero()


def test_split_constructed_preimage():
    K = 3
    q = TruncatedPoly.variable(0, 2, K)
    g = q * q * q
    H2 = oscillator_poly([1.0], K)
    Lg = poisson_bracket(H2, g, CanonicalStructure(1))
    res, nr, gam = split_resonant(Lg, [1.0])
    assert res.is_zero()
    assert coeff_distance(nr, Lg) < 1e-12
    assert coeff_distance(gam, g) < 1e-12


def test_split_quartic_oscillator_coefficient():
    K = 4
    q = TruncatedPoly.variable(0, 2, K)
    p = TruncatedPoly.variable(1, 2, K)
    res, nr, gam = split_resonant(q ** 4, [1.0])
    expected = 0.375 * (q * q + p * p) ** 2
    assert coeff_distance(res, expected) < 1e-12
    # the homological equation really is solved
    H2 = oscillator_poly([1.0], K)
    back = poisson_bracket(H2, gam, CanonicalStructure(1))
    assert coeff_distance(back, nr) < 1e-12


def test_split_near_resonance_warns():
    K = 2
    q1 = TruncatedPoly.variable(0, 4, K)
    q2 = TruncatedPoly.variable(1, 4, K)
    p1 = TruncatedPoly.variable(2, 4, K)
    p2 = TruncatedPoly.variable(3, 4, K)
    Hk = q1 * q2 + p1 * p2
    with pytest.warns(NearResonanceWarning):
        split_resonant(Hk, [1.0, 1.0 + 5e-9])


# ----------------------------------------------------------------------
# normal form driver
# ----------------------------------------------------------------------


def test_normal_form_pure_oscillator_untouched():
    H = oscillator_poly([1.0, math.sqrt(2.0)], 4)
    res = birkhoff_normal_form(H, CanonicalStructure(2), K=4)
    for k in (3, 4):
        assert res.generators[k].is_zero()
        assert res.resonant_terms[k].is_zero()
    assert coeff_distance(res.normal_form, H) < 1e-12


def test_normal_form_quartic_oscillator():
    K = 4
    q = TruncatedPoly.variable(0, 2, K)
    p = TruncatedPoly.variable(1, 2, K)
    H = 0.5 * (q * q + p * p) + q ** 4
    res = run_normal_form_report(H, CanonicalStructure(1), K=4)
    expected = 0.375 * (q * q + p * p) ** 2
    assert coeff_distance(res.resonant_terms[4], expected) < 1e-12
    assert res.resonant_terms[3].is_zero()
    assert max(res.residual_report["commutation"].values()) < 1e-9
    assert res.residual_report["conjugation_defect"] < 1e-8
    assert res.residual_report["symplectic_defect"] < 1e-9


def test_normal_form_cubic_two_dof():
    K = 4
    rng = np.random.default_rng(11)
    H = oscillator_poly([1.0, math.sqrt(2.0)], K)
    # random cubic perturbation
    for exp in [(3, 0, 0, 0), (1, 2, 0, 0), (0, 1, 1, 1), (0, 0, 2, 1)]:
        H = H + TruncatedPoly.monomial(exp, rng.standard_normal() * 0.1, K)
    res = run_normal_form_report(H, CanonicalStructure(2), K=4)
    # no cubic resonances for nonresonant frequencies
    assert res.resonant_terms[3].is_zero()
    assert max(res.residual_report["commutation"].values()) < 1e-9
    assert res.residual_report["conjugation_defect"] < 1e-8
    assert res.residual_report["symplectic_defect"] < 1e-9


def test_normal_form_rejects_noncritical_origin():
    K = 3
    q = TruncatedPoly.variable(0, 2, K)
    p = TruncatedPoly.variable(1, 2, K)
    H = q + 0.5 * (q * q + p * p)
    with pytest.raises(ValueError):
        birkhoff_normal_form(H, CanonicalStructure(1), K=3)


def test_normal_form_json_roundtrippable():
    K = 4
    q = TruncatedPoly.variable(0, 2, K)
    p = TruncatedPoly.variable(1, 2, K)
    H = 0.5 * (q * q + p * p) + q ** 4
    res = run_normal_form_report(H, CanonicalStructure(1), K=4)
    blob = json.dumps(res.to_json_dict(), sort_keys=True)
    data = json.loads(blob)
    assert data["frequencies"] == [1.0]
    assert "4" in data["resonant_terms"]


def test_path_consistency_on_sphere():
    """Canonical chart path and restricted Dirac path agree at deg 3-4.

    Both normalizations run in the Darboux chart of the level; they
    differ in the bracket: the chart path asserts the canonical matrix,
    the Dirac path computes the bracket from the ambient constrained
    structure and transports it into the chart.  Agreement of the
    degree-4 coefficients (against the pendulum-restriction value -1/16)
    is the series-level equivalence check.
    """
    cs, H = tstar_sphere(K=5)
    fr = darboux_frame(cs, X0_SPHERE)
    ch = chart_series(cs, fr, K=5)
    flat = darboux_flatten(ch)
    from mdirac.poly import compose_batch
    Hf = compose_batch([H], flat.ambient_polys())[0].truncated(4)

    nf_c = run_normal_form_report(Hf, CanonicalStructure(2), K=4)

    pi = dirac_chart_structure(cs, flat, 4)
    # in Darboux coordinates the transported bracket is canonical
    # through the flattening order
    J2 = np.block([[np.zeros((2, 2)), np.eye(2)],
                   [-np.eye(2), np.zeros((2, 2))]])
    low = 0.0
    for a in range(4):
        for c in range(4):
            diff = pi.pi[a, c] - float(J2[a, c])
            for deg in range(3):
                low = max(low, diff.homogeneous_part(deg).max_abs_coeff())
    assert low < 1e-9
    nf_d = run_normal_form_report(Hf, pi, K=4)

    want = np.array([1.0, math.sqrt(3.0)])
    np.testing.assert_allclose(nf_c.H2.eta, want, atol=1e-8)
    np.testing.assert_allclose(nf_d.H2.eta, want, atol=1e-8)
    assert nf_c.resonant_terms[3].max_abs_coeff() < 1e-7
    assert nf_d.resonant_terms[3].max_abs_coeff() < 1e-7
    assert coeff_distance(nf_c.resonant_terms[4],
                          nf_d.resonant_terms[4]) < 1e-7
    # independent value: restriction to either great circle is a
    # pendulum whose first Birkhoff coefficient is -1/16 on (Q^2+P^2)^2
    e4 = (0, 0, 0, 4)
    assert abs(nf_c.resonant_terms[4].coefficient(e4) + 1.0 / 16) < 1e-9
    assert max(nf_c.residual_report["commutation"].values()) < 1e-9
    assert max(nf_d.residual_report["commutation"].values()) < 1e-9
    assert nf_c.residual_report["symplectic_defect"] < 1e-9
    assert nf_c.residual_report["conjugation_defect"] < 1e-8
    assert nf_d.residual_report["conjugation_defect"] < 1e-8


def test_transport_structure_flattens_toy_bracket():
    """Transporting J0*(1+a*Q) by its exact flattening map gives J0.

    The toy has a closed-form invariant: the frequency on the orbit of
    action I is 1 - a^2 I, so the quartic normal-form coefficient is
    -a^2/8 on (Q^2+P^2)^2.  Both the canonical and the structured driver
    must land on it once the structure is transported.
    """
    K = 6
    alpha = 0.3
    Q = TruncatedPoly.variable(0, 2, K)
    P = TruncatedPoly.variable(1, 2, K)
    zero = TruncatedPoly.zero(2, K)
    pi = np.empty((2, 2), dtype=object)
    pi[0, 0] = zero
    pi[1, 1] = zero
    pi[0, 1] = 1.0 + alpha * Q
    pi[1, 0] = -(1.0 + alpha * Q)
    chi = [Q, P * (1.0 + alpha * Q)]
    ps = transport_structure(StructuredStructure(pi), chi)
    J1 = np.array([[0.0, 1.0], [-1.0, 0.0]])
    dev = max((ps.pi[a, c] - float(J1[a, c])).max_abs_coeff()
              for a in range(2) for c in range(2))
    assert dev < 1e-14

    from mdirac.poly import compose_batch
    H = 0.5 * (Q * Q + P * P)
    Hf = compose_batch([H], chi)[0]
    nf_c = run_normal_form_report(Hf, CanonicalStructure(1), K=4)
    nf_d = run_normal_form_report(Hf, ps, K=4)
    c4 = -alpha ** 2 / 8.0
    for nf in (nf_c, nf_d):
        assert abs(nf.resonant_terms[4].coefficient((4, 0)) - c4) < 1e-12
        assert abs(nf.resonant_terms[4].coefficient((2, 2)) - 2 * c4) < 1e-12
        assert abs(nf.resonant_terms[4].coefficient((0, 4)) - c4) < 1e-12


def test_transport_structure_rejects_affine_map():
    K = 4
    Q = TruncatedPoly.variable(0, 2, K)
    P = TruncatedPoly.variable(1, 2, K)
    zero = TruncatedPoly.zero(2, K)
    pi = np.empty((2, 2), dtype=object)
    pi[0, 0] = zero
    pi[1, 1] = zero
    pi[0, 1] = TruncatedPoly.constant(1.0, 2, K)
    pi[1, 0] = TruncatedPoly.constant(-1.0, 2, K)
    with pytest.raises(ValueError):
        transport_structure(StructuredStructure(pi), [Q + 0.1, P])
    with pytest.raises(ValueError):
        transport_structure(StructuredStructure(pi), [2.0 * Q, P])


# ----------------------------------------------------------------------
# intertwining
# ----------------------------------------------------------------------


def planar_slice(mu=0.7):
    act = GroupAction([ROT2])
    md = MomentumData(act, mu=[mu])
    x0 = np.array([1.0, 0.0, 0.0, mu])
    W = act.generator_field(0, x0)[None]     # the generator direction
    return build_slice(None, md, x0, W), md, x0


def test_intertwining_invariant_flat_function():
    slc, md, x0 = planar_slice()
    F = SmoothMap.from_poly(md.Phi_polys[0] * md.Phi_polys[0])
    probes = sample_probes(slc.level_constraints(), x0, 12, 0.05, seed=2)
    rep = intertwining_check(F, slc, probes)
    assert rep["passed"]
    assert rep["max_residual"] < 1e-10


def test_intertwining_negative_control():
    slc, md, x0 = planar_slice()
    K = 4
    H = TruncatedPoly.zero(4, K)
    for a in range(4):
        v = TruncatedPoly.variable(a, 4, K)
        H = H + 0.5 * v * v
    ups = slc.upsilon_cs.polys[0]
    F = SmoothMap.from_poly(H + md.Phi_polys[0] * ups)
    probes = sample_probes(slc.level_constraints(), x0, 12, 0.05, seed=3)
    rep = intertwining_check(F, slc, probes)
    assert not rep["passed"]
    assert rep["max_residual"] > 1e-3


def test_intertwining_rejects_off_level_probe():
    slc, md, x0 = planar_slice()
    F = SmoothMap.from_poly(md.Phi_polys[0])
    with pytest.raises(ValueError):
        intertwining_check(F, slc, [x0 + 0.5])


def test_intertwining_rejects_empty_probe_list():
    slc, md, _ = planar_slice()
    F = SmoothMap.from_poly(md.Phi_polys[0])
    with pytest.raises(ValueError, match="probe"):
        intertwining_check(F, slc, [])
