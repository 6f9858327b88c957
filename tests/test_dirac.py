"""Tests for constraint classification, Dirac projection and brackets.

The sphere pair phi1 = |q|^2 - 1, phi2 = q.p on R^6 is the closed-form
workhorse: C = [[0, 2|q|^2], [-2|q|^2, 0]] and, on the constraint set,

    {q_a, p_b}_D = delta_ab - q_a q_b,
    {p_a, p_b}_D = q_b p_a - q_a p_b,

both derived by explicit substitution of C^{-1} into the bracket
definition.  These identities pin every sign in the implementation.
"""

import numpy as np
import pytest
import scipy.linalg

from mdirac.dirac import (
    ConstraintSet,
    DiracContext,
    TAU_RANK,
    TAU_SING,
    _null_space,
    _rank,
    _singular_values,
    classify,
    dirac_bracket,
    dirac_field_callable,
    dirac_project,
    moser_multipliers,
    poly_congruence,
    poly_mat_neumann_inverse,
    project_to_constraints,
    sample_probes,
    singularity_diagnostics,
)
from mdirac.dynamics import integrate
from mdirac.models import (
    AZ,
    CallableConstraints,
    DspParams,
    dsp_action,
    dsp_equilibria,
    dsp_gradient,
    dsp_hamiltonian,
    dsp_slice,
    dsp_spheres,
    neumann_model,
)
from mdirac.poly import TruncatedPoly
from mdirac.smooth import J_apply, SmoothMap


def coeff_distance(a, b):
    """Largest absolute coefficient of a - b."""
    return (a - b).max_abs_coeff()


def sphere_pair(n=6, K=6):
    """|q|^2 - 1 and q.p on R^{2m} as a polynomial constraint set."""
    m = n // 2
    g1 = TruncatedPoly.zero(n, K)
    g2 = TruncatedPoly.zero(n, K)
    for a in range(m):
        qa = TruncatedPoly.variable(a, n, K)
        pa = TruncatedPoly.variable(m + a, n, K)
        g1 = g1 + qa * qa
        g2 = g2 + qa * pa
    return ConstraintSet.from_polys([g1 - 1.0, g2], names=["sphere", "radial"])


def coord_map(i, n):
    return SmoothMap.from_poly(TruncatedPoly.variable(i, n, 2))


def sphere_probe(rng, m=3):
    q = rng.standard_normal(m)
    q /= np.linalg.norm(q)
    p = rng.standard_normal(m)
    p -= (p @ q) * q
    return np.concatenate([q, p])


# ----------------------------------------------------------------------
# constraint matrix and classification
# ----------------------------------------------------------------------


def test_sphere_pair_constraint_matrix():
    cs = sphere_pair()
    rng = np.random.default_rng(3)
    for _ in range(5):
        x = rng.standard_normal(6)
        C = DiracContext(cs, x).C
        r2 = x[:3] @ x[:3]
        np.testing.assert_allclose(C, [[0.0, 2 * r2], [-2 * r2, 0.0]],
                                   atol=1e-12)


def test_single_constraint_matrix_is_zero():
    n = 4
    phi = TruncatedPoly.variable(0, n, 3)
    cs = ConstraintSet.from_polys([phi])
    C = DiracContext(cs, np.ones(n)).C
    np.testing.assert_allclose(C, [[0.0]])


class CountingConstraints:
    """The jacobian(x) and k of a constraint set, counting Jacobian calls."""

    def __init__(self, cs):
        self.cs = cs
        self.k = cs.k
        self.jacobian_calls = 0

    def jacobian(self, x):
        self.jacobian_calls += 1
        return self.cs.jacobian(x)


def test_context_evaluates_jacobian_once():
    stub = CountingConstraints(sphere_pair())
    ctx = DiracContext(stub, np.array([0.0, 0.0, 1.0, 0.3, -0.2, 0.0]))
    assert ctx.classification == "SecondClass"
    assert stub.jacobian_calls == 1


def case2_slice_set():
    """The 6-constraint case-2 slice set and its equilibrium."""
    p = DspParams()
    re = dsp_equilibria(p, 2, omega=1.0)
    return dsp_slice(p, re).full_constraints, re.x0


def test_context_evaluates_each_gradient_once(monkeypatch):
    full, x0 = case2_slice_set()
    rng = np.random.default_rng(71)
    z = project_to_constraints(full, x0 + 1e-2 * rng.standard_normal(12))
    fs = [SmoothMap.from_poly(TruncatedPoly(12, 6, {
        tuple(int(e) for e in rng.integers(0, 2, size=12)):
        float(rng.standard_normal()) for _ in range(8)})) for _ in range(5)]
    calls = []
    jacobian = SmoothMap.jacobian
    poly_gradients = []
    poly_gradient = TruncatedPoly.gradient

    def counted(self, x):
        calls.append(self)
        return jacobian(self, x)

    def counted_poly(self, x):
        poly_gradients.append(self)
        return poly_gradient(self, x)

    monkeypatch.setattr(SmoothMap, "jacobian", counted)
    monkeypatch.setattr(TruncatedPoly, "gradient", counted_poly)
    # G is one Jacobian of the set's vector map: one jet kernel call, no
    # per-constraint map and no per-polynomial gradient
    ctx = DiracContext(full, z)
    assert len(calls) == 1 and calls[0] not in full.constraints
    assert poly_gradients == []
    calls.clear()
    for f in fs:
        for g in fs:
            dirac_bracket(f, g, ctx)
    for phi in full.constraints:
        for f in fs:
            dirac_bracket(phi, f, ctx)
    for f in fs:
        dirac_project(f, ctx)
    assert len(calls) == len(fs)
    assert poly_gradients == []
    # the cached constraint gradients are the rows of G, and each row is
    # that constraint's own gradient, bit for bit
    for i, phi in enumerate(full.constraints):
        own = jacobian(phi, z)[0]
        assert ctx.gradient(phi).tobytes() == own.tobytes()
        assert ctx.G[i].tobytes() == own.tobytes()
    assert not ctx.gradient(fs[0]).flags.writeable


def test_context_inverse_matches_lu_factor_bit_for_bit():
    # C_inv by one gesv solve against the identity is getrf + getrs, as
    # lu_factor/lu_solve, bit for bit
    rng = np.random.default_rng(73)
    for k in (2, 4, 6):
        for _ in range(100):
            G = rng.standard_normal((k, 12))
            ctx = DiracContext(CallableConstraints(None, lambda x: G, k),
                               np.zeros(12))
            assert ctx.classification == "SecondClass"
            want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(ctx.C),
                                         np.eye(k))
            assert np.array_equal(ctx.C_inv, want)


def test_moser_multipliers_match_scipy_solve_bit_for_bit():
    # the multipliers solve C^T lambda = {H, phi} by the same gesv kernel;
    # scipy.linalg.solve is getrf + getrs too, bit for bit
    rng = np.random.default_rng(79)
    x = [TruncatedPoly.variable(i, 12, 3) for i in range(12)]
    H = SmoothMap.from_poly(0.5 * (x[0] * x[0] + x[7] * x[7])
                            + x[1] * x[6] * x[11] - 2.0 * x[4] * x[9])
    for k in (2, 4, 6):
        for _ in range(100):
            G = rng.standard_normal((k, 12))
            ctx = DiracContext(CallableConstraints(None, lambda x: G, k),
                               rng.standard_normal(12))
            b = ctx.XG @ ctx.gradient(H)
            want = scipy.linalg.solve(ctx.C.T, b)
            assert np.array_equal(moser_multipliers(H, ctx), want)


def former_J(g):
    """J0 g by slicing and concatenation, the former J_apply."""
    m = g.size // 2
    return np.concatenate([g[m:], -g[:m]])


def former_bracket(f, g, ctx):
    """{f, g}_D by the formulas that preceded the bracket-vector cache."""
    gf, gg = f.gradient(ctx.x), g.gradient(ctx.x)
    plain = float(gf @ former_J(gg))
    bf = ctx.XG @ gf
    bg = -(ctx.XG @ gg)
    return plain - float(bf @ ctx.C_inv @ bg)


def former_project(f, ctx):
    """P_N(X_f) by the formulas that preceded the bracket-vector cache."""
    gf = f.gradient(ctx.x)
    coef = (ctx.XG @ gf) @ ctx.C_inv
    return former_J(gf) - coef @ ctx.XG


def random_maps(rng, n, count):
    return [SmoothMap.from_poly(TruncatedPoly(n, 6, {
        tuple(int(e) for e in rng.integers(0, 3, size=n)):
        float(rng.standard_normal()) for _ in range(8)}))
        for _ in range(count)]


def assert_readers_match_former_formulas(ctx, fs):
    for f in fs:
        for g in fs:
            assert dirac_bracket(f, g, ctx) == former_bracket(f, g, ctx)
        assert np.array_equal(dirac_project(f, ctx), former_project(f, ctx))
        # np.linalg.solve is the same gesv
        assert np.array_equal(moser_multipliers(f, ctx), np.linalg.solve(
            ctx.C.T, ctx.XG @ f.gradient(ctx.x)))


def test_bracket_vectors_match_former_formulas_bit_for_bit():
    full, x0 = case2_slice_set()
    rng = np.random.default_rng(75)
    fs = random_maps(rng, 12, 4) + full.constraints
    for _ in range(4):
        z = project_to_constraints(full, x0 + 1e-2 * rng.standard_normal(12))
        assert_readers_match_former_formulas(DiracContext(full, z), fs)
    fs = random_maps(rng, 12, 4)
    for k in (2, 4, 6):
        for _ in range(10):
            G = rng.standard_normal((k, 12))
            ctx = DiracContext(CallableConstraints(None, lambda x: G, k),
                               rng.uniform(-1.0, 1.0, size=12))
            assert_readers_match_former_formulas(ctx, fs)
    gf, Jf, bf, wf = ctx.bracket_vectors(fs[0])
    assert not any(a.flags.writeable for a in (gf, Jf, bf, wf))


def test_constraint_fields_keep_signed_zeros():
    # the constraint fields XG are J_apply of the row stack G
    G = np.array([[0.0, -0.0, 1.5, -0.0, 0.0, -2.0],
                  [-0.0, 3.0, 0.0, 0.0, -1.0, -0.0]])
    XG = J_apply(G)
    assert XG.flags.c_contiguous
    assert XG.tobytes() == np.concatenate([G[:, 3:], -G[:, :3]],
                                          axis=1).tobytes()
    # a polynomial row stack: each entry times +-1.0 has the terms of
    # d[m:] and -d[:m], in the same order
    maps = random_maps(np.random.default_rng(8), 6, 3)
    d = [[f.polys[0].derivative(v) for v in range(6)] for f in maps]
    for row, di in zip(J_apply(np.array(d, dtype=object)), d):
        assert ([list(x.terms.items()) for x in row]
                == [list(e.terms.items())
                    for e in di[3:] + [-e for e in di[:3]]])


def test_context_singular_values_match_svdvals_bit_for_bit():
    rng = np.random.default_rng(76)
    for shape in ((4, 12), (6, 12), (6, 6), (4, 4), (3, 6), (1, 2)):
        for _ in range(100):
            A = rng.standard_normal(shape)
            assert np.array_equal(_singular_values(A),
                                  scipy.linalg.svdvals(A))
        A[-1] = A[0]                       # rank-deficient
        assert np.array_equal(_singular_values(A), scipy.linalg.svdvals(A))
    for k in (2, 4, 6):
        G = rng.standard_normal((k, 12))
        ctx = DiracContext(CallableConstraints(None, lambda x: G, k),
                           np.zeros(12))
        sv = scipy.linalg.svdvals(ctx.C)
        assert ctx.sigma_min == sv[-1] and ctx.cond == sv[0] / sv[-1]


def former_rank(sv, tol):
    """The count each site made of its own singular values."""
    return int(np.sum(sv > tol * max(1.0, sv[0])))


def rank_deficient(rng, shape):
    """A seeded matrix with a repeated row and, when it has three or
    more rows, a zero row."""
    A = rng.standard_normal(shape)
    A[-1] = A[0]
    if shape[0] > 2:
        A[1] = 0.0
    return A


def test_rank_kernel_matches_former_svd_calls_bit_for_bit():
    rng = np.random.default_rng(78)
    # (former SVD, shapes at that site, threshold): rank_dphi, the
    # adapted-slice and drift-check kernels, the Darboux-frame kernel,
    # the S^2 x S^2 tangent basis of dsp_stationarity
    sites = [
        ("svdvals", ((4, 12), (6, 12), (2, 6), (3, 6), (2, 4)), TAU_RANK),
        ("scipy_svd", ((4, 12), (2, 6)), TAU_SING),
        ("scipy_svd", ((6, 12), (2, 4), (3, 6)), 1e-10),
        ("numpy_svd", ((5, 12), (6, 12), (2, 6), (1, 4)), 1e-10),
        ("scipy_svd", ((2, 6),), TAU_RANK),
    ]
    for former, shapes, tol in sites:
        for shape in shapes:
            mats = [rng.standard_normal(shape) for _ in range(50)]
            mats.append(rank_deficient(rng, shape))
            for A in mats:
                if former == "svdvals":
                    sv = scipy.linalg.svdvals(A)
                    assert _rank(_singular_values(A), tol) == \
                        former_rank(sv, tol)
                    continue
                if former == "scipy_svd":
                    _, sv, Vt = scipy.linalg.svd(A, full_matrices=True)
                else:
                    _, sv, Vt = np.linalg.svd(A)
                want = Vt[former_rank(sv, tol):].T
                got = _null_space(A, tol)
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
    # the sigma_min refusals of symmetry, on square Gram, B and Omega
    # matrices of an S^1 or T^2 action
    for shape in ((1, 1), (2, 2)):
        for _ in range(50):
            A = rng.standard_normal(shape)
            assert np.array_equal(_singular_values(A),
                                  scipy.linalg.svdvals(A))
    # dsp_stationarity at unit links: the basis is the former Vt[2:]
    q = rng.standard_normal(6)
    q[:3] /= np.linalg.norm(q[:3])
    q[3:] /= np.linalg.norm(q[3:])
    Gq = np.zeros((2, 6))
    Gq[0, :3], Gq[1, 3:] = q[:3], q[3:]
    _, _, Vt = scipy.linalg.svd(Gq)
    assert _null_space(Gq, TAU_RANK).T.tobytes() == Vt[2:].tobytes()


def test_null_space_refuses_non_finite_input():
    with pytest.raises(ValueError, match="infs or NaNs"):
        _null_space(np.array([[1.0, np.inf, 0.0]]), 1e-10)


def test_context_refuses_non_finite_constraint_matrix():
    with pytest.raises(ValueError, match="infs or NaNs"):
        _singular_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
    # finite gradients whose brackets overflow: C is not finite
    G = 1e200 * np.random.default_rng(77).standard_normal((2, 12))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="infs or NaNs"):
            DiracContext(CallableConstraints(None, lambda x: G, 2),
                         np.zeros(12))


def test_classify_sphere_pair_second_class():
    cs = sphere_pair()
    rng = np.random.default_rng(11)
    probes = [sphere_probe(rng) for _ in range(20)]
    assert classify(cs, probes) == "SecondClass"


def test_classify_commuting_momenta_first_class():
    # two commuting linear momenta p1, p2 in R^6
    n = 6
    cs = ConstraintSet.from_polys([TruncatedPoly.variable(3, n, 2),
                                   TruncatedPoly.variable(4, n, 2)])
    rng = np.random.default_rng(2)
    probes = []
    for _ in range(10):
        x = rng.standard_normal(n)
        x[3] = x[4] = 0.0
        probes.append(x)
    assert classify(cs, probes) == "FirstClass"


def test_classify_empty_probes_raises():
    cs = sphere_pair()
    with pytest.raises(ValueError):
        classify(cs, [])


def test_classify_rejects_off_N_probe():
    cs = sphere_pair()
    x = np.zeros(6)
    x[0] = 2.0  # |q|^2 - 1 = 3
    with pytest.raises(ValueError):
        classify(cs, [x])


def test_quadratic_momentum_degenerate_at_origin():
    # single quadratic constraint q1 p2 - q2 p1: gradient vanishes at 0
    n = 4
    q1, q2 = (TruncatedPoly.variable(i, n, 3) for i in (0, 1))
    p1, p2 = (TruncatedPoly.variable(i, n, 3) for i in (2, 3))
    cs = ConstraintSet.from_polys([q1 * p2 - q2 * p1])
    rep = singularity_diagnostics(cs, np.zeros(n))
    assert rep["rank_dphi"] == 0
    assert "not_regular_level" in rep["flags"]
    assert "not_second_class" in rep["flags"]


def test_diagnostics_sphere_pair_clean():
    cs = sphere_pair()
    x = np.array([0.0, 0.0, 1.0, 0.3, -0.2, 0.0])
    rep = singularity_diagnostics(cs, x)
    assert rep["rank_dphi"] == 2
    assert rep["sigma_min_C"] == pytest.approx(2.0, rel=1e-10)
    assert rep["flags"] == []


# ----------------------------------------------------------------------
# Dirac projection and bracket: closed-form sphere oracle
# ----------------------------------------------------------------------


def test_dirac_bracket_sphere_closed_forms():
    cs = sphere_pair()
    rng = np.random.default_rng(20)
    for _ in range(10):
        x = sphere_probe(rng)
        q, p = x[:3], x[3:]
        ctx = DiracContext(cs, x)
        assert ctx.classification == "SecondClass"
        for a in range(3):
            for b in range(3):
                got_qp = dirac_bracket(coord_map(a, 6), coord_map(3 + b, 6), ctx)
                want_qp = (1.0 if a == b else 0.0) - q[a] * q[b]
                assert got_qp == pytest.approx(want_qp, abs=1e-12)
                got_pp = dirac_bracket(coord_map(3 + a, 6), coord_map(3 + b, 6), ctx)
                want_pp = q[b] * p[a] - q[a] * p[b]
                assert got_pp == pytest.approx(want_pp, abs=1e-12)
                got_qq = dirac_bracket(coord_map(a, 6), coord_map(b, 6), ctx)
                assert got_qq == pytest.approx(0.0, abs=1e-12)


def test_dirac_bracket_antisymmetry_and_annihilation():
    cs = sphere_pair()
    rng = np.random.default_rng(21)
    x = sphere_probe(rng)
    ctx = DiracContext(cs, x)
    fs = [SmoothMap.from_poly(TruncatedPoly(6, 3, {
        tuple(e): rng.standard_normal()
        for e in rng.integers(0, 2, size=(6, 6))})) for _ in range(6)]
    for f in fs:
        for g in fs:
            assert abs(dirac_bracket(f, g, ctx)
                       + dirac_bracket(g, f, ctx)) < 1e-10
        for i, phi in enumerate(cs.constraints):
            assert abs(dirac_bracket(phi, f, ctx)) < 1e-9


def test_dirac_project_tangency():
    cs = sphere_pair()
    rng = np.random.default_rng(22)
    for _ in range(5):
        x = sphere_probe(rng)
        ctx = DiracContext(cs, x)
        f = SmoothMap.from_poly(TruncatedPoly(6, 3, {
            tuple(e): rng.standard_normal()
            for e in rng.integers(0, 2, size=(8, 6))}))
        v = dirac_project(f, ctx)
        G = cs.jacobian(x)
        np.testing.assert_allclose(G @ v, 0.0, atol=1e-9)


def test_dirac_project_annihilates_constraint_fields():
    cs = sphere_pair()
    rng = np.random.default_rng(23)
    x = sphere_probe(rng)
    ctx = DiracContext(cs, x)
    for phi in cs.constraints:
        np.testing.assert_allclose(dirac_project(phi, ctx), 0.0, atol=1e-12)


def test_dirac_project_free_particle_on_sphere():
    # H = |p|^2/2: projected field (p, -|p|^2 q) at |q|=1, q.p=0
    cs = sphere_pair()
    n = 6
    H = TruncatedPoly.zero(n, 4)
    for a in range(3):
        pa = TruncatedPoly.variable(3 + a, n, 4)
        H = H + 0.5 * pa * pa
    Hm = SmoothMap.from_poly(H)
    rng = np.random.default_rng(24)
    for _ in range(5):
        x = sphere_probe(rng)
        q, p = x[:3], x[3:]
        v = dirac_project(Hm, DiracContext(cs, x))
        np.testing.assert_allclose(v[:3], p, atol=1e-12)
        np.testing.assert_allclose(v[3:], -(p @ p) * q, atol=1e-12)


def test_dirac_project_identity_on_tangent_fields():
    # angular momentum generator commutes with both sphere constraints
    n = 6
    q1, q2 = (TruncatedPoly.variable(i, n, 3) for i in (0, 1))
    p1, p2 = (TruncatedPoly.variable(i, n, 3) for i in (3, 4))
    Lz = SmoothMap.from_poly(q1 * p2 - q2 * p1)
    cs = sphere_pair()
    rng = np.random.default_rng(25)
    x = sphere_probe(rng)
    ctx = DiracContext(cs, x)
    from mdirac.smooth import hamiltonian_vector_field
    X = hamiltonian_vector_field(Lz)
    np.testing.assert_allclose(dirac_project(Lz, ctx), X.value(x), atol=1e-12)


def test_project_requires_second_class():
    n = 4
    cs = ConstraintSet.from_polys([TruncatedPoly.variable(2, n, 2)])
    ctx = DiracContext(cs, np.zeros(n))
    assert ctx.classification == "FirstClass"
    f = coord_map(0, n)
    with pytest.raises(ValueError):
        dirac_project(f, ctx)


# ----------------------------------------------------------------------
# Moser multipliers
# ----------------------------------------------------------------------


def neumann_hamiltonian(A, K=4):
    n = 6
    H = TruncatedPoly.zero(n, K)
    for a in range(3):
        pa = TruncatedPoly.variable(3 + a, n, K)
        H = H + 0.5 * pa * pa
        for b in range(3):
            qa = TruncatedPoly.variable(a, n, K)
            qb = TruncatedPoly.variable(b, n, K)
            H = H + 0.5 * A[a, b] * qa * qb
    return SmoothMap.from_poly(H)


def test_moser_field_neumann_oracle():
    # constrained field (p, -Aq + (q.Aq - |p|^2) q) on N
    A = np.diag([1.0, 2.0, 3.0])
    H = neumann_hamiltonian(A)
    cs = sphere_pair()
    rng = np.random.default_rng(30)
    for _ in range(8):
        x = sphere_probe(rng)
        q, p = x[:3], x[3:]
        ctx = DiracContext(cs, x)
        lam = moser_multipliers(H, ctx)
        from mdirac.smooth import hamiltonian_vector_field
        XH = hamiltonian_vector_field(H).value(x)
        XG = ctx.XG
        field = XH - lam @ XG
        want = np.concatenate([p, -A @ q + (q @ A @ q - p @ p) * q])
        np.testing.assert_allclose(field, want, atol=1e-11)
        # tangency of the multiplier field
        np.testing.assert_allclose(cs.jacobian(x) @ field, 0.0, atol=1e-11)


def test_moser_equals_dirac_projection():
    A = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 4.0]])
    H = neumann_hamiltonian(A)
    cs = sphere_pair()
    rng = np.random.default_rng(31)
    for _ in range(10):
        x = sphere_probe(rng)
        ctx = DiracContext(cs, x)
        lam = moser_multipliers(H, ctx)
        from mdirac.smooth import hamiltonian_vector_field
        field = hamiltonian_vector_field(H).value(x) - lam @ ctx.XG
        np.testing.assert_allclose(field, dirac_project(H, ctx), atol=1e-12)


def test_moser_commuting_hamiltonian_zero_multipliers():
    # Lz commutes with both constraints -> lambda = 0
    n = 6
    q1, q2 = (TruncatedPoly.variable(i, n, 3) for i in (0, 1))
    p1, p2 = (TruncatedPoly.variable(i, n, 3) for i in (3, 4))
    Lz = SmoothMap.from_poly(q1 * p2 - q2 * p1)
    cs = sphere_pair()
    x = sphere_probe(np.random.default_rng(32))
    lam = moser_multipliers(Lz, DiracContext(cs, x))
    np.testing.assert_allclose(lam, 0.0, atol=1e-12)


# ----------------------------------------------------------------------
# series Dirac structure
# ----------------------------------------------------------------------


def test_neumann_inverse_of_constant_matrix():
    C = np.array([[0.0, 2.0], [-2.0, 0.0]])
    Cp = np.array([[TruncatedPoly.constant(v, 4, 4) for v in row]
                   for row in C], dtype=object)
    Cinv = poly_mat_neumann_inverse(Cp, 4)
    for i in range(2):
        for j in range(2):
            # constant matrix: series terminates at m=0
            assert Cinv[i, j].degree() <= 0
    got = np.array([[Cinv[i, j].coefficient((0,) * 4) for j in range(2)]
                    for i in range(2)])
    np.testing.assert_allclose(got, np.linalg.inv(C), atol=1e-14)


@pytest.mark.parametrize("C0", [
    np.zeros((2, 2)),
    np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]]),
    np.array([[0.0, 1.0, 0.0, 0.0], [-1.0, 0.0, 0.0, 0.0],
              [0.0, 0.0, 0.0, 1e-13], [0.0, 0.0, -1e-13, 0.0]]),
], ids=["zero", "rank_deficient", "cond_1e13"])
def test_neumann_inverse_refuses_singular_constant_part(C0):
    u = TruncatedPoly.variable(0, 4, 4)
    Cp = np.array([[u * float(i - j) + float(C0[i, j])
                    for j in range(len(C0))] for i in range(len(C0))],
                  dtype=object)
    with pytest.raises(ValueError, match="constant part"):
        poly_mat_neumann_inverse(Cp, 4)


def test_neumann_inverse_polynomial_identity():
    # C(u) Cinv(u) = I through the truncation degree
    cs = sphere_pair(K=6)
    x0 = np.array([0.0, 0.0, 1.0, 0.2, -0.1, 0.0])
    x0 = project_to_constraints(cs, x0)
    cen = cs.centered_polys(x0, max_degree=4)
    from mdirac.dirac import poly_gradient_fields, poly_mat_mul
    X = poly_gradient_fields(cen)
    grads = [[p.derivative(v) for v in range(6)] for p in cen]
    Cpoly = np.empty((2, 2), dtype=object)
    for i in range(2):
        for j in range(2):
            acc = None
            for v in range(6):
                t = grads[i][v] * X[j, v]
                acc = t if acc is None else acc + t
            Cpoly[i, j] = acc
    Cinv = poly_mat_neumann_inverse(Cpoly, 4)
    prod = poly_mat_mul(Cpoly, Cinv, TruncatedPoly.zero(6, 4))
    for i in range(2):
        for j in range(2):
            want = 1.0 if i == j else 0.0
            diff = prod[i, j] - want
            assert diff.max_abs_coeff() < 1e-10


def test_poly_congruence_matches_explicit_sum():
    rng = np.random.default_rng(42)

    def rand(degree):
        terms = {e: rng.standard_normal()
                 for e in np.ndindex(3, 3, 3)
                 if sum(e) <= degree and rng.random() < 0.5}
        return TruncatedPoly(3, 6, terms)

    A = np.array([[rand(2) for _ in range(4)] for _ in range(3)],
                 dtype=object)
    Pi = np.empty((4, 4), dtype=object)
    for i in range(4):
        Pi[i, i] = TruncatedPoly.zero(3, 6)
        for j in range(i + 1, 4):
            Pi[i, j] = rand(2)
            Pi[j, i] = -Pi[i, j]
    zero = TruncatedPoly.zero(3, 6)
    out = poly_congruence(A, Pi, zero)
    assert out.shape == (3, 3)
    for a in range(3):
        for c in range(3):
            want = TruncatedPoly.zero(3, 6)
            for i in range(4):
                for j in range(4):
                    want = want + A[a, i] * Pi[i, j] * A[c, j]
            assert coeff_distance(out[a, c], want) < 1e-12
            assert out[a, c].terms == {e: -v for e, v
                                       in out[c, a].terms.items()}
    # a real matrix acts as the matrix of its constant polynomials
    T = rng.standard_normal((2, 4))
    const = np.array([[TruncatedPoly.constant(v, 3, 6) for v in row]
                      for row in T], dtype=object)
    got, want = poly_congruence(T, Pi, zero), poly_congruence(const, Pi, zero)
    for a in range(2):
        for c in range(2):
            assert coeff_distance(got[a, c], want[a, c]) < 1e-12


# ----------------------------------------------------------------------
# probe utilities
# ----------------------------------------------------------------------


def test_project_to_constraints():
    cs = sphere_pair()
    rng = np.random.default_rng(50)
    y = rng.standard_normal(6)
    x = project_to_constraints(cs, y)
    assert np.max(np.abs(cs.values(x))) < 1e-12


def test_project_to_constraints_singular_gram_raises():
    # both Neumann constraint gradients vanish at the origin
    cs = neumann_model(np.eye(3)).constraints
    with pytest.raises(RuntimeError, match="singular"):
        project_to_constraints(cs, np.zeros(6))


def test_project_to_constraints_refuses_nan_start():
    with pytest.raises(ValueError, match="non-finite"):
        project_to_constraints(sphere_pair(), np.full(6, np.nan))


def test_project_to_constraints_warns_on_ill_conditioned_gram():
    # gradients e_1 and 1e-9 e_2: Gram diag(1, 1e-18), rcond 1e-18 < eps
    n = 4
    cs = ConstraintSet.from_polys([TruncatedPoly.variable(0, n, 2),
                                   1e-9 * TruncatedPoly.variable(1, n, 2)])
    with pytest.warns(scipy.linalg.LinAlgWarning):
        x = project_to_constraints(cs, np.array([0.5, 0.25, 1.0, 2.0]))
    assert np.max(np.abs(cs.values(x))) < 1e-12


def reference_projection(cs, x):
    """Newton projection with the Gram system solved by
    scipy.linalg.solve(assume_a="pos")."""
    x = np.array(x, dtype=float)
    for _ in range(50):
        r = cs.values(x)
        if np.max(np.abs(r)) < 1e-12:
            break
        G = cs.jacobian(x)
        x = x + G.T @ scipy.linalg.solve(G @ G.T, -r, assume_a="pos")
    return x


def test_project_to_constraints_matches_scipy_solve_bit_for_bit():
    full, x0 = case2_slice_set()
    rng = np.random.default_rng(72)
    for _ in range(8):
        y = x0 + 1e-2 * rng.standard_normal(12)
        assert np.array_equal(project_to_constraints(full, y),
                              reference_projection(full, y))


def test_sample_probes_deterministic():
    cs = sphere_pair()
    x0 = np.array([0.0, 0.0, 1.0, 0.3, 0.0, 0.0])
    x0 = project_to_constraints(cs, x0)
    a = sample_probes(cs, x0, 5, 0.1, seed=7)
    b = sample_probes(cs, x0, 5, 0.1, seed=7)
    for u, v in zip(a, b):
        np.testing.assert_array_equal(u, v)
    for u in a:
        assert np.max(np.abs(cs.values(u))) < 1e-12


def test_dirac_field_smoothmap():
    A = np.diag([1.0, 2.0, 3.0])
    H = neumann_hamiltonian(A)
    cs = sphere_pair()
    x = sphere_probe(np.random.default_rng(51))
    q, p = x[:3], x[3:]
    want = np.concatenate([p, -A @ q + (q @ A @ q - p @ p) * q])
    np.testing.assert_allclose(dirac_project(H, DiracContext(cs, x)), want,
                               atol=1e-11)


def test_field_callable_matches_dirac_project_on_slice_set():
    # the closed-form field on the 6-constraint case-2 slice set is the
    # pointwise Dirac projection of H_Omega
    p = DspParams()
    re = dsp_equilibria(p, 2, omega=1.0)
    slc = dsp_slice(p, re)
    _, H_poly = dsp_hamiltonian(p)
    J_poly = dsp_action().momentum_polys()[0]
    H_om = SmoothMap.from_poly(H_poly - re.Omega * J_poly)
    X = dirac_field_callable(dsp_gradient(p, re.Omega),
                             slc.full_constraints.jacobian)
    for z in sample_probes(slc.full_constraints, re.x0, 8, 1e-2, 61):
        want = dirac_project(H_om, DiracContext(slc.full_constraints, z))
        np.testing.assert_allclose(X(z), want, rtol=0, atol=1e-12)


def reference_dsp_gradient(p, Omega):
    """dsp_gradient in numpy array arithmetic."""
    al = p.alpha
    ahat = np.kron(np.eye(2), AZ)
    gv = np.zeros(6)
    gv[2] = (p.m1 + p.m2) * p.g * p.l1
    gv[5] = p.m2 * p.g * p.l2

    def grad(x):
        q, pp = x[:6], x[6:]
        v = np.concatenate([al[0, 0] * pp[:3] + al[0, 1] * pp[3:],
                            al[0, 1] * pp[:3] + al[1, 1] * pp[3:]])
        return np.concatenate([gv + Omega * (ahat @ pp),
                               v - Omega * (ahat @ q)])

    return grad


def reference_sphere_jacobian(x):
    q1, q2, p1, p2 = x[:3], x[3:6], x[6:9], x[9:12]
    G = np.zeros((4, 12))
    G[0, :3] = 2.0 * q1
    G[1, 3:6] = 2.0 * q2
    G[2, :3] = p1
    G[2, 6:9] = q1
    G[3, 3:6] = p2
    G[3, 9:12] = q2
    return G


def reference_full_jacobian(slc):
    ahat = np.kron(np.eye(2), AZ)

    def jacobian(x):
        G = np.zeros((6, 12))
        G[:4] = reference_sphere_jacobian(x)
        G[4, :6] = -ahat @ x[6:]
        G[4, 6:] = ahat @ x[:6]
        G[5] = slc.W[0]
        return G

    return jacobian


def reference_field(gradient, constraint_jacobian):
    """The closed-form Dirac field with C y = G X_H solved by
    np.linalg.solve."""
    def field(x):
        Xf = J_apply(gradient(x))
        G = constraint_jacobian(x)
        XG = np.concatenate([G[:, 6:], -G[:, :6]], axis=1)
        y = np.linalg.solve(G @ XG.T, G @ Xf)
        return Xf - y @ XG

    return field


def test_field_callable_matches_numpy_reference_bit_for_bit():
    # the polynomial jets of H - Omega J and of the constraint sets and
    # the gesv solve give the numpy array formulas bit for bit, on the
    # 4- and 6-constraint sets
    p = DspParams()
    re = dsp_equilibria(p, 2, omega=1.0)
    slc = dsp_slice(p, re)
    sets = [(dsp_spheres().jacobian, reference_sphere_jacobian),
            (slc.full_constraints.jacobian, reference_full_jacobian(slc))]
    rng = np.random.default_rng(74)
    points = re.x0 + 1e-2 * rng.standard_normal((200, 12))
    for Omega in (0.0, re.Omega):
        for jac, ref_jac in sets:
            X = dirac_field_callable(dsp_gradient(p, Omega), jac)
            X_ref = reference_field(reference_dsp_gradient(p, Omega),
                                    ref_jac)
            for z in points:
                assert np.array_equal(X(z), X_ref(z))


def test_projected_flow_matches_numpy_reference_bit_for_bit():
    # 400 projected RK4 steps from the benchmark's projected_flow start:
    # the field through the polynomial jets and through the numpy
    # reference formulas give the same states, bit for bit
    p = DspParams()
    re = dsp_equilibria(p, 2, omega=1.0)
    slc = dsp_slice(p, re)
    spheres = dsp_spheres()
    offset = np.random.default_rng(1).standard_normal(12)
    z0 = project_to_constraints(slc.full_constraints, re.x0 + 2e-5 * offset)
    fields = [dirac_field_callable(dsp_gradient(p, 0.0), spheres.jacobian),
              reference_field(reference_dsp_gradient(p, 0.0),
                              reference_sphere_jacobian)]
    runs = [integrate(X, z0, T=0.4, dt=1e-3, method="projected_rk4",
                      constraints=spheres) for X in fields]
    assert runs[0].states.shape == (401, 12)
    assert np.array_equal(runs[0].states, runs[1].states)


def test_field_callable_refuses_vanishing_constraint_matrix():
    # two constraints in q only commute: C = 0, no second-class set
    cs = CallableConstraints(lambda x: x[:2],
                             lambda x: np.eye(2, 4), 2)
    X = dirac_field_callable(lambda x: x, cs.jacobian)
    with pytest.raises(RuntimeError, match="second-class"):
        X(np.array([0.1, 0.2, 0.3, 0.4]))
