"""Acceptance battery: ten quantitative criteria, one line each.

Every test measures its residuals at the stated probe counts and
tolerances, prints a single pass/fail line with the numbers (visible
with pytest -s, and in the failure report otherwise), and then asserts.
Runtime budgets are asserted too; all runs are seeded and the shared
double-pendulum pipeline is computed once per session.
"""

import math
import time

import numpy as np
import pytest
import scipy.integrate

from mdirac.poly import (
    DEFAULT_MAX_DEGREE,
    CanonicalStructure,
    TruncatedPoly,
    poisson_bracket,
)
from mdirac.smooth import SmoothMap, hamiltonian_vector_field
from mdirac.dirac import (
    ConstraintSet,
    DiracContext,
    dirac_bracket,
    dirac_field_callable,
    dirac_project,
    moser_multipliers,
    sample_probes,
    singularity_diagnostics,
)
from mdirac.symmetry import (
    NotLocallyFreeError,
    check_drift_free,
    stationarity_test,
)
from mdirac.birkhoff import run_normal_form_report
from mdirac.models import (
    CallableConstraints,
    DspParams,
    dsp_action,
    dsp_case_configuration,
    dsp_equilibria,
    dsp_full_callables,
    dsp_gradient,
    dsp_hamiltonian,
    dsp_locked_inertia,
    dsp_pipeline,
    dsp_slice,
    dsp_spheres,
    dsp_sphere_callables,
    ks_model,
    moser_filter_integrals,
    neumann_model,
    separable_oscillator_model,
)
from mdirac.dynamics import (
    conserved_monitor,
    flow_compare,
    integrate,
    relatedness_check,
)

UNIT = DspParams()
CASES = {
    2: (UNIT, dict(omega=1.0)),
    3: (UNIT, dict(mu=1.0)),
    4: (DspParams(m1=1.5, l2=0.8), dict(omega=0.7)),
}


def _line(num, label, ok, detail=""):
    print("[C%02d] %-36s %s  %s"
          % (num, label, "PASS" if ok else "FAIL", detail))


def configuration_stationarity(p, x0):
    """Worst locked-inertia directional derivative along the tangent of
    the two unit spheres at the configuration part of x0."""
    Gq = np.zeros((2, 6))
    Gq[0, :3] = x0[:3]
    Gq[1, 3:] = x0[3:6]
    _, _, Vt = np.linalg.svd(Gq)
    rep = stationarity_test(dsp_locked_inertia(p), x0[:6], list(Vt[2:]))
    return rep["max_directional_derivative"]


@pytest.fixture(scope="module")
def spin_cases():
    out = {}
    for case, (p, kw) in CASES.items():
        re = dsp_equilibria(p, case, **kw)
        out[case] = (p, re, dsp_slice(p, re))
    return out


def sphere_pair(K=6):
    n = 6
    g1 = TruncatedPoly.zero(n, K)
    g2 = TruncatedPoly.zero(n, K)
    for a in range(3):
        qa = TruncatedPoly.variable(a, n, K)
        pa = TruncatedPoly.variable(3 + a, n, K)
        g1 = g1 + qa * qa
        g2 = g2 + qa * pa
    return ConstraintSet.from_polys([g1 - 1.0, g2],
                                    names=["sphere", "radial"])


def sphere_probes(rng, n):
    out = []
    for _ in range(n):
        q = rng.standard_normal(3)
        q /= np.linalg.norm(q)
        p = rng.standard_normal(3)
        out.append(np.concatenate([q, p - (p @ q) * q]))
    return out


def random_maps(rng, n_vars, n_funcs, K=6):
    maps = []
    for _ in range(n_funcs):
        terms = {}
        for _ in range(8):
            e = [0] * n_vars
            for i in rng.integers(0, n_vars,
                                  size=int(rng.integers(1, 4))):
                e[i] += 1
            terms[tuple(e)] = rng.standard_normal()
        maps.append(SmoothMap.from_poly(TruncatedPoly(n_vars, K, terms)))
    return maps


def axiom_residuals(cs, probes, fs):
    antisym = annihil = tangency = 0.0
    for x in probes:
        ctx = DiracContext(cs, x)
        G = cs.jacobian(x)
        for i, f in enumerate(fs):
            for g in fs[i:]:
                antisym = max(antisym, abs(dirac_bracket(f, g, ctx)
                                           + dirac_bracket(g, f, ctx)))
            for phi in cs.constraints:
                annihil = max(annihil, abs(dirac_bracket(phi, f, ctx)))
            tangency = max(tangency, float(np.max(np.abs(
                G @ dirac_project(f, ctx)))))
    return antisym, annihil, tangency


def test_criterion_01_dirac_axioms(spin_cases):
    t0 = time.perf_counter()
    rng = np.random.default_rng(100)
    cs = sphere_pair()
    a1, n1, t1 = axiom_residuals(cs, sphere_probes(rng, 200),
                                 random_maps(rng, 6, 5))
    p, re, slc = spin_cases[2]
    full = slc.full_constraints
    zp = sample_probes(full, re.x0, 200, 1e-2, 101)
    a2, n2, t2 = axiom_residuals(full, zp, random_maps(rng, 12, 5))
    elapsed = time.perf_counter() - t0
    antisym, annihil, tang = max(a1, a2), max(n1, n2), max(t1, t2)
    ok = antisym < 1e-10 and annihil < 1e-9 and tang < 1e-9 and elapsed < 5
    _line(1, "Dirac bracket axioms", ok,
          "antisym=%.1e annihil=%.1e tangency=%.1e (%.1fs)"
          % (antisym, annihil, tang, elapsed))
    assert antisym < 1e-10
    assert annihil < 1e-9
    assert tang < 1e-9
    assert elapsed < 5.0


def test_criterion_02_sphere_closed_forms():
    t0 = time.perf_counter()
    rng = np.random.default_rng(200)
    cs = sphere_pair()
    coord = lambda i: SmoothMap.from_poly(TruncatedPoly.variable(i, 6, 2))
    err = 0.0
    for x in sphere_probes(rng, 25):
        q, p = x[:3], x[3:]
        ctx = DiracContext(cs, x)
        for a in range(3):
            for b in range(3):
                got = dirac_bracket(coord(a), coord(3 + b), ctx)
                err = max(err, abs(got - ((a == b) - q[a] * q[b])))
                got = dirac_bracket(coord(3 + a), coord(3 + b), ctx)
                err = max(err, abs(got - (q[b] * p[a] - q[a] * p[b])))
                err = max(err, abs(dirac_bracket(coord(a), coord(b), ctx)))
    elapsed = time.perf_counter() - t0
    ok = err < 1e-12 and elapsed < 1.0
    _line(2, "sphere-pair closed-form brackets", ok,
          "max_err=%.1e (%.1fs)" % (err, elapsed))
    assert err < 1e-12
    assert elapsed < 1.0


def test_criterion_03_moser_equals_dirac():
    t0 = time.perf_counter()
    A = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, -0.2], [0.0, -0.2, 4.0]])
    model = neumann_model(A)
    cs = model.constraints
    XH = hamiltonian_vector_field(model.H)
    x_ref = np.array([1.0, 0.0, 0.0, 0.0, 0.4, -0.2])
    probes = sample_probes(cs, x_ref, 100, 0.4, 300)
    worst = 0.0
    for x in probes:
        ctx = DiracContext(cs, x)
        lam = moser_multipliers(model.H, ctx)
        fld = XH.value(x) - lam @ ctx.XG
        worst = max(worst, float(np.max(np.abs(
            fld - dirac_project(model.H, ctx)))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 2.0
    _line(3, "Moser field equals Dirac projection", ok,
          "max_err=%.1e at 100 probes (%.1fs)" % (worst, elapsed))
    assert worst < 1e-10
    assert elapsed < 2.0


def test_criterion_04_field_level_twin(spin_cases):
    t0 = time.perf_counter()
    agree_all, neg_all = 0.0, np.inf
    for case, (p, re, slc) in spin_cases.items():
        grad = dsp_gradient(p, re.Omega)
        jac6 = dsp_full_callables(slc).jacobian
        jac4 = dsp_sphere_callables().jacobian
        probes = sample_probes(slc.full_constraints, re.x0, 100, 1e-5,
                               400 + case)
        X6 = dirac_field_callable(grad, jac6)
        X4 = dirac_field_callable(grad, jac4)
        agree = max(float(np.max(np.abs(X6(z) - X4(z)))) for z in probes)
        w = np.zeros(12)
        w[1] = 0.05
        bad = lambda x: grad(x) + w
        X6b = dirac_field_callable(bad, jac6)
        X4b = dirac_field_callable(bad, jac4)
        neg = max(float(np.max(np.abs(X6b(z) - X4b(z)))) for z in probes)
        agree_all = max(agree_all, agree)
        neg_all = min(neg_all, neg)
    elapsed = time.perf_counter() - t0
    ok = agree_all < 1e-8 and neg_all > 1e-3 and elapsed < 10
    _line(4, "field-level slice/sphere agreement", ok,
          "max_gap=%.1e negative=%.1e (%.1fs)"
          % (agree_all, neg_all, elapsed))
    assert agree_all < 1e-8
    assert neg_all > 1e-3
    assert elapsed < 10.0


def test_criterion_05_drift_free_criterion(spin_cases):
    t0 = time.perf_counter()
    re1 = dsp_equilibria(UNIT, 1)
    stat = configuration_stationarity(UNIT, re1.x0)
    drift = 0.0
    for case, (p, re, slc) in spin_cases.items():
        stat = max(stat, configuration_stationarity(p, re.x0))
        _, H_poly = dsp_hamiltonian(p)
        Jp = dsp_action().momentum_polys()[0]
        S = SmoothMap.from_poly(H_poly - re.Omega * Jp).hessian(re.x0)
        H2 = TruncatedPoly.from_quadratic_form(S, 2).shifted(-re.x0)
        probes = sample_probes(slc.full_constraints, re.x0, 20, 5e-5,
                               500 + case)
        rep = check_drift_free(SmoothMap.from_poly(H2), slc, probes)
        drift = max(drift, rep["max_residual"])
        assert rep["is_drift_free"], case
    with pytest.raises(ValueError):
        dsp_case_configuration(DspParams(l1=1.3, l2=1.0), 3)
    dsp_case_configuration(DspParams(l1=1.0, l2=1.0), 3)
    with pytest.raises(ValueError):
        dsp_case_configuration(DspParams(m1=0.1, m2=5.0, l1=1.0, l2=2.0), 4)
    dsp_case_configuration(DspParams(m1=1.0, m2=1.0, l1=1.0, l2=2.0), 4)
    elapsed = time.perf_counter() - t0
    ok = stat < 1e-8 and drift < 1e-7 and elapsed < 10
    _line(5, "drift-free criterion and bounds", ok,
          "stationarity=%.1e drift=%.1e bounds exact (%.1fs)"
          % (stat, drift, elapsed))
    assert stat < 1e-8
    assert drift < 1e-7
    assert elapsed < 10.0


def test_criterion_06_birkhoff_engine(spin_cases):
    t0 = time.perf_counter()
    # (a) quartic oscillator against the circle-average oracle
    K = 4
    q = TruncatedPoly.variable(0, 2, K)
    p = TruncatedPoly.variable(1, 2, K)
    res = run_normal_form_report(0.5 * (q * q + p * p) + q ** 4,
                                 CanonicalStructure(1), K=K)
    avg, _ = scipy.integrate.quad(lambda th: math.cos(th) ** 4,
                                  0.0, 2.0 * math.pi)
    c_oracle = avg / (2.0 * math.pi)
    quartic_err = (res.resonant_terms[4]
                   - c_oracle * (q * q + p * p) ** 2).max_abs_coeff()
    assert abs(c_oracle - 0.375) < 1e-12

    # (b) commutation and composed-transform symplecticity at order 4
    pp, re, _ = spin_cases[2]
    out = dsp_pipeline(pp, re, K=4, chart_degree=5, n_probes=20)
    c = out["consistency"]
    comm = max(c["commutation_chart"], c["commutation_dirac"])
    sympl = c["symplectic_defect_chart"]
    # (c) chart path vs Dirac-structure path, degrees 3 and 4
    resonant_gap = max(c["resonant_distance"].values())
    elapsed = time.perf_counter() - t0
    ok = (quartic_err < 1e-12 and comm < 1e-9 and sympl < 1e-9
          and resonant_gap < 1e-7 and elapsed < 120)
    _line(6, "Birkhoff engine (oracle, order 4, twin)", ok,
          "quartic=%.1e comm=%.1e sympl=%.1e twin=%.1e (%.1fs)"
          % (quartic_err, comm, sympl, resonant_gap, elapsed))
    assert quartic_err < 1e-12
    assert comm < 1e-9
    assert sympl < 1e-9
    assert resonant_gap < 1e-7
    assert elapsed < 120.0


def test_criterion_07_limiting_regimes():
    t0 = time.perf_counter()
    rep = singularity_diagnostics(ks_model().constraints, np.zeros(8))
    ks_ok = ("not_regular_level" in rep["flags"]
             and rep["rank_dphi"] == 0)
    re1 = dsp_equilibria(UNIT, 1)
    try:
        dsp_slice(UNIT, re1)
        static_ok = False
    except NotLocallyFreeError:
        static_ok = True
    elapsed = time.perf_counter() - t0
    ok = ks_ok and static_ok and elapsed < 1.0
    _line(7, "limiting-regime detection", ok,
          "ks_rank=%d flags=%s static_refused=%s (%.1fs)"
          % (rep["rank_dphi"], rep["flags"], static_ok, elapsed))
    assert ks_ok
    assert static_ok
    assert elapsed < 1.0


def test_criterion_08_conservation_and_flow(spin_cases):
    t0 = time.perf_counter()
    p, re, slc = spin_cases[2]
    base = dsp_sphere_callables()
    full = dsp_full_callables(slc)
    ahat = np.kron(np.eye(2), np.array([[0.0, -1.0, 0.0],
                                        [1.0, 0.0, 0.0],
                                        [0.0, 0.0, 0.0]]))
    momentum = lambda x: float(x[6:] @ (ahat @ x[:6]))
    residual = lambda x: float(np.max(np.abs(base.values(x))))
    z0 = sample_probes(slc.full_constraints, re.x0, 1, 2e-5, 800)[0]
    X_lab = dirac_field_callable(dsp_gradient(p, 0.0), base.jacobian)
    traj = integrate(X_lab, z0, T=50.0, dt=1e-3, method="projected_rk4",
                     constraints=base, monitors={"phi": residual})
    j_drift = float(np.max(np.abs(
        np.array([momentum(x) for x in traj.states]) - re.mu)))
    res_max = float(np.max(traj.diagnostics["phi"]))

    grad = dsp_gradient(p, re.Omega)
    X6 = dirac_field_callable(grad, full.jacobian)
    X4 = dirac_field_callable(grad, base.jacobian)
    div = flow_compare(X6, X4, z0, T=10.0, dt=1e-3)
    elapsed = time.perf_counter() - t0
    ok = (j_drift < 1e-8 and res_max < 1e-10 and div < 1e-7
          and elapsed < 60)
    _line(8, "conservation and flow-level twin", ok,
          "|J-mu|=%.1e phi=%.1e divergence=%.1e (%.1fs)"
          % (j_drift, res_max, div, elapsed))
    assert j_drift < 1e-8
    assert res_max < 1e-10
    assert div < 1e-7
    assert elapsed < 60.0


def test_criterion_09_separable_moser():
    t0 = time.perf_counter()
    model = separable_oscillator_model()
    x0 = np.array([0.4, -0.2, 0.0, 0.1, 0.5, 0.0])
    probes = sample_probes(model.constraints, x0, 20, 0.3, 900)
    filt = moser_filter_integrals(model, probes)
    bracket_res = filt["max_residual"]

    w2 = np.array([1.0, 2.0, 5.0])
    grad = lambda x: np.concatenate([w2 * x[:3], x[3:]])
    jac = np.zeros((2, 6))
    jac[0, 2] = 1.0
    jac[1, 5] = 1.0
    fast = CallableConstraints(lambda x: np.array([x[2], x[5]]),
                               lambda x: jac, 2)
    XD = dirac_field_callable(grad, fast.jacobian)
    mode = lambda i: (lambda x: float(
        0.5 * (w2[i] * x[i] ** 2 + x[3 + i] ** 2)))
    traj = integrate(XD, x0, T=100.0, dt=1e-3, method="projected_rk4",
                     constraints=fast, monitors={"E1": mode(0), "E2": mode(1)})
    drift = max(conserved_monitor(traj, ("E1", "E2")).values())

    fns = {nm: SmoothMap.from_poly(pp)
           for nm, pp in zip(model.residual_names, model.residual_polys)}
    fns["F1"] = SmoothMap.from_poly(model.F_polys[0])
    xv = lambda i: TruncatedPoly.variable(i, 6, DEFAULT_MAX_DEGREE)
    coupling = xv(0) * xv(0) * xv(1) * xv(1)
    rel = relatedness_check(lambda e: model.H_poly + e * coupling,
                            model.constraints, fns, probes,
                            [0.0, 1e-3, 1e-2])
    elapsed = time.perf_counter() - t0
    ok = (filt["passed"] and bracket_res < 1e-8 and drift < 1e-8
          and rel["max_residual"] < 1e-8 and elapsed < 30)
    _line(9, "separable Moser integrability", ok,
          "integrals=%.1e drift=%.1e identity=%.1e (%.1fs)"
          % (bracket_res, drift, rel["max_residual"], elapsed))
    assert filt["passed"]
    assert bracket_res < 1e-8
    assert drift < 1e-8
    assert rel["max_residual"] < 1e-8
    assert elapsed < 30.0


def test_criterion_10_numerical_hygiene():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1000)
    p = DspParams(m1=1.3, m2=0.7, l1=1.1, l2=0.9, g=3.0)
    Hm, _ = dsp_hamiltonian(p)
    suite = {"dsp_H": Hm,
             "dsp_J": SmoothMap.from_poly(
                 dsp_action().momentum_polys()[0])}
    spheres = dsp_spheres()
    for nm, phi in zip(spheres.names, spheres.constraints):
        suite["dsp_" + nm] = phi
    suite["neumann_H"] = neumann_model(np.diag([1.0, 2.0, 4.0])).H
    suite["separable_H"] = separable_oscillator_model().H
    suite["ks_BL"] = SmoothMap.from_poly(ks_model().bl_poly)

    h = 1e-6
    worst = 0.0
    for fn in suite.values():
        for _ in range(100):
            x = 0.7 * rng.standard_normal(fn.domain_dim)
            ga = fn.gradient(x)
            gf = np.zeros(x.size)
            for i in range(x.size):
                e = np.zeros(x.size)
                e[i] = h
                gf[i] = (fn.value(x + e) - fn.value(x - e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(ga - gf))
                                     / max(1.0, np.max(np.abs(ga)))))

    ps = CanonicalStructure(2)
    jac_worst = 0.0
    for _ in range(6):
        f, g, hh = (TruncatedPoly(4, 7, {
            tuple(int(c) for c in np.bincount(
                rng.integers(0, 4, size=int(rng.integers(1, 4))),
                minlength=4)): rng.standard_normal()
            for _ in range(10)}) for _ in range(3))
        total = (poisson_bracket(f, poisson_bracket(g, hh, ps), ps)
                 + poisson_bracket(g, poisson_bracket(hh, f, ps), ps)
                 + poisson_bracket(hh, poisson_bracket(f, g, ps), ps))
        jac_worst = max(jac_worst, total.max_abs_coeff())
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and jac_worst < 1e-12 and elapsed < 10
    _line(10, "numerical hygiene", ok,
          "grad_rel=%.1e jacobi=%.1e (%.1fs)" % (worst, jac_worst, elapsed))
    assert worst < 1e-6
    assert jac_worst < 1e-12
    assert elapsed < 10.0
