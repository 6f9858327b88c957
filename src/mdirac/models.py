"""Concrete systems wired into the constraint framework.

The double spherical pendulum lives on T*(S^2 x S^2), realized in the
ambient space R^12 with the two sphere pairings handled as second-class
constraints; everything downstream (momentum level, slice, chart, normal
form) is then a genuine multi-constraint Dirac computation.  The Neumann
system and a separable constrained oscillator exercise the commuting
first-integral mechanism, and the Kustaanheimo-Stiefel model provides a
degenerate momentum level for the singularity diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .birkhoff import (
    chart_series,
    darboux_flatten,
    darboux_frame,
    dirac_chart_structure,
    intertwining_check,
    run_normal_form_report,
)
from .dirac import (TAU_RANK, ConstraintSet, DiracContext, _null_space,
                    dirac_bracket, probe_list, sample_probes)
from .poly import (
    CanonicalStructure,
    DEFAULT_MAX_DEGREE,
    TruncatedPoly,
    compose_batch,
    poly_dot,
)
from .smooth import SmoothMap, canonical_bracket_value
from .symmetry import (
    GroupAction,
    LockedInertia,
    MomentumData,
    adapted_slice_directions,
    build_slice,
    check_drift_free,
    stationarity_test,
)

TAU_RE = 1e-10

E3 = np.array([0.0, 0.0, 1.0])

# generator of rotations about e3 acting on R^3
AZ = np.array([[0.0, -1.0, 0.0],
               [1.0, 0.0, 0.0],
               [0.0, 0.0, 0.0]])

DSP_CASE_NAMES = {
    1: "static",
    2: "horizontal_aligned",
    3: "link1_horizontal",
    4: "link2_horizontal",
}


# ----------------------------------------------------------------------
# double spherical pendulum
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class DspParams:
    """Masses, link lengths and gravity of the double spherical pendulum.

    The kinetic form of the Hamiltonian uses the inverse mass matrix

        alpha = [[a11, a12], [a12, a22]],
        a11 = m2 l2^2 / Delta,   a22 = (m1 + m2) l1^2 / Delta,
        a12 = -m2 l1 l2 / Delta, Delta = m1 m2 l1^2 l2^2,

    and the locked inertia is built from A = (m1+m2) l1^2, B = m2 l2^2,
    C = 2 m2 l1 l2.  Gravity g = 0 is allowed: the spinning equilibrium
    families below are exact precisely in that regime.
    """

    m1: float = 1.0
    m2: float = 1.0
    l1: float = 1.0
    l2: float = 1.0
    g: float = 0.0

    def __post_init__(self):
        if min(self.m1, self.m2, self.l1, self.l2) <= 0.0:
            raise ValueError("masses and lengths must be positive")
        if self.g < 0.0:
            raise ValueError("gravity must be non-negative")

    @property
    def Delta(self) -> float:
        return self.m1 * self.m2 * self.l1 ** 2 * self.l2 ** 2

    @property
    def alpha(self) -> np.ndarray:
        """Inverse mass matrix of the kinetic form (2x2 block scalars)."""
        d = self.Delta
        a11 = self.m2 * self.l2 ** 2 / d
        a22 = (self.m1 + self.m2) * self.l1 ** 2 / d
        a12 = -self.m2 * self.l1 * self.l2 / d
        return np.array([[a11, a12], [a12, a22]])

    @property
    def A(self) -> float:
        return (self.m1 + self.m2) * self.l1 ** 2

    @property
    def B(self) -> float:
        return self.m2 * self.l2 ** 2

    @property
    def C(self) -> float:
        return 2.0 * self.m2 * self.l1 * self.l2

    @property
    def mass_matrix(self) -> np.ndarray:
        """Kinetic metric on the configuration space R^6."""
        M2 = np.array([[self.A, 0.5 * self.C], [0.5 * self.C, self.B]])
        return np.kron(M2, np.eye(3))


def dsp_action() -> GroupAction:
    """Diagonal rotation about the vertical axis on both link directions."""
    return GroupAction([np.kron(np.eye(2), AZ)])


def sphere_pairs(links: int) -> ConstraintSet:
    """Sphere pairing constraints on R^(6 links) = (q_1..q_links,
    p_1..p_links), each q_i and p_i three coordinates: |q_i|^2 - 1 for
    each link, then q_i . p_i for each link, named sphere<i> and
    tangent<i> from 1, truncated at poly.DEFAULT_MAX_DEGREE."""
    n = 6 * links
    x = [TruncatedPoly.variable(i, n, DEFAULT_MAX_DEGREE) for i in range(n)]
    zero = TruncatedPoly.zero(n, DEFAULT_MAX_DEGREE)
    q = [x[3 * i:3 * i + 3] for i in range(links)]
    p = [x[3 * i:3 * i + 3] for i in range(links, 2 * links)]
    ids = range(1, links + 1)
    return ConstraintSet.from_polys(
        [poly_dot(qi, qi, zero) - 1.0 for qi in q]
        + [poly_dot(qi, pi, zero) for qi, pi in zip(q, p)],
        names=["sphere%d" % i for i in ids] + ["tangent%d" % i for i in ids])


def dsp_spheres() -> ConstraintSet:
    """Sphere pairing constraints |q_i|^2 - 1 and q_i . p_i in R^12."""
    return sphere_pairs(2)


def dsp_hamiltonian(p: DspParams):
    """Hamiltonian on R^12: kinetic form in (p1, p2) plus gravity.

    Returns the SmoothMap together with its ambient polynomial form,
    truncated at poly.DEFAULT_MAX_DEGREE.
    Coordinates are x = (q1, q2, p1, p2) with canonical pairing
    (x_i, x_{6+i}).
    """
    al = p.alpha
    S = np.zeros((12, 12))
    S[6:9, 6:9] = al[0, 0] * np.eye(3)
    S[9:12, 9:12] = al[1, 1] * np.eye(3)
    S[6:9, 9:12] = al[0, 1] * np.eye(3)
    S[9:12, 6:9] = al[0, 1] * np.eye(3)
    v = np.zeros(12)
    v[2] = (p.m1 + p.m2) * p.g * p.l1
    v[5] = p.m2 * p.g * p.l2
    poly = TruncatedPoly.from_quadratic_form(S, DEFAULT_MAX_DEGREE)
    poly = poly + TruncatedPoly.from_linear(v, DEFAULT_MAX_DEGREE)
    return SmoothMap.from_poly(poly), poly


def dsp_locked_inertia(p: DspParams) -> LockedInertia:
    return LockedInertia(lambda q: p.mass_matrix, dsp_action())


def dsp_stationarity(p: DspParams, x0) -> dict:
    """Locked-inertia stationarity at the configuration of x0, along the
    tangent space of S^2 x S^2 there."""
    Gq = np.zeros((2, 6))
    Gq[0, :3] = x0[:3]
    Gq[1, 3:] = x0[3:6]
    tangent = _null_space(Gq, TAU_RANK)
    return stationarity_test(dsp_locked_inertia(p), x0[:6], list(tangent.T))


def dsp_case_configuration(p: DspParams, case_id: int):
    """Link directions (q1, q2) of the stationary configuration family.

    Case 1 hangs both links vertically; case 2 puts both on the same
    horizontal ray; cases 3 and 4 put one link horizontal and solve for
    the other, which constrains the parameters (see the raised bounds).
    """
    e1 = np.array([1.0, 0.0, 0.0])
    if case_id == 1:
        return -E3.copy(), -E3.copy()
    if case_id == 2:
        return e1.copy(), e1.copy()
    if case_id == 3:
        ratio = p.C / (2.0 * p.B)   # = l1 / l2
        if ratio > 1.0 + 1e-14:
            raise ValueError(
                "case 3 requires l1/l2 <= 1 (got %.6g)" % ratio)
        z2 = -np.sqrt(max(0.0, 1.0 - ratio ** 2))
        return e1.copy(), -ratio * e1 + z2 * E3
    if case_id == 4:
        ratio = p.C / (2.0 * p.A)   # = (m2/(m1+m2)) (l2/l1)
        if ratio > 1.0 + 1e-14:
            raise ValueError(
                "case 4 requires (m2/(m1+m2))(l2/l1) <= 1 (got %.6g)"
                % ratio)
        z1 = -np.sqrt(max(0.0, 1.0 - ratio ** 2))
        return ratio * e1 + z1 * E3, -e1.copy()
    raise ValueError("case_id must be 1, 2, 3 or 4")


def dsp_locked_momenta(p: DspParams, q1, q2, Omega: float):
    """Momenta of the locked motion xi_Q = Omega (e3 x q1, e3 x q2)."""
    w1 = np.cross(E3, q1)
    w2 = np.cross(E3, q2)
    p1 = Omega * (p.A * w1 + 0.5 * p.C * w2)
    p2 = Omega * (p.B * w2 + 0.5 * p.C * w1)
    return p1, p2


@dataclass
class RelativeEquilibrium:
    """A spinning (or static) equilibrium of the augmented Hamiltonian.

    ``residual`` is the max norm of the constrained critical-point
    system dH - Omega dJ - sum(lambda_i dphi_i), the constraint values
    and J - mu at x0.
    """

    x0: np.ndarray
    Omega: float
    mu: float
    case_id: int
    case_name: str
    residual: float
    multipliers: np.ndarray
    singular: bool
    newton_iterations: int = 0


def _kkt_residual(Hm, Jm, cs, x, Omega, lam, mu):
    grad = Hm.gradient(x) - Omega * Jm.gradient(x)
    grad = grad - cs.jacobian(x).T @ lam
    return np.concatenate([grad, cs.values(x), [Jm.value(x) - mu]])


def _newton_refine(Hm, Jm, cs, x, Omega, mu):
    """Damped Newton on the constrained critical-point system.

    Unknowns are (x, Omega, lambda); equations are the 12 stationarity
    components, the 4 sphere-pair constraints and the momentum value.
    The case formulas already solve the g = 0 system exactly, so this
    typically returns in zero iterations; it earns its keep for
    perturbed seeds and nonzero gravity (RuntimeError after 50 steps).
    """
    max_iter = 50
    k = cs.k
    G = cs.jacobian(x)
    lam = np.linalg.lstsq(
        G.T, Hm.gradient(x) - Omega * Jm.gradient(x), rcond=None)[0]
    F = _kkt_residual(Hm, Jm, cs, x, Omega, lam, mu)
    n_iter = 0
    for n_iter in range(max_iter + 1):
        norm = np.max(np.abs(F))
        if norm < 0.5 * TAU_RE:
            break
        if n_iter == max_iter:
            raise RuntimeError(
                "equilibrium refinement did not converge "
                "(final residual %.3e)" % norm)
        G = cs.jacobian(x)
        Hxx = Hm.hessian(x) - Omega * Jm.hessian(x)
        for i in range(k):
            Hxx = Hxx - lam[i] * cs.constraints[i].hessian(x)
        gJ = Jm.gradient(x)
        n = x.size
        jac = np.zeros((n + k + 1, n + k + 1))
        jac[:n, :n] = Hxx
        jac[:n, n] = -gJ
        jac[:n, n + 1:] = -G.T
        jac[n:n + k, :n] = G
        jac[n + k, :n] = gJ
        try:
            step = scipy.linalg.solve(jac, -F)
        except scipy.linalg.LinAlgError:
            step = np.linalg.lstsq(jac, -F, rcond=None)[0]
        t = 1.0
        while t > 1e-8:
            xn = x + t * step[:n]
            On = Omega + t * step[n]
            ln = lam + t * step[n + 1:]
            Fn = _kkt_residual(Hm, Jm, cs, xn, On, ln, mu)
            if np.max(np.abs(Fn)) < (1.0 - 1e-4 * t) * norm:
                break
            t *= 0.5
        else:
            raise RuntimeError("equilibrium refinement stalled "
                               "(residual %.3e)" % norm)
        x, Omega, lam, F = xn, On, ln, Fn
    return x, Omega, lam, np.max(np.abs(F)), n_iter


def dsp_equilibria(p: DspParams, case_id: int, mu: float | None = None,
                   omega: float | None = None) -> RelativeEquilibrium:
    """Relative equilibrium of the given stationary family.

    For the spinning cases (2, 3, 4) exactly one of ``mu`` and ``omega``
    selects the member; the two are related by mu = I(q0) Omega through
    the locked inertia.  The case formulas seed a damped Newton solve of
    the constrained critical-point system, which is already exact for
    g = 0.  Case 1 is the static vertical configuration: momentum zero,
    any spin rate meaningless, returned with the singular flag set.
    """
    if case_id not in DSP_CASE_NAMES:
        raise ValueError("case_id must be 1, 2, 3 or 4")
    Hm, _ = dsp_hamiltonian(p)
    Jm = SmoothMap.from_poly(dsp_action().momentum_polys()[0])
    cs = dsp_spheres()
    q1, q2 = dsp_case_configuration(p, case_id)

    if case_id == 1:
        if (mu is not None and mu != 0.0) or \
                (omega is not None and omega != 0.0):
            raise ValueError("the static case carries zero momentum; "
                             "pass mu=0 / omega=0 or nothing")
        x0 = np.concatenate([q1, q2, np.zeros(6)])
        G = cs.jacobian(x0)
        lam = np.linalg.lstsq(G.T, Hm.gradient(x0), rcond=None)[0]
        res = np.max(np.abs(_kkt_residual(Hm, Jm, cs, x0, 0.0, lam, 0.0)))
        return RelativeEquilibrium(
            x0=x0, Omega=0.0, mu=0.0, case_id=1,
            case_name=DSP_CASE_NAMES[1], residual=float(res),
            multipliers=lam, singular=True)

    if (mu is None) == (omega is None):
        raise ValueError("spinning cases need exactly one of mu, omega")
    inertia = float(
        dsp_locked_inertia(p).value(np.concatenate([q1, q2]))[0, 0])
    if omega is None:
        Omega = mu / inertia
    else:
        Omega = float(omega)
        mu = inertia * Omega
    p1, p2 = dsp_locked_momenta(p, q1, q2, Omega)
    x0 = np.concatenate([q1, q2, p1, p2])
    x0, Omega, lam, res, n_iter = _newton_refine(Hm, Jm, cs, x0, Omega, mu)
    if np.max(np.abs(cs.values(x0))) > 1e-12:
        raise RuntimeError("refined point violates the sphere pairing")
    return RelativeEquilibrium(
        x0=x0, Omega=float(Omega), mu=float(mu), case_id=case_id,
        case_name=DSP_CASE_NAMES[case_id], residual=float(res),
        multipliers=lam, singular=False, newton_iterations=n_iter)


def _augmented_hessian(H_om: TruncatedPoly, re: RelativeEquilibrium):
    """Hessian at re.x0 of the multiplier-augmented Hamiltonian
    H - Omega J - lambda . phi, for H_om = H - Omega J and the sphere
    pairs phi of dsp_spheres."""
    S = SmoothMap.from_poly(H_om).hessian(re.x0)
    for lam, phi in zip(re.multipliers, dsp_spheres().constraints):
        S = S - lam * phi.hessian(re.x0)
    return S


def dsp_slice(p: DspParams, re: RelativeEquilibrium):
    """Slice model at the equilibrium: sphere pairs + Phi = J - mu + slice.

    The slice direction is adapted to the Hessian of the augmented
    Hamiltonian H - Omega J - lambda . phi at x0 (the generator-direction
    default leaves a first-order cross term, so the drift check on the
    quadratic part would fail).  Raises NotLocallyFreeError on the static
    stratum (mu = 0 fixed points), where the generator field vanishes.
    """
    base = dsp_spheres()
    act = dsp_action()
    mom = MomentumData(act, [re.mu])
    _, H_poly = dsp_hamiltonian(p)
    S = _augmented_hessian(H_poly - re.Omega * act.momentum_polys()[0], re)
    W = adapted_slice_directions(S, base, act, re.x0)
    return build_slice(base, mom, re.x0, W)


class CallableConstraints:
    """A ConstraintSet's values and Jacobian with its count k, the parts
    the Newton projection, the field evaluator and a DiracContext need.
    Kept for the ``perfbench`` workloads only, through
    dsp_sphere_callables."""

    def __init__(self, values, jacobian, k):
        self.values = values
        self.jacobian = jacobian
        self.k = k


def dsp_sphere_callables() -> CallableConstraints:
    """The four sphere-pairing constraints of dsp_spheres."""
    cs = dsp_spheres()
    return CallableConstraints(cs.values, cs.jacobian, cs.k)


def dsp_gradient(p: DspParams, Omega: float):
    """grad(H - Omega J) of the pendulum, as the gradient of that
    polynomial's SmoothMap."""
    H_om = dsp_hamiltonian(p)[1] - Omega * dsp_action().momentum_polys()[0]
    return SmoothMap.from_poly(H_om).gradient


def dsp_pipeline(p: DspParams, re: RelativeEquilibrium, K: int = 4,
                 chart_degree: int = 5, n_probes: int = 20,
                 drift_radius: float = 5e-5, twin_radius: float = 1e-5,
                 seed: int = 0, normal_form: bool = True) -> dict:
    """Full slice-to-normal-form run at a relative equilibrium.

    Stage order mirrors the hypotheses: build the 6-constraint slice,
    verify the drift-free property of the quadratic part of H_Omega
    augmented by the sphere multipliers (the form dsp_slice adapts to)
    and the stationarity of the locked inertia, then run both
    normalization paths (canonical bracket in the flattened chart, and
    the transported on-level Dirac structure) and compare their resonant
    data.  A failed drift check halts the pipeline before normalization
    and returns the partial report.  At non-elliptic equilibria the
    normalization itself refuses (degenerate or paired frequencies); the
    refusal is recorded under ``normal_form_error`` and the field-level
    intertwining check still runs.  Pass ``normal_form=False`` to skip
    the chart stage.  The slice model is returned under ``slice``.
    Raises ValueError when chart_degree < K: the chart would truncate
    terms the degree-K normal form reads.
    """
    if chart_degree < K:
        raise ValueError("chart_degree (%d) must be at least K (%d)"
                         % (chart_degree, K))
    out: dict = {"equilibrium": re}
    slc = dsp_slice(p, re)
    out["slice"] = slc
    _, H_poly = dsp_hamiltonian(p)
    J_poly = dsp_action().momentum_polys()[0]
    H_om = H_poly - re.Omega * J_poly
    x0 = re.x0

    # drift-free check on the quadratic part of the augmented H_Omega
    S = _augmented_hessian(H_om, re)
    H2_amb = TruncatedPoly.from_quadratic_form(S, 2).shifted(-x0)
    probes = sample_probes(slc.full_constraints, x0, n_probes,
                           drift_radius, seed)
    out["drift"] = check_drift_free(SmoothMap.from_poly(H2_amb), slc, probes)
    if not out["drift"]["is_drift_free"]:
        out["halted"] = "drift-free check failed"
        return out

    out["stationarity"] = dsp_stationarity(p, x0)

    # chart, flattening, and the two normalization paths
    if normal_form:
        try:
            level = slc.full_constraints
            frame = darboux_frame(level, slc.x0)
            chart = chart_series(level, frame, chart_degree)
            flat = darboux_flatten(chart)
            Hc = compose_batch([H_om], flat.ambient_polys())[0].truncated(K)
            nf_chart = run_normal_form_report(Hc, CanonicalStructure(3), K=K)
            pi = dirac_chart_structure(level, flat, K)
            nf_dirac = run_normal_form_report(Hc, pi, K=K)
        except (ValueError, RuntimeError) as err:
            out["normal_form_error"] = str(err)
        else:
            out["nf_chart"] = nf_chart
            out["nf_dirac"] = nf_dirac
            dist = {k: (nf_chart.resonant_terms[k]
                        - nf_dirac.resonant_terms[k]).max_abs_coeff()
                    for k in range(3, K + 1)}
            out["consistency"] = {
                "resonant_distance": dist,
                "eta_distance": float(np.max(np.abs(
                    nf_chart.H2.eta - nf_dirac.H2.eta))),
                "commutation_chart": max(
                    nf_chart.residual_report["commutation"].values()),
                "commutation_dirac": max(
                    nf_dirac.residual_report["commutation"].values()),
                "symplectic_defect_chart":
                    nf_chart.residual_report["symplectic_defect"],
            }

    # field-level agreement of the slice and level Dirac fields
    z_probes = sample_probes(slc.level_constraints(), x0, n_probes,
                             twin_radius, seed + 1)
    out["intertwining"] = intertwining_check(
        SmoothMap.from_poly(H_om), slc, z_probes)
    return out


# ----------------------------------------------------------------------
# Moser-type constrained models
# ----------------------------------------------------------------------


@dataclass
class MoserModel:
    """A Hamiltonian with paired constraints (G_s, F_s) and candidate
    integrals of the constrained flow.

    The pairs are expected to satisfy the canonical relations {G_i,G_j}
    = {F_i,F_j} = 0, {G_i,F_j} = delta_ij on the constraint locus; the
    residual integrals are checked against the Dirac bracket by
    :func:`moser_filter_integrals`.
    """

    name: str
    H: SmoothMap
    H_poly: TruncatedPoly
    G_polys: list
    F_polys: list
    residual_polys: list
    residual_names: list

    @property
    def r(self) -> int:
        return len(self.G_polys)

    @property
    def constraints(self) -> ConstraintSet:
        names = ["G%d" % (i + 1) for i in range(len(self.G_polys))]
        names += ["F%d" % (i + 1) for i in range(len(self.F_polys))]
        return ConstraintSet.from_polys(self.G_polys + self.F_polys,
                                        names=names)

    def residual_integrals(self):
        return [SmoothMap.from_poly(p) for p in self.residual_polys]


def neumann_model(A) -> MoserModel:
    """Harmonic oscillator constrained to the unit-sphere tangent bundle.

    H = |p|^2/2 + q.Aq/2 with G1 = (|q|^2 - 1)/2 and F1 = q.p; the pair
    satisfies {G1, F1} = |q|^2, equal to 1 on the locus.  Energy is the
    registered integral; the constrained field has the classical closed
    form (p, -Aq + (q.Aq - |p|^2) q).  Polynomials are truncated at
    poly.DEFAULT_MAX_DEGREE.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.shape != (n, n) or np.max(np.abs(A - A.T)) > 1e-12:
        raise ValueError("A must be symmetric")
    S = np.zeros((2 * n, 2 * n))
    S[:n, :n] = A
    S[n:, n:] = np.eye(n)
    H_poly = TruncatedPoly.from_quadratic_form(S, DEFAULT_MAX_DEGREE)
    Sq = np.zeros((2 * n, 2 * n))
    Sq[:n, :n] = np.eye(n)
    G1 = TruncatedPoly.from_quadratic_form(Sq, DEFAULT_MAX_DEGREE) - 0.5
    x = [TruncatedPoly.variable(i, 2 * n, DEFAULT_MAX_DEGREE)
         for i in range(2 * n)]
    F1 = poly_dot(x[:n], x[n:], TruncatedPoly.zero(2 * n, DEFAULT_MAX_DEGREE))
    return MoserModel(
        name="neumann", H=SmoothMap.from_poly(H_poly),
        H_poly=H_poly, G_polys=[G1], F_polys=[F1],
        residual_polys=[H_poly], residual_names=["H"])


def separable_oscillator_model(omega=(1.0, 2.0 ** 0.5, 5.0 ** 0.5),
                               broken: bool = False) -> MoserModel:
    """Three uncoupled oscillators constrained to q3 = p3 = 0.

    The pair (G1, F1) = (q3, p3) satisfies the canonical relations
    exactly everywhere, and the constrained system is the free
    two-oscillator flow, so the mode energies F2, F3 are integrals by
    direct reduction.  ``broken`` swaps F1 for q3 p3, whose relation
    {G1, F1} = q3 vanishes on the locus instead of matching delta_ij;
    the filter must refuse it.  Polynomials are truncated at
    poly.DEFAULT_MAX_DEGREE.
    """
    w = np.asarray(omega, dtype=float)
    if w.shape != (3,) or np.any(w <= 0.0):
        raise ValueError("need three positive frequencies")
    n, K = 6, DEFAULT_MAX_DEGREE
    mode = []
    for i in range(3):
        S = np.zeros((n, n))
        S[i, i] = w[i] ** 2
        S[3 + i, 3 + i] = 1.0
        mode.append(TruncatedPoly.from_quadratic_form(S, K))
    H_poly = mode[0] + mode[1] + mode[2]
    G1 = TruncatedPoly.variable(2, n, K)
    if broken:
        F1 = TruncatedPoly.monomial((0, 0, 1, 0, 0, 1), 1.0, K)
    else:
        F1 = TruncatedPoly.variable(5, n, K)
    return MoserModel(
        name="separable_oscillator" + ("_broken" if broken else ""),
        H=SmoothMap.from_poly(H_poly), H_poly=H_poly,
        G_polys=[G1], F_polys=[F1],
        residual_polys=[mode[0], mode[1]],
        residual_names=["E1", "E2"])


def moser_filter_integrals(model: MoserModel, probes) -> dict:
    """Check the canonical pair relations, then filter the integrals.

    Raises ValueError without probes, or when the pair relations fail
    at any probe by more than 1e-9 (the model is then outside the
    commuting-integral mechanism).  Otherwise reports max |{F_j, H}_D|
    and pairwise |{F_i, F_j}_D| over probes, passing iff all stay below
    1e-8.
    """
    probes = probe_list(probes)
    cs = model.constraints
    r = model.r
    gm = cs.constraints[:r]
    fm = cs.constraints[r:]
    worst_canon = 0.0
    for x in probes:
        for i in range(r):
            for j in range(r):
                worst_canon = max(worst_canon, abs(
                    canonical_bracket_value(gm[i], fm[j], x)
                    - (1.0 if i == j else 0.0)))
                if j > i:
                    worst_canon = max(
                        worst_canon,
                        abs(canonical_bracket_value(gm[i], gm[j], x)),
                        abs(canonical_bracket_value(fm[i], fm[j], x)))
    if worst_canon > 1e-9:
        raise ValueError(
            "canonical constraint relations fail at the probes "
            "(defect %.3e); the commuting-integral criterion does not "
            "apply" % worst_canon)
    integrals = model.residual_integrals()
    flow = {nm: 0.0 for nm in model.residual_names}
    pairwise = {}
    for x in probes:
        ctx = DiracContext(cs, x)
        for nm, F in zip(model.residual_names, integrals):
            flow[nm] = max(flow[nm], abs(dirac_bracket(F, model.H, ctx)))
        for i in range(len(integrals)):
            for j in range(i + 1, len(integrals)):
                key = (model.residual_names[i], model.residual_names[j])
                pairwise[key] = max(pairwise.get(key, 0.0), abs(
                    dirac_bracket(integrals[i], integrals[j], ctx)))
    worst = max(list(flow.values()) + list(pairwise.values()) + [0.0])
    return {
        "canonical_defect": worst_canon,
        "flow_residuals": flow,
        "pairwise_residuals": pairwise,
        "max_residual": worst,
        "passed": bool(worst < 1e-8),
        "n_probes": len(probes),
    }


# ----------------------------------------------------------------------
# Kustaanheimo-Stiefel diagnostic model
# ----------------------------------------------------------------------


def quaternion_product(a, b):
    """Hamilton product of quaternions given as 4-sequences.

    Entries may be floats or TruncatedPoly (any mix), so the same table
    builds numeric values and symbolic constraint polynomials.
    """
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + a1 * b0 + a2 * b3 - a3 * b2,
            a0 * b2 - a1 * b3 + a2 * b0 + a3 * b1,
            a0 * b3 + a1 * b2 - a2 * b1 + a3 * b0)


def quaternion_conjugate(a):
    a0, a1, a2, a3 = a
    return (a0, -a1, -a2, -a3)


@dataclass
class KsModel:
    """Bilinear constraint and Hopf fibration on R^8 = (z, w).

    ``constraints`` holds the single function BL(z, w) = Re(zbar i w),
    whose zero level through the origin is not a regular level set (the
    differential vanishes there); ``hopf_polys`` are the four components
    of z i zbar, the first of which is identically zero.
    """

    bl_poly: TruncatedPoly
    constraints: ConstraintSet
    hopf_polys: list
    hopf_map: SmoothMap

    def hopf(self, z) -> np.ndarray:
        x = np.concatenate([np.asarray(z, dtype=float), np.zeros(4)])
        return self.hopf_map.value(x)


def ks_model() -> KsModel:
    """The bilinear constraint and Hopf map of :class:`KsModel`, truncated
    at poly.DEFAULT_MAX_DEGREE."""
    n, K = 8, DEFAULT_MAX_DEGREE
    z = [TruncatedPoly.variable(i, n, K) for i in range(4)]
    w = [TruncatedPoly.variable(4 + i, n, K) for i in range(4)]
    iq = (0.0, 1.0, 0.0, 0.0)
    bl = quaternion_product(quaternion_conjugate(z),
                            quaternion_product(iq, w))[0]
    hopf = list(quaternion_product(
        z, quaternion_product(iq, quaternion_conjugate(z))))
    return KsModel(
        bl_poly=bl,
        constraints=ConstraintSet.from_polys([bl], names=["BL"]),
        hopf_polys=hopf,
        hopf_map=SmoothMap.from_poly(hopf))
