"""Birkhoff normal form on a constraint level.

The pipeline in this module starts from a second-class constraint set
(typically a slice through a relative equilibrium built by
:mod:`mdirac.symmetry`) and produces

1. a linear Darboux frame on the tangent space of the level,
2. a polynomial chart of the level with values in the ambient space,
3. an optional Moser-style flattening that makes the chart symplectic
   order by order,
4. the quadratic normalization (frequencies and a linear symplectic
   transform),
5. the homological operator and resonant splitting at each degree, and
6. the order-by-order Lie-transform normalization, run either with the
   canonical bracket (flattened chart) or with the restricted Dirac
   structure expressed in chart variables.

Field-level intertwining between the slice-projected and the level
vector fields of an invariant function is checked by
:func:`intertwining_check`.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve

from .dirac import (
    ConstraintSet,
    DiracContext,
    _null_space,
    dirac_project,
    poly_antisymmetric,
    poly_congruence,
    poly_constraint_matrix,
    poly_gradient_fields,
    poly_mat_neumann_inverse,
    probe_list,
)
from .poly import (
    CanonicalStructure,
    PoissonStructure,
    StructuredStructure,
    TruncatedPoly,
    compose_batch,
    lie_transform,
    poly_dot,
)
from .smooth import J_apply, SmoothMap, canonical_J

TAU_RES = 1e-9
TAU_TWIN = 1e-8


class NearResonanceWarning(UserWarning):
    """A nonzero homological eigenvalue sits close to the resonance cut."""


# ----------------------------------------------------------------------
# Darboux frame
# ----------------------------------------------------------------------


@dataclass
class DarbouxFrame:
    """Linear symplectic basis of the tangent space of the level at x0.

    ``basis`` holds 2d columns ordered as (e_1..e_d, f_1..f_d) with
    omega(e_i, f_j) = delta_ij and all other pairings zero, where
    omega(v, w) = v^T J0 w.
    """

    x0: np.ndarray
    basis: np.ndarray
    d: int


def _symplectic_gram_schmidt(kernel, J0):
    """Canonical pairs from a basis of a symplectic subspace.

    Greedy pivoting: the largest remaining vector is paired with the
    partner of strongest symplectic pairing, then the pair is projected
    out of the rest.
    """
    cand = [kernel[:, i].copy() for i in range(kernel.shape[1])]
    es, fs = [], []
    while cand:
        norms = [np.linalg.norm(v) for v in cand]
        e = cand.pop(int(np.argmax(norms)))
        if not cand:
            raise RuntimeError("odd-dimensional kernel cannot carry a "
                               "symplectic frame")
        omegas = np.array([e @ J0 @ w for w in cand])
        j = int(np.argmax(np.abs(omegas)))
        scale = max(np.linalg.norm(e), 1.0)
        if abs(omegas[j]) < 1e-12 * scale:
            raise RuntimeError(
                "restricted symplectic form is degenerate on the kernel; "
                "inconsistent with a second-class constraint set")
        f = cand.pop(j) / omegas[j]
        rest = []
        for w in cand:
            w = w - (w @ J0 @ f) * e + (w @ J0 @ e) * f
            rest.append(w)
        cand = rest
        es.append(e)
        fs.append(f)
    return np.column_stack(es + fs)


def darboux_frame(cs: ConstraintSet, x0) -> DarbouxFrame:
    """Symplectic basis of ker(dphi) at x0 on the level of cs.

    The constraint set must be second class at x0; the kernel of the
    stacked Jacobian is then a symplectic subspace and the Gram-Schmidt
    pairing cannot degenerate.
    """
    x0 = np.asarray(x0, dtype=float)
    ctx = DiracContext(cs, x0)
    ctx.require_second_class()
    G = ctx.G
    J0 = canonical_J(G.shape[1] // 2)
    V = _symplectic_gram_schmidt(_null_space(G, 1e-10), J0)
    d = V.shape[1] // 2
    if np.max(np.abs(G @ V)) > 1e-10:
        raise RuntimeError("frame escaped the constraint kernel")
    Jd = canonical_J(d)
    if np.max(np.abs(V.T @ J0 @ V - Jd)) > 1e-10:
        raise RuntimeError("symplectic Gram-Schmidt lost orthogonality")
    return DarbouxFrame(x0=x0, basis=V, d=d)


# ----------------------------------------------------------------------
# polynomial chart of the level
# ----------------------------------------------------------------------


@dataclass
class ChartSeries:
    """Polynomial parametrization x = x0 + map(u) of the level.

    ``map`` is an object array of ambient components, each a
    TruncatedPoly in the 2d chart variables, with linear part equal to
    the frame basis.  Constraint residuals phi(x0 + map(u)) vanish
    coefficient-wise through degree K.

    ``parent``/``transition`` are set by :func:`darboux_flatten`: the
    flattened map equals parent.map composed with the near-identity
    transition, so the raw chart stays available for constructions that
    need its linear inverse.
    """

    frame: DarbouxFrame
    map: np.ndarray
    K: int
    parent: "ChartSeries | None" = None
    transition: list | None = None

    @property
    def n_chart(self) -> int:
        return self.map[0].n_vars

    def ambient_polys(self):
        """Chart components including the base point offsets."""
        return [p + float(c) for p, c in zip(self.map, self.frame.x0)]


def chart_series(cs: ConstraintSet, frame: DarbouxFrame,
                 K: int) -> ChartSeries:
    """Solve phi(x0 + V u + grad-complement corrections) = 0 per degree,
    with x0 = frame.x0.

    Corrections are taken in the span of the constraint gradients at x0,
    so each degree reduces to a linear solve against the (invertible)
    Gram matrix of the gradients.  A residual above 1e-9 raises.
    """
    x0 = frame.x0
    phis = cs.centered_polys(x0, max_degree=max(
        K, max(p.degree() for p in cs.polys)))
    V = frame.basis
    n, r = V.shape
    G = cs.jacobian(x0)
    M = G @ G.T
    try:
        lu = lu_factor(M)
    except Exception as exc:  # pragma: no cover - scipy raises LinAlgError
        raise RuntimeError("constraint gradient Gram matrix is "
                           "singular") from exc
    zero = TruncatedPoly.zero(r, K)
    xi = [TruncatedPoly.from_linear(V[a, :], K) for a in range(n)]
    for deg in range(2, K + 1):
        residue = compose_batch(phis, xi)
        parts = [p.homogeneous_part(deg) for p in residue]
        exps = sorted(set().union(*[set(p.terms) for p in parts]))
        if not exps:
            continue
        corr = [dict() for _ in range(cs.k)]
        for exp in exps:
            rhs = np.array([p.coefficient(exp) for p in parts])
            sol = lu_solve(lu, -rhs)
            for i, ci in enumerate(sol):
                corr[i][exp] = ci
        # xi_a + sum_i G_ia corr_i, the current xi_a leading the sum
        cpolys = [TruncatedPoly(r, K, c) for c in corr]
        xi = [poly_dot([1.0, *G[:, a]], [xi[a], *cpolys], zero)
              for a in range(n)]
    residue = compose_batch(phis, xi)
    worst = max(p.truncated(K).max_abs_coeff() for p in residue)
    if worst > 1e-9:
        raise RuntimeError("chart residual %.3e exceeds tolerance" % worst)
    return ChartSeries(frame=frame, map=np.array(xi, dtype=object), K=K)


def _pullback_form_of(psi, K: int) -> np.ndarray:
    """Matrix of the pulled-back symplectic form, W = Dpsi^T J0 Dpsi."""
    n = len(psi)
    m = n // 2
    r = psi[0].n_vars
    D = [[psi[a].derivative(al) for al in range(r)] for a in range(n)]
    # (J0 Dpsi) pairs row a with row m+a: W_al,be sums, over a,
    # D[a][al] D[m+a][be] + D[m+a][al] (-D[a][be])
    left = [[d for a in range(m) for d in (D[a][al], D[m + a][al])]
            for al in range(r)]
    right = [[d for a in range(m) for d in (D[m + a][be], -D[a][be])]
             for be in range(r)]
    zero = TruncatedPoly.zero(r, K)
    return poly_antisymmetric(
        r, (poly_dot(left[al], right[be], zero) for al in range(r)
            for be in range(al + 1, r)), zero)


def _form_defect(W, through_degree: int) -> float:
    """Largest coefficient of W - J0 in degrees 0..through_degree, for an
    antisymmetric form matrix W (its upper triangle is scanned)."""
    r = W.shape[0]
    Jd = canonical_J(r // 2)
    worst = 0.0
    for al in range(r):
        for be in range(al + 1, r):
            diff = W[al, be] - float(Jd[al, be])
            for e, c in diff.terms.items():
                if sum(e) <= through_degree:
                    worst = max(worst, abs(c))
    return worst


def darboux_flatten(chart: ChartSeries) -> ChartSeries:
    """Reparametrize the chart so the pulled-back form is canonical.

    Moser-style homotopy, one homogeneous degree at a time: if the
    degree-r defect of W is E_r, the correction vector field has
    potential beta_b = (1/(r+2)) sum_a u_a E_r[a,b] and the chart is
    composed with id - J0 beta.  Degrees 1..K-2 of the defect are
    removable at truncation order K; defects up to 1e-12 are left.
    """
    r = chart.n_chart
    d = r // 2
    K = chart.K
    Jd = canonical_J(d)
    cur = np.asarray(chart.map, dtype=object)
    total = None if chart.transition is None else list(chart.transition)
    zero = TruncatedPoly.zero(r, K)
    u = [TruncatedPoly.variable(a, r, K) for a in range(r)]
    for deg in range(1, K - 1):
        W = _pullback_form_of(cur, K)
        E = np.array([[(W[a, b] - float(Jd[a, b])).homogeneous_part(deg)
                        for b in range(r)] for a in range(r)], dtype=object)
        if max(e.max_abs_coeff() for e in E.flat) <= 1e-12:
            continue
        beta = [(1.0 / (deg + 2)) * poly_dot(u, E[:, b], zero)
                for b in range(r)]
        chi = [u[a] + poly_dot(-Jd[a], beta, zero) for a in range(r)]
        cur = np.array(compose_batch(list(cur), chi), dtype=object)
        total = chi if total is None else compose_batch(total, chi)
    if total is None:
        return chart
    return ChartSeries(frame=chart.frame, map=cur, K=K,
                       parent=chart.parent if chart.parent is not None
                       else chart,
                       transition=total)


# ----------------------------------------------------------------------
# restricted Dirac structure in chart variables
# ----------------------------------------------------------------------


def _transport(pi, chi, Dinv, K: int) -> StructuredStructure:
    """Pi'(w) = Dinv(w) Pi(chi(w)) Dinv(w)^T, with Dinv the inverse
    Jacobian of the change of variables u = chi(w); only the upper
    triangle of Pi is composed."""
    r = pi.shape[0]
    upper = compose_batch([pi[a, c].truncated(K) for a in range(r)
                           for c in range(a + 1, r)], chi)
    zero = TruncatedPoly.zero(r, K)
    pic = poly_antisymmetric(r, upper, zero)
    return StructuredStructure(poly_congruence(Dinv, pic, zero))


def transport_structure(ps: StructuredStructure,
                        transition) -> StructuredStructure:
    """Poisson-structure matrix in new coordinates u = chi(w).

    For a near-identity polynomial change of variables chi (linear part
    the identity), the bracket matrix transforms by the inverse-Jacobian
    congruence Pi'(w) = Dchi(w)^{-1} Pi(chi(w)) Dchi(w)^{-T}.
    """
    pi = ps.pi
    r = pi.shape[0]
    K = min(p.max_degree for row in pi for p in row)
    chi = [p.truncated(K) for p in transition]
    if len(chi) != r or chi[0].n_vars != r:
        raise ValueError("transition map does not match structure size")
    for i in range(r):
        if abs(chi[i].coefficient((0,) * r)) > 1e-12:
            raise ValueError("transition map must fix the origin")
        for c in range(r):
            e = tuple(1 if j == c else 0 for j in range(r))
            want = 1.0 if c == i else 0.0
            if abs(chi[i].coefficient(e) - want) > 1e-12:
                raise ValueError("transition map must be near-identity")
    D = [[chi[i].derivative(j) for j in range(r)] for i in range(r)]
    return _transport(pi, chi, poly_mat_neumann_inverse(D, K), K)


def dirac_chart_structure(cs: ConstraintSet, chart: ChartSeries,
                          K: int) -> StructuredStructure:
    """Dirac bracket of the chart coordinates, degree-K polynomials in u.

    For a raw chart the nonlinear corrections stay in the constraint-
    gradient complement, so the chart inverse is the linear dual map
    ell_a(x) = d_a . (x - x0) and the coordinate bracket is the Dirac
    bracket of the ell_a composed with the chart:

        pi = duals J0 duals^T + b C^-1 b^T,  b_ai = {ell_a, phi_i} o psi.

    A flattened chart is handled by building the structure on its raw
    parent and transporting through the recorded transition map.  The
    constant part of the result is exactly the canonical matrix.  The
    constraint set is expanded about the chart's ``frame.x0``.
    """
    x0 = chart.frame.x0
    if chart.transition is not None:
        base = dirac_chart_structure(cs, chart.parent, K)
        return transport_structure(base, chart.transition)
    V = chart.frame.basis
    n, r = V.shape
    duals = np.linalg.solve(V.T @ V, V.T)
    # the linear-inverse property: duals . map(u) must reproduce u
    psi = [p.truncated(K) for p in chart.map]
    zero_u = TruncatedPoly.zero(r, K)
    for a in range(r):
        probe = (poly_dot(duals[a], psi, zero_u)
                 - TruncatedPoly.variable(a, r, K))
        if probe.max_abs_coeff() > 1e-9:
            raise ValueError(
                "chart corrections leave the constraint-gradient "
                "complement; pass the unflattened chart")
    amb_deg = max(K, max(p.degree() for p in cs.polys))
    X = poly_gradient_fields(cs.centered_polys(x0, max_degree=amb_deg))
    k = cs.k
    C = poly_constraint_matrix(X)
    flat = [C[i, j] for i in range(k) for j in range(i + 1, k)]
    zero_amb = TruncatedPoly.zero(n, amb_deg)
    flat += [poly_dot(duals[a], X[i], zero_amb)
             for a in range(r) for i in range(k)]
    composed = compose_batch(flat, psi)
    n_upper = k * (k - 1) // 2
    Cinv = poly_mat_neumann_inverse(
        poly_antisymmetric(k, composed[:n_upper], zero_u), K)
    b = np.array(composed[n_upper:], dtype=object).reshape(r, k)
    pi = poly_congruence(b, Cinv, zero_u)
    const = duals @ canonical_J(n // 2) @ duals.T
    for a in range(r):
        for c in range(a + 1, r):
            pi[a, c] = pi[a, c] + float(const[a, c])
            pi[c, a] = -pi[a, c]
    Jd = canonical_J(r // 2)
    for a in range(r):
        for c in range(r):
            if abs(pi[a, c].coefficient((0,) * r) - Jd[a, c]) > 1e-9:
                raise RuntimeError("restricted Dirac structure is not "
                                   "canonical at the chart origin")
    return StructuredStructure(pi)


# ----------------------------------------------------------------------
# quadratic normalization
# ----------------------------------------------------------------------


@dataclass
class QuadraticData:
    """Quadratic part H2(z) = z^T S z / 2 and its elliptic normal form."""

    S: np.ndarray
    eta: np.ndarray
    linear_transform: np.ndarray


def linear_normalize(S) -> QuadraticData:
    """Symplectic transform bringing a quadratic form to oscillator form.

    Requires J0 S elliptic and semisimple with pairwise distinct
    frequency moduli; the signed frequencies eta (ascending) may have
    either sign.  After the transform, H2 = sum_j eta_j (Q_j^2+P_j^2)/2.
    """
    S = np.asarray(S, dtype=float)
    S = 0.5 * (S + S.T)
    n = S.shape[0]
    if n % 2:
        raise ValueError("quadratic form must live in even dimension")
    d = n // 2
    J0 = canonical_J(d)
    w, vecs = np.linalg.eig(J0 @ S)
    scale = max(1.0, float(np.max(np.abs(w))))
    if np.max(np.abs(w.real)) > 1e-9 * scale:
        raise ValueError("quadratic part is not elliptic (eigenvalues "
                         "off the imaginary axis); not normalized")
    idx = [i for i in range(n) if w[i].imag > 0]
    if len(idx) != d:
        raise ValueError("quadratic part is degenerate (zero or paired "
                         "frequencies); not normalized")
    mods = np.sort(w[idx].imag)
    # repeated eigenvalues split by ~sqrt(eps) under eig, so the gap
    # test needs a tolerance well above that
    if d > 1 and np.min(np.diff(mods)) <= 1e-6 * scale:
        raise ValueError("frequencies with equal modulus; resonant "
                         "quadratic part is not normalized")
    pairs = []
    for i in idx:
        lam = w[i].imag
        v = vecs[:, i]
        a, bb = v.real.copy(), v.imag.copy()
        s = a @ J0 @ bb
        if abs(s) < 1e-12 * max(1.0, a @ a + bb @ bb):
            raise ValueError("non-semisimple quadratic part; "
                             "not normalized")
        if s > 0:
            pairs.append((lam, a / math.sqrt(s), bb / math.sqrt(s)))
        else:
            pairs.append((-lam, a / math.sqrt(-s), -bb / math.sqrt(-s)))
    pairs.sort(key=lambda t: t[0])
    eta = np.array([t[0] for t in pairs])
    T = np.column_stack([t[1] for t in pairs] + [t[2] for t in pairs])
    if np.max(np.abs(T.T @ J0 @ T - J0)) > 1e-10:
        raise RuntimeError("normalizing transform lost symplecticity")
    return QuadraticData(S=S, eta=eta, linear_transform=T)


def oscillator_poly(eta, max_degree: int) -> TruncatedPoly:
    """H2 = sum_j eta_j (Q_j^2 + P_j^2) / 2 in 2d variables."""
    eta = np.asarray(eta, dtype=float)
    d = eta.size
    zero = TruncatedPoly.zero(2 * d, max_degree)
    x = [TruncatedPoly.variable(i, 2 * d, max_degree) for i in range(2 * d)]
    squares = [poly_dot(x[j::d], x[j::d], zero) for j in range(d)]
    return poly_dot(0.5 * eta, squares, zero)


def quadratic_matrix(H2: TruncatedPoly) -> np.ndarray:
    """Matrix S with H2 = x^T S x / 2 read off a quadratic polynomial."""
    n = H2.n_vars
    S = np.zeros((n, n))
    for exp, c in H2.terms.items():
        if sum(exp) != 2:
            raise ValueError("polynomial is not homogeneous quadratic")
        nz = [i for i, e in enumerate(exp) if e]
        if len(nz) == 1:
            S[nz[0], nz[0]] = 2.0 * c
        else:
            S[nz[0], nz[1]] = c
            S[nz[1], nz[0]] = c
    return S


# ----------------------------------------------------------------------
# homological operator and resonant splitting
# ----------------------------------------------------------------------


def _pairwise_basis_change(coeffs, d: int, factor) -> dict:
    """Re-expand coefficient data pair by pair between the (Q, P) and
    (z, zbar) monomial bases.

    For each variable pair the monomial x^a y^b of the source basis is
    sum_{t<=a, s<=b} factor(a, b, t, s) X^(t+s) Y^(a-t+b-s) in the target
    basis; the pairs are multiplied out.  Variables 0..d-1 of the
    exponents are the first members of the pairs, d..2d-1 the second.
    """
    out: dict = {}
    for exp, coef in coeffs.items():
        options = []
        for j in range(d):
            a, b = exp[j], exp[d + j]
            opt = {}
            for t in range(a + 1):
                for s in range(b + 1):
                    key = (t + s, a - t + b - s)
                    opt[key] = opt.get(key, 0.0) + factor(a, b, t, s)
            options.append(list(opt.items()))
        for combo in itertools.product(*options):
            key = (tuple(x for (x, _), _ in combo)
                   + tuple(y for (_, y), _ in combo))
            val = coef
            for _, v in combo:
                val *= v
            out[key] = out.get(key, 0.0) + val
    return out


def _real_to_complex(p: TruncatedPoly, d: int) -> dict:
    """Coefficients of p in the z/zbar monomial basis.

    Variables 0..d-1 of the output exponents are powers of z_j =
    Q_j + i P_j, variables d..2d-1 powers of the conjugates.
    """
    # Q = (z + zbar)/2, P = (z - zbar)/(2i)
    out = _pairwise_basis_change(
        p.terms, d, lambda a, b, t, s: (math.comb(a, t) * math.comb(b, s)
                                        * (-1) ** (b - s) / 2 ** a
                                        / (2j) ** b))
    return {k: v for k, v in out.items() if abs(v) > 1e-15}


def _complex_to_real(cd: dict, d: int, max_degree: int) -> TruncatedPoly:
    # z = Q + iP, zbar = Q - iP
    acc = _pairwise_basis_change(
        cd, d, lambda a, b, t, s: (math.comb(a, t) * math.comb(b, s)
                                   * (1j) ** (a - t) * (-1j) ** (b - s)))
    worst = max((abs(v.imag) for v in acc.values()), default=0.0)
    if worst > 1e-10 * max(1.0, max((abs(v) for v in acc.values()),
                                    default=1.0)):
        raise ValueError("complex coefficient data is not conjugation "
                         "symmetric")
    terms = {k: v.real for k, v in acc.items()}
    return TruncatedPoly(2 * d, max_degree, terms)


def split_resonant(Hk: TruncatedPoly, eta):
    """Resonant/nonresonant split and homological solve at one degree.

    The homological operator L f = {H2, f}, H2 = oscillator_poly(eta),
    is diagonal in the complexified monomial basis with eigenvalue
    i sum_j eta_j (a_j - b_j) on z^a zbar^b.  Returns (H_res, H_nr,
    Gamma) with L Gamma = H_nr exactly on the nonresonant eigenspaces
    and Gamma having no kernel component.  Eigenvalues below TAU_RES are
    resonant; those in (TAU_RES, 10 TAU_RES) trigger a small-divisor
    warning but are still inverted.
    """
    if not Hk.is_zero() and Hk.min_degree() != Hk.degree():
        raise ValueError("input must be homogeneous")
    eta = np.asarray(eta, dtype=float)
    d = eta.size
    cd = _real_to_complex(Hk, d)
    res, nr, gam = {}, {}, {}
    hazard = None
    for exp, coef in cd.items():
        lam = 1j * float(np.dot(eta, np.asarray(exp[:d])
                                - np.asarray(exp[d:])))
        if abs(lam) < TAU_RES:
            res[exp] = coef
            continue
        if abs(lam) < 10.0 * TAU_RES:
            hazard = abs(lam) if hazard is None else min(hazard, abs(lam))
        nr[exp] = coef
        gam[exp] = coef / lam
    if hazard is not None:
        warnings.warn(
            "near-resonant small divisor: min nonzero |eigenvalue| "
            "= %.3e" % hazard, NearResonanceWarning)
    K = Hk.max_degree
    return (_complex_to_real(res, d, K),
            _complex_to_real(nr, d, K),
            _complex_to_real(gam, d, K))


# ----------------------------------------------------------------------
# normal form driver
# ----------------------------------------------------------------------


@dataclass
class NormalFormResult:
    K: int
    H2: QuadraticData
    normal_form: TruncatedPoly
    resonant_terms: dict
    generators: dict
    composed_transform: np.ndarray
    residual_report: dict
    warnings: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "order": self.K,
            "frequencies": [float(e) for e in self.H2.eta],
            "resonant_terms": {
                str(k): v.to_json_dict()
                for k, v in sorted(self.resonant_terms.items())},
            "residual_report": {
                k: (v if not isinstance(v, dict) else
                    {str(a): b for a, b in sorted(v.items())})
                for k, v in sorted(self.residual_report.items())},
            "transform": [p.to_json_dict() for p in self.composed_transform],
        }


def birkhoff_normal_form(H: TruncatedPoly, ps: PoissonStructure,
                         K: int) -> NormalFormResult:
    """Order-by-order normalization of an equilibrium Hamiltonian.

    H must have a critical point at the origin and an elliptic quadratic
    part.  The supplied bracket drives the Lie transforms: canonical for
    a flattened Darboux chart, or the restricted Dirac structure for the
    on-level path.  Resonant terms (eigenvalue below TAU_RES) stay;
    every nonresonant term through degree K is removed.
    """
    n = H.n_vars
    d = n // 2
    H = H.truncated(K)
    H = H - H.coefficient((0,) * n)
    lin_size = H.homogeneous_part(1).max_abs_coeff()
    if lin_size > 1e-8:
        raise ValueError("origin is not an equilibrium (linear part %.2e)"
                         % lin_size)
    if lin_size:
        H = H - H.homogeneous_part(1)
    qd = linear_normalize(quadratic_matrix(H.homogeneous_part(2)))
    T = qd.linear_transform
    lin = [TruncatedPoly.from_linear(T[a, :], K) for a in range(n)]
    H = compose_batch([H], lin)[0]
    if isinstance(ps, StructuredStructure):
        # u = T v; T is symplectic, so its inverse is -J0 T^T J0
        J0 = canonical_J(d)
        work = _transport(ps.pi, lin, -J0 @ T.T @ J0, K)
    else:
        work = CanonicalStructure(d)
    generators, resonant, caught = {}, {}, []
    for k in range(3, K + 1):
        Hk = H.homogeneous_part(k)
        with warnings.catch_warnings(record=True) as wlist:
            warnings.simplefilter("always", NearResonanceWarning)
            Hres, _, Gam = split_resonant(Hk, qd.eta)
        for w in wlist:
            caught.append(str(w.message))
            warnings.warn_explicit(w.message, w.category, w.filename,
                                   w.lineno)
        generators[k] = Gam
        resonant[k] = Hres
        H = lie_transform(H, -Gam, work).truncated(K)
    H2n = oscillator_poly(qd.eta, K)
    ps_can = CanonicalStructure(d)
    commutation = {}
    for k in range(3, K + 1):
        commutation[k] = ps_can.bracket(
            H.homogeneous_part(k), H2n).max_abs_coeff()
    comps = [TruncatedPoly.variable(a, n, K) for a in range(n)]
    for k in range(3, K + 1):
        if generators[k].is_zero():
            continue
        comps = [lie_transform(c, -generators[k], work) for c in comps]
    zero = TruncatedPoly.zero(n, K)
    comps = [poly_dot(T[a], comps, zero) for a in range(n)]
    report = {"commutation": commutation}
    result = NormalFormResult(
        K=K, H2=qd, normal_form=H, resonant_terms=resonant,
        generators=generators,
        composed_transform=np.array(comps, dtype=object),
        residual_report=report, warnings=caught)
    return result


def conjugation_defect(result: NormalFormResult,
                       H_input: TruncatedPoly) -> float:
    """Coefficient residual of H_input(transform(w)) - normal_form(w)."""
    K = result.K
    H = H_input.truncated(K)
    H = H - H.coefficient((0,) * H.n_vars)
    h1 = H.homogeneous_part(1)
    if not h1.is_zero():
        H = H - h1
    recon = compose_batch([H], list(result.composed_transform))[0]
    return (recon - result.normal_form).max_abs_coeff()


def transform_symplectic_defect(result: NormalFormResult) -> float:
    """Defect of Dtau^T J0 Dtau - J0 through degree K - 1.

    Meaningful for the canonical (flattened-chart) path; the on-level
    path produces a Poisson map for the restricted Dirac structure
    rather than a symplectic map, so this check does not apply there.
    """
    return _form_defect(
        _pullback_form_of(result.composed_transform, result.K), result.K - 1)


def run_normal_form_report(H_chart: TruncatedPoly, ps: PoissonStructure,
                           K: int) -> NormalFormResult:
    """Normal form (resonance cut TAU_RES) plus conjugation /
    symplecticity residuals filled in; the symplecticity check runs for
    every structure but a restricted (StructuredStructure) one."""
    result = birkhoff_normal_form(H_chart, ps, K=K)
    result.residual_report["conjugation_defect"] = conjugation_defect(
        result, H_chart)
    if not isinstance(ps, StructuredStructure):
        result.residual_report["symplectic_defect"] = \
            transform_symplectic_defect(result)
    return result


# ----------------------------------------------------------------------
# field-level intertwining
# ----------------------------------------------------------------------


def intertwining_check(F: SmoothMap, slc, probes) -> dict:
    """Compare the slice-projected field of F with its level field.

    The reference is the Dirac field of the base constraints alone (the
    field on the momentum level) or the plain Hamiltonian field when the
    slice has no base.  Probes (at least one) must sit on the level
    (base + momentum, residuals at most 1e-6) but may carry offsets along
    the gauge constraints, where genuinely drift-free functions still
    agree and drifting ones separate.  Passes below TAU_TWIN.
    """
    full = slc.full_constraints
    level = slc.level_constraints()
    base = slc.base
    residuals = []
    for x in probe_list(probes):
        x = np.asarray(x, dtype=float)
        lev = np.max(np.abs(level.values(x)))
        if lev > 1e-6:
            raise ValueError("probe off the level set (residual %.3e)"
                             % lev)
        v_slice = dirac_project(F, DiracContext(full, x))
        if base is not None:
            v_level = dirac_project(F, DiracContext(base, x))
        else:
            v_level = J_apply(F.gradient(x))
        residuals.append(float(np.max(np.abs(v_slice - v_level))))
    worst = max(residuals)
    return {
        "max_residual": worst,
        "passed": bool(worst < TAU_TWIN),
        "n_probes": len(residuals),
        "tau_twin": TAU_TWIN,
    }
