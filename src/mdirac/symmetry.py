"""Group actions, momentum maps, slice models and locked inertia.

Only abelian actions with linear generators are supported: every model
in the suite is an S^1 (or R^k) action, cotangent-lifted from a linear
configuration action.  The lift convention is

    a on Q  ->  (a q, -a^T p) on T*Q,

whose momentum map components are J_i(q, p) = p . (a_i q).  The level
constraints Phi_i = J_i - mu_i are first-class among themselves; a
local slice through x0 is cut by affine functions

    Upsilon_j(x) = w_j . (x - x0).

For the generator directions w_j = X_{Phi_j}(x0), the cross matrix
B_ji = {Upsilon_j, Phi_i}(x0) is the Gram matrix of the generator
vectors, invertible exactly when the action is locally free at x0.
"""

from __future__ import annotations

import numpy as np

from .dirac import (
    ConstraintSet,
    DiracContext,
    TAU_ON_N,
    TAU_SING,
    _null_space,
    _singular_values,
    _solve_square,
    dirac_bracket,
    probe_list,
)
from .poly import TruncatedPoly, DEFAULT_MAX_DEGREE
from .smooth import (
    SmoothMap,
    canonical_J,
    canonical_bracket_value,
    central_difference,
)

TAU_DRIFT = 1e-7
TAU_STAT = 1e-8


class NotLocallyFreeError(ValueError):
    """The action has a fixed point (or dependent generators) at the
    requested base point, so no slice can be built there."""


class GroupAction:
    """Abelian linear action on phase space.

    Parameters
    ----------
    config_generators : list of (m, m) arrays
        Generators a_i of the configuration action; the phase-space
        generator is the cotangent lift blockdiag(a_i, -a_i^T).
    """

    def __init__(self, config_generators):
        self.config_generators = [np.asarray(a, dtype=float)
                                  for a in config_generators]
        if not self.config_generators:
            raise ValueError("need at least one generator")
        m = self.config_generators[0].shape[0]
        for a in self.config_generators:
            if a.shape != (m, m):
                raise ValueError("generators must be square and same size")
        for i, a in enumerate(self.config_generators):
            for b in self.config_generators[i + 1:]:
                if np.max(np.abs(a @ b - b @ a)) > 1e-12:
                    raise ValueError("generators do not commute (abelian "
                                     "actions only)")
        self.config_dim = m
        self.phase_dim = 2 * m
        self.group_dim = len(self.config_generators)

    def phase_generator(self, i: int) -> np.ndarray:
        """Lifted generator matrix blockdiag(a_i, -a_i^T)."""
        a = self.config_generators[i]
        m = self.config_dim
        A = np.zeros((2 * m, 2 * m))
        A[:m, :m] = a
        A[m:, m:] = -a.T
        return A

    def generator_field(self, i: int, x) -> np.ndarray:
        """xi_{i,M}(x) = A_i x."""
        return self.phase_generator(i) @ np.asarray(x, dtype=float)

    def momentum_polys(self):
        """J_i(q, p) = p . (a_i q) as ambient polynomials, truncated at
        poly.DEFAULT_MAX_DEGREE."""
        m = self.config_dim
        n = 2 * m
        out = []
        for a in self.config_generators:
            terms = {}
            for r in range(m):
                for c in range(m):
                    if a[r, c] == 0.0:
                        continue
                    exp = [0] * n
                    exp[m + r] += 1   # p_r
                    exp[c] += 1       # q_c
                    key = tuple(exp)
                    terms[key] = terms.get(key, 0.0) + a[r, c]
            out.append(TruncatedPoly(n, DEFAULT_MAX_DEGREE, terms))
        return out


class MomentumData:
    """Momentum map components, level value and constraints Phi = J - mu
    (from ``action.momentum_polys``)."""

    def __init__(self, action: GroupAction, mu):
        self.action = action
        self.mu = np.atleast_1d(np.asarray(mu, dtype=float))
        if self.mu.size != action.group_dim:
            raise ValueError("one level value per generator required")
        self.J_polys = action.momentum_polys()
        self.Phi_polys = [p - float(v) for p, v in zip(self.J_polys, self.mu)]
        self.Phi = [SmoothMap.from_poly(p) for p in self.Phi_polys]


class SliceModel:
    """The combined second-class model at x0: base constraints realizing
    the ambient manifold, momentum constraints Phi, and affine slice
    functions Upsilon."""

    def __init__(self, x0, base: ConstraintSet | None, momentum: MomentumData,
                 upsilon_cs: ConstraintSet, W: np.ndarray, B: np.ndarray):
        self.x0 = np.asarray(x0, dtype=float)
        self.base = base
        self.upsilon_cs = upsilon_cs
        self.Upsilon = upsilon_cs.constraints
        self.W = W
        self.B = B
        phi_cs = ConstraintSet(momentum.Phi,
                               names=["Phi%d" % i
                                      for i in range(len(momentum.Phi))])
        if base is not None:
            self.full_constraints = base.concat(phi_cs).concat(upsilon_cs)
            self.n_base = base.k
        else:
            self.full_constraints = phi_cs.concat(upsilon_cs)
            self.n_base = 0
        self.n_phi = len(momentum.Phi)

    def level_constraints(self) -> ConstraintSet:
        """Base plus momentum constraints (the level Z, no slice cut)."""
        idx = list(range(self.n_base + self.n_phi))
        return self.full_constraints.subset(idx)

    def m_bracket(self, f: SmoothMap, g: SmoothMap, x) -> float:
        """The manifold bracket {f,g}_M at x: the base-constraint Dirac
        bracket when base constraints exist, else canonical."""
        if self.base is None:
            return canonical_bracket_value(f, g, x)
        return dirac_bracket(f, g, DiracContext(self.base, x))


def _locally_free_generators(action, x0) -> np.ndarray:
    """Generator fields at x0 as rows; raises NotLocallyFreeError when
    their Gram matrix is singular (x0 is a fixed point of the action or
    the generators are dependent there)."""
    gens = np.vstack([action.generator_field(i, x0)
                      for i in range(action.group_dim)])
    sv = _singular_values(gens @ gens.T)
    if sv[-1] <= TAU_SING * max(1.0, sv[0]):
        raise NotLocallyFreeError(
            "action is not locally free at x0 (generator Gram sigma_min "
            "= %g): no slice exists at a fixed point" % sv[-1])
    return gens


def build_slice(base_constraints, momentum: MomentumData, x0,
                W) -> SliceModel:
    """Construct the slice model at x0, cut by Upsilon_j(x) = w_j .
    (x - x0) for the rows w_j of W, truncated at poly.DEFAULT_MAX_DEGREE.

    For the generator fields w_j = X_{Phi_j}(x0), the cross matrix B is
    the generator Gram matrix, invertible iff the action is locally free
    at x0.
    """
    x0 = np.asarray(x0, dtype=float)
    vals = [phi.value(x0) for phi in momentum.Phi]
    if base_constraints is not None:
        vals = list(base_constraints.values(x0)) + vals
    if np.max(np.abs(vals)) > TAU_ON_N:
        raise ValueError("x0 violates the constraints (max residual %g)"
                         % np.max(np.abs(vals)))
    _locally_free_generators(momentum.action, x0)
    ups_polys = []
    for w in W:
        lin = TruncatedPoly.from_linear(w, DEFAULT_MAX_DEGREE)
        ups_polys.append(lin - float(w @ x0))
    ups_cs = ConstraintSet.from_polys(
        ups_polys, names=["Ups%d" % j for j in range(len(ups_polys))])
    # cross matrix in the manifold bracket
    tmp = SliceModel(x0, base_constraints, momentum, ups_cs, W,
                     B=np.zeros((len(ups_polys), len(momentum.Phi))))
    B = np.array([[tmp.m_bracket(u, phi, x0) for phi in momentum.Phi]
                  for u in ups_cs.constraints])
    svB = _singular_values(B)
    if svB[-1] <= TAU_SING * max(1.0, svB[0]):
        raise NotLocallyFreeError("slice cross matrix B is singular "
                                  "(sigma_min = %g)" % svB[-1])
    tmp.B = B
    return tmp


def adapted_slice_directions(S_aug, base_constraints, action,
                             x0) -> np.ndarray:
    """Slice directions adapted to a quadratic form at x0.

    The generator-direction slice is transverse but generally not energy
    adapted: for the quadratic part H_2 of the Hamiltonian, the bracket
    {Upsilon_j, H_2}_M picks up a term linear in the slice coordinates,
    so the drift check fails at first order.  The adapted directions
    block-diagonalize S_aug (the Hessian of the multiplier-augmented
    Hamiltonian at x0) between the group orbit and the slice tangent.

    With T an orthonormal basis of ker d(base constraints) at x0, xi_i
    the generator fields and J the canonical symplectic matrix, solve

        (T^T S_aug T) v_i = T^T (J xi_i),

    normalize the solutions so that omega(xi_i, v_j) = delta_ij, and
    return the rows w_i = J v_i, the directions of ``build_slice``.  The
    affine functions w_i . (x - x0) then cut a slice with B = identity
    on which the mixed Hessian block vanishes.

    Raises
    ------
    NotLocallyFreeError
        if x0 is a fixed point of the action.
    ValueError
        if the reduced linear system is inconsistent beyond a relative
        residual of 1e-8; this happens when x0 is not a critical point
        of the locked inertia, and no adapted slice exists there.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    J = canonical_J(n // 2)
    S_aug = np.asarray(S_aug, dtype=float)
    gens = _locally_free_generators(action, x0)
    if base_constraints is not None:
        T = _null_space(base_constraints.jacobian(x0), TAU_SING)
    else:
        T = np.eye(n)
    Sr = T.T @ S_aug @ T
    rhs = T.T @ (J @ gens.T)
    V = np.linalg.lstsq(Sr, rhs, rcond=None)[0]
    defect = float(np.max(np.abs(Sr @ V - rhs)))
    if defect > 1e-8 * max(1.0, float(np.max(np.abs(rhs)))):
        raise ValueError(
            "no adapted slice at x0: the reduced Hessian system is "
            "inconsistent (residual %g); x0 does not look like a "
            "critical point of the locked inertia" % defect)
    Vamb = T @ V
    Om = gens @ (J @ Vamb)
    svO = _singular_values(Om)
    if svO[-1] <= TAU_SING * max(1.0, svO[0]):
        raise ValueError("adapted directions pair degenerately with the "
                         "generators (sigma_min %g)" % svO[-1])
    Vamb = Vamb @ _solve_square(Om, np.eye(len(Om)))
    return (J @ Vamb).T


def check_drift_free(F: SmoothMap, slc: SliceModel, probes) -> dict:
    """Residuals of {Upsilon_j, F}_M at probes on the slice, plus the
    first-order (Hessian cross-block) defect at x0.

    Drift-free means every residual is below TAU_DRIFT (at least one
    probe is required).  The cross block differentiates g_j(x) =
    {Upsilon_j, F}_M(x) along a basis of the slice tangent space at x0
    (central differences, step 1e-5); for quadratic F this is the mixed
    Hessian block whose vanishing is the drift-free criterion.
    """
    probes = probe_list(probes)
    residuals = []
    for x in probes:
        vals = slc.full_constraints.values(x)
        if np.max(np.abs(vals)) > 10 * TAU_ON_N:
            raise ValueError("probe off the slice constraint set "
                             "(residual %g)" % np.max(np.abs(vals)))
        for u in slc.Upsilon:
            residuals.append(abs(slc.m_bracket(u, F, x)))
    max_res = max(residuals)
    # slice tangent basis = kernel of the full constraint Jacobian at x0
    kernel = _null_space(slc.full_constraints.jacobian(slc.x0), 1e-10)
    cross = np.array([[central_difference(lambda x: slc.m_bracket(u, F, x),
                                          slc.x0, v, 1e-5)
                       for v in kernel.T] for u in slc.Upsilon])
    cross_norm = float(np.max(np.abs(cross))) if cross.size else 0.0
    return {
        "max_residual": float(max_res),
        "is_drift_free": bool(max_res < TAU_DRIFT),
        "hessian_cross_block": cross_norm,
        "n_probes": len(probes),
    }


class LockedInertia:
    """Locked inertia tensor of a lifted action:
    I(q)_ij = g_q(xi_{i,Q}(q), xi_{j,Q}(q)) for the kinetic metric g_q."""

    def __init__(self, metric, action: GroupAction):
        self.metric = metric          # q -> (m, m) SPD matrix
        self.action = action

    def value(self, q) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        gq = self.metric(q)
        gens = [a @ q for a in self.action.config_generators]
        k = len(gens)
        out = np.empty((k, k))
        for i in range(k):
            for j in range(i, k):
                out[i, j] = out[j, i] = gens[i] @ gq @ gens[j]
        return out


def stationarity_test(li: LockedInertia, q0, slice_dirs) -> dict:
    """Directional derivatives of every locked-inertia component along
    the configuration slice directions (central differences, step 1e-6);
    stationary iff all below TAU_STAT."""
    q0 = np.asarray(q0, dtype=float)
    worst = 0.0
    for d in slice_dirs:
        deriv = central_difference(li.value, q0,
                                   np.asarray(d, dtype=float), 1e-6)
        worst = max(worst, float(np.max(np.abs(deriv))))
    return {
        "max_directional_derivative": worst,
        "stationary": bool(worst < TAU_STAT),
    }
