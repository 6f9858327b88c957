"""Constraint sets, the Dirac matrix, Dirac projection and bracket.

The central objects: an ordered family of scalar polynomial constraints
phi_1..phi_k on ambient phase space, the antisymmetric matrix
C_ij = {phi_i, phi_j} of their canonical brackets, and the induced Dirac
bracket

    {f, g}_D = {f, g} - sum_ij {f, phi_i} C^ij {phi_j, g},

which restricts the dynamics to the constraint manifold when the family
is second-class (C invertible).  Pointwise, a ``DiracContext`` freezes
the constraint geometry at x, and ``dirac_bracket``, ``dirac_project``
and ``moser_multipliers`` read it; ``dirac_field_callable`` is the
projected field of integrator inner loops, built from a gradient and a
constraint Jacobian.
The truncated-series bracket of the normal-form pipeline, in chart
variables, is ``birkhoff.dirac_chart_structure``, built from the
polynomial matrix helpers below.  Their entries are TruncatedPoly or
real (a constant matrix enters as reals), and every entry of a product
is one ``poly.poly_dot``.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .poly import TruncatedPoly, poly_dot
from .smooth import J_apply, SmoothMap

#: rank / singular-value thresholds (scaled by the matrix norm)
TAU_RANK = 1e-8
TAU_SING = 1e-8
#: a probe is accepted as on the constraint set when all |phi_i| are below
TAU_ON_N = 1e-8
#: first-class threshold on the sup norm of C
TAU_FIRST = 1e-9
#: Newton projection onto {phi = 0}: residual tolerance and step cap
NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 50

FIRST_CLASS = "FirstClass"
SECOND_CLASS = "SecondClass"
MIXED = "Mixed/Degenerate"


class ConstraintSet:
    """Ordered scalar polynomial constraints.

    Parameters
    ----------
    constraints : list of SmoothMap
        Scalar maps on a common ambient space; ``polys`` holds their
        polynomials in the same order, for the series Dirac structure.
        Values and Jacobians go through one vector SmoothMap of
        ``polys``, one jet kernel for the whole set.
    """

    def __init__(self, constraints, names=None):
        constraints = list(constraints)
        if not constraints:
            raise ValueError("constraint set cannot be empty")
        dim = constraints[0].domain_dim
        for c in constraints:
            if c.codomain_dim != 1:
                raise ValueError("constraints must be scalar maps")
            if c.domain_dim != dim:
                raise ValueError("constraints disagree on ambient dimension")
        self.constraints = constraints
        self.dim = dim
        self.k = len(constraints)
        self.polys = [c.polys[0] for c in constraints]
        self._map = SmoothMap(self.polys)
        self.names = list(names) if names else ["phi%d" % i for i in range(self.k)]

    @classmethod
    def from_polys(cls, polys, names=None):
        return cls([SmoothMap.from_poly(p) for p in polys], names=names)

    def values(self, x) -> np.ndarray:
        """Constraint values, shape (k,)."""
        return np.atleast_1d(self._map.value(x))

    def jacobian(self, x) -> np.ndarray:
        """Stacked constraint gradients, shape (k, dim)."""
        return self._map.jacobian(x)

    def centered_polys(self, x0, max_degree):
        """Polynomial forms recentred at x0 and truncated at max_degree:
        phi_i(x0 + u)."""
        return [p.shifted(x0).truncated(max_degree) for p in self.polys]

    def subset(self, idx):
        """The constraints at positions idx."""
        return ConstraintSet([self.constraints[i] for i in idx],
                             names=[self.names[i] for i in idx])

    def concat(self, other: "ConstraintSet") -> "ConstraintSet":
        if other.dim != self.dim:
            raise ValueError("ambient dimensions differ")
        return ConstraintSet(self.constraints + other.constraints,
                             names=self.names + other.names)


class DiracContext:
    """Constraint geometry frozen at a point: the gradients G, the
    constraint fields XG (rows X_phi_i), C = G XG^T, its inverse and
    the class, each evaluated once.

    ``cs`` is any object with ``jacobian(x)`` and ``k``: a ConstraintSet,
    or a ``models.CallableConstraints`` over one's values and Jacobian.
    ``C_inv`` is None unless the set is second-class at the point (one
    gesv solve against the identity, the LU kernel
    ``dirac_field_callable`` uses).
    Immutable after construction except for the caches of
    :meth:`gradient` and :meth:`bracket_vectors`, which only grow.
    """

    def __init__(self, cs, x):
        self.cs = cs
        self.x = np.asarray(x, dtype=float)
        G = np.asarray(cs.jacobian(self.x), dtype=float)   # (k, n)
        if not np.all(np.isfinite(G)):
            raise ValueError("non-finite constraint gradients at x")
        self.G = G
        # the set's jet kernel runs each constraint's gradient statements,
        # so the rows of G are their gradients at x bit for bit
        self._gradients = {}
        self._vectors = {}
        if isinstance(cs, ConstraintSet):
            for phi, row in zip(cs.constraints, G):
                row.flags.writeable = False
                self._gradients[phi] = row
        self.XG = J_apply(G)               # rows X_phi_i = J0 grad(phi_i)
        C = G @ self.XG.T                  # C_ij = {phi_i, phi_j}
        skew_defect = np.max(np.abs(C + C.T))
        if skew_defect > 1e-10 * max(1.0, np.max(np.abs(C))):
            raise ValueError("constraint matrix lost antisymmetry (defect %g)"
                             % skew_defect)
        C = self.C = 0.5 * (C - C.T)
        self.rank_dphi = _rank(_singular_values(G), TAU_RANK)
        sv_C = _singular_values(C)
        smax = sv_C[0] if sv_C.size else 0.0
        smin = self.sigma_min = sv_C[-1] if sv_C.size else 0.0
        self.cond = (smax / smin) if smin > 0 else np.inf
        if self.rank_dphi < cs.k:
            self.classification = MIXED
        elif np.max(np.abs(C)) < TAU_FIRST:
            self.classification = FIRST_CLASS
        elif smin > TAU_SING * max(1.0, smax):
            self.classification = SECOND_CLASS
        else:
            self.classification = MIXED
        if self.classification == SECOND_CLASS:
            self.C_inv = _solve_square(C, np.eye(cs.k))
        else:
            self.C_inv = None

    def gradient(self, f: SmoothMap) -> np.ndarray:
        """f.gradient(x), evaluated once per map object; the array is
        shared, so it is read-only."""
        g = self._gradients.get(f)
        if g is None:
            g = self._gradients[f] = f.gradient(self.x)
            g.flags.writeable = False
        return g

    def bracket_vectors(self, f: SmoothMap):
        """(grad f, J0 grad f, {f, phi_i}, {f, phi_i} C^ij) at x, formed
        once per map object: {f, phi} = XG grad f, and the last is
        ({f, phi}) C^-1.  The arrays are shared, so they are read-only.
        Requires a second-class set."""
        v = self._vectors.get(f)
        if v is None:
            self.require_second_class()
            gf = self.gradient(f)
            bf = self.XG @ gf
            v = self._vectors[f] = (gf, J_apply(gf), bf, bf @ self.C_inv)
            for a in v:
                a.flags.writeable = False
        return v

    def require_second_class(self):
        if self.classification != SECOND_CLASS:
            raise ValueError("constraint set is %s (second-class required) "
                             "at x = %s" % (self.classification, self.x))


def classify(cs: ConstraintSet, probes) -> str:
    """Classify the set over a family of probe points on N."""
    seen = set()
    for x in probe_list(probes):
        vals = cs.values(x)
        if np.max(np.abs(vals)) > TAU_ON_N:
            raise ValueError("probe is off the constraint set: max |phi| = %g"
                             % np.max(np.abs(vals)))
        seen.add(DiracContext(cs, x).classification)
    if seen == {FIRST_CLASS}:
        return FIRST_CLASS
    if seen == {SECOND_CLASS}:
        return SECOND_CLASS
    return MIXED


def dirac_project(f: SmoothMap, ctx: DiracContext) -> np.ndarray:
    """The Dirac-projected Hamiltonian vector field of f at ctx.x:

        P_N(X_f) = X_f - sum_ij {f, phi_i} C^ij X_phi_j.

    The result is tangent to N: d(phi_k) applied to it vanishes.
    """
    _, Jf, _, coef = ctx.bracket_vectors(f)    # coef = {f, phi_i} C^ij
    return Jf - coef @ ctx.XG


def dirac_bracket(f: SmoothMap, g: SmoothMap, ctx: DiracContext) -> float:
    """{f, g}_D at ctx.x."""
    gf, _, _, wf = ctx.bracket_vectors(f)     # wf = {f, phi_i} C^ij
    _, Jg, bg, _ = ctx.bracket_vectors(g)     # bg = {g, phi_j}
    # {f, g} - wf {phi_j, g}, with {phi_j, g} = -{g, phi_j}
    return float(gf @ Jg) - float(wf @ -bg)


def moser_multipliers(H: SmoothMap, ctx: DiracContext) -> np.ndarray:
    """Multipliers lambda with {H, G_k} = sum_s lambda_s {G_s, G_k}.

    The modified field X_H - sum lambda_s X_{G_s} is tangent to N and
    coincides with dirac_project(H, ctx).
    """
    b = ctx.bracket_vectors(H)[2]              # {H, phi_i}
    return _solve_square(ctx.C.T, b)


def dirac_field_callable(gradient, constraint_jacobian):
    """The field of dirac_project as a function of the point, for
    integrator inner loops.

    gradient(x) is grad(H) and constraint_jacobian(x) the stacked
    constraint gradients G, such as ``SmoothMap.gradient`` and
    ``ConstraintSet.jacobian``; with the constraint fields XG of
    DiracContext the projected field is

        X_D = X_H - XG^T C^{-1} G X_H,  X_H = J0 grad H,  C = G XG^T,

    which agrees with dirac_project pointwise at second-class points but
    builds no context, caches nothing and skips the classification: one
    LAPACK gesv solve per evaluation, RuntimeError where C is singular
    (the set is not second-class at x).
    """
    def _field(x):
        Xf = J_apply(gradient(x))
        G = constraint_jacobian(x)
        XG = J_apply(G)
        y = _solve_square(G @ XG.T, G @ Xf)
        return Xf - y @ XG

    return _field


# ----------------------------------------------------------------------
# polynomial matrix helpers (shared with the normal-form pipeline)
# ----------------------------------------------------------------------


def poly_mat_mul(A, B, zero):
    """Product of object-dtype matrices whose entries are TruncatedPoly or
    real; an entry with no nonzero term pair is ``zero``."""
    A = np.asarray(A, dtype=object)
    B = np.asarray(B, dtype=object)
    n, m = A.shape
    m2, r = B.shape
    if m != m2:
        raise ValueError("shape mismatch")
    out = np.empty((n, r), dtype=object)
    for i in range(n):
        for j in range(r):
            out[i, j] = poly_dot(A[i], B[:, j], zero)
    return out


def poly_antisymmetric(n, upper, zero):
    """n x n antisymmetric object matrix from its strict upper triangle,
    given row by row; the diagonal is ``zero``."""
    out = np.full((n, n), zero, dtype=object)
    upper = iter(upper)
    for a in range(n):
        for c in range(a + 1, n):
            out[a, c] = next(upper)
            out[c, a] = -out[a, c]
    return out


def poly_congruence(A, Pi, zero):
    """A Pi A^T for an antisymmetric object matrix Pi, exactly
    antisymmetric: A Pi is formed once, then only the upper triangle of
    the product with A^T, which is mirrored.  A may hold TruncatedPoly or
    real entries; ``zero`` is the zero polynomial of the result."""
    A = np.asarray(A, dtype=object)
    AP = poly_mat_mul(A, Pi, zero)
    p = AP.shape[0]
    return poly_antisymmetric(
        p, (poly_dot(AP[a], A[c], zero) for a in range(p)
            for c in range(a + 1, p)), zero)


def poly_mat_neumann_inverse(Cpoly, max_degree):
    """Truncated inverse of a polynomial matrix with invertible constant
    part C0:

        C(u)^-1 = C0^-1 sum_m (-(C(u) - C0) C0^-1)^m,

    terms dropped once their minimum degree exceeds the truncation.  The
    constant matrices C0^-1 and I enter the products as reals.
    """
    Cpoly = np.asarray(Cpoly, dtype=object)
    k = Cpoly.shape[0]
    n_vars = Cpoly[0, 0].n_vars
    zero = TruncatedPoly.zero(n_vars, max_degree)
    C0 = np.array([[Cpoly[i, j].coefficient((0,) * n_vars)
                    for j in range(k)] for i in range(k)])
    if abs(np.linalg.det(C0)) < 1e-300 or np.linalg.cond(C0) > 1e12:
        raise ValueError("constant part of the constraint matrix is singular")
    C0inv = np.linalg.inv(C0)
    E = [[Cpoly[i, j] - float(C0[i, j]) for j in range(k)] for i in range(k)]
    minusEC0inv = poly_mat_mul(E, -C0inv, zero)
    powers, power = [], np.eye(k)
    for _ in range(max_degree):
        power = poly_mat_mul(power, minusEC0inv, zero)
        if all(power[i, j].is_zero() for i in range(k) for j in range(k)):
            break
        powers.append(power)
    # I + sum of the powers; the identity entry leads each sum
    ones = [1.0] * (len(powers) + 1)
    total = [[poly_dot(ones, [TruncatedPoly.constant(float(i == j), n_vars,
                                                     max_degree)]
                       + [P[i, j] for P in powers], zero)
              for j in range(k)] for i in range(k)]
    return poly_mat_mul(C0inv, total, zero)


def poly_gradient_fields(polys):
    """For ambient constraint polynomials, the component polynomials of
    X_phi_i = J0 grad(phi_i); returns an object array of shape (k, n)."""
    k = len(polys)
    n = polys[0].n_vars
    m = n // 2
    out = np.empty((k, n), dtype=object)
    for i, p in enumerate(polys):
        d = [p.derivative(v) for v in range(n)]
        for a in range(m):
            out[i, a] = d[m + a]
            out[i, m + a] = -d[a]
    return out


def poly_constraint_matrix(X):
    """C_ij = {phi_i, phi_j} = grad(phi_i) . X_phi_j from the constraint
    fields X of poly_gradient_fields, using grad(phi_i) = (-X_i[m:],
    X_i[:m]); built on the upper triangle and mirrored."""
    k, n = X.shape
    m = n // 2
    zero = X[0, 0] * 0.0
    upper = (poly_dot(X[i, :m], X[j, m:], zero)
             - poly_dot(X[i, m:], X[j, :m], zero)
             for i in range(k) for j in range(i + 1, k))
    return poly_antisymmetric(k, upper, zero)


def singularity_diagnostics(cs: ConstraintSet, x) -> dict:
    """Detection-only report at x: Jacobian rank, sigma_min of C, flags.

    Flags: ``not_regular_level`` when the constraint Jacobian drops
    rank, ``not_second_class`` when the set is not second-class at x.
    """
    ctx = DiracContext(cs, x)
    flags = []
    if ctx.rank_dphi < cs.k:
        flags.append("not_regular_level")
    if ctx.classification != SECOND_CLASS:
        flags.append("not_second_class")
    return {
        "point": [float(v) for v in ctx.x],
        "rank_dphi": ctx.rank_dphi,
        "sigma_min_C": float(ctx.sigma_min),
        "cond_C": float(ctx.cond),
        "flags": flags,
    }


# ----------------------------------------------------------------------
# probe utilities
# ----------------------------------------------------------------------


def _singular_values(A):
    """Singular values of A, largest first, by LAPACK's gesdd without
    vectors: scipy.linalg.svdvals(A) bit for bit without its per-call
    overhead.  Its refusals are kept: ValueError on non-finite input,
    LinAlgError when gesdd fails."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    _, s, _, info = scipy.linalg.lapack.dgesdd(A, compute_uv=0,
                                               full_matrices=0)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge (gesdd info %d)"
                                    % info)
    return s


def _rank(s, tol) -> int:
    """Count of singular values s (largest first) above tol * max(1, s[0])."""
    return int(np.sum(s > tol * max(1.0, s[0] if s.size else 0.0)))


def _null_space(A, tol) -> np.ndarray:
    """Orthonormal columns spanning ker A: the right singular vectors
    past _rank(s, tol), by gesdd with full vectors, np.linalg.svd(A) and
    scipy.linalg.svd(A) bit for bit.  (Its s differ in the last bits
    from _singular_values(A).)  Refusals as in _singular_values."""
    if not np.isfinite(A).all():
        raise ValueError("array must not contain infs or NaNs")
    _, s, vt, info = scipy.linalg.lapack.dgesdd(A, compute_uv=1,
                                                full_matrices=1)
    if info != 0:
        raise np.linalg.LinAlgError("SVD did not converge (gesdd info %d)"
                                    % info)
    return vt[_rank(s, tol):].T


def _solve_square(A, b):
    """A^-1 b by LAPACK's gesv (LU with partial pivoting), which is
    np.linalg.solve(A, b) bit for bit, and getrf then getrs as in
    scipy.linalg.lu_factor/lu_solve and scipy.linalg.solve, without
    their per-call overhead.  A is a constraint matrix C or its
    transpose; RuntimeError when it is exactly singular, that is, when
    the set is not second-class at the point."""
    _, _, y, info = scipy.linalg.lapack.dgesv(A, b)
    if info != 0:
        raise RuntimeError("constraint matrix C is singular: the constraint "
                           "set is not second-class at x")
    return y


def _solve_gram(A, b):
    """A^-1 b for a Gram matrix A by LAPACK's Cholesky posv, which is
    scipy.linalg.solve(A, b, assume_a="pos") bit for bit without its
    per-call overhead.  Its refusals are kept: ValueError on non-finite
    input, RuntimeError when A is not positive definite, LinAlgWarning
    when the reciprocal condition number is below machine epsilon."""
    if not (np.isfinite(A).all() and np.isfinite(b).all()):
        raise ValueError("non-finite constraint values or gradients")
    factor, y, info = scipy.linalg.lapack.dposv(A, b)
    if info != 0:
        raise RuntimeError("constraint projection failed: singular "
                           "gradient Gram matrix")
    rcond, _ = scipy.linalg.lapack.dpocon(
        factor, scipy.linalg.lapack.dlange("1", A))
    if rcond < np.finfo(float).eps:
        warnings.warn("ill-conditioned gradient Gram matrix (rcond = %g)"
                      % rcond, scipy.linalg.LinAlgWarning, stacklevel=3)
    return y


def project_to_constraints(cs, x):
    """Newton projection onto {phi = 0} along the constraint gradients:
    solve phi(x + G^T lam) = 0 via (G G^T) lam = -phi.

    ``cs`` needs only ``values(x)`` and ``jacobian(x)``.  Raises
    ValueError on non-finite values or gradients, RuntimeError when the
    Gram matrix G G^T is singular or the residual does not drop below
    NEWTON_TOL within NEWTON_MAX_ITER steps.
    """
    x = np.array(x, dtype=float)
    for _ in range(NEWTON_MAX_ITER):
        r = np.asarray(cs.values(x), dtype=float)
        if abs(r).max() < NEWTON_TOL:
            return x
        G = np.asarray(cs.jacobian(x), dtype=float)
        x = x + G.T @ _solve_gram(G @ G.T, -r)
    r = np.asarray(cs.values(x), dtype=float)
    if abs(r).max() < NEWTON_TOL:
        return x
    raise RuntimeError("constraint projection did not converge "
                       "(residual %g)" % abs(r).max())


def probe_list(probes) -> list:
    """The probes as a list, read once; ValueError when there are none."""
    probes = list(probes)
    if not probes:
        raise ValueError("need at least one probe")
    return probes


def sample_probes(cs: ConstraintSet, x0, n_probes, radius, seed):
    """Seeded Gaussian perturbations of x0 projected back onto N."""
    rng = np.random.default_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    out = []
    for _ in range(n_probes):
        y = x0 + radius * rng.standard_normal(x0.size)
        out.append(project_to_constraints(cs, y))
    return out
