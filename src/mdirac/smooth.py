"""Smooth scalar and vector maps on ambient phase space.

A :class:`SmoothMap` bundles value, Jacobian and (optionally) Hessian
evaluation.  Analytic first derivatives are expected from models;
Hessians may fall back to finite differences of the Jacobian, which is
accurate enough for the drift tests and Newton solvers that consume
them.

Convention used everywhere: ambient coordinates are ordered
(q_1..q_m, p_1..p_m) and the canonical matrix is

    J0 = [[0, I], [-I, 0]],

so X_H = J0 grad(H) and {f, g} = grad(f)^T J0 grad(g), which gives
{q_i, p_j} = delta_ij and df/dt = {f, H} along the flow.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from .poly import TruncatedPoly

def phase_point(coords) -> np.ndarray:
    """Validate and return an ambient phase-space point."""
    x = np.asarray(coords, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError("phase point has non-finite entries")
    return x


def canonical_J(m: int) -> np.ndarray:
    """The 2m x 2m canonical matrix [[0, I], [-I, 0]]."""
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


def J_apply(g: np.ndarray) -> np.ndarray:
    """J0 @ g without building the matrix: (q-part, p-part) -> (p, -q)."""
    g = np.asarray(g, dtype=float)
    m = g.size // 2
    return np.concatenate([g[m:], -g[:m]])


class SmoothMap:
    """Scalar or vector smooth function with jet evaluation.

    Parameters
    ----------
    domain_dim, codomain_dim : int
    eval_fn : callable
        Maps an ndarray of shape (domain_dim,) to a float (scalar maps)
        or ndarray of shape (codomain_dim,).
    jacobian_fn : callable, optional
        Returns the (codomain_dim, domain_dim) Jacobian; finite
        differences of eval_fn are used when absent.
    hessian_fn : callable, optional
        Returns an array (codomain_dim, domain_dim, domain_dim); finite
        differences of the Jacobian are used when absent.
    source : str
        One of "Analytic", "FromPoly", "FiniteDifference".
    """

    def __init__(self, domain_dim: int, codomain_dim: int,
                 eval_fn: Callable, jacobian_fn: Optional[Callable] = None,
                 hessian_fn: Optional[Callable] = None,
                 source: str = "Analytic", name: str = ""):
        self.domain_dim = int(domain_dim)
        self.codomain_dim = int(codomain_dim)
        self._eval = eval_fn
        self._jac = jacobian_fn
        self._hess = hessian_fn
        self.source = source
        self.name = name

    # -- evaluation ----------------------------------------------------

    def value(self, x):
        """Value at x: float for scalar maps, (codomain_dim,) array else."""
        x = np.asarray(x, dtype=float)
        v = self._eval(x)
        if self.codomain_dim == 1:
            return float(np.asarray(v).reshape(()))
        return np.asarray(v, dtype=float).reshape(self.codomain_dim)

    __call__ = value

    def jacobian(self, x) -> np.ndarray:
        """(codomain_dim, domain_dim) Jacobian at x."""
        x = np.asarray(x, dtype=float)
        if self._jac is not None:
            J = np.asarray(self._jac(x), dtype=float)
            return J.reshape(self.codomain_dim, self.domain_dim)
        return fd_jet(self, x, order=1)

    def gradient(self, x) -> np.ndarray:
        """Gradient of a scalar map, shape (domain_dim,)."""
        if self.codomain_dim != 1:
            raise ValueError("gradient is defined for scalar maps only")
        return self.jacobian(x).ravel()

    def hessian(self, x) -> np.ndarray:
        """Component Hessians, shape (codomain_dim, domain_dim, domain_dim).

        For scalar maps the leading axis is squeezed.
        """
        x = np.asarray(x, dtype=float)
        if self._hess is not None:
            H = np.asarray(self._hess(x), dtype=float)
            H = H.reshape(self.codomain_dim, self.domain_dim, self.domain_dim)
        elif self._jac is not None:
            H = _fd_of_jacobian(self, x)
        else:
            _, H = fd_jet(self, x, order=2)
        return H[0] if self.codomain_dim == 1 else H

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_callable(cls, f, domain_dim, codomain_dim=1, jac=None, hess=None,
                      name=""):
        src = "Analytic" if jac is not None else "FiniteDifference"
        return cls(domain_dim, codomain_dim, f, jac, hess, source=src, name=name)

    @classmethod
    def from_poly(cls, polys, name="") -> "SmoothMap":
        """Wrap one polynomial (scalar map) or a sequence of them.

        Jets are exact derivatives of the stored polynomials.
        """
        if isinstance(polys, TruncatedPoly):
            polys = [polys]
        polys = list(polys)
        n = polys[0].n_vars
        if any(p.n_vars != n for p in polys):
            raise ValueError("components disagree on variable count")
        k = len(polys)
        derivs = [[p.derivative(i) for i in range(n)] for p in polys]

        def _eval(x):
            return np.array([p.eval(x) for p in polys])

        def _jac(x):
            return np.array([[d.eval(x) for d in row] for row in derivs])

        def _hess(x):
            out = np.empty((k, n, n))
            for c, row in enumerate(derivs):
                for i in range(n):
                    g = row[i].gradient(x)
                    out[c, i, :] = g
            # symmetrize away round-off asymmetry
            return 0.5 * (out + np.swapaxes(out, 1, 2))

        m = cls(n, k, _eval, _jac, _hess, source="FromPoly", name=name)
        m.polys = polys
        return m


def central_difference(f, x, v, h):
    """(f(x + h v) - f(x - h v)) / (2 h), the central difference of f at
    x along v with step h; ValueError when either value is not finite."""
    fp, fm = f(x + h * v), f(x - h * v)
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
        raise ValueError("non-finite evaluation near x")
    return (fp - fm) / (2 * h)


def _fd_of_jacobian(m: SmoothMap, x: np.ndarray) -> np.ndarray:
    """Hessian stack by central differencing of the analytic Jacobian."""
    n = m.domain_dim
    h = 1e-4 * max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    H = np.empty((m.codomain_dim, n, n))
    for j, e in enumerate(np.eye(n)):
        H[:, :, j] = central_difference(m.jacobian, x, e, h)
    return 0.5 * (H + np.swapaxes(H, 1, 2))


def fd_jet(m: SmoothMap, x, order: int = 1):
    """Finite-difference jet oracle.

    order 1 returns the (codomain, domain) Jacobian using central
    differences with step h = 1e-5 * max(1, |x|_inf).  order 2 returns
    (jacobian, hessians) with the second derivatives from nested central
    differences at h = 1e-4 * max(1, |x|_inf).
    """
    x = np.asarray(x, dtype=float)
    n = m.domain_dim

    def vec(z):
        v = m._eval(z)
        return np.asarray(v, dtype=float).reshape(m.codomain_dim)

    scale = max(1.0, float(np.max(np.abs(x))) if x.size else 1.0)
    h1 = 1e-5 * scale
    J = np.empty((m.codomain_dim, n))
    for i, e in enumerate(np.eye(n)):
        J[:, i] = central_difference(vec, x, e, h1)
    if order == 1:
        return J

    h2 = 1e-4 * scale
    H = np.empty((m.codomain_dim, n, n))
    f0 = vec(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h2
        H[:, i, i] = (vec(x + ei) - 2 * f0 + vec(x - ei)) / h2 ** 2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h2
            cross = (vec(x + ei + ej) - vec(x + ei - ej)
                     - vec(x - ei + ej) + vec(x - ei - ej)) / (4 * h2 ** 2)
            H[:, i, j] = cross
            H[:, j, i] = cross
    return J, H


def hamiltonian_vector_field(H: SmoothMap) -> SmoothMap:
    """X_H = J0 grad(H) on canonically paired coordinates (q, p)."""
    if H.codomain_dim != 1:
        raise ValueError("Hamiltonian must be a scalar map")
    if H.domain_dim % 2 != 0:
        raise ValueError("canonical pairing needs an even-dimensional domain")
    n = H.domain_dim
    m = n // 2

    def _eval(x):
        return J_apply(H.gradient(x))

    def _jac(x):
        Hess = H.hessian(x)
        # rows of J0 @ Hess: top block = Hess[m:], bottom = -Hess[:m]
        return np.vstack([Hess[m:, :], -Hess[:m, :]])

    return SmoothMap(n, n, _eval, _jac, source="Analytic",
                     name="X_{%s}" % (H.name or "H"))


def canonical_bracket_value(f: SmoothMap, g: SmoothMap, x) -> float:
    """Pointwise canonical bracket {f, g}(x) = grad(f)^T J0 grad(g)."""
    gf = f.gradient(x)
    gg = g.gradient(x)
    return float(gf @ J_apply(gg))
