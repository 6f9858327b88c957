"""Polynomial maps on ambient phase space with exact jets.

A :class:`SmoothMap` is a scalar or vector map whose components are
TruncatedPoly; its value and Jacobian are one call of the map's
``poly.JetKernel``, made from all its components, and its Hessian runs
the gradient kernels of the derivative polynomials, so every jet is
exact.  ``fd_jet`` is the one finite-difference Jacobian, of any
callable: the oracle the tests and the hygiene audit compare the exact
jets against.

Convention used everywhere: ambient coordinates are ordered
(q_1..q_m, p_1..p_m) and the canonical matrix is

    J0 = [[0, I], [-I, 0]],

so X_H = J0 grad(H) and {f, g} = grad(f)^T J0 grad(g), which gives
{q_i, p_j} = delta_ij and df/dt = {f, H} along the flow.
"""

from __future__ import annotations

import functools

import numpy as np

from .poly import JetKernel, TruncatedPoly


def canonical_J(m: int) -> np.ndarray:
    """The 2m x 2m canonical matrix [[0, I], [-I, 0]]."""
    J = np.zeros((2 * m, 2 * m))
    J[:m, m:] = np.eye(m)
    J[m:, :m] = -np.eye(m)
    return J


@functools.lru_cache(maxsize=None)
def canonical_swap(n: int):
    """The index permutation and +-1 signs with g[perm] * sign == J0 g
    for g of length n, bit for bit: x * -1.0 is -x, signed zeros
    included."""
    m = n // 2
    perm = np.r_[m:n, 0:m]
    sign = np.r_[np.ones(n - m), -np.ones(m)]
    perm.flags.writeable = sign.flags.writeable = False
    return perm, sign


def J_apply(g: np.ndarray) -> np.ndarray:
    """J0 applied along the last axis of a float array g without
    building the matrix, (q-part, p-part) -> (p, -q), as a new C-ordered
    array: J0 @ g for a vector, and the rows J0 g_i for a stack of rows."""
    perm, sign = canonical_swap(g.shape[-1])
    out = g.take(perm, axis=-1)
    out *= sign
    return out


class SmoothMap:
    """Scalar or vector polynomial map with exact jets.

    Attributes
    ----------
    polys : list of TruncatedPoly
        The components, on a common variable count.
    domain_dim, codomain_dim : int
    derivatives : list of list of TruncatedPoly
        derivatives[c][i] is the partial of component c in variable i.
    """

    def __init__(self, polys):
        if isinstance(polys, TruncatedPoly):
            polys = [polys]
        self.polys = list(polys)
        n = self.polys[0].n_vars
        if any(p.n_vars != n for p in self.polys):
            raise ValueError("components disagree on variable count")
        self.domain_dim = n
        self.codomain_dim = len(self.polys)
        self._jets = JetKernel([p.terms for p in self.polys], n)

    @functools.cached_property
    def derivatives(self):
        return [[p.derivative(i) for i in range(self.domain_dim)]
                for p in self.polys]

    @classmethod
    def from_poly(cls, polys) -> "SmoothMap":
        """The map of one polynomial (a scalar map) or of a sequence of
        them (a vector map)."""
        return cls(polys)

    def value(self, x):
        """Value at x: float for scalar maps, (codomain_dim,) array else."""
        v = self._jets(0, x)
        return float(v[0]) if self.codomain_dim == 1 else np.array(v)

    __call__ = value

    def jacobian(self, x) -> np.ndarray:
        """(codomain_dim, domain_dim) Jacobian at x, the gradients of
        the components as rows."""
        return np.array(self._jets(1, x), dtype=float)

    def gradient(self, x) -> np.ndarray:
        """Gradient of a scalar map, shape (domain_dim,)."""
        if self.codomain_dim != 1:
            raise ValueError("gradient is defined for scalar maps only")
        return self.jacobian(x)[0]

    def hessian(self, x) -> np.ndarray:
        """Component Hessians, shape (codomain_dim, domain_dim, domain_dim).

        For scalar maps the leading axis is squeezed.
        """
        H = np.array([[d.gradient(x) for d in row]
                      for row in self.derivatives])
        # symmetrize away round-off asymmetry
        H = 0.5 * (H + np.swapaxes(H, 1, 2))
        return H[0] if self.codomain_dim == 1 else H


def central_difference(f, x, v, h):
    """(f(x + h v) - f(x - h v)) / (2 h), the central difference of f at
    x along v with step h; ValueError when either value is not finite."""
    fp, fm = f(x + h * v), f(x - h * v)
    if not (np.all(np.isfinite(fp)) and np.all(np.isfinite(fm))):
        raise ValueError("non-finite evaluation near x")
    return (fp - fm) / (2 * h)


def fd_jet(f, x) -> np.ndarray:
    """Finite-difference Jacobian of the callable f at x, shape
    (codomain, domain): central differences with step
    h = 1e-5 * max(1, |x|_inf)."""
    x = np.asarray(x, dtype=float)
    h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
    cols = [np.atleast_1d(central_difference(f, x, e, h))
            for e in np.eye(x.size)]
    return np.stack(cols, axis=1)


def hamiltonian_vector_field(H: SmoothMap) -> SmoothMap:
    """X_H = J0 grad(H) = (dH/dp, -dH/dq) on canonically paired
    coordinates (q, p), as the polynomial map of those partials."""
    if H.codomain_dim != 1:
        raise ValueError("Hamiltonian must be a scalar map")
    if H.domain_dim % 2 != 0:
        raise ValueError("canonical pairing needs an even-dimensional domain")
    d = H.derivatives[0]
    m = H.domain_dim // 2
    return SmoothMap.from_poly(d[m:] + [-di for di in d[:m]])


def canonical_bracket_value(f: SmoothMap, g: SmoothMap, x) -> float:
    """Pointwise canonical bracket {f, g}(x) = grad(f)^T J0 grad(g)."""
    gf = f.gradient(x)
    gg = g.gradient(x)
    return float(gf @ J_apply(gg))
