"""Tests for smooth maps, finite-difference jets and Hamiltonian fields."""

import numpy as np
import pytest

from mdirac.models import DspParams, dsp_equilibria, dsp_slice
from mdirac.poly import TruncatedPoly
from mdirac.smooth import (
    SmoothMap,
    canonical_J,
    canonical_bracket_value,
    fd_jet,
    hamiltonian_vector_field,
    J_apply,
)


def test_canonical_J_blocks():
    J = canonical_J(2)
    np.testing.assert_allclose(J[:2, 2:], np.eye(2))
    np.testing.assert_allclose(J[2:, :2], -np.eye(2))
    np.testing.assert_allclose(J @ J, -np.eye(4))


def test_J_apply_matches_matrix():
    rng = np.random.default_rng(5)
    g = rng.standard_normal(6)
    np.testing.assert_allclose(J_apply(g), canonical_J(3) @ g)


def test_J_apply_keeps_signed_zeros():
    g = np.array([0.0, -0.0, 2.0, -0.0, 0.0, -1.5])
    want = np.concatenate([g[3:], -g[:3]])
    assert J_apply(g).tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# finite-difference jets
# ----------------------------------------------------------------------


def _vars(n, K):
    return [TruncatedPoly.variable(i, n, K) for i in range(n)]


def test_fd_jet_square():
    (x0,) = _vars(1, 4)
    f = SmoothMap.from_poly(x0 ** 2)
    g = fd_jet(f, np.array([3.0]))
    assert abs(g[0, 0] - 6.0) < 1e-7


def test_fd_jet_linear_exact():
    a = np.array([2.0, -1.0, 0.5])
    xs = _vars(3, 2)
    f = SmoothMap.from_poly(a[0] * xs[0] + a[1] * xs[1] + a[2] * xs[2])
    g = fd_jet(f, np.array([0.3, 0.7, -0.2]))
    np.testing.assert_allclose(g.ravel(), a, atol=1e-10)


def test_fd_jet_order_two():
    # f = x0^2 x1: hessian [[2 x1, 2 x0], [2 x0, 0]]
    x0, x1 = _vars(2, 4)
    f = SmoothMap.from_poly(x0 ** 2 * x1)
    x = np.array([1.5, -0.5])
    J, H = f.jacobian(x), f.hessian(x)
    np.testing.assert_allclose(J.ravel(), [2 * x[0] * x[1], x[0] ** 2], atol=1e-6)
    np.testing.assert_allclose(H, [[2 * x[1], 2 * x[0]], [2 * x[0], 0.0]],
                               atol=1e-4)
    np.testing.assert_allclose(fd_jet(f, x), J, atol=1e-6)


def test_fd_jet_non_finite_raises():
    f = lambda x: 1.0 / x[0] if x[0] > 0 else np.inf
    with pytest.raises(ValueError):
        fd_jet(f, np.array([0.0]))


# ----------------------------------------------------------------------
# SmoothMap wrappers
# ----------------------------------------------------------------------


def test_from_poly_jets_are_exact():
    rng = np.random.default_rng(21)
    terms = {}
    from itertools import product
    for exp in product(range(4), repeat=3):
        if sum(exp) <= 3 and rng.random() < 0.5:
            terms[exp] = rng.standard_normal()
    p = TruncatedPoly(3, 6, terms)
    m = SmoothMap.from_poly(p)
    assert m.polys == [p]
    for _ in range(5):
        x = rng.standard_normal(3)
        assert m.value(x) == pytest.approx(p.eval(x), rel=1e-12, abs=1e-12)
        np.testing.assert_allclose(m.gradient(x), p.gradient(x), atol=1e-12)
        # exact Hessian vs fd of analytic gradient
        J_fd = fd_jet(m, x)
        np.testing.assert_allclose(m.jacobian(x), J_fd, rtol=1e-5, atol=1e-6)


def test_vector_from_poly():
    x0 = TruncatedPoly.variable(0, 2, 4)
    x1 = TruncatedPoly.variable(1, 2, 4)
    m = SmoothMap.from_poly([x0 * x1, x0 + x1])
    assert m.codomain_dim == 2
    v = m.value(np.array([2.0, 3.0]))
    np.testing.assert_allclose(v, [6.0, 5.0])
    np.testing.assert_allclose(m.jacobian(np.array([2.0, 3.0])),
                               [[3.0, 2.0], [1.0, 1.0]])


def test_hessian_fd_fallback_from_analytic_jacobian():
    # the Hessian is the exact gradient of the derivative polynomials
    x0, x1 = _vars(2, 4)
    f = SmoothMap.from_poly(x0 ** 3 + x0 * x1)
    x = np.array([0.8, -0.3])
    H = f.hessian(x)
    np.testing.assert_allclose(H, [[6 * x[0], 1.0], [1.0, 0.0]], atol=1e-6)


def test_gradient_requires_scalar():
    m = SmoothMap.from_poly(_vars(2, 1))
    with pytest.raises(ValueError):
        m.gradient(np.zeros(2))


# ----------------------------------------------------------------------
# Hamiltonian vector fields
# ----------------------------------------------------------------------


def test_harmonic_oscillator_field():
    x0, x1 = _vars(2, 2)
    H = SmoothMap.from_poly(0.5 * (x0 * x0 + x1 * x1))
    X = hamiltonian_vector_field(H)
    v = X.value(np.array([0.3, 0.7]))
    np.testing.assert_allclose(v, [0.7, -0.3])


def test_constant_hamiltonian_zero_field():
    H = SmoothMap.from_poly(TruncatedPoly.constant(4.2, 4, 2))
    X = hamiltonian_vector_field(H)
    np.testing.assert_allclose(X.value(np.ones(4)), 0.0)


def test_field_is_linear_in_hamiltonian():
    rng = np.random.default_rng(33)
    q0 = TruncatedPoly.variable(0, 4, 4)
    p0 = TruncatedPoly.variable(2, 4, 4)
    q1 = TruncatedPoly.variable(1, 4, 4)
    H1 = SmoothMap.from_poly(q0 * q0 + p0)
    H2 = SmoothMap.from_poly(q1 * p0)
    H12 = SmoothMap.from_poly(2.0 * (q0 * q0 + p0) + 3.0 * (q1 * p0))
    X1, X2, X12 = (hamiltonian_vector_field(h) for h in (H1, H2, H12))
    for _ in range(5):
        x = rng.standard_normal(4)
        np.testing.assert_allclose(X12.value(x),
                                   2.0 * X1.value(x) + 3.0 * X2.value(x),
                                   atol=1e-12)


def test_energy_conserved_along_field_direction():
    # dH/dt = grad(H) . X_H = 0 pointwise
    rng = np.random.default_rng(99)
    q0 = TruncatedPoly.variable(0, 6, 4)
    q1 = TruncatedPoly.variable(1, 6, 4)
    p0 = TruncatedPoly.variable(3, 6, 4)
    p1 = TruncatedPoly.variable(4, 6, 4)
    H = SmoothMap.from_poly(p0 * p0 + 0.5 * p1 * p1 + q0 * q1 + q0 ** 3)
    X = hamiltonian_vector_field(H)
    for _ in range(10):
        x = rng.standard_normal(6)
        assert abs(H.gradient(x) @ X.value(x)) < 1e-12


def test_field_jacobian_vs_fd():
    q0 = TruncatedPoly.variable(0, 2, 6)
    p0 = TruncatedPoly.variable(1, 2, 6)
    H = SmoothMap.from_poly(0.5 * p0 * p0 + 0.25 * q0 ** 4)
    X = hamiltonian_vector_field(H)
    x = np.array([0.9, -0.4])
    np.testing.assert_allclose(X.jacobian(x), fd_jet(X, x),
                               rtol=1e-5, atol=1e-6)


def test_bracket_value_of_canonical_pair():
    n = 4
    q1 = SmoothMap.from_poly(TruncatedPoly.variable(0, n, 2))
    p1 = SmoothMap.from_poly(TruncatedPoly.variable(2, n, 2))
    x = np.random.default_rng(1).standard_normal(n)
    assert canonical_bracket_value(q1, p1, x) == pytest.approx(1.0)
    assert canonical_bracket_value(p1, q1, x) == pytest.approx(-1.0)


def test_odd_dimension_rejected():
    H = SmoothMap.from_poly(TruncatedPoly.variable(0, 3, 1))
    with pytest.raises(ValueError):
        hamiltonian_vector_field(H)


# ----------------------------------------------------------------------
# one jet path through the polynomial kernels
# ----------------------------------------------------------------------


def _random_poly(rng, n, K=6):
    terms = {}
    for _ in range(int(rng.integers(1, 20))):
        exp = tuple(int(e) for e in rng.integers(0, 4, size=n))
        terms[exp] = rng.standard_normal()
    return TruncatedPoly(n, K, terms)


def test_jacobian_is_one_gradient_per_component(monkeypatch):
    p = DspParams()
    full = dsp_slice(p, dsp_equilibria(p, 2, omega=1.0)).full_constraints
    assert full.k == 6
    x = np.random.default_rng(3).standard_normal(full.dim)
    calls = {"eval": 0, "gradient": 0}
    for name in calls:
        kernel = getattr(TruncatedPoly, name)

        def counted(self, y, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(self, y)
        monkeypatch.setattr(TruncatedPoly, name, counted)
    full.jacobian(x)
    assert calls == {"eval": 0, "gradient": 6}


def test_jets_match_per_derivative_evaluation_bit_for_bit():
    # the reference is the per-derivative evaluation the gradient kernel
    # replaces; the same IEEE operations in the same order
    rng = np.random.default_rng(77)
    for n in (2, 4, 7, 12):
        for _ in range(10):
            ps = [_random_poly(rng, n) for _ in range(2)]
            m = SmoothMap.from_poly(ps)
            H = SmoothMap.from_poly(ps[0])
            X = hamiltonian_vector_field(H) if n % 2 == 0 else None
            for _ in range(5):
                x = rng.standard_normal(n)
                ref = np.array([[p.derivative(i).eval(x) for i in range(n)]
                                for p in ps])
                assert np.array_equal(m.jacobian(x), ref)
                if X is not None:
                    assert np.array_equal(X.value(x),
                                          J_apply(H.gradient(x)))
