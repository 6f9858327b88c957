"""Tests for smooth maps, finite-difference jets and Hamiltonian fields."""

import numpy as np
import pytest

from mdirac import poly
from mdirac.dirac import ConstraintSet
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
    # a set's Jacobian is one call of its vector map's jet kernel: no
    # per-polynomial eval or gradient, and row i is constraint i's own
    # gradient, bit for bit
    p = DspParams()
    full = dsp_slice(p, dsp_equilibria(p, 2, omega=1.0)).full_constraints
    assert full.k == 6
    x = np.random.default_rng(3).standard_normal(full.dim)
    calls = {"eval": 0, "gradient": 0, "jacobian": 0}
    for owner, name in ((TruncatedPoly, "eval"), (TruncatedPoly, "gradient"),
                        (SmoothMap, "jacobian")):
        kernel = getattr(owner, name)

        def counted(self, y, _kernel=kernel, _name=name):
            calls[_name] += 1
            return _kernel(self, y)
        monkeypatch.setattr(owner, name, counted)
    G = full.jacobian(x)
    assert calls == {"eval": 0, "gradient": 0, "jacobian": 1}
    assert G.shape == (6, full.dim)
    for phi, row in zip(full.polys, G):
        assert row.tobytes() == phi.gradient(x).tobytes()


def assert_same_bits(a, b):
    """Equal arrays, nan included, with equal sign bits."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)
    assert np.array_equal(np.signbit(a), np.signbit(b))


def assert_map_matches_components(m, points):
    """The map's value and Jacobian equal its components' eval and
    gradient, bit for bit; the map's first call runs the term loops and
    every later one its compiled kernel."""
    for x in points:
        want = [p.eval(x) for p in m.polys]
        assert_same_bits(m.value(x), want if m.codomain_dim > 1 else want[0])
        assert_same_bits(m.jacobian(x), [p.gradient(x) for p in m.polys])


def test_map_kernel_matches_components_bit_for_bit():
    rng = np.random.default_rng(78)
    signed = [0.0, -0.0, 1.5, -2.0]
    for n in (1, 2, 6, 12):
        for k in (1, 3, 6):
            ps = [_random_poly(rng, n) for _ in range(k)]
            if k > 1:
                ps[1] = TruncatedPoly.zero(n, 6)
            points = list(rng.uniform(-2.0, 2.0, size=(4, n)))
            points.append(np.array([signed[i % 4] for i in range(n)]))
            assert_map_matches_components(SmoothMap.from_poly(ps), points)
    # an inf coefficient reaches the compiled kernel as the name inf
    m = SmoothMap.from_poly([TruncatedPoly(2, 4, {(1, 0): np.inf,
                                                  (0, 2): -1.5}),
                             TruncatedPoly.variable(1, 2, 4)])
    with np.errstate(invalid="ignore"):
        assert_map_matches_components(m, rng.uniform(0.5, 2.0, size=(4, 2)))


def test_map_kernel_overflow_reruns_on_numpy_scalars():
    # float ** past the double range raises OverflowError; the whole map
    # then reruns on numpy scalars and gives inf, as each component does
    m = SmoothMap.from_poly([TruncatedPoly(2, 6, {(2, 0): 1.0, (0, 3): -1.0}),
                             TruncatedPoly(2, 6, {(1, 1): 0.5, (0, 1): 2.0})])
    big = np.array([1e200, 1e20])
    with np.errstate(over="ignore", invalid="ignore"):
        assert_map_matches_components(m, [big, big, np.array([1.0, 2.0]),
                                          big])
        assert m.value(big)[0] == np.inf


def test_map_kernel_of_many_terms():
    # more than 3,000 terms across the components, one statement each
    rng = np.random.default_rng(79)
    ps = []
    for _ in range(3):
        exps = {tuple(int(e) for e in rng.integers(0, 7, size=6))
                for _ in range(2000)}
        ps.append(TruncatedPoly(6, 36, {e: float(rng.standard_normal())
                                        for e in exps}))
    assert sum(len(p.terms) for p in ps) > 3000
    assert_map_matches_components(SmoothMap.from_poly(ps),
                                  rng.uniform(-1.0, 1.0, size=(3, 6)))


def test_map_kernel_compiles_on_second_call(monkeypatch):
    compiled = []
    compile_jets = poly._compile_jets

    def counted(dicts, n):
        compiled.append(len(dicts))
        return compile_jets(dicts, n)

    monkeypatch.setattr(poly, "_compile_jets", counted)
    rng = np.random.default_rng(80)
    m = SmoothMap.from_poly([_random_poly(rng, 4) for _ in range(3)])
    x = rng.standard_normal(4)
    first = m.jacobian(x)
    assert compiled == []
    assert np.array_equal(m.jacobian(x), first)
    assert compiled == [3]
    for _ in range(3):
        m.value(x)
        assert np.array_equal(m.jacobian(x), first)
    assert compiled == [3]


def test_one_constraint_set_values_shape():
    cs = ConstraintSet.from_polys([TruncatedPoly.variable(0, 4, 2) - 1.0])
    x = np.array([3.0, 0.0, 0.0, 0.0])
    assert cs.values(x).shape == (1,)
    assert cs.values(x)[0] == 2.0
    assert cs.jacobian(x).shape == (1, 4)


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
