"""Tests for the truncated polynomial algebra and its Poisson brackets."""

import json

import numpy as np
import pytest

from mdirac.poly import (
    COEFF_TOL,
    CanonicalStructure,
    StructuredStructure,
    TruncatedPoly,
    coeff_distance,
    lie_transform,
    poisson_bracket,
    poly_dot,
)


def random_poly(rng, n_vars, degree, max_degree, density=0.4, scale=1.0):
    """Random sparse polynomial with terms of total degree <= degree."""
    from itertools import product
    terms = {}
    for exp in product(range(degree + 1), repeat=n_vars):
        if sum(exp) > degree:
            continue
        if rng.random() < density:
            terms[exp] = scale * rng.standard_normal()
    return TruncatedPoly(n_vars, max_degree, terms)


def brute_force_mul(a, b, cap):
    """Independent convolution oracle: plain double loop, no pruning tricks."""
    out = {}
    for ea, ca in a.terms.items():
        for eb, cb in b.terms.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            if sum(e) > cap:
                continue
            out[e] = out.get(e, 0.0) + ca * cb
    return out


# ----------------------------------------------------------------------
# construction and bookkeeping
# ----------------------------------------------------------------------


def test_construction_prunes_and_truncates():
    p = TruncatedPoly(2, 3, {(0, 0): 1.0, (4, 0): 2.0, (1, 0): 1e-15})
    assert p.terms == {(0, 0): 1.0}


def test_zero_poly_has_empty_terms():
    z = TruncatedPoly.zero(3, 4)
    assert z.is_zero()
    assert z.degree() == -1
    assert z.terms == {}


def test_immutability():
    p = TruncatedPoly.variable(0, 2, 4)
    with pytest.raises(AttributeError):
        p.n_vars = 5


def test_variable_count_mismatch_raises():
    a = TruncatedPoly.variable(0, 2, 4)
    b = TruncatedPoly.variable(0, 3, 4)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_difference_of_squares():
    x = TruncatedPoly.variable(0, 1, 4)
    prod = (1.0 + x) * (1.0 - x)
    expect = 1.0 - x * x
    assert coeff_distance(prod, expect) == 0.0


def test_truncation_kills_high_degree_product():
    # x1^2 x2 * x2^2 has degree 5, gone at K=4
    a = TruncatedPoly.monomial((2, 1), 1.0, 4)
    b = TruncatedPoly.monomial((0, 2), 1.0, 4)
    assert (a * b).is_zero()


def test_result_max_degree_is_min_of_operands():
    a = TruncatedPoly.variable(0, 2, 6)
    b = TruncatedPoly.variable(1, 2, 4)
    assert (a * b).max_degree == 4
    assert (a + b).max_degree == 4


def test_mul_matches_brute_force_convolution():
    rng = np.random.default_rng(20814)
    for _ in range(20):
        a = random_poly(rng, 3, 2, 6)
        b = random_poly(rng, 3, 2, 6)
        got = a * b
        want = brute_force_mul(a, b, 6)
        for e, c in want.items():
            assert got.coefficient(e) == pytest.approx(c, abs=1e-13)
        for e in got.terms:
            assert e in want or abs(got.terms[e]) <= COEFF_TOL


def test_pow_matches_repeated_mul():
    rng = np.random.default_rng(3)
    p = random_poly(rng, 2, 2, 8)
    assert coeff_distance(p ** 3, p * p * p) < 1e-12


def test_derivative():
    # d/dx0 (x0^2 x1) = 2 x0 x1
    p = TruncatedPoly.monomial((2, 1), 1.0, 5)
    d = p.derivative(0)
    assert d.terms == {(1, 1): 2.0}
    assert p.derivative(1).terms == {(2, 0): 1.0}


# ----------------------------------------------------------------------
# evaluation
# ----------------------------------------------------------------------


def test_eval_and_gradient_simple():
    # f = q^2 + p^2 at (1, 0)
    f = TruncatedPoly(2, 4, {(2, 0): 1.0, (0, 2): 1.0})
    assert f.eval([1.0, 0.0]) == pytest.approx(1.0)
    np.testing.assert_allclose(f.gradient([1.0, 0.0]), [2.0, 0.0])


def test_constant_eval():
    c = TruncatedPoly.constant(3.5, 3, 2)
    assert c.eval([9.0, -2.0, 4.0]) == 3.5
    np.testing.assert_allclose(c.gradient([1.0, 2.0, 3.0]), 0.0)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(515)
    h = 1e-5
    for _ in range(10):
        f = random_poly(rng, 4, 3, 6)
        x = rng.standard_normal(4)
        g = f.gradient(x)
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            fd = (f.eval(x + e) - f.eval(x - e)) / (2 * h)
            denom = max(1.0, abs(fd))
            assert abs(g[i] - fd) / denom < 1e-6


def test_eval_wrong_length_raises():
    f = TruncatedPoly.variable(0, 3, 2)
    with pytest.raises(ValueError):
        f.eval([1.0, 2.0])


def reference_eval(f, x):
    """Term-by-term value on numpy scalars, in the kernel's order."""
    total = 0.0
    for exp, c in f.terms.items():
        m = c
        for xi, e in zip(np.asarray(x, dtype=float), exp):
            if e == 1:
                m *= xi
            elif e:
                m *= xi ** e
        total += m
    return total


def reference_gradient(f, x):
    """Partial derivatives on numpy scalars, in the kernel's order."""
    x = np.asarray(x, dtype=float)
    g = np.zeros(f.n_vars)
    for exp, c in f.terms.items():
        for i, ei in enumerate(exp):
            if ei == 0:
                continue
            m = c * ei
            for j, (xj, ej) in enumerate(zip(x, exp)):
                k = ej - 1 if j == i else ej
                if k == 1:
                    m *= xj
                elif k:
                    m *= xj ** k
            g[i] += m
    return g


def test_eval_and_gradient_match_reference_loop():
    rng = np.random.default_rng(808)
    for _ in range(20):
        terms = {tuple(int(e) for e in rng.integers(0, 5, size=6)):
                 float(rng.standard_normal()) for _ in range(30)}
        f = TruncatedPoly(6, 24, terms)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=6)
            assert f.eval(x) == reference_eval(f, x)
            assert np.array_equal(f.gradient(x), reference_gradient(f, x))
    # a power past the float range is inf, as on numpy scalars
    f = TruncatedPoly(2, 6, {(2, 0): 1.0, (0, 3): -1.0})
    x = np.array([1e200, 1e20])
    with np.errstate(over="ignore"):
        assert f.eval(x) == reference_eval(f, x) == np.inf
        assert np.array_equal(f.gradient(x), reference_gradient(f, x))
    with pytest.raises(ValueError, match="wrong length"):
        f.eval([1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="wrong length"):
        f.gradient([1.0])


# ----------------------------------------------------------------------
# composition / shifting
# ----------------------------------------------------------------------


def test_compose_against_pointwise_eval():
    rng = np.random.default_rng(99)
    f = random_poly(rng, 3, 2, 6)
    args = [random_poly(rng, 2, 2, 6, density=0.7) for _ in range(3)]
    comp = f.compose(args)
    for _ in range(12):
        u = 0.3 * rng.standard_normal(2)
        inner = np.array([a.eval(u) for a in args])
        # both sides exact up to truncation: degrees 2*2=4 <= 6
        assert comp.eval(u) == pytest.approx(f.eval(inner), rel=1e-10, abs=1e-10)


def test_shifted_recenters():
    rng = np.random.default_rng(7)
    f = random_poly(rng, 3, 3, 6)
    x0 = rng.standard_normal(3)
    g = f.shifted(x0)
    for _ in range(8):
        u = rng.standard_normal(3)
        assert g.eval(u) == pytest.approx(f.eval(x0 + u), rel=1e-9, abs=1e-9)


# ----------------------------------------------------------------------
# canonical Poisson bracket
# ----------------------------------------------------------------------


def canonical_vars(m, K):
    n = 2 * m
    qs = [TruncatedPoly.variable(i, n, K) for i in range(m)]
    ps = [TruncatedPoly.variable(m + i, n, K) for i in range(m)]
    return qs, ps


def test_bracket_canonical_pairs():
    ps_struct = CanonicalStructure(2)
    q, p = canonical_vars(2, 4)
    one = TruncatedPoly.constant(1.0, 4, 4)
    assert coeff_distance(poisson_bracket(q[0], p[0], ps_struct), one) == 0.0
    assert poisson_bracket(q[0], p[1], ps_struct).is_zero()
    assert poisson_bracket(q[0], q[1], ps_struct).is_zero()
    assert poisson_bracket(p[0], p[1], ps_struct).is_zero()


def test_bracket_leibniz_example():
    # {q1^2, p1} = 2 q1
    ps_struct = CanonicalStructure(1)
    q, p = canonical_vars(1, 4)
    got = poisson_bracket(q[0] * q[0], p[0], ps_struct)
    assert coeff_distance(got, 2.0 * q[0]) == 0.0


def test_bracket_cross_term_example():
    # Leibniz expansion with {q_i, p_j} = delta_ij:
    #   {q1 p2, q2 p1} = q1 {p2, q2} p1 + q2 {q1, p1} p2 = q2 p2 - q1 p1
    ps_struct = CanonicalStructure(2)
    q, p = canonical_vars(2, 6)
    got = poisson_bracket(q[0] * p[1], q[1] * p[0], ps_struct)
    want = q[1] * p[1] - q[0] * p[0]
    assert coeff_distance(got, want) < 1e-14


def test_bracket_antisymmetry():
    rng = np.random.default_rng(42)
    ps_struct = CanonicalStructure(2)
    for _ in range(10):
        f = random_poly(rng, 4, 3, 7)
        g = random_poly(rng, 4, 3, 7)
        s = poisson_bracket(f, g, ps_struct) + poisson_bracket(g, f, ps_struct)
        assert s.max_abs_coeff() <= COEFF_TOL


def test_bracket_jacobi_identity_low_degree_exact():
    # degree-3 inputs at K=7: all brackets fit, so Jacobi holds exactly
    rng = np.random.default_rng(1234)
    ps_struct = CanonicalStructure(2)
    for _ in range(6):
        f = random_poly(rng, 4, 3, 7)
        g = random_poly(rng, 4, 3, 7)
        h = random_poly(rng, 4, 3, 7)
        jac = (poisson_bracket(f, poisson_bracket(g, h, ps_struct), ps_struct)
               + poisson_bracket(g, poisson_bracket(h, f, ps_struct), ps_struct)
               + poisson_bracket(h, poisson_bracket(f, g, ps_struct), ps_struct))
        assert jac.max_abs_coeff() < 1e-10


def test_bracket_leibniz_rule():
    rng = np.random.default_rng(77)
    ps_struct = CanonicalStructure(2)
    f = random_poly(rng, 4, 2, 8)
    g = random_poly(rng, 4, 2, 8)
    h = random_poly(rng, 4, 2, 8)
    left = poisson_bracket(f * g, h, ps_struct)
    right = f * poisson_bracket(g, h, ps_struct) + poisson_bracket(f, h, ps_struct) * g
    assert coeff_distance(left, right) < 1e-11


def test_bracket_grading():
    # homogeneous degrees a, b -> degree a + b - 2
    rng = np.random.default_rng(11)
    ps_struct = CanonicalStructure(2)
    f = random_poly(rng, 4, 3, 8).homogeneous_part(3)
    g = random_poly(rng, 4, 4, 8).homogeneous_part(4)
    br = poisson_bracket(f, g, ps_struct)
    assert not br.is_zero()
    assert br.min_degree() == br.degree() == 5


# ----------------------------------------------------------------------
# structured bracket
# ----------------------------------------------------------------------


def test_structured_constant_matrix_matches_canonical():
    rng = np.random.default_rng(4000)
    m = 2
    n = 2 * m
    J0 = np.block([[np.zeros((m, m)), np.eye(m)], [-np.eye(m), np.zeros((m, m))]])
    canon = CanonicalStructure(m)
    pi = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            pi[a, b] = TruncatedPoly.constant(J0[a, b], n, 6)
    struct = StructuredStructure(pi)
    for _ in range(8):
        f = random_poly(rng, n, 3, 6)
        g = random_poly(rng, n, 3, 6)
        d = coeff_distance(poisson_bracket(f, g, canon), poisson_bracket(f, g, struct))
        assert d < 1e-12


def test_structured_rejects_non_antisymmetric():
    n = 2
    pi = np.empty((n, n), dtype=object)
    for a in range(n):
        for b in range(n):
            pi[a, b] = TruncatedPoly.constant(1.0, n, 4)
    with pytest.raises(ValueError):
        StructuredStructure(pi)


def test_structured_polynomial_entries():
    # Pi = [[0, x0], [-x0, 0]]: {f,g} = x0 (d0 f d1 g - d1 f d0 g)
    n = 2
    x0 = TruncatedPoly.variable(0, n, 6)
    zero = TruncatedPoly.zero(n, 6)
    pi = np.array([[zero, x0], [-x0, zero]], dtype=object)
    st = StructuredStructure(pi)
    f = TruncatedPoly.variable(0, n, 6)
    g = TruncatedPoly.variable(1, n, 6)
    assert coeff_distance(st.bracket(f, g), x0) == 0.0


# ----------------------------------------------------------------------
# Lie transforms
# ----------------------------------------------------------------------


def test_lie_transform_zero_generator_is_identity():
    rng = np.random.default_rng(8)
    ps_struct = CanonicalStructure(2)
    h = random_poly(rng, 4, 3, 6)
    zero = TruncatedPoly.zero(4, 6)
    assert coeff_distance(lie_transform(h, zero, ps_struct), h) == 0.0


def test_lie_transform_cubic_example():
    # H = p1, Gamma = q1^3 at K=4: result is p1 + {p1, q1^3} = p1 - 3 q1^2
    ps_struct = CanonicalStructure(1)
    q, p = canonical_vars(1, 4)
    got = lie_transform(p[0], q[0] ** 3, ps_struct)
    want = p[0] - 3.0 * q[0] * q[0]
    assert coeff_distance(got, want) == 0.0


def test_lie_transform_rejects_low_degree_generator():
    ps_struct = CanonicalStructure(1)
    q, p = canonical_vars(1, 4)
    with pytest.raises(ValueError):
        lie_transform(p[0], q[0], ps_struct)            # linear
    with pytest.raises(ValueError):
        lie_transform(p[0], q[0] * q[0], ps_struct)     # quadratic
    with pytest.raises(ValueError):
        lie_transform(p[0], q[0] ** 3 + 1.0, ps_struct)  # constant part


def test_lie_transform_invertibility():
    rng = np.random.default_rng(2718)
    ps_struct = CanonicalStructure(2)
    h = random_poly(rng, 4, 4, 6)
    gamma = random_poly(rng, 4, 3, 6).homogeneous_part(3)
    fwd = lie_transform(h, gamma, ps_struct)
    back = lie_transform(fwd, -gamma, ps_struct)
    assert coeff_distance(back, h) < 1e-10


def test_lie_transform_preserves_brackets():
    # exp(ad_G){f,g} = {exp(ad_G) f, exp(ad_G) g} up to truncation
    rng = np.random.default_rng(31415)
    ps_struct = CanonicalStructure(2)
    f = random_poly(rng, 4, 3, 8).homogeneous_part(3)
    g = random_poly(rng, 4, 3, 8).homogeneous_part(3)
    gamma = 0.1 * random_poly(rng, 4, 3, 8).homogeneous_part(3)
    left = lie_transform(poisson_bracket(f, g, ps_struct), gamma, ps_struct)
    right = poisson_bracket(lie_transform(f, gamma, ps_struct),
                            lie_transform(g, gamma, ps_struct), ps_struct)
    # compare below the truncation boundary only
    diff = left - right
    low = sum((diff.homogeneous_part(k) for k in range(0, 8)),
              TruncatedPoly.zero(4, 8))
    assert low.max_abs_coeff() < 1e-10


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------


def test_json_round_trip():
    rng = np.random.default_rng(606)
    p = random_poly(rng, 3, 3, 5)
    blob = json.dumps(p.to_json_dict())
    q = TruncatedPoly.from_json_dict(json.loads(blob))
    assert q.n_vars == p.n_vars and q.max_degree == p.max_degree
    assert coeff_distance(p, q) == 0.0


def test_json_terms_sorted_graded_lex():
    p = TruncatedPoly(2, 4, {(0, 2): 1.0, (1, 0): 2.0, (2, 0): 3.0, (0, 0): 4.0})
    exps = [tuple(t["exp"]) for t in p.to_json_dict()["terms"]]
    keys = [(sum(e), e) for e in exps]
    assert keys == sorted(keys)
    assert exps[0] == (0, 0)


def test_from_quadratic_form():
    S = np.array([[2.0, 1.0], [1.0, 4.0]])
    p = TruncatedPoly.from_quadratic_form(S, 4)
    x = np.array([0.3, -0.7])
    assert p.eval(x) == pytest.approx(0.5 * x @ S @ x)
    np.testing.assert_allclose(p.gradient(x), S @ x, atol=1e-14)


# ----------------------------------------------------------------------
# poly_dot
# ----------------------------------------------------------------------


def test_poly_dot_equals_pairwise_loop():
    rng = np.random.default_rng(7)
    u = [random_poly(rng, 3, 2, 4) for _ in range(5)]
    v = [random_poly(rng, 3, 2, 4) for _ in range(5)]
    acc = u[0] * v[0]
    for x, y in zip(u[1:], v[1:]):
        acc = acc + x * y
    got = poly_dot(u, v, TruncatedPoly.zero(3, 4))
    # same terms, same insertion order, same bits
    assert list(got.terms.items()) == list(acc.terms.items())
    assert got.max_degree == acc.max_degree


def test_poly_dot_reals_on_either_side():
    rng = np.random.default_rng(8)
    p = [random_poly(rng, 2, 3, 4) for _ in range(3)]
    c = [0.5, -2.0, 3.25]
    zero = TruncatedPoly.zero(2, 4)
    want = c[0] * p[0] + c[1] * p[1] + c[2] * p[2]
    for got in (poly_dot(c, p, zero), poly_dot(p, c, zero),
                poly_dot(np.array(c), p, zero)):
        assert list(got.terms.items()) == list(want.terms.items())
    assert poly_dot([2.0, 3.0], [4.0, 0.5], zero) == 9.5


def test_poly_dot_skips_zero_factors(monkeypatch):
    rng = np.random.default_rng(9)
    a, b = random_poly(rng, 2, 2, 4), random_poly(rng, 2, 2, 4)
    zero = TruncatedPoly.zero(2, 4)
    products = []
    mul = TruncatedPoly.__mul__

    def counted(self, other):
        products.append((self, other))
        return mul(self, other)

    monkeypatch.setattr(TruncatedPoly, "__mul__", counted)
    got = poly_dot([a, zero, 0.0, b], [b, a, a, 2.0], zero)
    assert products == [(a, b), (b, 2.0)]
    want = mul(a, b) + mul(b, 2.0)
    assert list(got.terms.items()) == list(want.terms.items())


def test_poly_dot_empty_returns_zero():
    zero = TruncatedPoly.zero(2, 4)
    p = TruncatedPoly.variable(0, 2, 4)
    assert poly_dot([], [], zero) is zero
    assert poly_dot([0.0, zero], [p, p], zero) is zero
    assert poly_dot([p, p], [zero, 0.0], zero) is zero
