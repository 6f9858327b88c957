"""Sparse truncated polynomial algebra with Poisson brackets.

Polynomials are stored as a dict mapping exponent tuples to float
coefficients, with every term above a fixed total degree dropped.  This
is the algebra in which Taylor expansions of Hamiltonians, constraint
functions, generating functions and normal forms live.

Coordinates follow the canonical pairing convention (q_1..q_m,
p_1..p_m), so for ``n_vars = 2m`` the variable with index ``i < m`` is a
position and index ``m + i`` is its conjugate momentum.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Mapping

import numpy as np

#: coefficients with absolute value <= COEFF_TOL are pruned after every op
COEFF_TOL = 1e-12

#: default truncation order; order-4 normal forms need degree-6 intermediates
DEFAULT_MAX_DEGREE = 6


def _graded_key(exp):
    return (sum(exp), exp)


class TruncatedPoly:
    """Sparse real polynomial in ``n_vars`` variables, truncated at
    total degree ``max_degree``.

    Instances are treated as immutable: all arithmetic returns new
    objects and never mutates operands.

    Parameters
    ----------
    n_vars : int
        Number of variables (positive).
    max_degree : int
        Truncation order K; terms of total degree > K are discarded.
    terms : mapping, optional
        Exponent tuple -> coefficient.  Cleaned on construction: terms
        beyond the truncation degree are dropped, coefficients below
        ``COEFF_TOL`` are pruned.
    """

    __slots__ = ("n_vars", "max_degree", "terms")

    def __init__(self, n_vars: int, max_degree: int,
                 terms: Mapping[tuple, float] | None = None):
        if n_vars < 1:
            raise ValueError("n_vars must be positive")
        if max_degree < 1:
            raise ValueError("max_degree must be positive")
        object.__setattr__(self, "n_vars", int(n_vars))
        object.__setattr__(self, "max_degree", int(max_degree))
        clean = {}
        if terms:
            for exp, coef in terms.items():
                exp = tuple(int(e) for e in exp)
                if len(exp) != n_vars:
                    raise ValueError("exponent tuple of wrong length: %r" % (exp,))
                if any(e < 0 for e in exp):
                    raise ValueError("negative exponent: %r" % (exp,))
                if sum(exp) > max_degree:
                    continue
                c = float(coef)
                if abs(c) > COEFF_TOL:
                    clean[exp] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedPoly is immutable")

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int, max_degree: int) -> "TruncatedPoly":
        return cls(n_vars, max_degree, {})

    @classmethod
    def constant(cls, value: float, n_vars: int, max_degree: int) -> "TruncatedPoly":
        return cls(n_vars, max_degree, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, i: int, n_vars: int, max_degree: int) -> "TruncatedPoly":
        """The coordinate function x_i."""
        if not 0 <= i < n_vars:
            raise ValueError("variable index out of range")
        exp = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, max_degree, {exp: 1.0})

    @classmethod
    def monomial(cls, exp: Iterable[int], coef: float, max_degree: int) -> "TruncatedPoly":
        exp = tuple(exp)
        return cls(len(exp), max_degree, {exp: coef})

    @classmethod
    def from_linear(cls, v, max_degree: int) -> "TruncatedPoly":
        """Linear form v . x."""
        v = np.asarray(v, dtype=float)
        n = v.size
        terms = {}
        for i in range(n):
            if v[i] != 0.0:
                exp = tuple(1 if j == i else 0 for j in range(n))
                terms[exp] = v[i]
        return cls(n, max_degree, terms)

    @classmethod
    def from_quadratic_form(cls, S, max_degree: int) -> "TruncatedPoly":
        """The quadratic polynomial (1/2) x^T S x for symmetric S."""
        S = np.asarray(S, dtype=float)
        n = S.shape[0]
        if S.shape != (n, n):
            raise ValueError("S must be square")
        terms: dict = {}
        for i in range(n):
            for j in range(i, n):
                c = 0.5 * S[i, j] if i == j else 0.5 * (S[i, j] + S[j, i])
                if c == 0.0:
                    continue
                exp = [0] * n
                exp[i] += 1
                exp[j] += 1
                terms[tuple(exp)] = terms.get(tuple(exp), 0.0) + c
        return cls(n, max_degree, terms)

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Largest total degree present, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def min_degree(self) -> int:
        """Smallest total degree present, or -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return min(sum(e) for e in self.terms)

    def max_abs_coeff(self) -> float:
        if not self.terms:
            return 0.0
        return max(abs(c) for c in self.terms.values())

    def homogeneous_part(self, k: int) -> "TruncatedPoly":
        terms = {e: c for e, c in self.terms.items() if sum(e) == k}
        return TruncatedPoly(self.n_vars, self.max_degree, terms)

    def truncated(self, new_max_degree: int) -> "TruncatedPoly":
        """Copy with a (usually lower) truncation order."""
        return TruncatedPoly(self.n_vars, new_max_degree, self.terms)

    def graded_items(self):
        """Terms sorted in graded lexicographic order (deterministic)."""
        return sorted(self.terms.items(), key=lambda kv: _graded_key(kv[0]))

    def coefficient(self, exp) -> float:
        return self.terms.get(tuple(exp), 0.0)

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------

    def _check_compat(self, other: "TruncatedPoly"):
        if self.n_vars != other.n_vars:
            raise ValueError("variable-count mismatch: %d vs %d"
                             % (self.n_vars, other.n_vars))

    def __add__(self, other):
        if isinstance(other, numbers.Real):
            other = TruncatedPoly.constant(float(other), self.n_vars, self.max_degree)
        self._check_compat(other)
        cap = min(self.max_degree, other.max_degree)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return TruncatedPoly(self.n_vars, cap, out)

    def __radd__(self, other):
        return self.__add__(other)

    def __neg__(self):
        return TruncatedPoly(self.n_vars, self.max_degree,
                             {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, numbers.Real):
            other = TruncatedPoly.constant(float(other), self.n_vars, self.max_degree)
        return self.__add__(-other)

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if isinstance(other, numbers.Real):
            s = float(other)
            return TruncatedPoly(self.n_vars, self.max_degree,
                                 {e: s * c for e, c in self.terms.items()})
        self._check_compat(other)
        cap = min(self.max_degree, other.max_degree)
        items_b = [(e, sum(e), c) for e, c in other.terms.items()]
        out: dict = {}
        for ea, ca in self.terms.items():
            da = sum(ea)
            for eb, db, cb in items_b:
                if da + db > cap:
                    continue
                key = tuple(x + y for x, y in zip(ea, eb))
                out[key] = out.get(key, 0.0) + ca * cb
        return TruncatedPoly(self.n_vars, cap, out)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __pow__(self, k: int):
        if not isinstance(k, numbers.Integral) or k < 0:
            raise ValueError("only non-negative integer powers")
        out = TruncatedPoly.constant(1.0, self.n_vars, self.max_degree)
        base = self
        k = int(k)
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def derivative(self, i: int) -> "TruncatedPoly":
        """Partial derivative with respect to variable i."""
        if not 0 <= i < self.n_vars:
            raise ValueError("variable index out of range")
        out = {}
        for e, c in self.terms.items():
            if e[i] == 0:
                continue
            d = list(e)
            d[i] -= 1
            out[tuple(d)] = c * e[i]
        return TruncatedPoly(self.n_vars, self.max_degree, out)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------

    def eval(self, x) -> float:
        return _on_floats(_eval_terms, self.terms, self._point(x))

    def gradient(self, x) -> np.ndarray:
        return np.array(_on_floats(_gradient_terms, self.terms,
                                   self._point(x)))

    def _point(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_vars,):
            raise ValueError("point has wrong length")
        return x

    # ------------------------------------------------------------------
    # substitution
    # ------------------------------------------------------------------

    def compose(self, args: list["TruncatedPoly"]) -> "TruncatedPoly":
        """Substitute args[i] for variable i (see :func:`compose_batch`).

        All substituted polynomials must share a common variable count
        and truncation order; the result lives in that algebra.
        """
        return compose_batch([self], args)[0]

    def shifted(self, x0) -> "TruncatedPoly":
        """The polynomial u -> p(x0 + u) (recentering at x0)."""
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (self.n_vars,):
            raise ValueError("shift point has wrong length")
        args = []
        for i in range(self.n_vars):
            v = TruncatedPoly.variable(i, self.n_vars, self.max_degree)
            args.append(v + float(x0[i]))
        return self.compose(args)

    # ------------------------------------------------------------------
    # serialization / misc
    # ------------------------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "max_degree": self.max_degree,
            "terms": [{"exp": list(e), "coef": c} for e, c in self.graded_items()],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruncatedPoly":
        terms = {tuple(t["exp"]): t["coef"] for t in d["terms"]}
        return cls(d["n_vars"], d["max_degree"], terms)

    def __repr__(self):
        if not self.terms:
            return "TruncatedPoly(0; n=%d, K=%d)" % (self.n_vars, self.max_degree)
        bits = []
        for e, c in self.graded_items()[:6]:
            mono = "*".join("x%d^%d" % (i, k) if k > 1 else "x%d" % i
                            for i, k in enumerate(e) if k)
            bits.append("%+.3g%s" % (c, "*" + mono if mono else ""))
        tail = " +..." if len(self.terms) > 6 else ""
        return "TruncatedPoly(%s%s; n=%d, K=%d)" % (
            " ".join(bits), tail, self.n_vars, self.max_degree)


# ----------------------------------------------------------------------
# Poisson structures
# ----------------------------------------------------------------------


class PoissonStructure:
    """Base class for bracket backends on polynomial algebras."""

    def bracket(self, f: TruncatedPoly, g: TruncatedPoly) -> TruncatedPoly:
        raise NotImplementedError


class CanonicalStructure(PoissonStructure):
    """Canonical bracket on (q_1..q_m, p_1..p_m):

        {f, g} = sum_i (df/dq_i dg/dp_i - df/dp_i dg/dq_i),

    which gives {q_i, p_j} = delta_ij.
    """

    def __init__(self, n_pairs: int):
        if n_pairs < 1:
            raise ValueError("need at least one canonical pair")
        self.n_pairs = int(n_pairs)
        self.n_vars = 2 * self.n_pairs

    def bracket(self, f, g):
        if f.n_vars != self.n_vars or g.n_vars != self.n_vars:
            raise ValueError("polynomial variable count does not match structure")
        m = self.n_pairs
        df, dg = [], []
        for i in range(m):
            # fq gp - fp gq, as fq gp + fp (-gq)
            df += [f.derivative(i), f.derivative(m + i)]
            dg += [g.derivative(m + i), -g.derivative(i)]
        return poly_dot(df, dg, TruncatedPoly.zero(
            self.n_vars, min(f.max_degree, g.max_degree)))


class StructuredStructure(PoissonStructure):
    """Bracket from an antisymmetric matrix of polynomial entries:

        {f, g} = sum_ab Pi_ab  d_a f  d_b g.

    Used for the series Dirac bracket pulled into chart coordinates.
    """

    def __init__(self, pi):
        pi = np.asarray(pi, dtype=object)
        n = pi.shape[0]
        if pi.shape != (n, n):
            raise ValueError("Pi must be a square matrix of polynomials")
        for a in range(n):
            for b in range(n):
                s = pi[a, b] + pi[b, a]
                if s.max_abs_coeff() > 100 * COEFF_TOL:
                    raise ValueError("Pi is not antisymmetric (entry %d,%d)" % (a, b))
        self.pi = pi
        self.n_vars = n

    def bracket(self, f, g):
        if f.n_vars != self.n_vars or g.n_vars != self.n_vars:
            raise ValueError("polynomial variable count does not match structure")
        n = self.n_vars
        df = [f.derivative(a) for a in range(n)]
        dg = [g.derivative(b) for b in range(n)]
        pairs = [(a, b) for a in range(n) if not df[a].is_zero()
                 for b in range(n) if not (dg[b].is_zero()
                                           or self.pi[a, b].is_zero())]
        return poly_dot((self.pi[a, b] * df[a] for a, b in pairs),
                        (dg[b] for _, b in pairs),
                        TruncatedPoly.zero(n, min(f.max_degree, g.max_degree)))


# ----------------------------------------------------------------------
# module-level operations
# ----------------------------------------------------------------------


def poisson_bracket(f: TruncatedPoly, g: TruncatedPoly,
                    ps: PoissonStructure) -> TruncatedPoly:
    """Poisson bracket {f, g} under the given structure."""
    return ps.bracket(f, g)


def _vanishes(x) -> bool:
    return x.is_zero() if isinstance(x, TruncatedPoly) else x == 0.0


def poly_dot(u, v, zero):
    """sum_s u[s] v[s] over paired entries, each a TruncatedPoly or a real.

    Pairs with a zero factor are skipped; ``zero`` is returned when no
    pair is left.  The sum is accumulated pairwise, acc + u[s] v[s], in
    the order of the pairs: term insertion order decides the summation
    order of later products, so callers keep their operand order.  This
    is the one accumulation of polynomial sums of products.
    """
    acc = None
    for x, y in zip(u, v):
        if _vanishes(x) or _vanishes(y):
            continue
        t = x * y
        acc = t if acc is None else acc + t
    return zero if acc is None else acc


def _eval_terms(terms, xs):
    """Sum of the terms at the point xs, a list of reals."""
    total = 0.0
    for exp, c in terms.items():
        m = c
        for xi, e in zip(xs, exp):
            if e == 1:
                m *= xi
            elif e:
                m *= xi ** e
        total += m
    return total


def _gradient_terms(terms, xs):
    """The partial derivatives of the terms at xs, as a list."""
    g = [0.0] * len(xs)
    for exp, c in terms.items():
        for i, ei in enumerate(exp):
            if ei == 0:
                continue
            m = c * ei
            for j, (xj, ej) in enumerate(zip(xs, exp)):
                k = ej - 1 if j == i else ej
                if k == 1:
                    m *= xj
                elif k:
                    m *= xj ** k
            g[i] += m
    return g


def _on_floats(kernel, terms, x):
    """kernel(terms, x) on Python floats, which do the same IEEE
    operations as numpy scalars without boxing each one.  Float ``**``
    raises OverflowError where a numpy scalar gives inf, so an overflow
    reruns the kernel on numpy scalars."""
    try:
        return kernel(terms, x.tolist())
    except OverflowError:
        return kernel(terms, list(x))


def compose_batch(polys, args):
    """Compose several polynomials against the same substitution list.

    Substitutes args[i] for variable i in every input.  The monomial
    products of the arguments are memoized across all inputs, which is
    the dominant cost when the substituted maps are high degree.
    """
    polys = list(polys)
    if not polys:
        return []
    n_in = polys[0].n_vars
    for p in polys:
        if p.n_vars != n_in:
            raise ValueError("inputs disagree on variable count")
    if len(args) != n_in:
        raise ValueError("need one substitution per variable")
    n_out = args[0].n_vars
    for a in args:
        if a.n_vars != n_out:
            raise ValueError("substitutions disagree on variable count")
    cap = min(a.max_degree for a in args)
    cap = min(cap, max(p.max_degree for p in polys))
    one = TruncatedPoly.constant(1.0, n_out, cap)
    zero_exp = (0,) * n_in
    cache: dict[tuple, TruncatedPoly] = {zero_exp: one}

    def monomial_image(exp):
        hit = cache.get(exp)
        if hit is not None:
            return hit
        i = next(k for k, e in enumerate(exp) if e)
        prev = list(exp)
        prev[i] -= 1
        hit = monomial_image(tuple(prev)) * args[i]
        cache[exp] = hit
        return hit

    zero = TruncatedPoly.zero(n_out, cap)
    out = []
    for p in polys:
        items = sorted(p.terms.items(), key=_graded_key_kv)
        out.append(poly_dot((c for _, c in items),
                            (monomial_image(e) for e, _ in items), zero))
    return out


def _graded_key_kv(kv):
    return _graded_key(kv[0])


def lie_transform(h: TruncatedPoly, gamma: TruncatedPoly,
                  ps: PoissonStructure) -> TruncatedPoly:
    """Time-one Lie-series transform exp(ad_Gamma) h, with
    ad_Gamma(.) = {., Gamma}.

    Gamma must have minimum total degree >= 3 so that each bracket
    application raises the minimum degree and the series terminates at
    the truncation order.  Quadratic generators are rejected as well as
    linear ones: ad of a quadratic preserves degree, so the graded
    series would not terminate.
    """
    if not gamma.is_zero() and gamma.min_degree() < 3:
        raise ValueError("generator must have minimum degree >= 3 "
                         "(got %d)" % gamma.min_degree())
    out = h
    term = h
    j = 0
    # each application raises the minimum degree by >= 1
    max_iter = h.max_degree + 2
    while not term.is_zero():
        j += 1
        if j > max_iter:
            raise RuntimeError("Lie series failed to terminate")
        term = ps.bracket(term, gamma) * (1.0 / j)
        out = out + term
    return out


def coeff_distance(a: TruncatedPoly, b: TruncatedPoly) -> float:
    """Largest absolute coefficient of a - b (coefficient-wise metric)."""
    return (a - b).max_abs_coeff()
