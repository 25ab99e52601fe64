"""Exact algebra of limit operators and classification of measured matrices.

Weak limits of powers of a rank-one map land in the closed convex hull of
{T^i} plus an absorbing element theta (mass that dissipates toward the
product). Elements are represented exactly: a finite Fraction-weighted sum
of integer powers of T together with a Fraction theta mass. Composition,
adjoint, and the named families are computed in exact rational arithmetic.

Classification goes the other way: given a measured matrix and exact
finite-depth basis matrices {D(i)} plus the product matrix, find the convex
combination (coefficients >= 0 summing to exactly 1) closest in Frobenius
norm, and report its max-abs residual. The fit is an active-set iteration
on the Gram matrix of the basis whose KKT system holds the sum-to-one
equality exactly, so the coefficients are those of the constrained optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb
from typing import Dict, Iterable, Mapping, Tuple, Union

import numpy as np

from .errors import MissingBasisLag, SolverDivergence, UnknownFamily

__all__ = [
    "OperatorExpression",
    "identity_op",
    "shift_op",
    "op_add",
    "op_scale",
    "op_convolve",
    "op_adjoint",
    "op_power",
    "build_family",
    "check_family",
    "family_names",
    "family_reach",
    "predicted_matrix",
    "JoiningMatrix",
    "joining_matrix",
    "ClassifyResult",
    "classify_limit",
]

Rational = Union[int, Fraction, str]


def _frac(x: Rational) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x)  # exact binary value of the float
    raise TypeError(f"not a rational: {x!r}")


@dataclass(frozen=True)
class OperatorExpression:
    """sum_i c_i T^i + theta_mass * theta, with exact Fraction weights.

    terms is canonical: sorted by power, zero coefficients dropped.
    """

    terms: Tuple[Tuple[int, Fraction], ...]
    theta: Fraction

    @staticmethod
    def make(
        terms: Mapping[int, Rational] | Iterable[Tuple[int, Rational]] = (),
        theta: Rational = 0,
    ) -> "OperatorExpression":
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: Dict[int, Fraction] = {}
        for p, c in items:
            acc[int(p)] = acc.get(int(p), Fraction(0)) + _frac(c)
        canon = tuple(sorted((p, c) for p, c in acc.items() if c != 0))
        return OperatorExpression(terms=canon, theta=_frac(theta))

    def coefficient(self, power: int) -> Fraction:
        for p, c in self.terms:
            if p == power:
                return c
        return Fraction(0)

    def as_dict(self) -> Dict[int, Fraction]:
        return dict(self.terms)

    def mass(self) -> Fraction:
        return sum((c for _, c in self.terms), Fraction(0)) + self.theta

    def powers(self) -> Tuple[int, ...]:
        return tuple(p for p, _ in self.terms)

    def __str__(self) -> str:
        bits = []
        for p, c in self.terms:
            if p == 0:
                bits.append(f"{c}*I")
            else:
                bits.append(f"{c}*T^{p}")
        if self.theta:
            bits.append(f"{self.theta}*theta")
        return " + ".join(bits) if bits else "0"


def identity_op() -> OperatorExpression:
    return OperatorExpression.make({0: 1})


def shift_op(k: int) -> OperatorExpression:
    """T^k as an expression."""
    return OperatorExpression.make({int(k): 1})


def op_add(a: OperatorExpression, b: OperatorExpression) -> OperatorExpression:
    acc = dict(a.terms)
    for p, c in b.terms:
        acc[p] = acc.get(p, Fraction(0)) + c
    return OperatorExpression.make(acc, a.theta + b.theta)


def op_scale(a: OperatorExpression, s: Rational) -> OperatorExpression:
    sf = _frac(s)
    return OperatorExpression.make({p: c * sf for p, c in a.terms}, a.theta * sf)


def op_convolve(a: OperatorExpression, b: OperatorExpression) -> OperatorExpression:
    """Composition. theta is absorbing: any route through theta stays theta."""
    acc: Dict[int, Fraction] = {}
    for p, c in a.terms:
        for q, d in b.terms:
            acc[p + q] = acc.get(p + q, Fraction(0)) + c * d
    mass_a_terms = sum((c for _, c in a.terms), Fraction(0))
    theta = a.theta * b.mass() + mass_a_terms * b.theta
    return OperatorExpression.make(acc, theta)


def op_adjoint(a: OperatorExpression) -> OperatorExpression:
    """T^i goes to T^{-i}; theta is self-adjoint."""
    return OperatorExpression.make({-p: c for p, c in a.terms}, a.theta)


def op_power(a: OperatorExpression, n: int) -> OperatorExpression:
    if n < 0:
        raise ValueError("op_power wants n >= 0")
    out = identity_op()
    for _ in range(n):
        out = op_convolve(out, a)
    return out


# ---------------------------------------------------------------------------
# named families

_FAMILIES = ("identity", "modified-chacon-limit", "chacon-geometric", "stochastic")


def family_names() -> Tuple[str, ...]:
    return _FAMILIES


def build_family(name: str, **params) -> OperatorExpression:
    """Exact expression for a named limit family.

    identity                       I
    modified-chacon-limit          (I + T)/2
    chacon-geometric [M=16]        sum_{i<=M} 2^-(i+1) T^i, tail 2^-(M+1) on theta
    stochastic m, n, [k=0], a      T^k P^m (P*)^n with P = a I + (1-a) T^-1

    Families are written for the negative-lag side; take op_adjoint for the
    mirror. a may be int, Fraction, or a string like "1/2".
    """
    args = check_family(name, **params)
    if name == "identity":
        return identity_op()
    if name == "modified-chacon-limit":
        return OperatorExpression.make({0: Fraction(1, 2), 1: Fraction(1, 2)})
    if name == "chacon-geometric":
        M = args["M"]
        terms = {i: Fraction(1, 2 ** (i + 1)) for i in range(M + 1)}
        return OperatorExpression.make(terms, Fraction(1, 2 ** (M + 1)))
    if name == "stochastic":
        m, n, k, a = args["m"], args["n"], args["k"], args["a"]
        # with a = p/q, q^m P^m = sum_i C(m,i) p^(m-i) (q-p)^i T^-i and
        # q^n (P*)^n mirrors it: convolve the two integer rows once
        p, q = a.numerator, a.denominator
        back = np.array(_binomial_row(m, p, q - p)[::-1], dtype=object)  # T^-m..I
        ahead = np.array(_binomial_row(n, p, q - p), dtype=object)  # I..T^n
        scale = q ** (m + n)
        return OperatorExpression.make(
            {k - m + i: Fraction(c, scale) for i, c in enumerate(np.convolve(back, ahead))}
        )
    raise UnknownFamily(f"no operator family named {name!r}")


def _binomial_row(m: int, x: int, y: int) -> list:
    """[C(m, i) x^(m-i) y^i for i = 0..m] as Python ints."""
    return [comb(m, i) * x ** (m - i) * y**i for i in range(m + 1)]


def check_family(name: str, **params) -> Dict[str, object]:
    """The parameters of a named family, parsed and range-checked without
    building it (a long family is slow to build): M for chacon-geometric,
    m, n, k, a for stochastic, nothing for the others. Raises ValueError
    for a value out of range and UnknownFamily for a missing one."""
    if name == "chacon-geometric":
        M = int(params.get("M", 16))
        if M < 0:
            raise ValueError(f"chacon-geometric wants M >= 0, got {M}")
        return {"M": M}
    if name == "stochastic":
        try:
            m = int(params["m"])
            n = int(params["n"])
            a = _frac(params["a"])
        except KeyError as exc:
            raise UnknownFamily(f"stochastic family needs m, n, a (missing {exc})") from None
        k = int(params.get("k", 0))
        if m < 0 or n < 0 or not 0 < a < 1:
            raise ValueError(
                f"stochastic family wants m, n >= 0 and 0 < a < 1, got m = {m}, "
                f"n = {n}, a = {a}"
            )
        return {"m": m, "n": n, "k": k, "a": a}
    return {}


def family_reach(name: str, **params) -> int:
    """Largest |i| with T^i in build_family(name, **params), read off the
    parameters without building the coefficients (a long family is slow to
    build)."""
    if name == "chacon-geometric":
        return int(params.get("M", 16))
    if name == "stochastic":
        k = int(params.get("k", 0))
        return max(abs(k - int(params["m"])), abs(k + int(params["n"])))
    return 1 if name == "modified-chacon-limit" else 0


def predicted_matrix(
    expr: OperatorExpression, basis: Mapping[Union[int, str], np.ndarray]
) -> np.ndarray:
    """Matrix the expression predicts: sum c_i D(i) + theta * product matrix.

    basis maps integer powers to exact finite-depth matrices and "theta" to
    the product (independence) matrix.
    """
    probe = None
    for v in basis.values():
        probe = v
        break
    if probe is None:
        raise MissingBasisLag("empty basis")
    out = np.zeros_like(np.asarray(probe, dtype=np.float64))
    for p, c in expr.terms:
        if p not in basis:
            raise MissingBasisLag(f"family needs basis matrix for power {p}")
        out += float(c) * np.asarray(basis[p], dtype=np.float64)
    if expr.theta:
        if "theta" not in basis:
            raise MissingBasisLag("family needs the product matrix under key 'theta'")
        out += float(expr.theta) * np.asarray(basis["theta"], dtype=np.float64)
    return out


@dataclass(frozen=True)
class JoiningMatrix:
    """Matrix of an operator expression over a finite-depth basis.

    Entries are nonnegative and the marginals track the level measures of
    the finite-depth basis.
    """

    matrix: np.ndarray


def joining_matrix(
    expr: OperatorExpression, basis: Mapping[Union[int, str], np.ndarray]
) -> JoiningMatrix:
    """Evaluate sum c_i D(i) + theta * product over the unit-mass basis that
    limit_basis builds (integer powers plus "theta")."""
    return JoiningMatrix(matrix=predicted_matrix(expr, basis))


# ---------------------------------------------------------------------------
# classification

def _simplex_lstsq(G: np.ndarray, c: np.ndarray) -> np.ndarray:
    """argmin 1/2 x'Gx - c'x over the simplex x >= 0, sum x = 1.

    With G = A'A and c = A'b this is the least-squares fit of b by convex
    combinations of A's columns: Lawson and Hanson's NNLS on the normal
    equations (as in Bro and de Jong) with the equality held exactly. From
    the best vertex, while a column outside the passive set P has a negative
    multiplier mu = g - mean(g_P), g = Gx - c, add the most negative (ties
    pick the smallest index) and solve [G_PP 1; 1' 0][z; nu] = [c_P; 1]; if
    some z_P <= 0, step from x toward z until a coordinate reaches 0 and drop
    it. x stays on the simplex. More than 3n + 30 columns added means cycling.
    """
    n = len(c)
    # the bordered system [G 1; 1' 0][x; nu] = [c; 1]: P solves rows P + [n]
    kkt = np.ones((n + 1, n + 1))
    kkt[:n, :n] = G
    kkt[n, n] = 0.0
    rhs = np.append(c, 1.0)
    rows = np.arange(n + 1) == n
    passive = rows[:n]  # a view: marking a passive column marks its row
    passive[int(np.argmin(0.5 * np.diag(G) - c))] = True
    x = passive.astype(np.float64)
    # roundoff floor for the multipliers: eps times the largest column energy
    tol = 100 * np.finfo(np.float64).eps * (float(np.diag(G).max()) or 1.0)
    for _ in range(3 * n + 31):
        g = G @ x - c
        mu = g - g[passive].mean()
        mu[passive] = np.inf
        j = int(np.argmin(mu))
        if mu[j] >= -tol:
            return x
        passive[j] = True
        while True:
            sel = np.flatnonzero(rows)
            idx = sel[:-1]
            z = np.linalg.lstsq(kkt[sel][:, sel], rhs[sel], rcond=None)[0][:-1]
            if z.min() > 0:
                x = np.zeros(n)
                x[idx] = z
                break
            bad = z <= 0
            xb = x[idx][bad]
            gap = xb - z[bad]  # >= 0; 0 only where x = z = 0
            steps = np.divide(xb, gap, out=np.zeros_like(gap), where=gap > 0)
            x[idx] += float(steps.min()) * (z - x[idx])
            passive &= x > 1e-14
            x[~passive] = 0.0
    raise SolverDivergence("active-set iteration did not converge")


@dataclass(frozen=True)
class ClassifyResult:
    """Best nonnegative sum-to-one combination of the basis."""

    coefficients: Dict[int, float]
    theta: float
    residual: float
    residual_frobenius: float
    identified: bool
    tolerance: float


def classify_limit(
    measured: np.ndarray,
    basis: Mapping[Union[int, str], np.ndarray],
    tol: float = 0.03,
) -> ClassifyResult:
    """Fit measured ~ sum_i c_i D(i) + c_theta * product, c >= 0, sum c = 1.

    With A the flattened basis matrices as columns (integer powers in
    order, then theta) and b the flattened measured matrix, the coefficients
    x minimize the Frobenius misfit |A x - b| over the simplex exactly: an
    active set on the Gram matrix A'A and A'b, whose KKT system carries the
    sum-to-one constraint as an equality (_simplex_lstsq). residual is the
    max-abs entry of the misfit A x - b and residual_frobenius its Frobenius
    norm; identified means the max-abs residual is <= tol.
    """
    keys = sorted(k for k in basis if isinstance(k, int))
    keys += ["theta"] if "theta" in basis else []
    if not keys:
        raise MissingBasisLag("empty basis")
    A = np.stack([np.asarray(basis[k], dtype=np.float64).ravel() for k in keys], axis=1)
    target = np.asarray(measured, dtype=np.float64).ravel()
    x = _simplex_lstsq(A.T @ A, A.T @ target)
    misfit = A @ x - target
    residual = float(np.abs(misfit).max())
    coeffs = dict(zip(keys, x.tolist()))
    return ClassifyResult(
        coefficients={k: c for k, c in coeffs.items() if k != "theta"},
        theta=coeffs.get("theta", 0.0),
        residual=residual,
        residual_frobenius=float(np.sqrt((misfit * misfit).sum())),
        identified=residual <= tol,
        tolerance=tol,
    )
