"""Exact algebra of limit operators and classification of measured matrices.

Weak limits of powers of a rank-one map land in the closed convex hull of
{T^i} plus an absorbing element theta (mass that dissipates toward the
product). Elements are represented exactly: a finite Fraction-weighted sum
of integer powers of T together with a Fraction theta mass. Composition,
adjoint, and the named families are computed in exact rational arithmetic.

Classification goes the other way: given a measured matrix and exact
finite-depth basis matrices {D(i)} plus the product matrix, find the best
nonnegative, sum-to-one combination (a small non-negative least squares
problem solved by an active-set iteration) and report the max-abs residual.
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
    if name == "identity":
        return identity_op()
    if name == "modified-chacon-limit":
        return OperatorExpression.make({0: Fraction(1, 2), 1: Fraction(1, 2)})
    if name == "chacon-geometric":
        M = int(params.get("M", 16))
        if M < 0:
            raise ValueError(f"chacon-geometric wants M >= 0, got {M}")
        terms = {i: Fraction(1, 2 ** (i + 1)) for i in range(M + 1)}
        return OperatorExpression.make(terms, Fraction(1, 2 ** (M + 1)))
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
        # P^m = sum_i C(m,i) a^(m-i) (1-a)^i T^-i, and the adjoint mirror
        expr: Dict[int, Fraction] = {}
        for i in range(m + 1):
            for j in range(n + 1):
                coeff = (
                    comb(m, i)
                    * comb(n, j)
                    * a ** (m - i + n - j)
                    * (1 - a) ** (i + j)
                )
                p = k - i + j
                expr[p] = expr.get(p, Fraction(0)) + coeff
        return OperatorExpression.make(expr)
    raise UnknownFamily(f"no operator family named {name!r}")


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

    Entries are nonnegative and the marginals track the level measures up to
    the boundary mass the basis matrices lost at their own lags.
    """

    matrix: np.ndarray
    depth: int = 0
    construction: str = ""


def _basis_lookup(seq, power: int) -> np.ndarray:
    """Unit-mass matrix for one power out of a lag-indexed sequence."""
    for lag in (power, -power):
        if lag in seq:
            cm = seq.matrix(lag)
            m = cm.matrix / (1.0 - cm.boundary_error)
            return m if lag == power else m.T
    raise MissingBasisLag(f"no stored lag covers power {power}")


def joining_matrix(
    expr: OperatorExpression,
    basis,
    product: np.ndarray = None,
    depth: int = 0,
    construction: str = "",
) -> JoiningMatrix:
    """Evaluate sum c_i D(i) + theta * product over measured basis matrices.

    basis is either a mapping (integer powers plus optional "theta", as
    produced by limit_basis) or a lag-keyed sequence from corr_sequence; in
    the latter case stored matrices are rescaled to unit mass and a missing
    negative lag is served by transposing the positive one. The optional
    product argument supplies (or overrides) the theta matrix.
    """
    if hasattr(basis, "matrix") and not isinstance(basis, Mapping):
        mapping: Dict[Union[int, str], np.ndarray] = {
            p: _basis_lookup(basis, p) for p in expr.powers()
        }
    else:
        mapping = dict(basis)
    if product is not None:
        mapping["theta"] = np.asarray(product, dtype=np.float64)
    return JoiningMatrix(
        matrix=predicted_matrix(expr, mapping),
        depth=depth,
        construction=construction,
    )


# ---------------------------------------------------------------------------
# classification

def _nnls(A: np.ndarray, b: np.ndarray, max_iter: int = 0) -> np.ndarray:
    """Nonnegative least squares by the classic active-set iteration.

    Deterministic: ties in the gradient pick the smallest index. Problems
    here are tiny (tens of columns), so lstsq on the passive set is cheap.
    """
    m, n = A.shape
    if max_iter <= 0:
        max_iter = 3 * n + 30
    x = np.zeros(n)
    passive = np.zeros(n, dtype=bool)
    w = A.T @ (b - A @ x)
    # roundoff floor for the gradient: eps times the largest column energy
    scale = float((A * A).sum(axis=0).max()) or 1.0
    tol = 100 * np.finfo(np.float64).eps * scale
    outer = 0
    while (~passive).any() and (w[~passive] > tol).any():
        outer += 1
        if outer > max_iter:
            raise SolverDivergence("active-set iteration did not converge")
        cand = np.where(~passive)[0]
        j = cand[int(np.argmax(w[cand]))]
        passive[j] = True
        while True:
            z = np.zeros(n)
            sol, _, _, _ = np.linalg.lstsq(A[:, passive], b, rcond=None)
            z[passive] = sol
            if (z[passive] > 0).all():
                x = z
                break
            bad = passive & (z <= 0)
            idx = np.where(bad)[0]
            denom = x[idx] - z[idx]
            steps = np.where(denom > 0, x[idx] / np.where(denom > 0, denom, 1.0), np.inf)
            alpha = float(steps.min())
            x = x + alpha * (z - x)
            passive &= np.abs(x) > 1e-14
            x[~passive] = 0.0
        w = A.T @ (b - A @ x)
    return x


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
    penalty: float = 1e3,
) -> ClassifyResult:
    """Fit measured ~ sum_i c_i D(i) + c_theta * product, c >= 0, sum c = 1.

    The sum-to-one constraint rides along as a heavily weighted extra row;
    the solution is then renormalized exactly so coefficients sum to one.
    residual is the max-abs entry of the misfit at those coefficients and
    residual_frobenius its Frobenius norm; identified means the max-abs
    residual is <= tol.
    """
    if isinstance(measured, JoiningMatrix):
        measured = measured.matrix
    keys = sorted((k for k in basis if isinstance(k, int)))
    has_theta = "theta" in basis
    cols = [np.asarray(basis[k], dtype=np.float64).ravel() for k in keys]
    if has_theta:
        cols.append(np.asarray(basis["theta"], dtype=np.float64).ravel())
    if not cols:
        raise MissingBasisLag("empty basis")
    target = np.asarray(measured, dtype=np.float64).ravel()
    A = np.stack(cols, axis=1)
    A = np.vstack([A, np.full((1, A.shape[1]), penalty)])
    b = np.concatenate([target, [penalty]])
    x = _nnls(A, b)
    s = float(x.sum())
    if s <= 0:
        raise SolverDivergence("degenerate fit: all coefficients vanished")
    x = x / s
    fit = np.zeros_like(target)
    for i, c in enumerate(cols):
        fit += x[i] * c
    misfit = fit - target
    residual = float(np.abs(misfit).max())
    coeffs = {k: float(x[i]) for i, k in enumerate(keys)}
    theta = float(x[len(keys)]) if has_theta else 0.0
    return ClassifyResult(
        coefficients=coeffs,
        theta=theta,
        residual=residual,
        residual_frobenius=float(np.sqrt((misfit * misfit).sum())),
        identified=residual <= tol,
        tolerance=tol,
    )
