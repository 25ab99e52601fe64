"""Exact operator-expression algebra and the simplex classifier."""

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.construction import (
    ConstantCuts,
    ConstructionSchedule,
    PatternSpacers,
    catalog,
    heights,
    realize,
)
from rankone.correlation import PairCounter, unit_mass
from rankone.diagnostics import limit_basis
from rankone.errors import MissingBasisLag, UnknownFamily
from rankone.operators import (
    build_family,
    classify_limit,
    family_names,
    family_reach,
    identity_op,
    joining_matrix,
    op_add,
    op_adjoint,
    op_convolve,
    op_power,
    op_scale,
    predicted_matrix,
    shift_op,
)

F = Fraction


def test_expression_canonical_form():
    e = identity_op()
    assert e.as_dict() == {0: F(1)} and e.theta == 0
    f = op_add(shift_op(2), op_scale(shift_op(2), -1))
    assert f.terms == ()  # zero coefficients are dropped


def test_mass_counts_theta():
    e = build_family("chacon-geometric", M=2)
    assert e.mass() == 1
    assert e.theta == F(1, 8)


def test_geometric_small_example():
    e = build_family("chacon-geometric", M=2)
    assert e.as_dict() == {0: F(1, 2), 1: F(1, 4), 2: F(1, 8)}


def test_modified_chacon_family():
    e = build_family("modified-chacon-limit")
    assert e.as_dict() == {0: F(1, 2), 1: F(1, 2)}
    assert e.theta == 0


def test_stochastic_family_pq_product():
    # P P* with a = 1/2 collapses to (1/4) T^-1 + (1/2) I + (1/4) T
    e = build_family("stochastic", m=1, n=1, a=F(1, 2))
    assert e.as_dict() == {-1: F(1, 4), 0: F(1, 2), 1: F(1, 4)}
    assert e.theta == 0


def test_stochastic_power_and_shift():
    e = build_family("stochastic", m=2, n=0, k=3, a=F(1, 3))
    # T^3 (aI + (1-a)T^-1)^2
    assert e.as_dict() == {3: F(1, 9), 2: F(4, 9), 1: F(4, 9)}


def test_adjoint_is_involution_and_reverses_powers():
    e = build_family("stochastic", m=2, n=1, k=1, a=F(2, 5))
    adj = op_adjoint(e)
    assert adj.as_dict() == {-p: c for p, c in e.as_dict().items()}
    assert op_adjoint(adj) == e
    assert adj.theta == e.theta


def test_convolve_mass_multiplicative():
    a = build_family("chacon-geometric", M=3)
    b = build_family("modified-chacon-limit")
    c = op_convolve(a, b)
    assert c.mass() == a.mass() * b.mass() == 1


def test_theta_absorbs_in_composition():
    # route through theta stays theta: (x I + y theta)^2 keeps theta mass 1 - x^2
    e = op_add(op_scale(identity_op(), F(3, 4)), op_scale(identity_op(), 0))
    e = op_add(e, op_scale(op_convolve(identity_op(), identity_op()), 0))
    g = op_convolve(
        op_add(op_scale(identity_op(), F(3, 4)), _theta(F(1, 4))),
        op_add(op_scale(identity_op(), F(3, 4)), _theta(F(1, 4))),
    )
    assert g.as_dict() == {0: F(9, 16)}
    assert g.theta == F(7, 16)


def _theta(mass):
    from rankone.operators import OperatorExpression

    return OperatorExpression.make({}, mass)


def test_power_collapse_binomial():
    # P^m for P = aI + (1-a)T^-1 has binomial coefficients
    a = F(1, 2)
    P = op_add(op_scale(identity_op(), a), op_scale(shift_op(-1), 1 - a))
    e = op_power(P, 8)
    d = e.as_dict()
    assert set(d) == set(range(-8, 1))
    total = sum(d.values())
    assert total == 1
    assert d[-4] == F(70, 256)  # C(8,4)/2^8


def test_power_collapse_products_up_to_eight():
    a = F(1, 3)
    P = op_add(op_scale(identity_op(), a), op_scale(shift_op(-1), 1 - a))
    for m in range(5):
        for n in range(5):
            if m + n > 8 or m + n == 0:
                continue
            lhs = op_convolve(op_power(P, m), op_power(op_adjoint(P), n))
            rhs = build_family("stochastic", m=m, n=n, a=a)
            assert lhs == rhs, (m, n)


def test_family_names_and_unknown():
    assert "chacon-geometric" in family_names()
    with pytest.raises(UnknownFamily):
        build_family("nope")


def test_geometric_rejects_negative_depth():
    with pytest.raises(ValueError):
        build_family("chacon-geometric", M=-1)


@pytest.mark.parametrize(
    "name, params",
    [
        ("identity", {}),
        ("modified-chacon-limit", {}),
        ("chacon-geometric", {}),
        ("chacon-geometric", {"M": 0}),
        ("chacon-geometric", {"M": 5}),
        ("stochastic", {"m": 2, "n": 0, "a": "1/2"}),
        ("stochastic", {"m": 0, "n": 3, "k": -1, "a": "1/3"}),
        ("stochastic", {"m": 2, "n": 1, "k": 4, "a": "3/4"}),
        ("stochastic", {"m": 3, "n": 2, "k": -5, "a": "1/4"}),
    ],
)
def test_family_reach_is_largest_built_power(name, params):
    powers = build_family(name, **params).powers()
    assert family_reach(name, **params) == max(abs(i) for i in powers)


def test_predicted_matrix_is_linear():
    rng = np.random.default_rng(0)
    basis = {i: rng.random((3, 3)) for i in range(-2, 3)}
    basis["theta"] = rng.random((3, 3))
    e1 = build_family("modified-chacon-limit")
    e2 = build_family("chacon-geometric", M=2)
    half_sum = predicted_matrix(
        op_add(op_scale(e1, F(1, 2)), op_scale(e2, F(1, 2))), basis
    )
    direct = 0.5 * predicted_matrix(e1, basis) + 0.5 * predicted_matrix(e2, basis)
    assert np.allclose(half_sum, direct, atol=1e-15)


def test_joining_matrix_from_limit_basis():
    rz = realize(catalog("modified-chacon"), 10)
    basis = limit_basis(PairCounter(rz, 10, 2), K=1)
    e = build_family("modified-chacon-limit")
    jm = joining_matrix(e, basis)
    assert np.allclose(jm.matrix, 0.5 * basis[0] + 0.5 * basis[1], atol=1e-15)


def test_joining_matrix_negative_power_uses_transpose():
    rz = realize(catalog("modified-chacon"), 10)
    basis = limit_basis(PairCounter(rz, 10, 2), K=1)
    e = build_family("stochastic", m=1, n=0, a=F(1, 2))  # powers {0, -1}
    jm = joining_matrix(e, basis)
    assert np.allclose(jm.matrix, 0.5 * basis[0] + 0.5 * basis[1].T, atol=1e-15)


def test_joining_matrix_missing_basis_lag():
    rz = realize(catalog("modified-chacon"), 10)
    basis = limit_basis(PairCounter(rz, 10, 2), K=0)
    e = build_family("modified-chacon-limit")  # needs power 1
    with pytest.raises(MissingBasisLag):
        joining_matrix(e, basis)


def _exact_basis():
    rz = realize(catalog("modified-chacon"), 11)
    return limit_basis(PairCounter(rz, 11, 3), K=8)


def test_classify_recovers_exact_member():
    basis = _exact_basis()
    for name, kwargs in [
        ("identity", {}),
        ("modified-chacon-limit", {}),
        ("chacon-geometric", {"M": 6}),
        ("stochastic", {"m": 2, "n": 1, "k": 0, "a": F(1, 2)}),
    ]:
        e = build_family(name, **kwargs)
        target = predicted_matrix(e, basis)
        res = classify_limit(target, basis)
        assert res.residual <= 1e-9, name
        assert res.residual_frobenius <= 1e-8, name
        assert res.identified
        for p, c in e.as_dict().items():
            assert res.coefficients.get(p, 0.0) == pytest.approx(
                float(c), abs=1e-7
            ), (name, p)
        assert res.theta == pytest.approx(float(e.theta), abs=1e-7)


def test_classify_coefficients_form_simplex():
    basis = _exact_basis()
    target = predicted_matrix(build_family("chacon-geometric", M=5), basis)
    res = classify_limit(target, basis)
    total = sum(res.coefficients.values()) + res.theta
    assert total == pytest.approx(1.0, abs=1e-12)
    assert all(c >= 0 for c in res.coefficients.values())
    assert res.theta >= 0


def test_classify_deterministic():
    basis = _exact_basis()
    target = predicted_matrix(build_family("modified-chacon-limit"), basis)
    a = classify_limit(target, basis)
    b = classify_limit(target, basis)
    assert a.coefficients == b.coefficients
    assert a.residual == b.residual


def test_classify_residual_norms_ordered():
    basis = _exact_basis()
    rng = np.random.default_rng(3)
    noisy = predicted_matrix(build_family("identity"), basis)
    noisy = noisy + 0.01 * rng.random(noisy.shape)
    res = classify_limit(noisy, basis)
    assert res.residual <= res.residual_frobenius + 1e-15
    assert res.residual > 0


def _solve_exact(M, rhs):
    """Solve M y = rhs over Fractions by Gauss-Jordan; None if M is singular."""
    n = len(M)
    a = [row[:] + [r] for row, r in zip(M, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col] / a[col][col]
                a[r] = [u - f * v for u, v in zip(a[r], a[col])]
    return [a[i][n] / a[i][i] for i in range(n)]


def _simplex_kkt_points(cols, target):
    """Every minimizer of |A x - b|^2 / 2 over x >= 0, sum x = 1 that is a KKT
    point of some support P, found exactly: solve
    [G_PP 1; 1' 0][z; nu] = [c_P; 1] over Fractions (G = A'A, c = A'b) and
    keep z >= 0 whose multipliers g_i + nu (g = Gx - c) outside P are >= 0.
    Maps each distinct x to its objective. A minimizer's fit is a convex
    combination of affinely independent columns, whose system is regular,
    so every optimal vertex is found."""
    A = [[F(float(v)) for v in col] for col in cols]
    b = [F(float(v)) for v in target]
    n = len(A)
    G = [[sum(p * q for p, q in zip(A[i], A[j])) for j in range(n)] for i in range(n)]
    c = [sum(p * q for p, q in zip(A[i], b)) for i in range(n)]
    points = {}
    for k in range(1, n + 1):
        for P in combinations(range(n), k):
            kkt = [[G[i][j] for j in P] + [F(1)] for i in P] + [[F(1)] * k + [F(0)]]
            sol = _solve_exact(kkt, [c[i] for i in P] + [F(1)])
            if sol is None or min(sol[:k]) < 0:
                continue
            x = [F(0)] * n
            for i, v in zip(P, sol):
                x[i] = v
            g = [sum(G[i][j] * x[j] for j in range(n)) - c[i] for i in range(n)]
            if any(g[i] + sol[k] < 0 for i in range(n) if i not in P):
                continue
            fit = [sum(A[j][r] * x[j] for j in range(n)) for r in range(len(b))]
            points[tuple(x)] = sum((u - v) ** 2 for u, v in zip(fit, b)) / 2
    return points


@st.composite
def _simplex_problems(draw):
    """3-6 random S x S basis matrices (the last one theta, or not) and a
    target; entries are multiples of 1/8, so every float is exact."""
    S = draw(st.integers(2, 3))
    n = draw(st.integers(3, 6))
    cell = st.integers(0, 8).map(lambda v: v / 8)
    mats = [
        np.array(draw(st.lists(cell, min_size=S * S, max_size=S * S))).reshape(S, S)
        for _ in range(n + 1)
    ]
    basis = dict(enumerate(mats[:n]))
    if draw(st.booleans()):
        basis["theta"] = basis.pop(n - 1)
    return basis, mats[n]


@given(problem=_simplex_problems())
@settings(max_examples=100, deadline=None)
def test_classify_matches_exact_simplex_optimum(problem):
    basis, target = problem
    keys = sorted(k for k in basis if isinstance(k, int)) + (
        ["theta"] if "theta" in basis else []
    )
    points = _simplex_kkt_points([basis[k].ravel() for k in keys], target.ravel())
    assert points
    assert len(set(points.values())) == 1  # the problem is convex
    best = float(next(iter(points.values())))
    res = classify_limit(target, basis)
    x = [res.theta if k == "theta" else res.coefficients[k] for k in keys]
    assert min(x) >= 0
    assert sum(x) == pytest.approx(1.0, abs=1e-12)
    assert 0.5 * res.residual_frobenius**2 == pytest.approx(best, abs=1e-12)
    if len(points) == 1:  # a unique optimum
        exact = [float(v) for v in next(iter(points))]
        assert x == pytest.approx(exact, abs=1e-9)


def test_classify_holds_the_simplex_exactly_on_a_long_spacer_basis():
    # cuts 2, spacers 0 and 20000 (perfbench's long-spacer), window 4: at
    # lag l_8 + 3 the best simplex fit leaves a max-abs misfit of 1.7e-7, far
    # below the 2.67e-5 that a 1e3-weighted sum-to-one row leaves here
    rz = realize(
        ConstructionSchedule(
            "transformation", ConstantCuts(2), PatternSpacers((0, 20000)), h1=7
        ),
        12,
    )
    lag = heights(rz, 12)[7] + 3
    pc = PairCounter(rz, 12, 1)
    basis = limit_basis(pc, K=4)
    res = classify_limit(unit_mass(pc.counts(lag), lag, pc.lJ), basis)
    assert res.residual < 1e-6
    assert sum(res.coefficients.values()) + res.theta == pytest.approx(1.0, abs=1e-12)


@given(
    m=st.integers(0, 3),
    n=st.integers(0, 3),
    k=st.integers(-3, 3),
    num=st.integers(1, 9),
)
@settings(max_examples=40, deadline=None)
def test_stochastic_family_mass_one(m, n, k, num):
    a = F(num, 10)
    e = build_family("stochastic", m=m, n=n, k=k, a=a)
    assert e.mass() == 1
    assert min(e.powers(), default=0) >= k - m
    assert max(e.powers(), default=0) <= k + n


@given(
    m=st.integers(0, 5),
    n=st.integers(0, 5),
    k=st.integers(-3, 3),
    a=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(
        lambda a: 0 < a < 1
    ),
)
@settings(max_examples=60, deadline=None)
def test_stochastic_family_is_the_operator_product(m, n, k, a):
    P = op_add(op_scale(identity_op(), a), op_scale(shift_op(-1), 1 - a))
    product = op_convolve(op_power(P, m), op_power(op_adjoint(P), n))
    assert build_family("stochastic", m=m, n=n, k=k, a=a) == op_convolve(
        shift_op(k), product
    )
