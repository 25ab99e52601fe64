"""Exact operator-expression algebra and the simplex classifier."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankone.construction import catalog, realize
from rankone.correlation import corr_sequence
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


def test_joining_matrix_from_corr_sequence():
    rz = realize(catalog("modified-chacon"), 10)
    seq = corr_sequence(rz, 10, 2, [0, 1, 2])
    mu = seq.matrix(0).matrix.sum(axis=1)
    prod = np.outer(mu, mu)
    e = build_family("modified-chacon-limit")
    jm = joining_matrix(e, seq, product=prod, depth=10, construction=rz.name)
    lJ = seq.word_length
    d0 = seq.matrix(0).matrix / (1.0 - 0 / lJ)
    d1 = seq.matrix(1).matrix / (1.0 - 1 / lJ)
    assert np.allclose(jm.matrix, 0.5 * d0 + 0.5 * d1, atol=1e-15)
    assert jm.depth == 10


def test_joining_matrix_negative_power_uses_transpose():
    rz = realize(catalog("modified-chacon"), 10)
    seq = corr_sequence(rz, 10, 2, [0, 1])
    e = build_family("stochastic", m=1, n=0, a=F(1, 2))  # powers {0, -1}
    jm = joining_matrix(e, seq)
    d0 = seq.matrix(0).matrix
    d1 = seq.matrix(1).matrix / (1.0 - seq.matrix(1).boundary_error)
    assert np.allclose(jm.matrix, 0.5 * d0 + 0.5 * d1.T, atol=1e-15)


def test_joining_matrix_missing_basis_lag():
    rz = realize(catalog("modified-chacon"), 10)
    seq = corr_sequence(rz, 10, 2, [0])
    e = build_family("modified-chacon-limit")  # needs power 1
    with pytest.raises(MissingBasisLag):
        joining_matrix(e, seq)


def _exact_basis():
    rz = realize(catalog("modified-chacon"), 11)
    return limit_basis(rz, 11, 3, K=8)


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


def test_classify_accepts_joining_matrix_wrapper():
    rz = realize(catalog("modified-chacon"), 11)
    basis = limit_basis(rz, 11, 3, K=4)
    seq = corr_sequence(rz, 11, 3, [0, 1, 2, 3, 4])
    mu = seq.matrix(0).matrix.sum(axis=1)
    jm = joining_matrix(
        build_family("modified-chacon-limit"), seq, product=np.outer(mu, mu)
    )
    res = classify_limit(jm, basis)
    assert res.residual <= 1e-9


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
