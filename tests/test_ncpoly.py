import random

import hypothesis.strategies as st
import pytest
from hypothesis import given

from conftest import matrices
from ncroots.exact_linalg import RatMatrix
from ncroots.ncpoly import NCPoly, from_linear_factors


def t_squared(d=2):
    z = RatMatrix.zeros(d)
    return NCPoly([RatMatrix.identity(d), z, z])


def test_mul_by_one(nilpotent_pair):
    x1, _ = nilpotent_pair
    p = NCPoly.t_minus(x1)
    assert p * NCPoly.one(2) == p
    assert NCPoly.one(2) * p == p


def test_mul_nilpotent_collapse(nilpotent_pair):
    x1, _ = nilpotent_pair
    # the two lower coefficients cancel exactly: sum and product both vanish
    assert NCPoly.t_minus(-x1) * NCPoly.t_minus(x1) == t_squared()


@given(matrices(), matrices())
def test_mul_two_linear_factors(a, b):
    p = NCPoly.t_minus(a) * NCPoly.t_minus(b)
    assert p.coeffs == (RatMatrix.identity(2), -(a + b), a * b)


def test_right_eval_own_root(nilpotent_pair):
    x1, x2 = nilpotent_pair
    assert NCPoly.t_minus(x1).right_eval(x1).is_zero()
    assert t_squared().right_eval(x2).is_zero()
    assert NCPoly.t_minus(x1).right_eval(x2) == x2 - x1


@given(matrices(), matrices())
def test_left_eval_left_factor(a, b):
    p = NCPoly.t_minus(a) * NCPoly.t_minus(b)
    assert p.left_eval(a).is_zero()
    assert NCPoly.t_minus(a).left_eval(b) == b - a


def test_left_divide_linear_exact(nilpotent_pair):
    x1, _ = nilpotent_pair
    q, r = t_squared().left_divide_linear(-x1)
    assert r.is_zero()
    assert q == NCPoly.t_minus(x1)
    assert NCPoly.t_minus(-x1) * q == t_squared()


def test_left_divide_linear_quotient_shape(nilpotent_pair):
    x1, _ = nilpotent_pair
    q, r = t_squared().left_divide_linear(x1)
    assert r.is_zero()
    assert q.coeffs == (RatMatrix.identity(2), x1)  # t + x1


def test_left_divide_nonroot(nilpotent_pair):
    x1, x2 = nilpotent_pair
    q, r = NCPoly.t_minus(x1).left_divide_linear(x2)
    assert q == NCPoly.one(2)
    assert r == x2 - x1


@given(matrices(), matrices(), matrices())
def test_left_divide_reconstruction(a, b, x):
    p = NCPoly.t_minus(a) * NCPoly.t_minus(b)
    q, r = p.left_divide_linear(x)
    assert NCPoly.t_minus(x) * q + NCPoly.constant(r) == p
    assert r == p.left_eval(x)  # remainder is the left evaluation


def test_right_divide_monic(nilpotent_pair):
    x1, _ = nilpotent_pair
    q, r = t_squared().right_divide_monic(NCPoly.t_minus(x1))
    assert r.is_zero
    assert q.coeffs == (RatMatrix.identity(2), x1)


def test_right_divide_remainder(nilpotent_pair):
    x1, x2 = nilpotent_pair
    q, r = NCPoly.t_minus(x1).right_divide_monic(NCPoly.t_minus(x2))
    assert q == NCPoly.one(2)
    assert r == NCPoly.constant(x2 - x1)


def test_right_divide_requires_monic(nilpotent_pair):
    x1, _ = nilpotent_pair
    with pytest.raises(ValueError):
        t_squared().right_divide_monic(NCPoly.constant(x1))


@given(matrices(), matrices(), matrices())
def test_right_divide_reconstruction(a, b, c):
    p = from_linear_factors([a, b, c])
    d = NCPoly.t_minus(b) * NCPoly.t_minus(c)
    q, r = p.right_divide_monic(d)
    assert q * d + r == p
    assert r.is_zero or r.degree < d.degree


def test_from_linear_factors(nilpotent_pair):
    x1, _ = nilpotent_pair
    assert from_linear_factors([x1]) == NCPoly.t_minus(x1)
    assert from_linear_factors([-x1, x1]) == t_squared()
    assert from_linear_factors([], dim=2) == NCPoly.one(2)
    with pytest.raises(ValueError):
        from_linear_factors([])


def test_factor_products_have_boundary_roots():
    rng = random.Random(5)
    for _ in range(10):
        xs = [RatMatrix([[rng.randint(-4, 4) for _ in range(2)] for _ in range(2)])
              for _ in range(3)]
        p = from_linear_factors(xs)
        assert p.left_eval(xs[0]).is_zero()
        assert p.right_eval(xs[-1]).is_zero()


def test_zero_polynomial():
    z = NCPoly.zero(2)
    assert z.is_zero
    with pytest.raises(ValueError):
        _ = z.degree
    with pytest.raises(ValueError):
        z.left_divide_linear(RatMatrix.zeros(2))
    assert (z + NCPoly.one(2)) == NCPoly.one(2)
    assert (z * NCPoly.one(2)).is_zero
    # leading zeros are stripped on construction
    assert NCPoly([RatMatrix.zeros(2), RatMatrix.identity(2)]) == NCPoly.one(2)


def test_monic_flag(nilpotent_pair):
    x1, _ = nilpotent_pair
    assert NCPoly.t_minus(x1).is_monic
    assert not NCPoly.constant(x1).is_monic
    assert not NCPoly([x1, x1]).is_monic


def test_json_roundtrip(nilpotent_pair):
    x1, x2 = nilpotent_pair
    p = from_linear_factors([x1, x2])
    assert NCPoly.from_json(p.to_json()) == p
    obj = p.to_json()
    assert obj["d"] == 2 and len(obj["coeffs"]) == 3


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.tuples(st.just(d), st.lists(matrices(d), max_size=4))))
def test_json_roundtrip_property(case):
    d, coeffs = case
    p = NCPoly(coeffs, dim=d)
    assert NCPoly.from_json(p.to_json()) == p
