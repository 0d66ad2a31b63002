import math
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from conftest import matrices, rationals
from ncroots.exact_linalg import (
    DimensionError,
    RatMatrix,
    SingularMatrixError,
    block_assemble,
    block_rows,
    conjugate,
    format_rational,
    parse_rational,
    rect_mul,
)

sizes = st.integers(min_value=1, max_value=5)


def fraction_mul(a, b, m, n, p):
    """Reference product of an m*n and an n*p flat Fraction matrix."""
    out = [None] * (m * p)
    for i in range(m):
        arow = i * n
        for j in range(p):
            num = 0
            den = 1
            for k in range(n):
                x = a[arow + k]
                y = b[k * p + j]
                xn = x.numerator * y.numerator
                if xn:
                    xd = x.denominator * y.denominator
                    num = num * xd + xn * den
                    den *= xd
            out[i * p + j] = Fraction(num, den)
    return out


def fraction_inv(a, n):
    """Reference Gauss-Jordan inverse of a flat n*n Fraction matrix, or None."""
    work = list(a)
    out = [Fraction(i == j) for i in range(n) for j in range(n)]
    for col in range(n):
        piv = None
        for r in range(col, n):
            if work[r * n + col]:
                piv = r
                break
        if piv is None:
            return None
        if piv != col:
            for j in range(n):
                work[piv * n + j], work[col * n + j] = work[col * n + j], work[piv * n + j]
                out[piv * n + j], out[col * n + j] = out[col * n + j], out[piv * n + j]
        p = work[col * n + col]
        if p != 1:
            pn = p.numerator
            pd = p.denominator
            for j in range(n):
                x = work[col * n + j]
                work[col * n + j] = Fraction(x.numerator * pd, x.denominator * pn)
                x = out[col * n + j]
                out[col * n + j] = Fraction(x.numerator * pd, x.denominator * pn)
        for r in range(n):
            if r == col:
                continue
            f = work[r * n + col]
            if not f:
                continue
            fn = f.numerator
            fd = f.denominator
            for j in range(n):
                x = work[r * n + j]
                y = work[col * n + j]
                work[r * n + j] = Fraction(
                    x.numerator * fd * y.denominator - fn * y.numerator * x.denominator,
                    x.denominator * fd * y.denominator,
                )
                x = out[r * n + j]
                y = out[col * n + j]
                out[r * n + j] = Fraction(
                    x.numerator * fd * y.denominator - fn * y.numerator * x.denominator,
                    x.denominator * fd * y.denominator,
                )
    return out


def flat(m):
    return [x for row in m.rows() for x in row]


def assert_canonical(m):
    assert m._den > 0
    assert math.gcd(m._den, *m._nums) == 1


def adjugate_inverse_2x2(m):
    # independent oracle: closed-form 2x2 inverse
    a, b = m[0, 0], m[0, 1]
    c, d = m[1, 0], m[1, 1]
    det = a * d - b * c
    if det == 0:
        return None
    return RatMatrix([[d / det, -b / det], [-c / det, a / det]])


def test_add_identity_and_zero():
    i2 = RatMatrix.identity(2)
    assert i2 + RatMatrix.zeros(2) == i2


def test_add_entrywise(nilpotent_pair):
    x1, x2 = nilpotent_pair
    assert x1 + x2 == RatMatrix([[0, 1], [1, 0]])


@given(matrices())
def test_additive_inverse(a):
    assert (a + (-a)).is_zero()


def test_mul_identity(nilpotent_pair):
    x1, _ = nilpotent_pair
    assert RatMatrix.identity(2) * x1 == x1


def test_nilpotent_square(nilpotent_pair):
    x1, x2 = nilpotent_pair
    assert (x1 * x1).is_zero()
    assert (x2 * x2).is_zero()


def test_noncommutative_product(nilpotent_pair):
    x1, x2 = nilpotent_pair
    assert x1 * x2 == RatMatrix([[1, 0], [0, 0]])
    assert x2 * x1 == RatMatrix([[0, 0], [0, 1]])
    assert x1 * x2 != x2 * x1


def test_inverse_identity():
    i3 = RatMatrix.identity(3)
    assert i3.inverse() == i3


def test_inverse_rotation():
    r = RatMatrix([[0, -1], [1, 0]])
    rinv = r.inverse()
    assert rinv == RatMatrix([[0, 1], [-1, 0]])
    assert r * rinv == RatMatrix.identity(2)


def test_inverse_singular(nilpotent_pair):
    x1, _ = nilpotent_pair
    with pytest.raises(SingularMatrixError):
        x1.inverse()


@given(matrices())
def test_inverse_roundtrip(a):
    oracle = adjugate_inverse_2x2(a)
    if oracle is None:
        with pytest.raises(SingularMatrixError):
            a.inverse()
        return
    inv = a.inverse()
    assert inv == oracle
    assert a * inv == RatMatrix.identity(2)
    assert inv * a == RatMatrix.identity(2)


@given(matrices(), matrices(), matrices())
def test_ring_axioms(a, b, c):
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


def test_pow(nilpotent_pair):
    x1, _ = nilpotent_pair
    assert x1 ** 0 == RatMatrix.identity(2)
    assert x1 ** 1 == x1
    assert (x1 ** 2).is_zero()
    m = RatMatrix([[1, 1], [0, 1]])
    assert m ** 5 == RatMatrix([[1, 5], [0, 1]])


def test_dimension_mismatch():
    with pytest.raises(DimensionError):
        RatMatrix.identity(2) + RatMatrix.identity(3)
    with pytest.raises(DimensionError):
        RatMatrix.identity(2) * RatMatrix.identity(3)


def test_rational_normalization():
    assert parse_rational("2/4") == Fraction(1, 2)
    assert parse_rational("-6/4") == Fraction(-3, 2)
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(-1, 3)) == "-1/3"
    # equal values have identical internal representation
    a = RatMatrix([["2/4", 0], [0, 1]])
    b = RatMatrix([["1/2", 0], [0, 1]])
    assert a == b and hash(a) == hash(b)


def test_block_assemble_single(nilpotent_pair):
    x1, _ = nilpotent_pair
    assert block_assemble([[x1]]) == x1


def test_block_assemble_grid(nilpotent_pair):
    x1, x2 = nilpotent_pair
    i2 = RatMatrix.identity(2)
    v = block_assemble([[x1, x2], [i2, i2]])
    assert v.dim == 4
    assert v[0, 1] == 1 and v[1, 2] == 1  # x1 upper-right, x2 lower-left of its block
    assert v[2, 0] == 1 and v[3, 1] == 1 and v[2, 2] == 1 and v[3, 3] == 1
    assert v[0, 0] == 0 and v[0, 2] == 0


def test_block_assemble_mixed_dims():
    with pytest.raises(DimensionError):
        block_assemble([[RatMatrix.identity(2), RatMatrix.identity(3)],
                        [RatMatrix.identity(2), RatMatrix.identity(2)]])


def test_json_roundtrip(nilpotent_pair):
    x1, _ = nilpotent_pair
    m = RatMatrix([["1/2", -3], [0, "7/5"]])
    assert RatMatrix.from_json(m.to_json()) == m
    assert m.to_json()["entries"][0] == ["1/2", "-3"]
    with pytest.raises(ValueError):
        RatMatrix.from_json({"d": 3, "entries": [["1"]]})


def test_rect_mul():
    # integer form: (rows, den) stands for rows / den
    row = ([[1, 2, 3]], 2)
    col = ([[1], [1], [1]], 3)
    assert rect_mul(row, col) == ([[6]], 6)
    with pytest.raises(DimensionError):
        rect_mul(row, ([[1]], 1))


# ---- the integer kernels against the Fraction reference, d = 1..5 ----


@given(sizes.flatmap(lambda d: st.tuples(matrices(d), matrices(d))))
def test_product_matches_fraction_reference(pair):
    a, b = pair
    d = a.dim
    product = a * b
    assert flat(product) == fraction_mul(flat(a), flat(b), d, d, d)
    assert_canonical(product)
    assert_canonical(a + b)
    assert_canonical(a - b)
    assert_canonical(-a)


@given(sizes.flatmap(matrices))
def test_inverse_matches_fraction_reference(a):
    d = a.dim
    oracle = fraction_inv(flat(a), d)
    if oracle is None:
        with pytest.raises(SingularMatrixError):
            a.inverse()
        return
    inv = a.inverse()
    assert flat(inv) == oracle
    assert_canonical(inv)
    one = RatMatrix.identity(d)
    assert a * inv == one and inv * a == one
    assert hash(a * inv) == hash(one)


@given(sizes.flatmap(lambda d: st.tuples(matrices(d), st.lists(rationals, min_size=d, max_size=d))))
def test_singular_inverse_raises(case):
    # the last row is a combination of the others (zero when d = 1)
    a, coeffs = case
    rows = [list(r) for r in a.rows()]
    rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows[:-1])), Fraction(0))
                for j in range(a.dim)]
    singular = RatMatrix(rows)
    assert fraction_inv(flat(singular), a.dim) is None
    with pytest.raises(SingularMatrixError):
        singular.inverse()
    for left in (True, False):
        with pytest.raises(SingularMatrixError):
            conjugate(singular, a, left)


@settings(max_examples=30)
@given(sizes.flatmap(lambda d: st.tuples(matrices(d), matrices(d))))
def test_conjugate_matches_fraction_reference(pair):
    delta, x = pair
    d = delta.dim
    dinv = fraction_inv(flat(delta), d)
    assume(dinv is not None)
    dx = fraction_mul(flat(delta), flat(x), d, d, d)
    dinv_x = fraction_mul(dinv, flat(x), d, d, d)
    for left, expected in ((True, fraction_mul(dx, dinv, d, d, d)),
                           (False, fraction_mul(dinv_x, flat(delta), d, d, d))):
        y = conjugate(delta, x, left)
        assert flat(y) == expected
        assert_canonical(y)


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(st.tuples(matrices(d), matrices(d)), min_size=1, max_size=3)))
def test_block_rows_and_rect_mul_match_fraction_reference(pairs):
    # a 1 x k block row times a k x 1 block column is the sum of the block products
    d = pairs[0][0].dim
    row = block_rows([[a for a, _ in pairs]])
    col = block_rows([[b] for _, b in pairs])
    rows, den = rect_mul(row, col)
    expected = RatMatrix.zeros(d)
    for a, b in pairs:
        expected = expected + RatMatrix([fraction_mul(flat(a), flat(b), d, d, d)[i * d:(i + 1) * d]
                                         for i in range(d)])
    assert [[Fraction(x, den) for x in r] for r in rows] == [list(r) for r in expected.rows()]
    assert RatMatrix.from_integer_form((rows, den)) == expected


def test_equal_matrices_from_different_routes_hash_alike():
    half = RatMatrix([["2/4", 0], [0, "3/6"]])
    two = RatMatrix.scalar(2, 2)
    routes = [
        RatMatrix.scalar(2, "1/2"),
        two.inverse(),
        RatMatrix.scalar(2, "1/4") * two,
        RatMatrix.scalar(2, "3/2") - RatMatrix.identity(2),
        RatMatrix.scalar(2, "1/6") + RatMatrix.scalar(2, "1/3"),
        block_assemble([[half]]),
        RatMatrix.from_integer_form(([[3, 0], [0, 3]], 6)),
        RatMatrix.from_json({"entries": [["4/8", "0/3"], ["0", "1/2"]]}),
    ]
    assert_canonical(half)
    for m in routes:
        assert_canonical(m)
        assert m == half and hash(m) == hash(half)
    assert RatMatrix.zeros(2) == RatMatrix.scalar(2, "1/2") - half
    assert_canonical(half - half)


@given(st.integers(min_value=1, max_value=4).flatmap(matrices))
def test_json_roundtrip_property(m):
    back = RatMatrix.from_json(m.to_json())
    assert back == m and hash(back) == hash(m)
