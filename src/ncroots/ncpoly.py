"""Polynomials with matrix coefficients in a central variable t.

Coefficients are stored leading-first (a_0, a_1, ..., a_n for
a_0 t^n + ... + a_n), all over one matrix dimension. Because t is central
but the coefficients do not commute, evaluation splits into a right and a
left form, and division comes in the two shapes the factorization theory
needs: stripping a linear factor from the left, and dividing by a monic
polynomial from the right.

The zero polynomial is the explicit empty coefficient tuple; its degree is
undefined and operations that need a degree reject it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .exact_linalg import DimensionError, RatMatrix, json_array, json_size, parse_at


class NCPoly:
    __slots__ = ("dim", "coeffs")

    def __init__(self, coeffs: Iterable[RatMatrix], dim: int | None = None):
        coeffs = list(coeffs)
        if dim is None:
            if not coeffs:
                raise ValueError("dimension required for the zero polynomial")
            dim = coeffs[0].dim
        for c in coeffs:
            if c.dim != dim:
                raise DimensionError(f"coefficient dimension {c.dim} != {dim}")
        while coeffs and coeffs[0].is_zero():
            coeffs = coeffs[1:]
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("NCPoly is immutable")

    # ---- constructors -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "NCPoly":
        return cls((), dim)

    @classmethod
    def one(cls, dim: int) -> "NCPoly":
        return cls((RatMatrix.identity(dim),))

    @classmethod
    def constant(cls, value: RatMatrix) -> "NCPoly":
        return cls((value,))

    @classmethod
    def t_minus(cls, x: RatMatrix) -> "NCPoly":
        return cls((RatMatrix.identity(x.dim), -x))

    # ---- structure -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("degree of the zero polynomial is undefined")
        return len(self.coeffs) - 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[0].is_one()

    def leading(self) -> RatMatrix:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[0]

    def __eq__(self, other):
        if not isinstance(other, NCPoly):
            return NotImplemented
        return self.dim == other.dim and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.dim, self.coeffs))

    def __repr__(self):
        if self.is_zero:
            return "NCPoly(0)"
        return f"NCPoly(deg={self.degree}, d={self.dim})"

    # ---- ring operations -------------------------------------------------

    def _check(self, other: "NCPoly"):
        if not isinstance(other, NCPoly):
            raise TypeError(f"expected NCPoly, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        self._check(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        shift = len(a) - len(b)
        out = list(a[:shift]) + [a[shift + i] + b[i] for i in range(len(b))]
        return NCPoly(out, self.dim)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NCPoly((-c for c in self.coeffs), self.dim)

    def __mul__(self, other):
        """Coefficient convolution; factor order is preserved (t is central)."""
        self._check(other)
        if self.is_zero or other.is_zero:
            return NCPoly.zero(self.dim)
        n, m = self.degree, other.degree
        zero = RatMatrix.zeros(self.dim)
        out = [zero] * (n + m + 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return NCPoly(out, self.dim)

    def scale_left(self, m: RatMatrix) -> "NCPoly":
        return NCPoly((m * c for c in self.coeffs), self.dim)

    def shift(self, k: int) -> "NCPoly":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        zero = RatMatrix.zeros(self.dim)
        return NCPoly(self.coeffs + (zero,) * k, self.dim)

    # ---- evaluation -------------------------------------------------------

    def right_eval(self, x: RatMatrix) -> RatMatrix:
        """Sum of a_j x^(n-j); zero exactly when x is a right root."""
        if x.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {x.dim}")
        if self.is_zero:
            return RatMatrix.zeros(self.dim)
        acc = self.coeffs[0]
        for c in self.coeffs[1:]:
            acc = acc * x + c
        return acc

    def left_eval(self, x: RatMatrix) -> RatMatrix:
        """Sum of x^(n-j) a_j; zero exactly when x is a left root."""
        if x.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {x.dim}")
        if self.is_zero:
            return RatMatrix.zeros(self.dim)
        acc = self.coeffs[0]
        for c in self.coeffs[1:]:
            acc = x * acc + c
        return acc

    # ---- division -----------------------------------------------------------

    def left_divide_linear(self, x: RatMatrix) -> tuple["NCPoly", RatMatrix]:
        """Write self = (t - x) * quotient + remainder with remainder constant.

        The remainder equals ``left_eval(self, x)``; it vanishes exactly when
        t - x is a left factor.
        """
        if x.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {x.dim}")
        if self.is_zero or self.degree < 1:
            raise ValueError("dividend must have degree >= 1")
        q = [self.coeffs[0]]
        for c in self.coeffs[1:-1]:
            q.append(x * q[-1] + c)
        remainder = x * q[-1] + self.coeffs[-1]
        return NCPoly(q, self.dim), remainder

    def right_divide_monic(self, b: "NCPoly") -> tuple["NCPoly", "NCPoly"]:
        """Write self = quotient * b + remainder with deg remainder < deg b.

        Only monic divisors are supported; the remainder vanishes exactly
        when b is a right divisor.
        """
        self._check(b)
        if not b.is_monic:
            raise ValueError("divisor must be monic")
        m = b.degree
        if self.is_zero:
            return NCPoly.zero(self.dim), NCPoly.zero(self.dim)
        if self.degree < m:
            return NCPoly.zero(self.dim), self
        zero = RatMatrix.zeros(self.dim)
        qlen = self.degree - m + 1
        q = [zero] * qlen
        r = self
        while not r.is_zero and r.degree >= m:
            k = r.degree - m
            c = r.leading()
            q[qlen - 1 - k] = q[qlen - 1 - k] + c
            r = r - b.scale_left(c).shift(k)
        return NCPoly(q, self.dim), r

    # ---- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        return {"d": self.dim, "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, obj: dict) -> "NCPoly":
        coeffs = [parse_at(f"coeffs[{k}]", RatMatrix.from_json, c)
                  for k, c in enumerate(json_array(obj, "coeffs"))]
        dim = json_size(obj, "d")
        return parse_at("coeffs", lambda cs: cls(cs, dim=dim), coeffs)


def from_linear_factors(xs: Sequence[RatMatrix], dim: int | None = None) -> NCPoly:
    """Ordered product of (t - x) factors, left to right; empty product is 1."""
    xs = list(xs)
    if not xs:
        if dim is None:
            raise ValueError("dimension required for the empty product")
        return NCPoly.one(dim)
    p = NCPoly.t_minus(xs[0])
    for x in xs[1:]:
        p = p * NCPoly.t_minus(x)
    return p
