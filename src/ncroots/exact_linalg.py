"""Exact dense matrix algebra over arbitrary-precision rationals.

Square matrices of `fractions.Fraction` entries are the concrete
noncommutative ring used everywhere else in the package: ring elements,
their conjugates, and block Vandermonde matrices all live here. There is
no floating point anywhere; equality is entry-wise and exact.

Scalars are plain ``Fraction`` values (canonical lowest terms, positive
denominator, zero is 0/1 — exactly the normalization this package needs,
so no wrapper type is introduced).

Matrices are stored flat, in row-major order, and the two kernels every
layer above reduces to, ``_mul`` and ``_inv``, work on that flat form. The
product kernel accumulates raw numerator/denominator integer pairs and
builds one normalized Fraction per output entry, which avoids the
per-operation gcd that Fraction arithmetic would pay inside the inner loop.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Rational = Fraction


class DimensionError(ValueError):
    """Operands do not share the matrix dimension required by the operation."""


class SingularMatrixError(ArithmeticError):
    """Exact elimination found no pivot: the matrix has no inverse."""


class InputError(ValueError):
    """A malformed input document; ``path`` names the failing field."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason


def parse_at(path: str, parse, obj):
    """``parse(obj)``, with a ValueError reported as an InputError at path."""
    try:
        return parse(obj)
    except InputError as exc:
        raise InputError(f"{path}.{exc.path}", exc.reason) from None
    except ValueError as exc:
        raise InputError(path, str(exc)) from None


def json_array(obj, key: str) -> list:
    """The array held by field ``key`` of the JSON object ``obj``."""
    if not isinstance(obj, dict):
        raise InputError(key, f"expected a JSON object with an {key!r} array, "
                              f"got {type(obj).__name__}")
    if not isinstance(obj.get(key), list):
        raise InputError(key, "missing or not an array")
    return obj[key]


def json_size(obj: dict, key: str) -> int:
    """The positive JSON integer held by field ``key`` of the object ``obj``."""
    value = obj.get(key)
    if isinstance(value, bool) or not isinstance(value, int) or value < 1:
        raise InputError(key, "missing or not a positive integer")
    return value


def parse_rational(text) -> Fraction:
    """Parse "p" or "p/q" (not necessarily in lowest terms) or an int."""
    if isinstance(text, int) and not isinstance(text, bool):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in {text!r}") from None
    raise ValueError(f"not a rational literal: {text!r}")


def format_rational(q: Fraction) -> str:
    """Render in lowest terms: "p" for integers, "p/q" otherwise."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _mul(a, b, m, n, p):
    """Product of an m*n and an n*p flat Fraction matrix."""
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


def _inv(a, n):
    """Gauss-Jordan inverse of a flat n*n Fraction matrix, or None if singular.

    Partial pivoting on the first nonzero pivot; all arithmetic exact.
    """
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


class RatMatrix:
    """Immutable square matrix of Fractions; the ring element of the package.

    All arithmetic is closed over one dimension; mixing dimensions raises
    ``DimensionError``. Instances hash and compare by exact entries, so
    they can key dictionaries and deduplicate polynomial coefficients.
    """

    __slots__ = ("dim", "_flat")

    def __init__(self, rows: Iterable[Iterable]):
        rows = [[parse_rational(x) for x in row] for row in rows]
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise DimensionError("matrix must be square and non-empty")
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "_flat", tuple(x for row in rows for x in row))

    @classmethod
    def _from_flat(cls, dim: int, flat) -> "RatMatrix":
        self = object.__new__(cls)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_flat", tuple(flat))
        return self

    @classmethod
    def identity(cls, dim: int) -> "RatMatrix":
        return cls._from_flat(dim, (Fraction(i == j) for i in range(dim) for j in range(dim)))

    @classmethod
    def zeros(cls, dim: int) -> "RatMatrix":
        return cls._from_flat(dim, (Fraction(0),) * (dim * dim))

    @classmethod
    def scalar(cls, dim: int, value) -> "RatMatrix":
        v = parse_rational(value)
        return cls._from_flat(dim, (v if i == j else Fraction(0) for i in range(dim) for j in range(dim)))

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    def rows(self) -> tuple:
        d = self.dim
        return tuple(self._flat[i * d:(i + 1) * d] for i in range(d))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self._flat[i * self.dim + j]

    def _check_dim(self, other: "RatMatrix"):
        if not isinstance(other, RatMatrix):
            raise TypeError(f"expected RatMatrix, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other):
        self._check_dim(other)
        return RatMatrix._from_flat(self.dim, (x + y for x, y in zip(self._flat, other._flat)))

    def __sub__(self, other):
        self._check_dim(other)
        return RatMatrix._from_flat(self.dim, (x - y for x, y in zip(self._flat, other._flat)))

    def __neg__(self):
        return RatMatrix._from_flat(self.dim, (-x for x in self._flat))

    def __mul__(self, other):
        self._check_dim(other)
        d = self.dim
        return RatMatrix._from_flat(d, _mul(self._flat, other._flat, d, d, d))

    def __pow__(self, k: int):
        if not isinstance(k, int) or k < 0:
            raise ValueError("only non-negative integer powers")
        result = RatMatrix.identity(self.dim)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def inverse(self) -> "RatMatrix":
        flat = _inv(self._flat, self.dim)
        if flat is None:
            raise SingularMatrixError(f"{self.dim}x{self.dim} matrix is singular")
        return RatMatrix._from_flat(self.dim, flat)

    def one(self) -> "RatMatrix":
        return RatMatrix.identity(self.dim)

    def zero(self) -> "RatMatrix":
        return RatMatrix.zeros(self.dim)

    def is_zero(self) -> bool:
        return not any(self._flat)

    def is_one(self) -> bool:
        return self == RatMatrix.identity(self.dim)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.dim == other.dim and self._flat == other._flat

    def __hash__(self):
        return hash((self.dim, self._flat))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self.rows())
        return f"RatMatrix[{body}]"

    def to_json(self) -> dict:
        return {"d": self.dim, "entries": [[format_rational(x) for x in row] for row in self.rows()]}

    @classmethod
    def from_json(cls, obj: dict) -> "RatMatrix":
        rows = json_array(obj, "entries")
        if not all(isinstance(row, list) for row in rows):
            raise InputError("entries", "expected an array of arrays")
        m = cls([parse_at(f"entries[{i}][{j}]", parse_rational, x) for j, x in enumerate(row)]
                for i, row in enumerate(rows))
        if "d" in obj and json_size(obj, "d") != m.dim:
            raise InputError("d", f"declared dimension {obj['d']} does not match {m.dim} rows")
        return m


def block_assemble(blocks: Sequence[Sequence[RatMatrix]]) -> RatMatrix:
    """Assemble a square grid of equal-dimension blocks into one matrix.

    Block (r, c) lands at rows r*d..r*d+d-1, columns c*d..c*d+d-1.
    """
    grid = [list(row) for row in blocks]
    k = len(grid)
    if k == 0 or any(len(row) != k for row in grid):
        raise DimensionError("block grid must be square and non-empty")
    d = grid[0][0].dim
    for row in grid:
        for b in row:
            if b.dim != d:
                raise DimensionError(f"inhomogeneous block dimensions: {b.dim} vs {d}")
    flat = []
    for r in range(k):
        for i in range(d):
            for c in range(k):
                flat.extend(grid[r][c]._flat[i * d:(i + 1) * d])
    return RatMatrix._from_flat(k * d, flat)


def rect_mul(a: Sequence[Sequence[Fraction]], b: Sequence[Sequence[Fraction]]) -> list:
    """Exact product of rectangular Fraction grids."""
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != n:
        raise DimensionError(f"inner dimensions differ: {n} vs {len(b)}")
    p = len(b[0]) if n else 0
    flat = _mul(
        [x for row in a for x in row],
        [x for row in b for x in row],
        m, n, p,
    )
    return [flat[i * p:(i + 1) * p] for i in range(m)]
