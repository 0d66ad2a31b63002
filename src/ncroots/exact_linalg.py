"""Exact dense matrix algebra over arbitrary-precision rationals.

Square rational matrices are the concrete noncommutative ring used
everywhere else in the package: ring elements, their conjugates, and block
Vandermonde matrices all live here. There is no floating point anywhere;
equality is exact.

Scalars are plain ``Fraction`` values (canonical lowest terms, positive
denominator, zero is 0/1 — exactly the normalization this package needs,
so no wrapper type is introduced).

A matrix is stored as a flat row-major tuple of integer numerators over one
positive common denominator, reduced so that the gcd of the denominator and
all numerators is 1. That form is canonical, so ``==`` and ``hash`` compare
plain tuples. A product is integer dot products followed by one gcd pass; a
sum scales both operands to the lcm of their denominators. There is one
elimination routine, ``_solve``: fraction-free Gauss-Jordan on [N | M], in
which every division by the previous pivot is exact (Bareiss, "Sylvester's
identity and multistep integer-preserving Gaussian elimination", Math.
Comp. 22, 1968). The inverse solves with M = I. ``conjugate`` computes
delta x delta^{-1} or delta^{-1} x delta fused into one solve: the
denominator of delta cancels, so it costs one integer product, one
elimination with a d-column right side and one gcd pass, where the product
form costs an inverse, two products and three gcd passes.
Rectangular intermediates, such as the block rows of a Vandermonde
quasideterminant, are ``(rows, den)`` pairs of integer rows over one
denominator. Entries become Fractions only at the boundaries: indexing,
``rows()``, ``repr`` and JSON.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul
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


def _mul(arows, bcols) -> list:
    """Integer dot product of every row with every column, row-major."""
    return [sum(map(mul, r, c)) for r in arows for c in bcols]


def _solve(a, b, n, m):
    """Fraction-free Gauss-Jordan on [N | M], N flat n*n and M flat n*m, integers.

    Returns (X, p) with N^{-1} M = X / p, X flat row-major n*m, or None if N
    is singular. Each step k eliminates column k from every other row with
    row_i <- (p_k row_i - row_i[k] row_k) / p_{k-1}, where p_k is the current
    pivot; every entry stays an integer minor of [N | M], so the division is
    exact, and the last pivot is det N up to the sign of the row swaps.
    Columns already eliminated are dropped, so the live column is always 0.
    """
    rows = [list(a[i * n:(i + 1) * n]) + list(b[i * m:(i + 1) * m]) for i in range(n)]
    prev = 1
    for k in range(n):
        for r in range(k, n):
            if rows[r][0]:
                break
        else:
            return None
        rows[k], rows[r] = rows[r], rows[k]
        pivot = rows[k][0]
        tail = rows[k][1:]
        for i in range(n):
            if i == k:
                continue
            row = rows[i]
            f = row[0]
            if f:
                rows[i] = [(pivot * x - f * y) // prev for x, y in zip(row[1:], tail)]
            else:
                rows[i] = [pivot * x // prev for x in row[1:]]
        rows[k] = tail
        prev = pivot
    return [x for row in rows for x in row], prev


_new = object.__new__
_setattr = object.__setattr__


class RatMatrix:
    """Immutable square rational matrix; the ring element of the package.

    All arithmetic is closed over one dimension; mixing dimensions raises
    ``DimensionError``. Instances hash and compare by exact entries, so
    they can key dictionaries and deduplicate polynomial coefficients.
    """

    __slots__ = ("dim", "_nums", "_den")

    def __init__(self, rows: Iterable[Iterable]):
        rows = [[parse_rational(x) for x in row] for row in rows]
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise DimensionError("matrix must be square and non-empty")
        flat = [x for row in rows for x in row]
        # over the lcm of lowest-terms denominators the gcd is already 1
        den = lcm(*(x.denominator for x in flat))
        _setattr(self, "dim", d)
        _setattr(self, "_nums", tuple(x.numerator * (den // x.denominator) for x in flat))
        _setattr(self, "_den", den)

    @classmethod
    def _make(cls, dim: int, nums: tuple, den: int) -> "RatMatrix":
        """A matrix from numerators and a denominator already in canonical form."""
        self = _new(cls)
        _setattr(self, "dim", dim)
        _setattr(self, "_nums", nums)
        _setattr(self, "_den", den)
        return self

    @classmethod
    def _reduced(cls, dim: int, nums, den: int) -> "RatMatrix":
        """nums / den, for a positive den, divided through by the common gcd."""
        g = gcd(den, *nums)
        if g == 1:
            return cls._make(dim, tuple(nums), den)
        return cls._make(dim, tuple(x // g for x in nums), den // g)

    @classmethod
    def from_integer_form(cls, form) -> "RatMatrix":
        """The square matrix rows / den of an integer form (rows, den), den > 0."""
        rows, den = form
        d = len(rows)
        if d == 0 or any(len(row) != d for row in rows):
            raise DimensionError("matrix must be square and non-empty")
        return cls._reduced(d, [x for row in rows for x in row], den)

    @classmethod
    def identity(cls, dim: int) -> "RatMatrix":
        return cls._make(dim, tuple(int(i == j) for i in range(dim) for j in range(dim)), 1)

    @classmethod
    def zeros(cls, dim: int) -> "RatMatrix":
        return cls._make(dim, (0,) * (dim * dim), 1)

    @classmethod
    def scalar(cls, dim: int, value) -> "RatMatrix":
        v = parse_rational(value)
        p = v.numerator
        return cls._make(dim, tuple(p if i == j else 0 for i in range(dim) for j in range(dim)),
                         v.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("RatMatrix is immutable")

    def rows(self) -> tuple:
        d = self.dim
        den = self._den
        flat = [Fraction(x, den) for x in self._nums]
        return tuple(tuple(flat[i * d:(i + 1) * d]) for i in range(d))

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return Fraction(self._nums[i * self.dim + j], self._den)

    def _row_slices(self) -> list:
        d = self.dim
        return [self._nums[i * d:(i + 1) * d] for i in range(d)]

    def _check_dim(self, other: "RatMatrix"):
        if not isinstance(other, RatMatrix):
            raise TypeError(f"expected RatMatrix, got {type(other).__name__}")
        if other.dim != self.dim:
            raise DimensionError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def _combine(self, other, sign: int):
        self._check_dim(other)
        a, b = self._den, other._den
        den = lcm(a, b)
        sa, sb = den // a, sign * (den // b)
        return RatMatrix._reduced(self.dim, [x * sa + y * sb for x, y in zip(self._nums, other._nums)], den)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __neg__(self):
        return RatMatrix._make(self.dim, tuple(-x for x in self._nums), self._den)

    def __mul__(self, other):
        self._check_dim(other)
        d = self.dim
        nums = _mul(self._row_slices(), [other._nums[j::d] for j in range(d)])
        return RatMatrix._reduced(d, nums, self._den * other._den)

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
        d = self.dim
        solved = _solve(self._nums, RatMatrix.identity(d)._nums, d, d)
        if solved is None:
            raise SingularMatrixError(f"{d}x{d} matrix is singular")
        # self = N / den and N^{-1} = B / p, so the inverse is den B / p
        b, p = solved
        den = self._den if p > 0 else -self._den
        return RatMatrix._reduced(d, [den * x for x in b], abs(p))

    def one(self) -> "RatMatrix":
        return RatMatrix.identity(self.dim)

    def zero(self) -> "RatMatrix":
        return RatMatrix.zeros(self.dim)

    def is_zero(self) -> bool:
        return not any(self._nums)

    def is_one(self) -> bool:
        return self == RatMatrix.identity(self.dim)

    def __eq__(self, other):
        if not isinstance(other, RatMatrix):
            return NotImplemented
        return self.dim == other.dim and self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self.dim, self._den, self._nums))

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


def conjugate(delta: RatMatrix, x: RatMatrix, left: bool) -> RatMatrix:
    """delta x delta^{-1} if ``left``, else delta^{-1} x delta, by one exact solve.

    With delta = D / p and x = N / q, p cancels: delta^{-1} x delta = Y / q
    where D Y = N D, and delta x delta^{-1} = Y / q where Y D = D N, which is
    solved transposed as D^T Y^T = (D N)^T. A singular delta raises
    SingularMatrixError.
    """
    delta._check_dim(x)
    d = delta.dim
    dn, xn = delta._nums, x._nums
    if left:
        # (D N)^T = N^T D^T, from the columns of N and the rows of D
        a = [v for j in range(d) for v in dn[j::d]]
        b = _mul([xn[j::d] for j in range(d)], delta._row_slices())
    else:
        a = dn
        b = _mul(x._row_slices(), [dn[j::d] for j in range(d)])
    solved = _solve(a, b, d, d)
    if solved is None:
        raise SingularMatrixError(f"{d}x{d} matrix is singular")
    y, p = solved
    if left:
        y = [v for j in range(d) for v in y[j::d]]
    if p < 0:
        y, p = [-v for v in y], -p
    return RatMatrix._reduced(d, y, p * x._den)


def block_rows(blocks: Sequence[Sequence[RatMatrix]]) -> tuple[list, int]:
    """A rectangular grid of equal-dimension blocks in integer form (rows, den).

    Block (r, c) lands at rows r*d..r*d+d-1, columns c*d..c*d+d-1; den is the
    lcm of the blocks' denominators.
    """
    grid = [list(row) for row in blocks]
    if not grid or not grid[0] or any(len(row) != len(grid[0]) for row in grid):
        raise DimensionError("block grid must be rectangular and non-empty")
    d = grid[0][0].dim
    for row in grid:
        for b in row:
            if b.dim != d:
                raise DimensionError(f"inhomogeneous block dimensions: {b.dim} vs {d}")
    den = lcm(*(b._den for row in grid for b in row))
    rows = []
    for row in grid:
        scaled = [(b._row_slices(), den // b._den) for b in row]
        for i in range(d):
            rows.append([x * s for slices, s in scaled for x in slices[i]])
    return rows, den


def block_assemble(blocks: Sequence[Sequence[RatMatrix]]) -> RatMatrix:
    """Assemble a square grid of equal-dimension blocks into one matrix.

    Block (r, c) lands at rows r*d..r*d+d-1, columns c*d..c*d+d-1.
    """
    grid = [list(row) for row in blocks]
    if not grid or any(len(row) != len(grid) for row in grid):
        raise DimensionError("block grid must be square and non-empty")
    rows, den = block_rows(grid)
    # over the lcm of canonical denominators the gcd is already 1
    return RatMatrix._make(len(rows), tuple(x for row in rows for x in row), den)


def rect_mul(a: tuple[list, int], b: tuple[list, int]) -> tuple[list, int]:
    """Exact product of rectangular matrices in integer form (rows, den).

    The result is in the same form, over the product of the denominators
    and not reduced.
    """
    arows, aden = a
    brows, bden = b
    n = len(arows[0]) if arows else 0
    if len(brows) != n:
        raise DimensionError(f"inner dimensions differ: {n} vs {len(brows)}")
    p = len(brows[0]) if n else 0
    flat = _mul(arows, list(zip(*brows)))
    return [flat[i * p:(i + 1) * p] for i in range(len(arows))], aden * bden
