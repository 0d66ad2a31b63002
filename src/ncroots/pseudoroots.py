"""Pseudo-roots of matrix polynomials built from a generic right-root set.

Everything here works in a concrete ring (exact rational matrices): a set
of right roots whose block Vandermonde matrices are all invertible
determines, through Vandermonde quasideterminants, one conjugate x_{A,i}
for every subset A and index i outside it. ``RootSet.is_generic`` inverts
every quasideterminant to decide genericity, so the same pass stores each
x_{A,i} and the root set keeps the whole table next to its verdict. That
table is cross-checked entry by entry against the heredity recursion

    x_{A|j,i} = delta x_{A,i} delta^{-1},   delta = x_{A,i} - x_{A,j}

(Gelfand-Gelfand-Retakh-Wilson), a second formula rather than a second
column order of the first. ``build_table``, ``factor_sequence`` and
``canonical_polynomial`` read the table; ``pseudo_root`` recomputes one
value from its quasideterminant and stays the independent oracle. The
values satisfy the diamond identities

    x_{A|i,j} + x_{A,i} = x_{A|j,i} + x_{A,j}
    x_{A|i,j} * x_{A,i} = x_{A|j,i} * x_{A,j}

exactly, fit together into factorizations of one canonical polynomial
independent of the index ordering (checked over the subset lattice: every
subset B has one product Q_B, whichever index is peeled off last), and
propagate along a boolean-lattice edge labeling by the solved conjugation
forms

    d:  b1 = (a1-a2)^{-1} a2 (a1-a2),   b2 = (a2-a1)^{-1} a1 (a2-a1)
    u:  a1 = (b1-b2) b2 (b1-b2)^{-1},   a2 = (b2-b1) b1 (b2-b1)^{-1}

which are forced by the diamond identities (solve the linear one for b2,
substitute into the quadratic one). The linear identity also gives each
second value from the first, b2 = b1 + (a1-a2) and a2 = a1 + (b1-b2), so
one step is one conjugation. Every conjugation here, in the table, its
recursion check, the quasideterminant oracle, d, u and the expression
traces, is one call to ``exact_linalg.conjugate``, a single exact
fraction-free solve. The labeled closure drives those two
maps along the graph closure of ``duclosure`` and records, per derived
edge, an expression tree over the input generators, so a factorization
extracted from a sufficient edge set comes with verifiable rational
expressions for its factors.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterable, Mapping

from . import duclosure
from .digraph import Digraph, EdgeSet
from .exact_linalg import (
    InputError, RatMatrix, SingularMatrixError, block_assemble, block_rows, conjugate,
    json_array, json_size, parse_at, parse_rational, rect_mul)
from .hasse import GammaEdgeLabel, parse_edge_label, subset_id
from .ncpoly import NCPoly, from_linear_factors


class SingularVandermondeError(SingularMatrixError):
    pass


class SingularQuasidetError(SingularMatrixError):
    pass


class SingularDifferenceError(SingularMatrixError):
    pass


class OrderingDependentError(ArithmeticError):
    """A value that must not depend on an ordering came out different."""


class InconsistentLabelsError(Exception):
    """Two derivations assigned different values to one edge: the labeling
    is not a representation."""


class NotSufficientError(Exception):
    pass


# ---------------------------------------------------------------------------
# root sets and genericity


class RootSet:
    """An ordered set of right roots x_1..x_n over one matrix dimension."""

    __slots__ = ("n", "d", "roots", "_generic", "_entries")

    def __init__(self, roots: Iterable[RatMatrix]):
        roots = tuple(roots)
        if not roots:
            raise ValueError("need at least one root")
        d = roots[0].dim
        for x in roots:
            if x.dim != d:
                raise ValueError("roots must share one dimension")
        object.__setattr__(self, "n", len(roots))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "roots", roots)
        object.__setattr__(self, "_generic", None)
        object.__setattr__(self, "_entries", None)

    def __setattr__(self, name, value):
        raise AttributeError("RootSet is immutable")

    def root(self, i: int) -> RatMatrix:
        if not 1 <= i <= self.n:
            raise ValueError(f"root index {i} out of 1..{self.n}")
        return self.roots[i - 1]

    def is_generic(self):
        """(True, None) or (False, first failing tuple); the verdict is cached.

        Checks invertibility of the block Vandermonde over every subset of
        each size (column permutations preserve invertibility, so subsets
        suffice); the witness is ("vandermonde", first singular subset). The
        full set is decided through its quasideterminants v = v(rest, last),
        whose inverses the same pass needs anyway: it stores each pseudo-root
        x_{rest,last} = v x_last v^{-1}. A generic set keeps that table next
        to its verdict, after every entry has matched the heredity recursion
        (OrderingDependentError if not).
        """
        if self._generic is None:
            verdict, entries = self._check_generic()
            object.__setattr__(self, "_entries", entries)
            object.__setattr__(self, "_generic", verdict)
        return self._generic

    def _check_generic(self):
        entries = {(frozenset(), i): x for i, x in enumerate(self.roots, start=1)}
        # V^{-1} of every subset one size down; V of one index is the identity
        below = {(i,): RatMatrix.identity(self.d) for i in range(1, self.n + 1)}
        for k in range(1, self.n):
            above = {}
            for subset in itertools.combinations(range(1, self.n + 1), k + 1):
                # V(rest) is invertible (checked one level down) and det V(subset)
                # = +-det V(rest) det v(rest, last), so V(subset) and each of its
                # quasideterminants are singular together; the full set's V,
                # whose inverse no later level needs, is decided through them.
                try:
                    if k + 1 < self.n:
                        above[subset] = vandermonde_matrix(self, subset).inverse()
                    for last in subset:
                        rest = tuple(i for i in subset if i != last)
                        v = vandermonde_quasidet(self, rest + (last,), vinv=below[rest])
                        entries[frozenset(rest), last] = conjugate(v, self.root(last), left=True)
                except SingularMatrixError:
                    return (False, ("vandermonde", subset)), None
            below = above
        _check_recursion(entries)
        return (True, None), entries

    def _pseudo_roots(self) -> dict:
        """The cached table {(frozenset A, i): x_{A,i}} of a generic set.

        A non-generic set raises the singular-matrix error its witness names.
        """
        generic, witness = self.is_generic()
        if not generic:
            raise SingularVandermondeError(f"V{witness[1]} is singular")
        return self._entries

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d, "roots": [x.to_json() for x in self.roots]}

    @classmethod
    def from_json(cls, obj: dict) -> "RootSet":
        rs = cls(parse_at(f"roots[{k}]", RatMatrix.from_json, m)
                 for k, m in enumerate(json_array(obj, "roots")))
        if "n" in obj and json_size(obj, "n") != rs.n:
            raise InputError("n", f"declared n={obj['n']} does not match {rs.n} roots")
        if "d" in obj and json_size(obj, "d") != rs.d:
            raise InputError("d", f"declared d={obj['d']} does not match dimension {rs.d}")
        return rs


def random_rootset(n: int, d: int, rng: random.Random, lo: int = -5, hi: int = 5) -> RootSet:
    return RootSet(
        RatMatrix([[rng.randint(lo, hi) for _ in range(d)] for _ in range(d)])
        for _ in range(n)
    )


def random_generic_rootset(n: int, d: int, seed: int | None = None,
                           rng: random.Random | None = None, max_tries: int = 200) -> RootSet:
    """Rejection-sample integer root sets until the genericity check passes."""
    if rng is None:
        rng = random.Random(seed)
    for _ in range(max_tries):
        rs = random_rootset(n, d, rng)
        ok, _witness = rs.is_generic()
        if ok:
            return rs
    raise RuntimeError(f"no generic root set found in {max_tries} tries")


# ---------------------------------------------------------------------------
# Vandermonde quasideterminants and the pseudo-root table


def _validate_indices(rs: RootSet, indices) -> tuple:
    indices = tuple(indices)
    if len(set(indices)) != len(indices):
        raise ValueError(f"repeated index in {indices}")
    for i in indices:
        if not 1 <= i <= rs.n:
            raise ValueError(f"index {i} out of 1..{rs.n}")
    return indices


def vandermonde_matrix(rs: RootSet, indices) -> RatMatrix:
    """Block matrix with column c holding the powers of x_{i_c}, top power
    len(indices)-1 down to the identity row."""
    indices = _validate_indices(rs, indices)
    m = len(indices)
    cols = [rs.root(i) for i in indices]
    blocks = [[cols[c] ** (m - 1 - r) for c in range(m)] for r in range(m)]
    return block_assemble(blocks)


def vandermonde_quasidet(rs: RootSet, indices, vinv: RatMatrix | None = None) -> RatMatrix:
    """x_{last}^k - r V(first)^{-1} c for indices (i_1..i_k, last).

    The value does not depend on the order of the first k indices. A
    caller that already holds V(first)^{-1} passes it as ``vinv``.
    """
    indices = _validate_indices(rs, indices)
    if len(indices) < 2:
        raise ValueError("quasideterminant needs at least two indices")
    first, last = indices[:-1], indices[-1]
    k = len(first)
    if vinv is None:
        try:
            vinv = vandermonde_matrix(rs, first).inverse()
        except SingularMatrixError as exc:
            raise SingularVandermondeError(f"V{first} is singular") from exc
    x_last = rs.root(last)
    row = block_rows([[rs.root(i) ** k for i in first]])
    col = block_rows([[x_last ** (k - 1 - b)] for b in range(k)])
    rvc = rect_mul(rect_mul(row, block_rows([[vinv]])), col)
    return (x_last ** k) - RatMatrix.from_integer_form(rvc)


def pseudo_root(rs: RootSet, A, i: int) -> RatMatrix:
    """The conjugate x_{A,i} = v(A..., i) x_i v(A..., i)^{-1}.

    Independence from the ordering of A is asserted by recomputation
    under a second ordering; (empty set, i) gives x_i back.
    """
    A = frozenset(A)
    if i in A:
        raise ValueError(f"index {i} lies in {subset_id(A)}")
    _validate_indices(rs, tuple(A) + (i,))
    if not A:
        return rs.root(i)
    value = _conjugate(rs, tuple(sorted(A)), i)
    if len(A) >= 2:
        other = _conjugate(rs, tuple(sorted(A, reverse=True)), i)
        if other != value:
            raise OrderingDependentError(
                f"x_({subset_id(A)},{i}) differs between orderings of {subset_id(A)}")
    return value


def _conjugate(rs: RootSet, ordering: tuple, i: int) -> RatMatrix:
    v = vandermonde_quasidet(rs, ordering + (i,))
    try:
        return conjugate(v, rs.root(i), left=True)
    except SingularMatrixError as exc:
        raise SingularQuasidetError(f"v{ordering + (i,)} is singular") from exc


def _check_recursion(entries: Mapping):
    """Every x_{A,i} with A nonempty equals delta x_{A',i} delta^{-1}, where
    A' = A minus j = max A and delta = x_{A',i} - x_{A',j}.

    Right evaluation gives v(A,i) = delta v(A',i), and both quasideterminants
    are invertible on a generic set, so a singular delta means the table is
    wrong and counts as a mismatch.
    """
    for (A, i), value in entries.items():
        if not A:
            continue
        j = max(A)
        lower = A - {j}
        below = entries[lower, i]
        delta = below - entries[lower, j]
        try:
            expected = conjugate(delta, below, left=True)
        except SingularMatrixError:
            expected = None
        if value != expected:
            raise OrderingDependentError(
                f"x_({subset_id(A)},{i}) differs from the recursion through {subset_id(lower)}")


class PseudoRootTable:
    """All values x_{A,i} of one root set, keyed by (frozenset, index)."""

    def __init__(self, n: int, d: int, entries: Mapping):
        self.n = n
        self.d = d
        self._entries = {(frozenset(A), i): v for (A, i), v in entries.items()}

    @staticmethod
    def _key(key):
        A, i = key
        return frozenset(A), i

    def __getitem__(self, key) -> RatMatrix:
        return self._entries[self._key(key)]

    def __contains__(self, key):
        return self._key(key) in self._entries

    def __len__(self):
        return len(self._entries)

    def keys(self):
        return sorted(self._entries, key=lambda k: (len(k[0]), sorted(k[0]), k[1]))

    def items(self):
        return [(k, self._entries[k]) for k in self.keys()]

    def edge_value_map(self) -> dict:
        """The same table keyed by canonical boolean-lattice edge ids."""
        return {str(GammaEdgeLabel(A, i)): v for (A, i), v in self._entries.items()}

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d,
                "entries": [{"A": sorted(A), "i": i, "value": v.to_json()}
                            for (A, i), v in self.items()]}


def build_table(rs: RootSet) -> PseudoRootTable:
    """Every x_{A,i} from the root set's cached table, with the diamond
    identities validated exactly."""
    entries = rs._pseudo_roots()
    universe = range(1, rs.n + 1)
    for A_size in range(rs.n - 1):
        for A in itertools.combinations(universe, A_size):
            A = frozenset(A)
            for i, j in itertools.combinations([x for x in universe if x not in A], 2):
                left_sum = entries[A | {i}, j] + entries[A, i]
                right_sum = entries[A | {j}, i] + entries[A, j]
                left_prod = entries[A | {i}, j] * entries[A, i]
                right_prod = entries[A | {j}, i] * entries[A, j]
                if left_sum != right_sum or left_prod != right_prod:
                    raise ArithmeticError(
                        f"diamond identity fails at A={subset_id(A)}, i={i}, j={j}")
    return PseudoRootTable(rs.n, rs.d, entries)


def factor_sequence(rs: RootSet, ordering) -> list:
    """y_1..y_n for one ordering: y_k = x_(first k-1 indices, k-th index)."""
    ordering = _validate_indices(rs, ordering)
    if len(ordering) != rs.n:
        raise ValueError("ordering must list every index exactly once")
    entries = rs._pseudo_roots()
    return [entries[frozenset(ordering[:k]), ordering[k]] for k in range(rs.n)]


def canonical_polynomial(rs: RootSet) -> NCPoly:
    """(t-y_n)...(t-y_1), the same for every ordering.

    Independence of the ordering is asserted over the subset lattice: for
    every subset B, each l in B must give the same Q_B = (t - x_{B-l,l}) Q_{B-l},
    with Q_{} = 1, or OrderingDependentError is raised. Every ordering's
    product is Q along one maximal chain, so this implies that all n!
    orderings agree, in n 2^(n-1) linear products.
    """
    entries = rs._pseudo_roots()
    level = {frozenset(): NCPoly.one(rs.d)}
    for k in range(1, rs.n + 1):
        above = {}
        for B in map(frozenset, itertools.combinations(range(1, rs.n + 1), k)):
            q = None
            for l in sorted(B):
                below = level[B - {l}]
                p = below.shift(1) - below.scale_left(entries[B - {l}, l])  # (t - x) Q
                if q is None:
                    q = p
                elif p != q:
                    raise OrderingDependentError(
                        f"Q_{subset_id(B)} differs between peeling off {min(B)} and {l}")
            above[B] = q
        level = above
    return level[frozenset(range(1, rs.n + 1))]


# ---------------------------------------------------------------------------
# conjugation operations and expression traces


def d_op(a1: RatMatrix, a2: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    """Descend a common-tail value pair to the common-head pair below it.

    b1 = delta^{-1} a2 delta with delta = a1 - a2, and b2 = b1 + delta by the
    linear diamond identity, so one conjugation gives both.
    """
    delta = a1 - a2
    try:
        b1 = conjugate(delta, a2, left=False)
    except SingularMatrixError as exc:
        raise SingularDifferenceError("difference of the pair is singular") from exc
    return b1, b1 + delta


def u_op(b1: RatMatrix, b2: RatMatrix) -> tuple[RatMatrix, RatMatrix]:
    """Lift a common-head value pair to the common-tail pair above it.

    a1 = delta b2 delta^{-1} with delta = b1 - b2, and a2 = a1 + delta by the
    linear diamond identity, so one conjugation gives both.
    """
    delta = b1 - b2
    try:
        a1 = conjugate(delta, b2, left=True)
    except SingularMatrixError as exc:
        raise SingularDifferenceError("difference of the pair is singular") from exc
    return a1, a1 + delta


class ConjExpr:
    """Expression over named generators: ring operations plus the two
    conjugations (a,b) -> (a-b) a (a-b)^{-1} and (a,b) -> (a-b)^{-1} a (a-b)."""

    op = None

    def eval(self, assignment: Mapping[str, RatMatrix]) -> RatMatrix:
        raise NotImplementedError

    def __repr__(self):
        return str(self)


@dataclass(frozen=True, repr=False)
class Gen(ConjExpr):
    name: str
    op = "gen"

    def eval(self, assignment):
        return assignment[self.name]

    def __str__(self):
        return self.name


@dataclass(frozen=True, repr=False)
class Neg(ConjExpr):
    a: ConjExpr
    op = "neg"

    def eval(self, assignment):
        return -self.a.eval(assignment)

    def __str__(self):
        return f"(-{self.a})"


class _Binary(ConjExpr):
    symbol = "?"

    def __str__(self):
        return f"({self.a}{self.symbol}{self.b})"


@dataclass(frozen=True, repr=False)
class Sum(_Binary):
    a: ConjExpr
    b: ConjExpr
    op = "sum"
    symbol = "+"

    def eval(self, assignment):
        return self.a.eval(assignment) + self.b.eval(assignment)


@dataclass(frozen=True, repr=False)
class Diff(_Binary):
    a: ConjExpr
    b: ConjExpr
    op = "diff"
    symbol = "-"

    def eval(self, assignment):
        return self.a.eval(assignment) - self.b.eval(assignment)


@dataclass(frozen=True, repr=False)
class Prod(_Binary):
    a: ConjExpr
    b: ConjExpr
    op = "prod"
    symbol = "*"

    def eval(self, assignment):
        return self.a.eval(assignment) * self.b.eval(assignment)


@dataclass(frozen=True, repr=False)
class LConj(ConjExpr):
    """(a-b) a (a-b)^{-1}"""
    a: ConjExpr
    b: ConjExpr
    op = "lconj"

    def eval(self, assignment):
        av = self.a.eval(assignment)
        delta = av - self.b.eval(assignment)
        try:
            return conjugate(delta, av, left=True)
        except SingularMatrixError as exc:
            raise SingularDifferenceError(f"lconj difference singular in {self}") from exc

    def __str__(self):
        return f"lconj({self.a},{self.b})"


@dataclass(frozen=True, repr=False)
class RConj(ConjExpr):
    """(a-b)^{-1} a (a-b)"""
    a: ConjExpr
    b: ConjExpr
    op = "rconj"

    def eval(self, assignment):
        av = self.a.eval(assignment)
        delta = av - self.b.eval(assignment)
        try:
            return conjugate(delta, av, left=False)
        except SingularMatrixError as exc:
            raise SingularDifferenceError(f"rconj difference singular in {self}") from exc

    def __str__(self):
        return f"rconj({self.a},{self.b})"


# ---------------------------------------------------------------------------
# labeled edge sets and the labeled closure


class LabeledEdgeSet:
    """Edges of a host graph carrying ring values (and generator names)."""

    def __init__(self, host: Digraph, labels: Mapping[str, RatMatrix],
                 names: Mapping[str, str] | None = None,
                 exprs: Mapping[str, ConjExpr] | None = None):
        self.host = host
        self.labels = dict(labels)
        EdgeSet(host, self.labels)  # validates edge ids
        if names is None:
            names = {e: f"g{k}" for k, e in enumerate(sorted(self.labels), start=1)}
        self.names = dict(names)
        if len(set(self.names.values())) != len(self.names):
            raise ValueError("generator names must be unique")
        if exprs is None:
            exprs = {e: Gen(self.names[e]) for e in self.names}
        self.exprs = dict(exprs)

    def edge_set(self) -> EdgeSet:
        return EdgeSet(self.host, self.labels)

    def assignment(self) -> dict:
        """Generator name -> named edge's value."""
        return {name: self.labels[e] for e, name in self.names.items()}

    def to_json(self) -> dict:
        recs = []
        for e in sorted(self.labels):
            rec = {"edge": e, "value": self.labels[e].to_json()}
            if e in self.names:
                rec["name"] = self.names[e]
            recs.append(rec)
        return {"edges": recs}

    @classmethod
    def from_json(cls, host: Digraph, obj: dict) -> "LabeledEdgeSet":
        """Edge records {"edge", "value", "name"?}; names are given for every
        edge or for none, and every value shares the first one's dimension."""
        recs = json_array(obj, "edges")
        named = any(isinstance(rec, dict) and "name" in rec for rec in recs)
        labels = {}
        names = {}
        for k, rec in enumerate(recs):
            e = rec.get("edge") if isinstance(rec, dict) else None
            if not isinstance(e, str) or "value" not in rec:
                raise InputError(f"edges[{k}]", "expected an object with an 'edge' id and a 'value'")
            if e in labels:
                raise InputError(f"edges[{k}].edge", f"edge {e!r} is labeled twice")
            labels[e] = parse_at(f"edges[{k}].value", RatMatrix.from_json, rec["value"])
            dim, first = labels[e].dim, labels[recs[0]["edge"]].dim
            if dim != first:
                raise InputError(f"edges[{k}].value", f"dimension {dim} does not match edges[0]'s {first}")
            if not named:
                continue
            if "name" not in rec:
                raise InputError(f"edges[{k}].name", "missing; name every edge or none")
            name = rec["name"]
            if not isinstance(name, str):
                raise InputError(f"edges[{k}].name", "expected a string")
            if name in names.values():
                raise InputError(f"edges[{k}].name", f"{name!r} used twice")
            names[e] = name
        return cls(host, labels, names=names or None)


@dataclass
class SkippedStep:
    kind: str
    inputs: tuple
    reason: str


@dataclass
class LabeledCompletionResult:
    labeled: LabeledEdgeSet
    steps: list
    skipped: list


def labeled_completion(ls: LabeledEdgeSet) -> LabeledCompletionResult:
    """Propagate labels along the graph closure via the d/u conjugations.

    Newly derived edge pairs receive values aligned so that result_i
    continues input_i. An edge reached by two derivations must receive the
    same value both times, otherwise the labeling is not a representation
    and InconsistentLabelsError is raised. Derivations whose difference is
    singular are skipped (and reported); the closure continues elsewhere.
    """
    g = ls.host
    values = dict(ls.labels)
    exprs = dict(ls.exprs)
    steps = []
    skipped = []

    def propagate(kind, pair, results, add):
        a, b = pair
        op, conj = (d_op, RConj) if kind == "D" else (u_op, LConj)
        try:
            out_vals = op(values[a], values[b])
        except SingularDifferenceError as exc:
            skipped.append(SkippedStep(kind, pair, str(exc)))
            return
        out_exprs = (conj(exprs[b], exprs[a]), conj(exprs[a], exprs[b]))
        for out_pair in results:
            fresh = False
            for f, val, ex in zip(out_pair, out_vals, out_exprs):
                if add(f):
                    values[f], exprs[f] = val, ex
                    fresh = True
                elif values[f] != val:
                    raise InconsistentLabelsError(
                        f"edge {f!r} received two different values "
                        f"(via {kind} on {pair})")
            if fresh:
                steps.append(duclosure.DUStep(kind, pair, out_pair))

    duclosure.close(g, values, propagate)
    labeled = LabeledEdgeSet(g, values, names=dict(ls.names), exprs=exprs)
    return LabeledCompletionResult(labeled, steps, skipped)


@dataclass
class Factorization:
    path: tuple
    factors: tuple
    exprs: tuple
    poly: NCPoly
    skipped: list


def derive_factorization(ls: LabeledEdgeSet) -> Factorization:
    """Factor the graph polynomial through a sufficient labeled edge set.

    Runs the labeled closure, finds a positive source-to-sink path among
    the labeled edges, and returns the factors in path order together with
    their expression traces; each trace is re-evaluated against the input
    assignment before returning.
    """
    g = ls.host
    result = labeled_completion(ls)
    labeled = set(result.labeled.labels)
    path = None
    for s in sorted(g.sources()):
        for t in sorted(g.sinks()):
            path = duclosure.lex_path(g, labeled, s, t)
            if path is not None:
                break
        if path is not None:
            break
    if path is None:
        detail = f" ({len(result.skipped)} derivations skipped)" if result.skipped else ""
        raise NotSufficientError("labeled completion contains no source-to-sink path" + detail)
    factors = tuple(result.labeled.labels[e] for e in path)
    exprs = tuple(result.labeled.exprs[e] for e in path)
    assignment = ls.assignment()
    for factor, expr in zip(factors, exprs):
        if expr.eval(assignment) != factor:
            raise ArithmeticError(f"expression trace {expr} does not reproduce its factor")
    poly = from_linear_factors(list(factors))
    return Factorization(path, factors, exprs, poly, result.skipped)


# ---------------------------------------------------------------------------
# commutative specialization


def scalar_specialize(keys, assignment: Mapping[int, object]) -> dict:
    """Map every x_{A,i}-style key to the 1x1 matrix of its index's scalar.

    ``keys`` may be a PseudoRootTable, an iterable of (A, i) pairs, or an
    iterable of canonical "{...}:i" edge ids. The scalars must be pairwise
    distinct.
    """
    values = {i: parse_rational(s) for i, s in assignment.items()}
    if len(set(values.values())) != len(values):
        raise ValueError("scalar assignment must be injective")
    if isinstance(keys, PseudoRootTable):
        keys = keys.keys()
    out = {}
    for key in keys:
        if isinstance(key, str):
            i = parse_edge_label(key).i
        else:
            _, i = key
        if i not in values:
            raise ValueError(f"no scalar assigned to index {i}")
        out[key] = RatMatrix([[values[i]]])
    return out
