"""Generators for the graph families the factorization theory runs on.

Covers the boolean lattice of subsets of {1..n} (with its canonical
"{a,b}:i" edge labels), Hasse graphs of arbitrary finite ranked posets and
of complexes, and the lattice of integer partitions ordered by summing
consecutive blocks of parts. Vertex ids are canonical strings: subsets as
"{1,3}" (empty set "{}"), partitions as "(3,1)".
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterable, NamedTuple

from .digraph import Digraph, GraphError
from .exact_linalg import InputError, json_array

MAX_BOOLEAN_N = 12
MAX_PARTITION_N = 10


class PosetError(ValueError):
    pass


class NotAComplexError(ValueError):
    def __init__(self, missing, present):
        super().__init__(f"family is not a complex: {subset_id(missing)} missing "
                         f"although {subset_id(present)} is present")
        self.witness = (missing, present)


class GammaEdgeLabel(NamedTuple):
    """Edge (A, i) of the boolean lattice: tail A|{i}, head A, i not in A."""

    A: frozenset
    i: int

    def __str__(self):
        return f"{subset_id(self.A)}:{self.i}"


def subset_id(s: Iterable[int]) -> str:
    return "{" + ",".join(str(x) for x in sorted(s)) + "}"


def parse_subset_id(text: str) -> frozenset:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise ValueError(f"not a subset id: {text!r}")
    body = text[1:-1].strip()
    if not body:
        return frozenset()
    return frozenset(int(x) for x in body.split(","))


def parse_edge_label(text: str) -> GammaEdgeLabel:
    """Parse the canonical "{a,b}:i" form."""
    left, sep, right = text.rpartition(":")
    if not sep:
        raise ValueError(f"not an edge label: {text!r}")
    A = parse_subset_id(left)
    i = int(right)
    if i in A:
        raise ValueError(f"index {i} must not lie in {subset_id(A)}")
    return GammaEdgeLabel(A, i)


def boolean_lattice(n: int) -> Digraph:
    """The graph of all subsets of {1..n}: edge (A,i) joins A|{i} to A."""
    if not 1 <= n <= MAX_BOOLEAN_N:
        raise ValueError(f"n must lie in 1..{MAX_BOOLEAN_N}")
    universe = range(1, n + 1)
    subsets = [frozenset(c) for k in range(n + 1) for c in itertools.combinations(universe, k)]
    vertices = [subset_id(s) for s in subsets]
    rank = {subset_id(s): len(s) for s in subsets}
    edges = []
    for A in subsets:
        for i in universe:
            if i not in A:
                label = GammaEdgeLabel(A, i)
                edges.append((str(label), subset_id(A | {i}), subset_id(A)))
    return Digraph(vertices, edges, rank)


def gamma_order(g: Digraph) -> int | None:
    """The n for which g is exactly the boolean lattice graph, else None."""
    try:
        subsets = {v: parse_subset_id(v) for v in g.vertices}
    except ValueError:
        return None
    elements = set().union(*subsets.values()) if subsets else set()
    n = len(elements)
    if elements != set(range(1, n + 1)) or len(g.vertices) != 2 ** n:
        return None
    if len(set(subsets.values())) != len(subsets):
        return None
    if len(g.edges) != n * 2 ** (n - 1):
        return None
    for e, (t, h) in g.edges.items():
        try:
            label = parse_edge_label(e)
        except ValueError:
            return None
        if subsets[h] != label.A or subsets[t] != label.A | {label.i}:
            return None
    return n


def hasse_from_poset(elements, less_than: Callable, rank: Callable | None = None,
                     ident: Callable = str) -> Digraph:
    """Hasse graph of a finite strict partial order.

    Edges are the covering pairs (x, y): y < x with nothing in between.
    The order oracle is validated (irreflexive, antisymmetric, transitive)
    and the rank oracle, when given, must be strictly monotone. Ranks are
    attached only when every cover drops the rank by exactly one; otherwise
    the graph is built unranked (check ``g.rank is None``).
    """
    elements = list(elements)
    ids = [ident(x) for x in elements]
    if len(set(ids)) != len(ids):
        raise PosetError("element ids are not unique")
    for x in elements:
        if less_than(x, x):
            raise PosetError(f"order is not irreflexive at {ident(x)}")
    for x, y in itertools.permutations(elements, 2):
        if less_than(x, y) and less_than(y, x):
            raise PosetError(f"order is not antisymmetric on ({ident(x)}, {ident(y)})")
    for x, y, z in itertools.permutations(elements, 3):
        if less_than(x, y) and less_than(y, z) and not less_than(x, z):
            raise PosetError(f"order is not transitive on ({ident(x)}, {ident(y)}, {ident(z)})")
    if rank is not None:
        for x, y in itertools.permutations(elements, 2):
            if less_than(y, x) and not rank(x) > rank(y):
                raise PosetError(f"rank not strictly monotone on ({ident(x)}, {ident(y)})")
    edges = []
    unit_steps = True
    for x, y in itertools.permutations(elements, 2):
        if not less_than(y, x):
            continue
        if any(less_than(y, z) and less_than(z, x) for z in elements):
            continue
        edges.append((f"{ident(x)}>{ident(y)}", ident(x), ident(y)))
        if rank is not None and rank(x) - rank(y) != 1:
            unit_steps = False
    rank_map = None
    if rank is not None and unit_steps:
        rank_map = {ident(x): rank(x) for x in elements}
    return Digraph(ids, edges, rank_map)


def family_from_json(obj) -> list:
    """The faces of a ``{"family": [[...], ...]}`` document, as frozensets.

    Each face is an array of strings or numbers; one family may not mix the
    two, since subset ids sort the elements of a face. A malformed face or
    element raises an InputError naming its field.
    """
    faces = []
    kinds = set()
    for k, face in enumerate(json_array(obj, "family")):
        if not isinstance(face, list):
            raise InputError(f"family[{k}]", "expected an array")
        for j, x in enumerate(face):
            if isinstance(x, bool) or not isinstance(x, (str, int, float)):
                raise InputError(f"family[{k}][{j}]", "expected a string or a number")
            kinds.add(isinstance(x, str))
        if len(kinds) > 1:
            raise InputError(f"family[{k}]", "mixes strings and numbers across the family")
        faces.append(frozenset(face))
    return faces


def complex_hasse(family: Iterable) -> Digraph:
    """Hasse graph of a downward-closed family of subsets, ranked by size."""
    sets = {frozenset(s) for s in family}
    for B in sorted(sets, key=lambda s: (len(s), sorted(s))):
        for b in B:
            if B - {b} not in sets:
                raise NotAComplexError(B - {b}, B)
    vertices = [subset_id(s) for s in sets]
    rank = {subset_id(s): len(s) for s in sets}
    edges = []
    for B in sets:
        for b in B:
            label = GammaEdgeLabel(B - {b}, b)
            edges.append((str(label), subset_id(B), subset_id(B - {b})))
    return Digraph(vertices, edges, rank)


# ---- integer partitions ----------------------------------------------------

def partitions_of(n: int) -> list:
    """All weakly decreasing tuples of positive integers summing to n."""
    result = []

    def extend(prefix, remaining, cap):
        if remaining == 0:
            result.append(tuple(prefix))
            return
        for part in range(min(cap, remaining), 0, -1):
            prefix.append(part)
            extend(prefix, remaining - part, part)
            prefix.pop()

    extend([], n, n)
    return result


def partition_id(parts) -> str:
    return "(" + ",".join(str(p) for p in parts) + ")"


def partition_le(lam, mu) -> bool:
    """lam <= mu: lam's parts, in order, are sums of consecutive blocks of
    mu's parts (so the coarser partition is the smaller element)."""
    lam, mu = tuple(lam), tuple(mu)
    if len(lam) > len(mu):
        return False
    if len(lam) == len(mu):
        return lam == mu
    for cuts in itertools.combinations(range(1, len(mu)), len(lam) - 1):
        bounds = (0,) + cuts + (len(mu),)
        sums = tuple(sum(mu[bounds[s]:bounds[s + 1]]) for s in range(len(lam)))
        if sums == lam:
            return True
    return False


def partition_lattice(n: int) -> Digraph:
    """Partitions of n under the consecutive-block-sum order, ranked by length."""
    if not 1 <= n <= MAX_PARTITION_N:
        raise ValueError(f"n must lie in 1..{MAX_PARTITION_N}")
    parts = partitions_of(n)
    rank = {partition_id(p): len(p) for p in parts}
    edges = []
    for mu in parts:
        for lam in parts:
            if lam == mu or not partition_le(lam, mu):
                continue
            if any(nu != lam and nu != mu and partition_le(lam, nu) and partition_le(nu, mu)
                   for nu in parts):
                continue
            edges.append((f"{partition_id(mu)}>{partition_id(lam)}", partition_id(mu), partition_id(lam)))
    try:
        return Digraph([partition_id(p) for p in parts], edges, rank)
    except GraphError as exc:  # a cover skipping a length would break layering
        raise GraphError(f"partition lattice for n={n} is not layered: {exc}") from exc
