"""The layered graph of right divisors of a monic matrix polynomial.

Starting from the polynomial itself, repeatedly strip linear factors
t - x for x drawn from a named set of candidate ring elements: every
exact left division contributes an edge labeled by the stripped element,
and the monic quotients are the vertices, deduplicated by exact
coefficient equality and ranked by degree. This realizes the subgraph of
the full right-divisor graph reachable from the top polynomial, which is
the part that carries factorization content.

Full enumeration of all monic right divisors over a matrix ring is not
attempted (it is infeasible in general); see the checkers below for what
is verified instead: that every
edge labeling is path-independent, that the length-2 (diamond) relations
agree with full path independence on layered hosts, and that every edge
on a top-to-bottom path is exactly a pseudo-root of the top polynomial.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .digraph import Digraph
from .ncpoly import NCPoly, from_linear_factors


@dataclass
class DivisorGraph:
    graph: Digraph
    polys: dict            # vertex id -> monic right divisor
    quotients: dict        # vertex id -> witness Q with top = Q * divisor
    labels: dict           # edge id -> stripped ring element
    label_names: dict      # edge id -> name of the stripped element


@dataclass
class PathIndependence:
    ok: bool
    witness: tuple | None          # (v, w, path1, path2) on failure
    source_sink_poly: NCPoly | None


def _poly_key(p: NCPoly) -> tuple:
    return tuple(tuple(c.rows()) for c in p.coeffs)


def build_divisor_graph(p: NCPoly, elements) -> DivisorGraph:
    """Breadth-first construction from p over named candidate elements.

    ``elements`` is a mapping name -> RatMatrix or an iterable of
    (name, RatMatrix) pairs. An element that divides nothing simply
    contributes no edges. Output is deterministic: frontiers expand in
    the lexicographic order of the coefficient serialization and elements
    are tried in name order.
    """
    if not p.is_monic:
        raise ValueError("top polynomial must be monic")
    # distinct names may carry equal values (commutative specializations do);
    # one ring element strips one factor, so deduplicate by value
    by_value = {}
    for name, x in sorted(dict(elements).items()):
        by_value.setdefault(x, name)
    named = sorted((name, x) for x, name in by_value.items())
    ids = {}           # NCPoly -> vertex id; NCPoly hashes and compares exactly
    sort_keys = {}     # NCPoly -> its coefficient serialization, the frontier order
    per_degree = {}    # degree -> vertices named so far
    polys = {}
    quotients = {}
    labels = {}
    label_names = {}
    edges = []

    def vertex_for(poly, quotient):
        if poly not in ids:
            k = per_degree.get(poly.degree, 0)
            per_degree[poly.degree] = k + 1
            ids[poly] = f"d{poly.degree}.{k}"
            sort_keys[poly] = _poly_key(poly)
            polys[ids[poly]] = poly
            quotients[ids[poly]] = quotient
        return ids[poly]

    top = vertex_for(p, NCPoly.one(p.dim))
    frontier = [p]
    while frontier:
        frontier.sort(key=sort_keys.__getitem__)
        next_frontier = []
        for b1 in frontier:
            if b1.degree == 0:
                continue
            v1 = ids[b1]
            for name, x in named:
                quotient, remainder = b1.left_divide_linear(x)
                if not remainder.is_zero():
                    continue
                known = quotient in ids
                v2 = vertex_for(quotient, quotients[v1] * NCPoly.t_minus(x))
                eid = f"{v1}>{v2}"
                edges.append((eid, v1, v2))
                labels[eid] = x
                label_names[eid] = name
                if not known:
                    next_frontier.append(quotient)
        frontier = next_frontier

    rank = {v: poly.degree if not poly.is_zero else 0 for v, poly in polys.items()}
    graph = Digraph(list(polys), edges, rank)
    dg = DivisorGraph(graph, polys, quotients, labels, label_names)
    _check_invariants(dg, p)
    return dg


def _check_invariants(dg: DivisorGraph, top: NCPoly):
    for v, b in dg.polys.items():
        if dg.quotients[v] * b != top:
            raise ArithmeticError(f"vertex {v} does not right-divide the top polynomial")
    for e, (v1, v2) in dg.graph.edges.items():
        if NCPoly.t_minus(dg.labels[e]) * dg.polys[v2] != dg.polys[v1]:
            raise ArithmeticError(f"edge {e} does not reconstruct its tail polynomial")


def _all_paths(g: Digraph, u: str, v: str):
    """Every positive path u -> v as an edge-id tuple (small graphs only)."""
    if u == v:
        yield ()
        return
    for e in g.out_edges(u):
        for rest in _all_paths(g, g.head(e), v):
            yield (e,) + rest


def _path_poly(dg: DivisorGraph, path) -> NCPoly:
    return from_linear_factors([dg.labels[e] for e in path], dim=next(iter(dg.polys.values())).dim)


def verify_path_independence(dg: DivisorGraph) -> PathIndependence:
    """Do all positive paths between any two vertices multiply out equally?

    True exactly when the labeling is a representation of the path algebra.
    Also reports the common source-to-sink product when there is one.
    """
    g = dg.graph
    for v, w in itertools.permutations(sorted(g.vertices), 2):
        reference = None
        ref_path = None
        for path in _all_paths(g, v, w):
            value = _path_poly(dg, path)
            if reference is None:
                reference, ref_path = value, path
            elif value != reference:
                return PathIndependence(False, (v, w, ref_path, path), None)
    poly = None
    sources, sinks = g.sources(), g.sinks()
    if len(sources) == 1 and len(sinks) == 1:
        first = next(_all_paths(g, next(iter(sources)), next(iter(sinks))), None)
        if first is not None:
            poly = _path_poly(dg, first)
    return PathIndependence(True, None, poly)


def diamond_relations_check(dg: DivisorGraph):
    """Check only length-2 path pairs: e1+f1 = e2+f2 and e1*f1 = e2*f2.

    On modular layered hosts this must agree with full path independence.
    Returns (bool, witness pair of length-2 paths).
    """
    g = dg.graph
    if g.rank is None:
        raise ValueError("diamond check expects a layered graph")
    for v in sorted(g.vertices):
        two_step = {}
        for e in g.out_edges(v):
            for f in g.out_edges(g.head(e)):
                two_step.setdefault(g.head(f), []).append((e, f))
        for w, paths in two_step.items():
            for (e1, f1), (e2, f2) in itertools.combinations(paths, 2):
                a1, b1 = dg.labels[e1], dg.labels[f1]
                a2, b2 = dg.labels[e2], dg.labels[f2]
                if a1 + b1 != a2 + b2 or a1 * b1 != a2 * b2:
                    return False, ((e1, f1), (e2, f2))
    return True, None


def iterated_identification(dg: DivisorGraph) -> bool:
    """Each edge on a top-to-bottom path is a pseudo-root of the top poly:
    splitting any such path at the edge reconstructs it exactly."""
    g = dg.graph
    ranks = g.rank
    top_rank = max(ranks.values())
    sources = [v for v in g.vertices if ranks[v] == top_rank]
    sinks = [v for v, poly in dg.polys.items() if poly == NCPoly.one(poly.dim)]
    if len(sources) != 1 or len(sinks) != 1:
        raise ValueError("need a unique top vertex and the vertex 1")
    source, sink = sources[0], sinks[0]
    if not g.positive_path_exists(source, sink):
        raise ValueError("no path from the top polynomial to 1")
    top = dg.polys[source]
    dim = top.dim
    for e in sorted(g.edges_on_st_paths(source, sink)):
        before = next(_all_paths(g, source, g.tail(e)))
        after = next(_all_paths(g, g.head(e), sink))
        q1 = _path_poly(dg, before)
        q2 = _path_poly(dg, after)
        if q1 * NCPoly.t_minus(dg.labels[e]) * q2 != top:
            return False
    return True


def match_boolean_table(dg: DivisorGraph, table):
    """Label-guided isomorphism onto the boolean lattice of the table.

    Maps the top vertex to the full index set and walks edges downward,
    matching each label against the table entry whose subset fits the
    current vertex image. Returns (vertex mapping, None) on success or
    (None, reason) on the first mismatch.
    """
    g = dg.graph
    n = table.n
    if len(g.vertices) != 2 ** n:
        return None, f"vertex count {len(g.vertices)} != {2 ** n}"
    if len(g.edges) != n * 2 ** (n - 1):
        return None, f"edge count {len(g.edges)} != {n * 2 ** (n - 1)}"
    by_value = {}
    for (A, i), value in table.items():
        by_value.setdefault(value, []).append((A, i))
    if any(len(v) > 1 for v in by_value.values()):
        return None, "table values are not pairwise distinct"
    ranks = g.rank
    tops = [v for v in g.vertices if ranks[v] == n]
    if len(tops) != 1:
        return None, "no unique top vertex"
    mapping = {tops[0]: frozenset(range(1, n + 1))}
    for v in sorted(g.vertices, key=lambda v: (-ranks[v], v)):
        if v not in mapping:
            return None, f"vertex {v} never reached from the top"
        image = mapping[v]
        for e in g.out_edges(v):
            hits = by_value.get(dg.labels[e])
            if not hits:
                return None, f"label of {e} is not a table value"
            A, i = hits[0]
            if A | {i} != image:
                return None, f"label of {e} does not fit below {sorted(image)}"
            w = g.head(e)
            if w in mapping and mapping[w] != A:
                return None, f"conflicting images for {w}"
            mapping[w] = A
    if len(set(mapping.values())) != len(mapping):
        return None, "vertex images are not distinct"
    return mapping, None
