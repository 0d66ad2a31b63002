"""D/U-operations on edge pairs and the closure machinery built on them.

A pair of edges sharing a tail descends (D) to the pairs of continuations
that meet in a common head; a pair sharing a head lifts (U) to the pairs
of predecessors leaving a common tail. Neither result is required to be
unique, and results always range over the host graph's own edges: closure
happens inside a fixed ambient graph and never invents new edges.

``close`` is the one closure engine: a FIFO worklist that pairs each
newly admitted edge only with the members sharing its tail or head, since
no other edge can form an applicable pair with it. ``completion`` and
``pseudoroots.labeled_completion`` are callbacks on it; ``completion``
also records a replayable trace that names, for every derived edge, the
first step that produced it. On top of the closure sit the
classification predicates: ample (non-domination of every vertex),
sufficient (the completion carries a positive source-to-sink path), and
the witness extraction whose guaranteed success on complete connected
sets is itself a testable statement.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple

from .digraph import Digraph, EdgeSet, EmptyEdgeSetError, GraphError, UnknownVertexError
from .hasse import gamma_order, parse_subset_id


class LemmaViolatedError(RuntimeError):
    """A witness guaranteed to exist was not found; indicates a bug."""


class DUStep(NamedTuple):
    kind: str            # "D" or "U"
    inputs: tuple        # ordered edge pair the operation consumed
    outputs: tuple       # ordered edge pair it produced (result_i continues/precedes input_i)


class ClosureTrace:
    """Steps of a completion run; each derived edge has exactly one origin step."""

    def __init__(self, steps, derived):
        self.steps = tuple(steps)
        self.derived = dict(derived)  # edge id -> index into steps

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)


def d_results(g: Digraph, e1: str, e2: str) -> list:
    """All pairs (f1, f2) with a common head such that f_i continues e_i."""
    t1, h1 = g.edges[e1]
    t2, h2 = g.edges[e2]
    if e1 == e2 or t1 != t2:
        raise GraphError(f"edges {e1!r}, {e2!r} do not form a common-tail pair")
    out = []
    for f1 in g.out_edges(h1):
        for f2 in g.out_edges(h2):
            if g.head(f1) == g.head(f2):
                out.append((f1, f2))
    return sorted(out)


def u_results(g: Digraph, f1: str, f2: str) -> list:
    """All pairs (e1, e2) with a common tail such that e_i ends at t(f_i)."""
    t1, h1 = g.edges[f1]
    t2, h2 = g.edges[f2]
    if f1 == f2 or h1 != h2:
        raise GraphError(f"edges {f1!r}, {f2!r} do not form a common-head pair")
    out = []
    for e1 in g.in_edges(t1):
        for e2 in g.in_edges(t2):
            if g.tail(e1) == g.tail(e2):
                out.append((e1, e2))
    return sorted(out)


def applicable(g: Digraph, a: str, b: str):
    """Which operations a pair of distinct edges admits: subset of {"D","U"}."""
    kinds = []
    if g.tail(a) == g.tail(b):
        kinds.append("D")
    if g.head(a) == g.head(b):
        kinds.append("U")
    return kinds


def _partners(g: Digraph, x: str, members) -> list:
    """Sorted members other than x sharing its tail or head: the only
    edges that can form an applicable pair with x."""
    t, h = g.edges[x]
    return sorted(y for y in g._out[t] + g._in[h] if y != x and y in members)


def close(g: Digraph, members, expand) -> set:
    """Close ``members`` under D and U inside ``g``; returns the closed set.

    FIFO queue of sorted pairs: those of the seeds, then each admitted
    edge's pairs in partner order. Each applicable kind of a dequeued pair
    with nonempty results goes to ``expand(kind, pair, results, add)``,
    which must call ``add(f)`` on each result edge as it meets it; ``add``
    admits and queues f and returns whether f was new.
    """
    current = set(members)
    queue = deque()
    queued = set()

    def enqueue_pairs_with(x):
        for y in _partners(g, x, current):
            pair = (x, y) if x < y else (y, x)
            if pair not in queued:
                queued.add(pair)
                queue.append(pair)

    def add(x):
        if x in current:
            return False
        current.add(x)
        enqueue_pairs_with(x)
        return True

    for x in sorted(current):
        enqueue_pairs_with(x)
    while queue:
        a, b = queue.popleft()
        for kind in applicable(g, a, b):
            results = d_results(g, a, b) if kind == "D" else u_results(g, a, b)
            if results:
                expand(kind, (a, b), results, add)
    return current


def completion(es: EdgeSet) -> tuple[EdgeSet, ClosureTrace]:
    """Least DU-complete superset, with a deterministic derivation trace.

    Every result pair of every operation is one step; the fixed point is
    unique, so the queue order only shapes the trace, never the result.
    """
    steps = []
    derived = {}

    def record(kind, pair, results, add):
        for out_pair in results:
            steps.append(DUStep(kind, pair, out_pair))
            for f in out_pair:
                if add(f):
                    derived[f] = len(steps) - 1

    members = close(es.host, es.members, record)
    return EdgeSet(es.host, members), ClosureTrace(steps, derived)


def is_complete(es: EdgeSet) -> bool:
    """True iff all D/U results of member pairs lie in the set."""
    g = es.host
    members = es.members
    for a in members:
        for b in _partners(g, a, members):
            for kind in applicable(g, a, b):
                results = d_results(g, a, b) if kind == "D" else u_results(g, a, b)
                for f1, f2 in results:
                    if f1 not in members or f2 not in members:
                        return False
    return True


def is_ample(es: EdgeSet):
    """Non-domination test for the vertex span of the set; (bool, witness).

    Every non-sink vertex of the host must fail to dominate some span
    vertex from above, and dually for non-source vertices. Positive paths
    are taken in the whole host graph and include the empty path. The
    witness names the uncovered vertex and the violated clause.
    """
    g = es.host
    span = sorted(es.vertex_span())
    for v in sorted(g.vertices):
        if g.out_edges(v):  # non-sink
            if not any(v not in g.descendants(u) for u in span):
                return False, ("above", v)
        if g.in_edges(v):  # non-source
            if not any(w not in g.descendants(v) for w in span):
                return False, ("below", v)
    return True, None


def gamma_n_ample_fast(es: EdgeSet) -> bool:
    """Index-coverage shortcut on boolean lattices; agrees with is_ample.

    The span is ample iff every ground element appears in some span vertex
    and is missing from some other.
    """
    n = gamma_order(es.host)
    if n is None:
        raise GraphError("host graph is not a boolean lattice")
    span = [parse_subset_id(v) for v in es.vertex_span()]
    for l in range(1, n + 1):
        if not any(l in s for s in span):
            return False
        if not any(l not in s for s in span):
            return False
    return True


def lex_path(g: Digraph, members, u: str, v: str):
    """Lexicographically smallest edge-id path u -> v inside members, or None."""
    reaches = {v}
    stack = [v]
    while stack:  # backward search over member edges
        for e in g.in_edges(stack.pop()):
            t = g.edges[e][0]
            if e in members and t not in reaches:
                reaches.add(t)
                stack.append(t)
    if u not in reaches:
        return None
    path = []
    while u != v:  # a vertex that reaches v has a member out-edge into reaches
        step = next(e for e in g.out_edges(u) if e in members and g.edges[e][1] in reaches)
        path.append(step)
        u = g.edges[step][1]
    return tuple(path)


def is_sufficient(es: EdgeSet):
    """Does the completion contain a positive source-to-sink path?

    Returns (bool, path). Source/sink pairs are scanned in sorted order
    and the path uses deterministic lexicographic tie-breaking.
    """
    comp, _ = completion(es)
    g = es.host
    for s in sorted(g.sources()):
        for t in sorted(g.sinks()):
            path = lex_path(g, comp.members, s, t)
            if path is not None:
                return True, path
    return False, None


def lemma_witness(F: EdgeSet, u: str, v: str) -> tuple[str, str]:
    """For complete connected F with no positive path u -> v inside it,
    return (edge with tail v, edge with head u); both must exist.

    Absence raises LemmaViolatedError, which makes the function usable as
    a direct oracle for the guarantee it encodes.
    """
    g = F.host
    if not F.members:
        raise EmptyEdgeSetError("need a nonempty edge set")
    if not is_complete(F):
        raise GraphError("edge set is not complete")
    if not F.is_connected():
        raise GraphError("edge set is not connected")
    span = F.vertex_span()
    if u not in span or v not in span:
        raise UnknownVertexError(f"{u!r} or {v!r} not in the vertex span")
    if F.path_exists_within(u, v):
        raise GraphError(f"positive path from {u!r} to {v!r} exists in the subgraph")
    f = next((e for e in sorted(F.members) if g.tail(e) == v), None)
    e = next((e for e in sorted(F.members) if g.head(e) == u), None)
    if f is None or e is None:
        raise LemmaViolatedError(f"no witness for (u={u!r}, v={v!r}) in {sorted(F.members)}")
    return f, e
