"""Finite simple acyclic directed graphs with optional layer ranks.

Vertices and edges are identified by strings. Construction validates
simplicity, acyclicity and (when ranks are given) that every edge drops
the rank by exactly one; invalid graphs are rejected with the full
problem report attached. Graphs are immutable after construction and all
queries are pure.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .exact_linalg import InputError, json_array


class GraphError(Exception):
    pass


class GraphValidationError(GraphError):
    def __init__(self, report):
        super().__init__("; ".join(report.problems))
        self.report = report


class UnknownVertexError(GraphError):
    pass


class UnknownEdgeError(GraphError):
    pass


class EmptyEdgeSetError(GraphError):
    pass


@dataclass
class GraphReport:
    simple: bool = True
    acyclic: bool = True
    layered: bool | None = None  # None: no rank map given
    problems: list = field(default_factory=list)
    cycle: list | None = None

    @property
    def ok(self) -> bool:
        return not self.problems


def validate_graph(vertices, edges, rank=None) -> GraphReport:
    """Check raw graph data: (vertex ids, (edge id, tail, head) triples, rank map)."""
    report = GraphReport()
    vertices = list(vertices)
    edges = list(edges)
    vset = set(vertices)
    if len(vset) != len(vertices):
        report.problems.append("duplicate vertex id")
    seen_ids = set()
    seen_pairs = {}
    adjacency = {v: [] for v in vset}
    for eid, tail, head in edges:
        if eid in seen_ids:
            report.problems.append(f"duplicate edge id {eid!r}")
        seen_ids.add(eid)
        if tail not in vset or head not in vset:
            report.problems.append(f"edge {eid!r} has unknown endpoint")
            continue
        if (tail, head) in seen_pairs:
            report.simple = False
            report.problems.append(
                f"duplicate edge: {eid!r} and {seen_pairs[tail, head]!r} both join {tail!r} -> {head!r}")
        seen_pairs[tail, head] = eid
        adjacency[tail].append(head)
    cycle = _find_cycle(adjacency)
    if cycle is not None:
        report.acyclic = False
        report.cycle = cycle
        report.problems.append("cycle found: " + " -> ".join(cycle))
    if rank is not None:
        report.layered = True
        missing = vset - set(rank)
        if missing:
            report.layered = False
            report.problems.append(f"rank missing for {sorted(missing)}")
        values_ok = True
        for r in rank.values():
            if isinstance(r, bool) or not isinstance(r, int) or r < 0:
                values_ok = False
                report.layered = False
                report.problems.append(f"rank values must be non-negative integers, got {r!r}")
                break
        if values_ok:
            for eid, tail, head in edges:
                if tail in rank and head in rank and rank[tail] - 1 != rank[head]:
                    report.layered = False
                    report.problems.append(
                        f"rank violation on edge {eid!r}: r({tail!r})={rank[tail]}, r({head!r})={rank[head]}")
    return report


def _find_cycle(adjacency):
    # iterative three-color DFS; returns a vertex cycle or None
    WHITE, GRAY, BLACK = 0, 1, 2
    color = {v: WHITE for v in adjacency}
    parent = {}
    for start in adjacency:
        if color[start] != WHITE:
            continue
        stack = [(start, iter(adjacency[start]))]
        color[start] = GRAY
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                if color[w] == WHITE:
                    color[w] = GRAY
                    parent[w] = v
                    stack.append((w, iter(adjacency[w])))
                    advanced = True
                    break
                if color[w] == GRAY:
                    cycle = [w, v]
                    cur = v
                    while cur != w:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.reverse()
                    return cycle
            if not advanced:
                color[v] = BLACK
                stack.pop()
    return None


# JSON strings and numbers; ``Digraph`` turns them into strings. A JSON
# boolean loads as bool, which is its own type and so is not an id.
_ID_TYPES = frozenset((str, int, float))


def graph_records(obj):
    """Raw (vertex ids, (edge id, tail, head) triples, rank map) of a graph document.

    The document is ``{"vertices": [{"id", "rank"?}, ...], "edges": [{"id",
    "tail", "head"}, ...]}`` with string or number ids; a malformed record
    raises an InputError naming its field. The rank map is None when no vertex
    carries a rank; otherwise an unranked vertex maps to None, which
    ``validate_graph`` reports.
    """
    vrecs = json_array(obj, "vertices")
    vertices = []
    for k, rec in enumerate(vrecs):
        v = rec.get("id") if isinstance(rec, dict) else None
        if type(v) not in _ID_TYPES:
            raise _record_error("vertices", k, rec, ("id",))
        vertices.append(v)
    edges = []
    for k, rec in enumerate(json_array(obj, "edges")):
        e, t, h = ((rec.get("id"), rec.get("tail"), rec.get("head"))
                   if isinstance(rec, dict) else (None, None, None))
        if type(e) not in _ID_TYPES or type(t) not in _ID_TYPES or type(h) not in _ID_TYPES:
            raise _record_error("edges", k, rec, ("id", "tail", "head"))
        edges.append((e, t, h))
    rank = None
    if any("rank" in rec for rec in vrecs):
        rank = {rec["id"]: rec.get("rank") for rec in vrecs}
    return vertices, edges, rank


def _record_error(key: str, k: int, rec, names) -> InputError:
    # names the field of record ``k`` that failed graph_records' id check
    if not isinstance(rec, dict):
        return InputError(f"{key}[{k}]", "expected an object")
    name = next(n for n in names if type(rec.get(n)) not in _ID_TYPES)
    return InputError(f"{key}[{k}].{name}", "expected a string or a number" if name in rec else "missing")


class Digraph:
    """Validated immutable digraph; raises GraphValidationError on bad input."""

    __slots__ = ("vertices", "edges", "rank", "_out", "_in", "_topo", "_desc", "_anc")

    def __init__(self, vertices, edges, rank=None):
        vertices = [str(v) for v in vertices]
        edges = [(str(e), str(t), str(h)) for e, t, h in edges]
        if rank is not None:
            rank = {str(v): r for v, r in rank.items()}
        report = validate_graph(vertices, edges, rank)
        if not report.ok:
            raise GraphValidationError(report)
        object.__setattr__(self, "vertices", frozenset(vertices))
        object.__setattr__(self, "edges", {e: (t, h) for e, t, h in edges})
        object.__setattr__(self, "rank", dict(rank) if rank is not None else None)
        out = {v: [] for v in vertices}
        inc = {v: [] for v in vertices}
        for e, t, h in edges:
            out[t].append(e)
            inc[h].append(e)
        object.__setattr__(self, "_out", {v: tuple(sorted(es)) for v, es in out.items()})
        object.__setattr__(self, "_in", {v: tuple(sorted(es)) for v, es in inc.items()})
        object.__setattr__(self, "_topo", self._topological_order())
        object.__setattr__(self, "_desc", {})
        object.__setattr__(self, "_anc", {})

    def __setattr__(self, name, value):
        raise AttributeError("Digraph is immutable")

    # ---- basic access ----

    def tail(self, e: str) -> str:
        self._require_edge(e)
        return self.edges[e][0]

    def head(self, e: str) -> str:
        self._require_edge(e)
        return self.edges[e][1]

    def out_edges(self, v: str) -> tuple:
        self._require_vertex(v)
        return self._out[v]

    def in_edges(self, v: str) -> tuple:
        self._require_vertex(v)
        return self._in[v]

    def _require_vertex(self, v):
        if v not in self.vertices:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def _require_edge(self, e):
        if e not in self.edges:
            raise UnknownEdgeError(f"unknown edge {e!r}")

    def sources(self) -> frozenset:
        return frozenset(v for v in self.vertices if not self._in[v])

    def sinks(self) -> frozenset:
        return frozenset(v for v in self.vertices if not self._out[v])

    def _topological_order(self):
        indeg = {v: len(self._in[v]) for v in self.vertices}
        queue = deque(sorted(v for v in self.vertices if indeg[v] == 0))
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for e in self._out[v]:
                w = self.edges[e][1]
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
        return tuple(order)

    def topological_order(self) -> tuple:
        return self._topo

    # ---- reachability ----

    def descendants(self, v: str) -> frozenset:
        """Vertices reachable from v by a positive path, v included."""
        self._require_vertex(v)
        cached = self._desc.get(v)
        if cached is None:
            seen = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for e in self._out[u]:
                    w = self.edges[e][1]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            cached = frozenset(seen)
            self._desc[v] = cached
        return cached

    def ancestors(self, v: str) -> frozenset:
        self._require_vertex(v)
        cached = self._anc.get(v)
        if cached is None:
            seen = {v}
            stack = [v]
            while stack:
                u = stack.pop()
                for e in self._in[u]:
                    w = self.edges[e][0]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            cached = frozenset(seen)
            self._anc[v] = cached
        return cached

    def positive_path_exists(self, u: str, v: str) -> bool:
        """Directed reachability; the empty path makes this reflexive."""
        self._require_vertex(u)
        self._require_vertex(v)
        return v in self.descendants(u)

    # ---- structure predicates ----

    def is_modular(self):
        """Both diamond-completion conditions; returns (bool, witness pair)."""
        by_tail = {}
        by_head = {}
        for e, (t, h) in self.edges.items():
            by_tail.setdefault(t, []).append(e)
            by_head.setdefault(h, []).append(e)
        for group in by_tail.values():
            group.sort()
            for i, e1 in enumerate(group):
                for e2 in group[i + 1:]:
                    h1, h2 = self.edges[e1][1], self.edges[e2][1]
                    heads1 = {self.edges[f][1] for f in self._out[h1]}
                    heads2 = {self.edges[f][1] for f in self._out[h2]}
                    if not (heads1 & heads2):
                        return False, ("common-tail", e1, e2)
        for group in by_head.values():
            group.sort()
            for i, f1 in enumerate(group):
                for f2 in group[i + 1:]:
                    t1, t2 = self.edges[f1][0], self.edges[f2][0]
                    tails1 = {self.edges[g][0] for g in self._in[t1]}
                    tails2 = {self.edges[g][0] for g in self._in[t2]}
                    if not (tails1 & tails2):
                        return False, ("common-head", f1, f2)
        return True, None

    def is_essential(self, e: str) -> bool:
        """No path of length >= 2 shares the edge's endpoints."""
        self._require_edge(e)
        t, h = self.edges[e]
        for f in self._out[t]:
            mid = self.edges[f][1]
            if mid != h and h in self.descendants(mid):
                return False
        return True

    def edges_on_st_paths(self, u: str, v: str) -> frozenset:
        """All edges lying on at least one directed u -> v path."""
        down = self.descendants(u)
        up = self.ancestors(v)
        return frozenset(e for e, (t, h) in self.edges.items() if t in down and t in up and h in down and h in up)

    # ---- serialization ----

    def to_json(self) -> dict:
        verts = []
        for v in sorted(self.vertices):
            rec = {"id": v}
            if self.rank is not None:
                rec["rank"] = self.rank[v]
            verts.append(rec)
        edges = [{"id": e, "tail": t, "head": h} for e, (t, h) in sorted(self.edges.items())]
        return {"vertices": verts, "edges": edges}

    @classmethod
    def from_json(cls, obj: dict) -> "Digraph":
        vertices, edges, rank = graph_records(obj)
        if rank is not None and None in rank.values():
            raise ValueError("either all vertices carry a rank or none do")
        return cls(vertices, edges, rank)

    def to_dot(self, highlight=None) -> str:
        marked = set(highlight.members) if highlight is not None else set()
        lines = ["digraph G {"]
        for v in sorted(self.vertices):
            label = v if self.rank is None else f"{v}\\nr={self.rank[v]}"
            lines.append(f'  "{v}" [label="{label}"];')
        for e, (t, h) in sorted(self.edges.items()):
            style = ' [color=red, penwidth=2.0, label="%s"]' % e if e in marked else f' [label="{e}"]'
            lines.append(f'  "{t}" -> "{h}"{style};')
        lines.append("}")
        return "\n".join(lines)


class EdgeSet:
    """A subset of a host graph's edges."""

    __slots__ = ("host", "members")

    def __init__(self, host: Digraph, members):
        members = frozenset(str(m) for m in members)
        unknown = members - set(host.edges)
        if unknown:
            raise UnknownEdgeError(f"unknown edges {sorted(unknown)}")
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "members", members)

    def __setattr__(self, name, value):
        raise AttributeError("EdgeSet is immutable")

    def __iter__(self):
        return iter(sorted(self.members))

    def __len__(self):
        return len(self.members)

    def __contains__(self, e):
        return e in self.members

    def __eq__(self, other):
        if not isinstance(other, EdgeSet):
            return NotImplemented
        return self.host is other.host and self.members == other.members

    def __hash__(self):
        return hash((id(self.host), self.members))

    def __repr__(self):
        return f"EdgeSet({sorted(self.members)})"

    def vertex_span(self) -> frozenset:
        """All tails and heads of member edges."""
        vs = set()
        for e in self.members:
            t, h = self.host.edges[e]
            vs.add(t)
            vs.add(h)
        return frozenset(vs)

    def is_connected(self) -> bool:
        """Connectivity of the generated subgraph, edge directions ignored."""
        if not self.members:
            raise EmptyEdgeSetError("connectivity of the empty edge set is undefined")
        adj = {}
        for e in self.members:
            t, h = self.host.edges[e]
            adj.setdefault(t, set()).add(h)
            adj.setdefault(h, set()).add(t)
        start = next(iter(adj))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(adj)

    def path_exists_within(self, u: str, v: str) -> bool:
        """Positive path from u to v using member edges only (empty path counts)."""
        self.host._require_vertex(u)
        self.host._require_vertex(v)
        seen = {u}
        stack = [u]
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for e in self.host._out[x]:
                if e in self.members:
                    w = self.host.edges[e][1]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
        return False

    def longest_positive_path(self) -> tuple:
        """A maximum-length directed path inside the set, as an edge sequence.

        Ties are broken by the lexicographically smallest edge-id sequence,
        which makes the result deterministic.
        """
        if not self.members:
            raise EmptyEdgeSetError("longest path of the empty edge set is undefined")
        host = self.host
        best_from = {}  # vertex -> (length, edge tuple) for the best path starting there
        for v in reversed(host.topological_order()):
            best = (0, ())
            for e in host._out[v]:
                if e not in self.members:
                    continue
                w = host.edges[e][1]
                tail_len, tail_path = best_from[w]
                cand = (tail_len + 1, (e,) + tail_path)
                if cand[0] > best[0] or (cand[0] == best[0] and cand[1] < best[1]):
                    best = cand
            best_from[v] = best
        best = (0, ())
        for length, path in best_from.values():
            if length > best[0] or (length == best[0] and length > 0 and path < best[1]):
                best = (length, path)
        return best[1]
