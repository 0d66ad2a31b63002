"""Seeded inputs and op cycles of the three workloads.

A workload is a fixed cycle of op classes. The seed draws only matrix
entries and edge choices, never the class mix, so every run of a
workload does the same kinds of work in the same order. Each op is one
``ncroots`` command line; its input files are written here, during
set-up, and each class has a pool of inputs that the timed phase walks
through (wrapping around if a run outlasts the pool).

Class shares are chosen so that the median and the 90th percentile of
per-op latency each fall well inside one class, not on the boundary
between two classes of very different cost; NOTES.md gives the layout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import oracle


@dataclass(frozen=True)
class Op:
    cls: str
    argv: tuple
    out: str | None          # file written through -o; None: captured stdout is the output
    ok_codes: frozenset      # exit codes that are not failures
    check: Callable          # (exit code, output text) -> list of problems


@dataclass
class Workload:
    name: str
    cycle: tuple                             # op class names, in run order
    pools: dict = field(default_factory=dict)  # class -> list of Op
    warmup: list = field(default_factory=list)

    def cycle_ops(self, k: int) -> list:
        """The ops of the k-th cycle."""
        seen = {}
        ops = []
        for cls in self.cycle:
            j = seen.get(cls, 0)
            seen[cls] = j + 1
            pool = self.pools[cls]
            ops.append(pool[(k * self.cycle.count(cls) + j) % len(pool)])
        return ops


def interleave(counts: dict) -> tuple:
    """Spread each class evenly over one cycle, deterministically."""
    slots = [((j + 0.5) / c, name) for name, c in counts.items() for j in range(c)]
    return tuple(name for _, name in sorted(slots))


def _rng(seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(t) for t in (seed,) + tags))


def _write(path: Path, obj) -> str:
    path.write_text(json.dumps(obj))
    return str(path)


def _check_json(fn, *args):
    def check(rc, text):
        return fn(*args, json.loads(text))
    return check


def generic_roots(rng: random.Random, n: int, d: int) -> list:
    """n integer d x d matrices with entries in -5..5 forming a generic root set."""
    while True:
        roots = [[[rng.randint(-5, 5) for _ in range(d)] for _ in range(d)] for _ in range(n)]
        if oracle.surely_generic(roots):
            return roots


def _roots_json(roots) -> dict:
    return {"n": len(roots), "d": len(roots[0]),
            "roots": [{"d": len(x), "entries": [[str(v) for v in row] for row in x]} for x in roots]}


def _frac(roots) -> list:
    return [oracle.mat({"entries": x}) for x in roots]


def _subset(vertex: str) -> frozenset:
    body = vertex.strip("{}")
    return frozenset(int(x) for x in body.split(",")) if body else frozenset()


def _index(host: oracle.Host, e: str) -> int:
    t, h = host.edges[e]
    (i,) = _subset(t) - _subset(h)
    return i


def _host_file(work: Path, n: int):
    from ncroots.hasse import boolean_lattice
    obj = boolean_lattice(n).to_json()
    return _write(work / f"boolean{n}.json", obj), oracle.Host(obj)


# ---------------------------------------------------------------------------
# factor: pseudo-root table and canonical polynomial of a fresh root set


def _factor_op(work: Path, out: str, cls: str, n: int, d: int, rng, k: int) -> Op:
    roots = generic_roots(rng, n, d)
    path = _write(work / f"{cls}-{k}.json", _roots_json(roots))
    return Op(cls, ("factor", path, "-o", out), out, frozenset({0}),
              _check_json(oracle.check_factor, _frac(roots)))


def factor(seed: int, work: Path, cycles: int, tiny: bool = False) -> Workload:
    # (n, d) -> share of a 20-op cycle. Sorted by cost the classes occupy
    # 0-30% (3,2), 30-70% (3,3), 70-85% (4,2), 85-95% (4,3), 95-100% (5,2):
    # the median falls in the middle of (3,3) and p90 in the middle of (4,3).
    sizes = {"f32": (3, 2, 6), "f33": (3, 3, 8), "f42": (4, 2, 3), "f43": (4, 3, 2), "f52": (5, 2, 1)}
    if tiny:
        sizes = {"f22": (2, 2, 1), "f32": (3, 2, 1)}
    out = str(work / "factor.out.json")
    wl = Workload("factor", interleave({c: s[2] for c, s in sizes.items()}))
    for cls, (n, d, count) in sizes.items():
        rng = _rng(seed, "factor", cls)
        wl.pools[cls] = [_factor_op(work, out, cls, n, d, rng, k) for k in range(count * cycles)]
    wl.warmup = [_factor_op(work, out, "warmup", 3, 2, _rng(seed, "factor", "warmup"), 0)]
    return wl


# ---------------------------------------------------------------------------
# closure: DU-closure, sufficiency and ampleness on one boolean lattice


def _star(host: oracle.Host, rng, rank: int, upward: bool) -> list:
    """In-edges of a rank-r vertex (upward) or out-edges of a rank-(n-r)
    vertex; the closure is the whole interval above or below that vertex."""
    n = len(_subset(host.sources[0]))
    if upward:
        v = rng.choice([v for v in host.vertices if len(_subset(v)) == rank])
        return list(host.inc[v])
    v = rng.choice([v for v in host.vertices if len(_subset(v)) == n - rank])
    return list(host.out[v])


def _random_set(host: oracle.Host, rng) -> list:
    """6-8 edges drawn at random; they rarely share an endpoint."""
    return rng.sample(sorted(host.edges), rng.randint(6, 8))


def _connected_set(host: oracle.Host, rng) -> list:
    """A connected set of 4-6 edges with distinct indices."""
    first = rng.choice(sorted(host.edges))
    chosen, used = [first], {_index(host, first)}
    span = set(host.edges[first])
    for _ in range(rng.randint(4, 6) - 1):
        cands = sorted({e for v in span for e in host.out[v] + host.inc[v]
                        if e not in chosen and _index(host, e) not in used})
        if not cands:
            break
        e = rng.choice(cands)
        chosen.append(e)
        used.add(_index(host, e))
        span.update(host.edges[e])
    return chosen


def _closure_op(work: Path, graph: str, host, cls: str, command: str, edges, k: int) -> Op:
    path = _write(work / f"{cls}-{k}.json", {"edges": edges})
    if command == "closure":
        out = str(work / "closure.out.json")
        return Op(cls, ("closure", graph, path, "-o", out), out, frozenset({0}),
                  _check_json(oracle.check_closure, host, edges))
    check = oracle.check_sufficient if command == "sufficient" else oracle.check_ample
    return Op(cls, (command, graph, path), None, frozenset({0, 1}),
              lambda rc, text: check(host, edges, text, rc))


def closure(seed: int, work: Path, cycles: int, tiny: bool = False) -> Workload:
    # class -> (command, edge-set kind, share of a 40-op cycle). Each class
    # has one kind of edge set, so its cost distribution does not depend on
    # the seed's mix of kinds. By cost: sufficient on connected sets 0-15%,
    # closure of connected sets 15-35%, ample on random sets 35-65% (the
    # median in its middle), rank-2 stars (192-edge closures) 65-85%,
    # closures of rank-1 stars (448 edges) 85-95% (p90 in its middle),
    # bottom and top stars (1024 edges) 95-100%.
    n = 8
    classes = {
        "sufficient-connected": ("sufficient", "connected", 6),
        "closure-connected": ("closure", "connected", 8),
        "ample-random": ("ample", "random", 12),
        "closure-star192": ("closure", 2, 4),
        "sufficient-star192": ("sufficient", 2, 4),
        "closure-star448": ("closure", 1, 4),
        "closure-star1024": ("closure", 0, 1),
        "sufficient-star1024": ("sufficient", 0, 1),
    }
    if tiny:
        n = 4
        classes = {"sufficient-connected": ("sufficient", "connected", 1),
                   "closure-connected": ("closure", "connected", 1),
                   "ample-random": ("ample", "random", 1), "closure-star32": ("closure", 0, 1)}
    graph, host = _host_file(work, n)
    wl = Workload("closure", interleave({c: s[2] for c, s in classes.items()}))
    for cls, (command, kind, count) in classes.items():
        rng = _rng(seed, "closure", cls)
        pool = []
        for k in range(count * cycles):
            if kind == "random":
                edges = _random_set(host, rng)
            elif kind == "connected":
                edges = _connected_set(host, rng)
            else:
                # the two directions differ in cost; alternate them so that
                # every cycle holds the same number of each
                edges = _star(host, rng, kind, upward=(k + (command == "sufficient")) % 2 == 0)
            pool.append(_closure_op(work, graph, host, cls, command, edges, k))
        wl.pools[cls] = pool
    rng = _rng(seed, "closure", "warmup")
    wl.warmup = [_closure_op(work, graph, host, f"warmup-{command}", command, _connected_set(host, rng), 0)
                 for command in ("closure", "sufficient", "ample")]
    return wl


# ---------------------------------------------------------------------------
# derive: labeled closure of a bottom star; divisor graphs of canonical polynomials


def _derive_op(work: Path, graphs: dict, cls: str, n: int, d: int, rng, k: int) -> Op:
    graph, host = graphs[n]
    roots = generic_roots(rng, n, d)
    values = _roots_json(roots)["roots"]
    labels = {"edges": [{"edge": e, "value": values[_index(host, e) - 1]} for e in host.inc["{}"]]}
    path = _write(work / f"{cls}-{k}.json", labels)
    out = str(work / "derive.out.json")
    return Op(cls, ("derive", graph, path, "-o", out), out, frozenset({0}),
              _check_json(oracle.check_derive, host, _frac(roots)))


def _divisors_op(work: Path, cls: str, n: int, d: int, rng, k: int) -> Op:
    from ncroots.exact_linalg import RatMatrix
    from ncroots.pseudoroots import RootSet, build_table, canonical_polynomial
    rs = RootSet(RatMatrix(x) for x in generic_roots(rng, n, d))
    poly = canonical_polynomial(rs).to_json()
    values = [v.to_json() for _, v in build_table(rs).items()]
    ppath = _write(work / f"{cls}-{k}.poly.json", poly)
    spath = _write(work / f"{cls}-{k}.set.json",
                   {"edges": [{"name": f"s{j}", "value": v} for j, v in enumerate(values)]})
    out = str(work / "divisors.out.json")
    candidates = {oracle.mat(v) for v in values}
    return Op(cls, ("divisors", ppath, spath, "-o", out), out, frozenset({0}),
              _check_json(oracle.check_divisors, oracle.poly(poly), candidates))


# Distinct divisor-graph inputs per class. Each costs a table build in
# set-up, and divisors ops are a minority, so a short pool is reused.
DIVISOR_POOL = 3


def derive(seed: int, work: Path, cycles: int, tiny: bool = False) -> Workload:
    # class -> (command, n, d, share of a 20-op cycle). By cost: derive
    # (4,2) and cubic divisors 0-25%, derive (4,3) 25-35%, (5,2) 35-65%
    # (the median in its middle), quartic divisors 65-70%, (5,3) 70-85%,
    # (6,2) 85-95% (p90 in its middle), (6,3) 95-100%.
    classes = {
        "derive-42": ("derive", 4, 2, 3),
        "divisors-cubic": ("divisors", 3, 2, 2),
        "derive-43": ("derive", 4, 3, 2),
        "derive-52": ("derive", 5, 2, 6),
        "divisors-quartic": ("divisors", 4, 2, 1),
        "derive-53": ("derive", 5, 3, 3),
        "derive-62": ("derive", 6, 2, 2),
        "derive-63": ("derive", 6, 3, 1),
    }
    if tiny:
        classes = {"divisors-quadratic": ("divisors", 2, 2, 1), "derive-32": ("derive", 3, 2, 1)}
    ns = {n for command, n, _, _ in classes.values() if command == "derive"}
    graphs = {n: _host_file(work, n) for n in sorted(ns)}
    wl = Workload("derive", interleave({c: s[3] for c, s in classes.items()}))
    for cls, (command, n, d, count) in classes.items():
        rng = _rng(seed, "derive", cls)
        if command == "derive":
            wl.pools[cls] = [_derive_op(work, graphs, cls, n, d, rng, k) for k in range(count * cycles)]
        else:
            wl.pools[cls] = [_divisors_op(work, cls, n, d, rng, k) for k in range(DIVISOR_POOL)]
    rng = _rng(seed, "derive", "warmup")
    low = min(ns)
    wl.warmup = [_derive_op(work, graphs, "warmup", low, 2, rng, 0),
                 _divisors_op(work, "warmup", 2, 2, rng, 0)]
    return wl


WORKLOADS = {"factor": factor, "closure": closure, "derive": derive}
