"""Independent exact checks of ncroots outputs.

Nothing here imports ncroots: matrices are tuples of rows of
``fractions.Fraction``, polynomials are lists of matrices (leading
coefficient first), and graphs are plain dicts read from the same JSON
the program reads. A defect in the code being timed therefore cannot hide
itself by also corrupting the check. Every check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

# A Mersenne prime. A determinant that is non-zero modulo p is non-zero
# over the integers, so the modular test below can only reject a generic
# root set, never accept a degenerate one.
PRIME = (1 << 61) - 1


# ---------------------------------------------------------------------------
# matrices and polynomials


def mat(obj) -> tuple:
    """Matrix from the program's JSON form {"d": d, "entries": [[str]]}."""
    rows = tuple(tuple(Fraction(x) for x in row) for row in obj["entries"])
    if len(rows) != obj.get("d", len(rows)) or any(len(r) != len(rows) for r in rows):
        raise ValueError("malformed matrix")
    return rows


def identity(d: int) -> tuple:
    return tuple(tuple(Fraction(int(i == j)) for j in range(d)) for i in range(d))


def zero(d: int) -> tuple:
    return tuple((Fraction(0),) * d for _ in range(d))


def mmul(a, b) -> tuple:
    cols = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in cols) for row in a)


def madd(a, b) -> tuple:
    return tuple(tuple(x + y for x, y in zip(r, s)) for r, s in zip(a, b))


def mneg(a) -> tuple:
    return tuple(tuple(-x for x in r) for r in a)


def is_zero(a) -> bool:
    return not any(x for r in a for x in r)


def poly(obj) -> list:
    """Polynomial from {"d": d, "coeffs": [matrix, ...]} (leading first)."""
    coeffs = [mat(c) for c in obj["coeffs"]]
    if any(len(c) != obj["d"] for c in coeffs):
        raise ValueError("coefficient dimension differs from d")
    return coeffs


def pmul(p, q) -> list:
    d = len(p[0])
    out = [zero(d)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = madd(out[i + j], mmul(a, b))
    return out


def t_minus(x) -> list:
    return [identity(len(x)), mneg(x)]


def linear_product(xs) -> list:
    """(t - x_1)(t - x_2)...(t - x_k), left to right."""
    p = t_minus(xs[0])
    for x in xs[1:]:
        p = pmul(p, t_minus(x))
    return p


def right_eval(p, x) -> tuple:
    """Sum of a_j x^(n-j): zero exactly when x is a right root of p."""
    acc = p[0]
    for c in p[1:]:
        acc = madd(mmul(acc, x), c)
    return acc


# ---------------------------------------------------------------------------
# genericity of integer root sets, by determinants modulo PRIME


def _det_nonzero_mod(rows) -> bool:
    m = [[x % PRIME for x in row] for row in rows]
    n = len(m)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], PRIME - 2, PRIME)
        for r in range(col + 1, n):
            f = m[r][col] * inv % PRIME
            if f:
                m[r] = [(x - f * y) % PRIME for x, y in zip(m[r], m[col])]
    return True


def _int_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def surely_generic(roots) -> bool:
    """True only if every block Vandermonde of two or more roots is invertible.

    ``roots`` are integer matrices (lists of rows). Genericity of a root set
    means exactly that: the quasideterminant of (i_1..i_k, l) is the Schur
    complement of V(i_1..i_k) in V(i_1..i_k, l), so it is invertible iff
    both Vandermonde matrices are.
    """
    n, d = len(roots), len(roots[0])
    powers = []
    for x in roots:
        ps = [[[int(i == j) for j in range(d)] for i in range(d)]]
        for _ in range(n - 1):
            ps.append(_int_mul(ps[-1], x))
        powers.append(ps)
    for m in range(2, n + 1):
        for subset in combinations(range(n), m):
            rows = []
            for r in range(m):
                top = m - 1 - r
                for i in range(d):
                    rows.append([v for c in subset for v in powers[c][top][i]])
            if not _det_nonzero_mod(rows):
                return False
    return True


# ---------------------------------------------------------------------------
# graphs


class Host:
    """Adjacency of a host graph, read from the program's graph JSON."""

    def __init__(self, obj: dict):
        self.vertices = sorted(rec["id"] for rec in obj["vertices"])
        self.edges = {rec["id"]: (rec["tail"], rec["head"]) for rec in obj["edges"]}
        self.out = {v: [] for v in self.vertices}
        self.inc = {v: [] for v in self.vertices}
        for e, (t, h) in sorted(self.edges.items()):
            self.out[t].append(e)
            self.inc[h].append(e)
        self.sources = [v for v in self.vertices if not self.inc[v]]
        self.sinks = [v for v in self.vertices if not self.out[v]]
        self._below = {}

    def below(self, v: str) -> frozenset:
        """Vertices reachable from v, v included."""
        if v not in self._below:
            seen, stack = {v}, [v]
            while stack:
                for e in self.out[stack.pop()]:
                    w = self.edges[e][1]
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            self._below[v] = frozenset(seen)
        return self._below[v]

    def results(self, kind: str, a: str, b: str) -> set:
        """Output pairs of the D or U operation on (a, b); empty if it does not apply."""
        (ta, ha), (tb, hb) = self.edges[a], self.edges[b]
        if a == b:
            return set()
        if kind == "D" and ta == tb:
            return {(f1, f2) for f1 in self.out[ha] for f2 in self.out[hb]
                    if self.edges[f1][1] == self.edges[f2][1]}
        if kind == "U" and ha == hb:
            return {(e1, e2) for e1 in self.inc[ta] for e2 in self.inc[tb]
                    if self.edges[e1][0] == self.edges[e2][0]}
        return set()

    def _partner_results(self, x: str, members):
        t, h = self.edges[x]
        for y in self.out[t]:
            if y != x and y in members:
                yield from self.results("D", x, y)
        for y in self.inc[h]:
            if y != x and y in members:
                yield from self.results("U", x, y)

    def completion(self, members) -> set:
        """Least superset closed under D and U (new edges meet only neighbours)."""
        current = set(members)
        queue = sorted(current)
        while queue:
            x = queue.pop()
            for pair in self._partner_results(x, current):
                for f in pair:
                    if f not in current:
                        current.add(f)
                        queue.append(f)
        return current

    def is_complete(self, members) -> bool:
        return all(f in members for x in members
                   for pair in self._partner_results(x, members) for f in pair)

    def is_path(self, path, members, u: str, v: str) -> bool:
        cur = u
        for e in path:
            if e not in members or self.edges[e][0] != cur:
                return False
            cur = self.edges[e][1]
        return cur == v

    def has_path(self, members, u: str, v: str) -> bool:
        seen, stack = {u}, [u]
        while stack:
            x = stack.pop()
            if x == v:
                return True
            for e in self.out[x]:
                w = self.edges[e][1]
                if e in members and w not in seen:
                    seen.add(w)
                    stack.append(w)
        return False

    def ample_witnesses(self, members) -> set:
        """Vertices ('above', v) / ('below', v) that the edge set leaves uncovered."""
        span = {x for e in members for x in self.edges[e]}
        bad = set()
        for v in self.vertices:
            if self.out[v] and all(v in self.below(u) for u in span):
                bad.add(("above", v))
            if self.inc[v] and all(w in self.below(v) for w in span):
                bad.add(("below", v))
        return bad


# ---------------------------------------------------------------------------
# per-command output checks


def check_factor(roots, out: dict) -> list:
    """Roots are right roots of the polynomial, each printed factorization
    multiplies back to it, and the table is complete and satisfies the
    diamond identities."""
    problems = []
    n, d = len(roots), len(roots[0])
    p = poly(out["polynomial"])
    if len(p) != n + 1 or p[0] != identity(d):
        problems.append("polynomial is not monic of degree n")
        return problems
    for k, x in enumerate(roots, start=1):
        if not is_zero(right_eval(p, x)):
            problems.append(f"root {k} is not a right root")
    if not out["factorizations"]:
        problems.append("no factorization printed")
    for fz in out["factorizations"]:
        factors = [mat(m) for m in fz["factors"]]
        if len(factors) != n or linear_product(factors) != p:
            problems.append(f"factorization {fz['ordering']} does not multiply back")
    entries = out["table"]["entries"]
    table = {(frozenset(rec["A"]), rec["i"]): mat(rec["value"]) for rec in entries}
    if len(entries) != n * 2 ** (n - 1) or len(table) != len(entries):
        problems.append(f"table has {len(entries)} entries, want {n * 2 ** (n - 1)}")
        return problems
    for k, x in enumerate(roots, start=1):
        if table.get((frozenset(), k)) != x:
            problems.append(f"table entry ({{}},{k}) is not root {k}")
    universe = range(1, n + 1)
    for size in range(n - 1):
        for A in map(frozenset, combinations(universe, size)):
            for i, j in combinations([x for x in universe if x not in A], 2):
                a, b = table[A | {i}, j], table[A, i]
                c, e = table[A | {j}, i], table[A, j]
                if madd(a, b) != madd(c, e) or mmul(a, b) != mmul(c, e):
                    problems.append(f"diamond identity fails at {sorted(A)}, {i}, {j}")
    return problems


def check_closure(host: Host, given, out: dict) -> list:
    """The result contains the input, every added edge comes out of a
    replayed trace step whose inputs were already present, and the result
    is closed under D and U."""
    problems = []
    given = set(given)
    edges = set(out["edges"])
    if not given <= edges:
        problems.append("result does not contain the input")
    if set(out["added"]) != edges - given:
        problems.append("'added' is not result minus input")
    present = set(given)
    for k, step in enumerate(out["trace"]):
        a, b = step["inputs"]
        outputs = tuple(step["outputs"])
        if a not in present or b not in present:
            problems.append(f"trace step {k} uses an edge not yet derived")
            break
        if outputs not in host.results(step["kind"], a, b):
            problems.append(f"trace step {k} is not a {step['kind']} result of its inputs")
            break
        present.update(outputs)
    if present != edges:
        problems.append("replayed trace does not reach the printed edge set")
    if not host.is_complete(edges):
        problems.append("result is not closed under D and U")
    return problems


def check_sufficient(host: Host, given, text: str, rc: int) -> list:
    comp = host.completion(given)
    lines = text.splitlines()
    if not lines or lines[0] not in ("sufficient: True", "sufficient: False"):
        return ["no verdict printed"]
    claimed = lines[0] == "sufficient: True"
    if claimed != (rc == 0):
        return ["exit code disagrees with the verdict"]
    if not claimed:
        if any(host.has_path(comp, s, t) for s in host.sources for t in host.sinks):
            return ["verdict False but the completion has a source-to-sink path"]
        return []
    if len(lines) != 2 or not lines[1].startswith("path: "):
        return ["verdict True without a path"]
    path = lines[1][len("path: "):].split(" ")
    if not any(host.is_path(path, comp, s, t) for s in host.sources for t in host.sinks):
        return ["printed path is not a source-to-sink path inside the completion"]
    return []


def check_ample(host: Host, given, text: str, rc: int) -> list:
    bad = host.ample_witnesses(given)
    lines = text.splitlines()
    if not lines or lines[0] not in ("ample: True", "ample: False"):
        return ["no verdict printed"]
    claimed = lines[0] == "ample: True"
    if claimed != (rc == 0):
        return ["exit code disagrees with the verdict"]
    if claimed != (not bad):
        return [f"verdict {claimed} is wrong"]
    if not claimed:
        prefix = "uncovered vertex ("
        if len(lines) != 2 or not lines[1].startswith(prefix):
            return ["verdict False without a witness"]
        clause, _, vertex = lines[1][len(prefix):].partition("): ")
        if (clause, vertex) not in bad:
            return [f"witness {lines[1]!r} is covered"]
    return []


def check_derive(host: Host, roots, out: dict) -> list:
    """The printed factors multiply to the printed polynomial, every root
    is a right root of it, and the path runs source to sink."""
    problems = []
    factors = [mat(m) for m in out["factors"]]
    p = poly(out["polynomial"])
    if not factors or linear_product(factors) != p:
        problems.append("factors do not multiply to the polynomial")
    for k, x in enumerate(roots, start=1):
        if not is_zero(right_eval(p, x)):
            problems.append(f"root {k} is not a right root")
    path = out["path"]
    if len(path) != len(factors) or not any(
            host.is_path(path, host.edges, s, t) for s in host.sources for t in host.sinks):
        problems.append("path is not a source-to-sink path of the host")
    return problems


def check_divisors(top, candidates, out: dict) -> list:
    """Each edge's label x satisfies (t - x) * head = tail, labels are
    candidates, and the input polynomial is a vertex."""
    problems = []
    polys = {v: poly(obj) for v, obj in out["polys"].items()}
    if top not in polys.values():
        problems.append("input polynomial is not a vertex")
    if not out["edges"]:
        problems.append("no edge")
    for rec in out["edges"]:
        x = mat(out["labels"][rec["id"]])
        if x not in candidates:
            problems.append(f"label of {rec['id']} is not a candidate")
        elif pmul(t_minus(x), polys[rec["head"]]) != polys[rec["tail"]]:
            problems.append(f"edge {rec['id']}: (t - x) * head != tail")
    return problems
