"""Named verification suites: every claim the package rests on, runnable
at desk scale with exact (zero-tolerance) checks.

Each suite returns a VerifyResult with pass/fail, findings, and elapsed
time against a fixed budget. The CLI ``verify`` subcommand and the
acceptance test module both dispatch through ``run``.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import duclosure
from .digraph import EdgeSet
from .exact_linalg import RatMatrix
from .divisor_graph import (
    build_divisor_graph,
    diamond_relations_check,
    match_boolean_table,
    verify_path_independence,
)
from .hasse import boolean_lattice, parse_edge_label, partition_lattice, subset_id
from .ncpoly import from_linear_factors
from .pseudoroots import (
    LabeledEdgeSet,
    RootSet,
    build_table,
    canonical_polynomial,
    d_op,
    derive_factorization,
    labeled_completion,
    pseudo_root,
    random_generic_rootset,
    random_rootset,
    scalar_specialize,
    u_op,
)

DEFAULT_SEED = 7


@dataclass
class VerifyResult:
    name: str
    passed: bool
    elapsed: float
    budget: float
    details: list = field(default_factory=list)

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status} {self.name} ({self.elapsed:.2f}s / budget {self.budget:.0f}s)"


def _harness(name, budget, body):
    start = time.perf_counter()
    details = []
    try:
        passed = body(details)
    except Exception as exc:  # a crashed suite is a failed suite
        details.append(f"error: {type(exc).__name__}: {exc}")
        passed = False
    return VerifyResult(name, bool(passed), time.perf_counter() - start, budget, details)


def _edge_index(edge_id: str) -> int:
    return parse_edge_label(edge_id).i


def suite_closed_form_n2(n=None, seed=None):
    """x_{i,j} equals (x_j - x_i) x_j (x_j - x_i)^{-1} for random generic pairs.

    The right side is written out as two products and an inverse, not
    through ``exact_linalg.conjugate``: ``pseudo_root`` runs on that fused
    kernel, so this suite checks the kernel against the product form.
    """
    rng = random.Random(DEFAULT_SEED if seed is None else seed)

    def body(details):
        for trial in range(100):
            rs = random_generic_rootset(2, 2, rng=rng)
            for i, j in ((1, 2), (2, 1)):
                delta = rs.root(j) - rs.root(i)
                direct = delta * rs.root(j) * delta.inverse()
                if pseudo_root(rs, {i}, j) != direct:
                    details.append(f"mismatch at trial {trial}, (i,j)=({i},{j})")
                    return False
        details.append("100 generic pairs, both index orders, exact")
        return True

    return _harness("closed-form-n2", 1.0, body)


def suite_closed_form_n3(n=None, seed=None):
    """Both closed forms of x_{ij,k} agree (and equal the table value).

    The closed forms are written out as products with an inverse, not
    through ``exact_linalg.conjugate``, so they check ``pseudo_root``'s
    fused kernel against the product form.
    """
    rng = random.Random(DEFAULT_SEED if seed is None else seed)

    def body(details):
        for trial in range(50):
            rs = random_generic_rootset(3, 2, rng=rng)
            x = {(a, b): pseudo_root(rs, {a}, b) for a, b in itertools.permutations((1, 2, 3), 2)}
            for i, j, k in itertools.permutations((1, 2, 3)):
                d1 = x[i, k] - x[i, j]
                d2 = x[j, k] - x[j, i]
                via_i = d1 * x[i, k] * d1.inverse()
                via_j = d2 * x[j, k] * d2.inverse()
                if via_i != via_j or via_i != pseudo_root(rs, {i, j}, k):
                    details.append(f"mismatch at trial {trial}, (i,j,k)=({i},{j},{k})")
                    return False
        details.append("50 generic triples, all 6 index orders, exact")
        return True

    return _harness("closed-form-n3", 5.0, body)


def suite_ordering_independence(n=None, seed=None):
    """One canonical polynomial per root set, identical across all n!
    orderings, with every root a right root of it.

    Ordering independence is checked over the subset lattice: every subset
    B has one product Q_B whichever index is peeled off last, which covers
    every maximal chain, that is every ordering."""
    rng = random.Random(DEFAULT_SEED if seed is None else seed)
    sizes = (3, 4) if n is None else (n,)

    def body(details):
        for size in sizes:
            for trial in range(20):
                rs = random_generic_rootset(size, 2, rng=rng)
                poly = canonical_polynomial(rs)
                for i in range(1, size + 1):
                    if not poly.right_eval(rs.root(i)).is_zero():
                        details.append(f"n={size} trial {trial}: x_{i} is not a right root")
                        return False
            details.append(f"n={size}: 20 root sets; Q_B agrees over all {size * 2 ** (size - 1)} "
                           f"(B, l) peelings, so all {math.factorial(size)} orderings agree; "
                           f"every root a right root")
        return True

    return _harness("ordering-independence", 30.0, body)


def _census(n):
    """Classify all n-edge subsets of the boolean lattice graph."""
    g = boolean_lattice(n)
    rows = []
    for combo in itertools.combinations(sorted(g.edges), n):
        es = EdgeSet(g, combo)
        indices = [_edge_index(e) for e in combo]
        rows.append({
            "edges": combo,
            "distinct": len(set(indices)) == len(indices),
            "connected": es.is_connected(),
            "sufficient": duclosure.is_sufficient(es)[0],
        })
    return rows


def suite_census(n=None, seed=None):
    """Connected subsets with pairwise distinct indices are sufficient,
    exhaustively; the two-edge census has exactly four sufficient sets."""
    sizes = (2, 3) if n is None else (n,)

    def body(details):
        ok = True
        for size in sizes:
            rows = _census(size)
            bad = [r for r in rows if r["distinct"] and r["connected"] and not r["sufficient"]]
            n_suff = sum(1 for r in rows if r["sufficient"])
            details.append(f"n={size}: {len(rows)} subsets, {n_suff} sufficient, "
                           f"{sum(1 for r in rows if r['distinct'] and r['connected'])} connected+distinct")
            if bad:
                details.append(f"n={size}: connected+distinct but NOT sufficient: {bad[0]['edges']}")
                ok = False
            if size == 2 and n_suff != 4:
                details.append(f"n=2 census expected 4 sufficient two-edge subsets, got {n_suff}")
                ok = False
        return ok

    return _harness("census", 5.0, body)


def suite_distinct_indices(n=None, seed=None):
    """Every sufficient n-edge subset has pairwise distinct indices."""
    sizes = (2, 3) if n is None else (n,)

    def body(details):
        for size in sizes:
            rows = _census(size)
            bad = [r for r in rows if r["sufficient"] and not r["distinct"]]
            if bad:
                details.append(f"n={size}: sufficient with repeated index: {bad[0]['edges']}")
                return False
            details.append(f"n={size}: all {sum(1 for r in rows if r['sufficient'])} sufficient subsets have distinct indices")
        return True

    return _harness("distinct-indices", 5.0, body)


def suite_example4(n=None, seed=None):
    """The three pairwise-incident-free edges: completion fixed, disconnected,
    not sufficient."""

    def body(details):
        g = boolean_lattice(3)
        w = EdgeSet(g, ["{1,2}:3", "{3}:2", "{}:1"])
        comp, trace = duclosure.completion(w)
        fixed = comp.members == w.members
        connected = w.is_connected()
        sufficient = duclosure.is_sufficient(w)[0]
        details.append(f"completion adds {len(comp.members - w.members)} edges; "
                       f"connected={connected}; sufficient={sufficient}")
        return fixed and not connected and not sufficient

    return _harness("example4", 1.0, body)


def suite_closure_full(n=None, seed=None):
    """Completion of the bottom star {(empty,k)} is the whole edge set."""
    sizes = (2, 3, 4) if n is None else (n,)

    def body(details):
        for size in sizes:
            g = boolean_lattice(size)
            start = EdgeSet(g, [f"{{}}:{k}" for k in range(1, size + 1)])
            comp, _ = duclosure.completion(start)
            if comp.members != frozenset(g.edges):
                details.append(f"n={size}: completion has {len(comp.members)} of {len(g.edges)} edges")
                return False
            details.append(f"n={size}: {len(start.members)} edges close to all {len(g.edges)}")
        return True

    return _harness("closure-full", 10.0, body)


def suite_closure_chain(n=None, seed=None):
    """The maximal chain is its own completion."""
    sizes = (1, 2, 3, 4) if n is None else (n,)

    def body(details):
        for size in sizes:
            g = boolean_lattice(size)
            chain = [f"{subset_id(range(1, k))}:{k}" for k in range(1, size + 1)]
            es = EdgeSet(g, chain)
            comp, _ = duclosure.completion(es)
            if comp.members != es.members:
                details.append(f"n={size}: chain completion grew to {sorted(comp.members)}")
                return False
            details.append(f"n={size}: chain of {len(chain)} edges is complete")
        return True

    return _harness("closure-chain", 1.0, body)


def suite_diamond_ops(n=None, seed=None):
    """After every d/u conjugation, both diamond identities hold exactly."""
    rng = random.Random(DEFAULT_SEED if seed is None else seed)

    def body(details):
        done = 0
        while done < 1000:
            rs = random_rootset(2, 2, rng)
            a1, a2 = rs.roots
            try:
                b1, b2 = d_op(a1, a2)
            except ArithmeticError:
                continue
            if a1 + b1 != a2 + b2 or a1 * b1 != a2 * b2:
                details.append(f"d identity fails for {a1!r}, {a2!r}")
                return False
            c1, c2 = u_op(a1, a2)
            if c1 + a1 != c2 + a2 or c1 * a1 != c2 * a2:
                details.append(f"u identity fails for {a1!r}, {a2!r}")
                return False
            done += 1
        details.append("1000 invertible-difference pairs, both operations, exact")
        return True

    return _harness("diamond-ops", 5.0, body)


def suite_two_oracle(n=None, seed=None):
    """Labels propagated from the bottom star along the closure equal the
    quasideterminant table entry on every edge."""
    sizes = (2, 3) if n is None else (n,)
    base_seed = DEFAULT_SEED if seed is None else seed

    def body(details):
        for size in sizes:
            g = boolean_lattice(size)
            for trial in range(10):
                rs = random_generic_rootset(size, 2, seed=base_seed + trial)
                table = build_table(rs).edge_value_map()
                start = LabeledEdgeSet(g, {f"{{}}:{k}": rs.root(k) for k in range(1, size + 1)})
                result = labeled_completion(start)
                if result.skipped:
                    details.append(f"n={size} seed {base_seed + trial}: {len(result.skipped)} skipped derivations")
                    return False
                for e, expected in table.items():
                    if result.labeled.labels.get(e) != expected:
                        details.append(f"n={size} seed {base_seed + trial}: edge {e} disagrees")
                        return False
            details.append(f"n={size}: 10 seeds, all {len(g.edges)} labels agree with the table")
        return True

    return _harness("two-oracle", 30.0, body)


def suite_derive(n=None, seed=None):
    """Factorizations derived from random ample connected 3-edge sets multiply
    back to the canonical polynomial, and every expression trace re-evaluates."""
    rng = random.Random(DEFAULT_SEED if seed is None else seed)

    def body(details):
        g = boolean_lattice(3)
        candidates = []
        for combo in itertools.combinations(sorted(g.edges), 3):
            es = EdgeSet(g, combo)
            if es.is_connected() and duclosure.is_ample(es)[0]:
                candidates.append(combo)
        picks = rng.sample(candidates, 10)
        rs = random_generic_rootset(3, 2, rng=rng)
        table = build_table(rs).edge_value_map()
        target = canonical_polynomial(rs)
        for combo in picks:
            ls = LabeledEdgeSet(g, {e: table[e] for e in combo})
            fact = derive_factorization(ls)
            if fact.poly != target:
                details.append(f"{combo}: product differs from the canonical polynomial")
                return False
            assignment = ls.assignment()
            for factor, expr in zip(fact.factors, fact.exprs):
                if expr.eval(assignment) != factor:
                    details.append(f"{combo}: trace {expr} does not re-evaluate")
                    return False
        details.append(f"10 of {len(candidates)} ample connected 3-edge sets derived and verified")
        return True

    return _harness("derive", 30.0, body)


def suite_divisor_graph(n=None, seed=None):
    """The reachable divisor graph of a generic cubic matches the boolean
    lattice with its labels, and both relation checks agree."""
    base_seed = DEFAULT_SEED if seed is None else seed

    def body(details):
        rs = random_generic_rootset(3, 2, seed=base_seed)
        table = build_table(rs)
        poly = canonical_polynomial(rs)
        named = {f"s{k}": v for k, (_, v) in enumerate(table.items())}
        dg = build_divisor_graph(poly, named)
        mapping, reason = match_boolean_table(dg, table)
        if mapping is None:
            details.append(f"no label-preserving isomorphism: {reason}")
            return False
        pi = verify_path_independence(dg)
        dc, witness = diamond_relations_check(dg)
        details.append(f"{len(dg.graph.vertices)} vertices, {len(dg.graph.edges)} edges; "
                       f"path-independent={pi.ok}, diamonds={dc}")
        if not (pi.ok and dc):
            details.append(f"witness: {witness or pi.witness}")
            return False
        if pi.source_sink_poly != poly:
            details.append("source-to-sink product differs from the input polynomial")
            return False
        return True

    return _harness("divisor-graph", 30.0, body)


def suite_lemma325(n=None, seed=None):
    """On every complete connected edge subset and every undominated vertex
    pair, both witness edges exist."""
    size = 3 if n is None else n

    def body(details):
        g = boolean_lattice(size)
        edge_ids = sorted(g.edges)
        complete_sets = set()
        for k in range(1, 5):
            for combo in itertools.combinations(edge_ids, k):
                comp, _ = duclosure.completion(EdgeSet(g, combo))
                complete_sets.add(comp.members)
        checked = 0
        families = 0
        for members in sorted(complete_sets, key=sorted):
            f = EdgeSet(g, members)
            if not f.is_connected():
                continue
            families += 1
            span = sorted(f.vertex_span())
            for u in span:
                for v in span:
                    if f.path_exists_within(u, v):
                        continue
                    duclosure.lemma_witness(f, u, v)  # raises if the guarantee fails
                    checked += 1
        details.append(f"{families} complete connected sets, {checked} (u,v) pairs witnessed")
        return True

    return _harness("lemma325", 60.0, body)


def suite_partition_host(n=None, seed=None):
    """On the partition lattice host: modular, layered, and every ample
    connected edge set is sufficient (exhaustive)."""

    def body(details):
        g = partition_lattice(4)
        modular, witness = g.is_modular()
        if not modular:
            details.append(f"not modular: {witness}")
            return False
        if g.rank is None:
            details.append("not layered")
            return False
        edge_ids = sorted(g.edges)
        tested = 0
        for k in range(1, len(edge_ids) + 1):
            for combo in itertools.combinations(edge_ids, k):
                es = EdgeSet(g, combo)
                if not (es.is_connected() and duclosure.is_ample(es)[0]):
                    continue
                tested += 1
                if not duclosure.is_sufficient(es)[0]:
                    details.append(f"ample connected but not sufficient: {combo}")
                    return False
        details.append(f"{2 ** len(edge_ids)} subsets scanned, {tested} ample connected, all sufficient")
        return True

    return _harness("partition-host", 5.0, body)


def suite_scalar(n=None, seed=None):
    """Commutative specialization: every table entry collapses to its index's
    scalar and the canonical polynomial has elementary-symmetric coefficients."""

    def body(details):
        scalars = {1: Fraction(2), 2: Fraction(3), 3: Fraction(5)}
        rs = RootSet([RatMatrix([[s]]) for s in scalars.values()])
        ok, witness = rs.is_generic()
        if not ok:
            details.append(f"scalar roots not generic: {witness}")
            return False
        table = build_table(rs)
        expected = scalar_specialize(table, scalars)
        for key, value in table.items():
            if value != expected[key]:
                details.append(f"entry {key} is not the bare scalar")
                return False
        poly = canonical_polynomial(rs)
        values = list(scalars.values())
        for j in range(1, len(values) + 1):
            sym = sum((math.prod(c) for c in itertools.combinations(values, j)), Fraction(0))
            coeff = poly.coeffs[j][0, 0]
            if coeff != (-1) ** j * sym:
                details.append(f"coefficient {j} differs from the elementary symmetric value")
                return False
        details.append("12 table entries collapse to scalars; coefficients match the symmetric functions")
        return True

    return _harness("scalar", 1.0, body)


SUITES = {
    "closed-form-n2": suite_closed_form_n2,
    "closed-form-n3": suite_closed_form_n3,
    "ordering-independence": suite_ordering_independence,
    "census": suite_census,
    "distinct-indices": suite_distinct_indices,
    "example4": suite_example4,
    "closure-full": suite_closure_full,
    "closure-chain": suite_closure_chain,
    "diamond-ops": suite_diamond_ops,
    "two-oracle": suite_two_oracle,
    "derive": suite_derive,
    "divisor-graph": suite_divisor_graph,
    "lemma325": suite_lemma325,
    "partition-host": suite_partition_host,
    "scalar": suite_scalar,
}


def run(name: str, n: int | None = None, seed: int | None = None):
    """Run one named suite (or every suite for "all"); returns a list."""
    if name == "all":
        return [fn(n=None, seed=seed) for fn in SUITES.values()]
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; have {sorted(SUITES)} and 'all'")
    return [SUITES[name](n=n, seed=seed)]
