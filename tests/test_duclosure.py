import itertools
import random
from collections import deque

import pytest

from ncroots.digraph import EdgeSet, GraphError
from ncroots.duclosure import (
    DUStep,
    applicable,
    completion,
    d_results,
    gamma_n_ample_fast,
    is_ample,
    is_complete,
    is_sufficient,
    lemma_witness,
    u_results,
)
from ncroots.hasse import boolean_lattice, partition_lattice


def naive_completion(es):
    # independent oracle: rescan every pair until nothing changes
    g = es.host
    current = set(es.members)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(sorted(current), 2):
            results = []
            if g.tail(a) == g.tail(b):
                results += d_results(g, a, b)
            if g.head(a) == g.head(b):
                results += u_results(g, a, b)
            for f1, f2 in results:
                for f in (f1, f2):
                    if f not in current:
                        current.add(f)
                        changed = True
    return frozenset(current)


def quadratic_completion(es):
    # reference trace: the earlier worklist that paired every new edge with
    # every current member, in sorted order; returns (members, steps, derived)
    g = es.host
    current = set(es.members)
    queue = deque()
    queued = set()

    def enqueue_pairs_with(x):
        for y in sorted(current):
            pair = (min(x, y), max(x, y))
            if y != x and pair not in queued and applicable(g, x, y):
                queued.add(pair)
                queue.append(pair)

    for x in sorted(current):
        enqueue_pairs_with(x)
    steps, derived = [], {}
    while queue:
        a, b = queue.popleft()
        for kind in applicable(g, a, b):
            results = d_results(g, a, b) if kind == "D" else u_results(g, a, b)
            for out_pair in results:
                steps.append(DUStep(kind, (a, b), out_pair))
                for f in out_pair:
                    if f not in current:
                        current.add(f)
                        derived[f] = len(steps) - 1
                        enqueue_pairs_with(f)
    return frozenset(current), steps, derived


def naive_is_complete(es):
    g = es.host
    for a, b in itertools.combinations(sorted(es.members), 2):
        for kind in applicable(g, a, b):
            results = d_results(g, a, b) if kind == "D" else u_results(g, a, b)
            if any(f not in es.members for pair in results for f in pair):
                return False
    return True


g2 = boolean_lattice(2)
g3 = boolean_lattice(3)


def test_d_results_gamma2():
    assert d_results(g2, "{1}:2", "{2}:1") == [("{}:1", "{}:2")]


def test_d_results_gamma3_alignment():
    # first output continues the first input (tail {1,2}), second the second
    assert d_results(g3, "{1,2}:3", "{1,3}:2") == [("{1}:2", "{1}:3")]


def test_d_results_empty():
    # a fork with no continuations at all: the empty result is legal
    from ncroots.digraph import Digraph
    h = Digraph(["a", "b", "c"], [("e1", "a", "b"), ("e2", "a", "c")])
    assert d_results(h, "e1", "e2") == []


def test_d_results_precondition():
    with pytest.raises(GraphError):
        d_results(g2, "{}:1", "{1}:2")


def test_u_results_gamma2():
    assert u_results(g2, "{}:1", "{}:2") == [("{1}:2", "{2}:1")]


def test_u_results_gamma_n():
    for n in (3, 4):
        g = boolean_lattice(n)
        for i, j in itertools.permutations(range(1, n + 1), 2):
            out = u_results(g, f"{{}}:{i}", f"{{}}:{j}")
            assert out == [(f"{{{i}}}:{j}", f"{{{j}}}:{i}")]


def test_u_results_precondition():
    with pytest.raises(GraphError):
        u_results(g2, "{}:1", "{1}:2")


def test_completion_matches_oracle_gamma2_exhaustive():
    edges = sorted(g2.edges)
    for k in range(len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            es = EdgeSet(g2, combo)
            comp, _ = completion(es)
            assert comp.members == naive_completion(es)


def test_completion_matches_oracle_gamma3_sampled():
    rng = random.Random(23)
    edges = sorted(g3.edges)
    for _ in range(60):
        combo = rng.sample(edges, rng.randint(1, 6))
        es = EdgeSet(g3, combo)
        comp, _ = completion(es)
        assert comp.members == naive_completion(es)


def trace_inputs():
    for n in range(3, 8):
        g = boolean_lattice(n)
        top = "{" + ",".join(map(str, range(1, n + 1))) + "}"
        yield EdgeSet(g, g.in_edges("{}"))            # bottom star
        yield EdgeSet(g, g.out_edges(top))            # top star
        yield EdgeSet(g, g.in_edges("{1,2}"))         # rank-2 stars
        yield EdgeSet(g, g.out_edges("{1,2}"))
    rng = random.Random(7)
    for n in (4, 5, 6):
        g = boolean_lattice(n)
        edges = sorted(g.edges)
        for _ in range(8):
            yield EdgeSet(g, rng.sample(edges, rng.randint(2, 8)))
    g = partition_lattice(6)
    edges = sorted(g.edges)
    for _ in range(8):
        yield EdgeSet(g, rng.sample(edges, rng.randint(2, 6)))


def test_completion_trace_matches_quadratic_reference():
    # the adjacency-driven queue must replay the full-scan queue step for step
    for es in trace_inputs():
        comp, trace = completion(es)
        members, steps, derived = quadratic_completion(es)
        assert comp.members == members
        assert list(trace.steps) == steps
        assert list(trace.derived.items()) == list(derived.items())


def test_is_complete_matches_all_pairs_reference():
    for es in trace_inputs():
        comp, _ = completion(es)
        assert is_complete(comp) and naive_is_complete(comp)
        assert is_complete(es) == naive_is_complete(es)
    rng = random.Random(11)
    edges = sorted(g3.edges)
    for _ in range(300):
        es = EdgeSet(g3, rng.sample(edges, rng.randint(1, 10)))
        assert is_complete(es) == naive_is_complete(es)


def test_completion_examples():
    comp, trace = completion(EdgeSet(g2, ["{}:1", "{}:2"]))
    assert comp.members == frozenset(g2.edges)
    assert len(trace) == 2  # one U derivation, one D re-derivation
    chain = EdgeSet(g3, ["{1,2}:3", "{1}:2", "{}:1"])
    assert completion(chain)[0].members == chain.members
    w = EdgeSet(g3, ["{1,2}:3", "{3}:2", "{}:1"])
    assert completion(w)[0].members == w.members


def test_completion_trace_attribution():
    es = EdgeSet(g3, ["{}:1", "{}:2", "{}:3"])
    comp, trace = completion(es)
    assert comp.members == frozenset(g3.edges)
    # every non-initial edge is attributed to exactly one step that lists it
    new_edges = comp.members - es.members
    assert set(trace.derived) == new_edges
    for e, idx in trace.derived.items():
        assert e in trace.steps[idx].outputs
    # replay: applying steps in order starting from the inputs stays sound
    have = set(es.members)
    for step in trace:
        assert set(step.inputs) <= have
        have.update(step.outputs)
    assert have == comp.members


def test_completion_extensive_monotone_idempotent():
    edges = sorted(g2.edges)
    subsets = [frozenset(c) for k in range(len(edges) + 1)
               for c in itertools.combinations(edges, k)]
    comps = {}
    for s in subsets:
        comp, _ = completion(EdgeSet(g2, s))
        comps[s] = comp.members
        assert s <= comp.members                      # extensive
        again, _ = completion(comp)
        assert again.members == comp.members          # idempotent
    for s, t in itertools.product(subsets, repeat=2):
        if s <= t:
            assert comps[s] <= comps[t]               # monotone
    # least fixed point: completion is contained in every complete superset
    complete_sets = [s for s in subsets if is_complete(EdgeSet(g2, s))]
    for s in subsets:
        for c in complete_sets:
            if s <= c:
                assert comps[s] <= c


def test_is_complete():
    assert is_complete(EdgeSet(g3, g3.edges))
    assert not is_complete(EdgeSet(g2, ["{}:1", "{}:2"]))
    assert is_complete(EdgeSet(g2, ["{}:1"]))


def test_is_ample_examples():
    ok, witness = is_ample(EdgeSet(g3, ["{}:1", "{2}:3", "{1,3}:2"]))
    assert ok and witness is None  # distinct indices
    assert is_ample(EdgeSet(g3, g3.edges))[0]
    ok, witness = is_ample(EdgeSet(g2, ["{1}:2"]))
    assert not ok
    assert witness == ("above", "{1}")  # every span vertex dominates {1}


def test_is_ample_distinct_indices_always_ample():
    # any n edges with pairwise distinct indices form an ample set
    for combo in itertools.combinations(sorted(g3.edges), 3):
        indices = [int(e.rpartition(":")[2]) for e in combo]
        if len(set(indices)) == 3:
            assert is_ample(EdgeSet(g3, combo))[0]


def test_fast_ample_agreement_exhaustive():
    for n in (2, 3):
        g = boolean_lattice(n)
        edges = sorted(g.edges)
        for k in range(1, n + 1):
            for combo in itertools.combinations(edges, k):
                es = EdgeSet(g, combo)
                assert gamma_n_ample_fast(es) == is_ample(es)[0], combo


def test_fast_ample_agreement_gamma4_sampled():
    g = boolean_lattice(4)
    edges = sorted(g.edges)
    rng = random.Random(9)
    for _ in range(300):
        combo = rng.sample(edges, rng.randint(1, 4))
        es = EdgeSet(g, combo)
        assert gamma_n_ample_fast(es) == is_ample(es)[0], combo


def test_fast_ample_requires_boolean_lattice():
    g = partition_lattice(4)
    with pytest.raises(GraphError):
        gamma_n_ample_fast(EdgeSet(g, list(g.edges)[:1]))


def test_sufficient_gamma2_census():
    sufficient = set()
    for combo in itertools.combinations(sorted(g2.edges), 2):
        ok, path = is_sufficient(EdgeSet(g2, combo))
        if ok:
            sufficient.add(combo)
            assert g2.tail(path[0]) == "{1,2}" and g2.head(path[-1]) == "{}"
            for a, b in zip(path, path[1:]):
                assert g2.head(a) == g2.tail(b)
    assert sufficient == {
        ("{1}:2", "{2}:1"),
        ("{1}:2", "{}:1"),
        ("{2}:1", "{}:2"),
        ("{}:1", "{}:2"),
    }


def test_sufficient_witness_lies_in_completion():
    es = EdgeSet(g3, ["{}:1", "{}:2", "{}:3"])
    ok, path = is_sufficient(es)
    comp, _ = completion(es)
    assert ok and set(path) <= comp.members and len(path) == 3


def test_not_sufficient_cases():
    assert not is_sufficient(EdgeSet(g2, ["{1}:2", "{}:2"]))[0]
    assert not is_sufficient(EdgeSet(g3, ["{1,2}:3", "{3}:2", "{}:1"]))[0]


def test_lemma_witness_gamma2():
    f_all = EdgeSet(g2, g2.edges)
    f, e = lemma_witness(f_all, "{1}", "{2}")
    assert f == "{}:2"   # tail {2}
    assert e == "{1}:2"  # head {1}


def test_lemma_witness_preconditions():
    f_all = EdgeSet(g2, g2.edges)
    with pytest.raises(GraphError):
        lemma_witness(f_all, "{1,2}", "{}")  # positive path exists
    with pytest.raises(GraphError):
        lemma_witness(EdgeSet(g2, ["{}:1", "{}:2"]), "{1}", "{2}")  # not complete
    disconnected = EdgeSet(g3, ["{1,2}:3", "{3}:2", "{}:1"])
    assert is_complete(disconnected)
    with pytest.raises(GraphError):
        lemma_witness(disconnected, "{1}", "{3}")  # not connected


def test_lemma_witness_exhaustive_gamma2():
    edges = sorted(g2.edges)
    for k in range(1, 5):
        for combo in itertools.combinations(edges, k):
            comp, _ = completion(EdgeSet(g2, combo))
            f = comp
            if not f.is_connected():
                continue
            span = sorted(f.vertex_span())
            for u in span:
                for v in span:
                    if not f.path_exists_within(u, v):
                        lemma_witness(f, u, v)  # must not raise


def test_ample_connected_implies_sufficient_gamma2_exhaustive():
    edges = sorted(g2.edges)
    for k in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, k):
            es = EdgeSet(g2, combo)
            if es.is_connected() and is_ample(es)[0]:
                assert is_sufficient(es)[0], combo


def test_ample_connected_implies_sufficient_gamma4_sampled():
    g4 = boolean_lattice(4)
    edges = sorted(g4.edges)
    rng = random.Random(41)
    hits = 0
    for _ in range(120):
        # grow a connected set by always attaching at the current span
        combo = {rng.choice(edges)}
        for _ in range(rng.randint(2, 6)):
            span = EdgeSet(g4, combo).vertex_span()
            touching = [e for e in edges
                        if e not in combo and (g4.tail(e) in span or g4.head(e) in span)]
            combo.add(rng.choice(touching))
        es = EdgeSet(g4, combo)
        if es.is_connected() and is_ample(es)[0]:
            hits += 1
            assert is_sufficient(es)[0], sorted(combo)
    assert hits > 20  # the sample must actually exercise the implication
