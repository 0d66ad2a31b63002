import pytest

from ncroots.divisor_graph import (
    build_divisor_graph,
    diamond_relations_check,
    iterated_identification,
    match_boolean_table,
    verify_path_independence,
)
from ncroots.exact_linalg import RatMatrix
from ncroots.ncpoly import NCPoly, from_linear_factors
from ncroots.pseudoroots import (
    RootSet,
    build_table,
    canonical_polynomial,
    random_generic_rootset,
)


def named_table(table):
    return {f"s{k}": v for k, (_, v) in enumerate(table.items())}


@pytest.fixture
def generic2():
    rs = random_generic_rootset(2, 2, seed=21)
    return rs, build_table(rs), canonical_polynomial(rs)


@pytest.fixture
def generic3():
    rs = random_generic_rootset(3, 2, seed=22)
    return rs, build_table(rs), canonical_polynomial(rs)


def test_generic_n2_matches_boolean_lattice(generic2):
    rs, table, poly = generic2
    dg = build_divisor_graph(poly, named_table(table))
    assert len(dg.graph.vertices) == 4 and len(dg.graph.edges) == 4
    mapping, reason = match_boolean_table(dg, table)
    assert mapping is not None, reason


def test_generic_n3_matches_boolean_lattice(generic3):
    rs, table, poly = generic3
    dg = build_divisor_graph(poly, named_table(table))
    assert len(dg.graph.vertices) == 8 and len(dg.graph.edges) == 12
    mapping, reason = match_boolean_table(dg, table)
    assert mapping is not None, reason
    assert verify_path_independence(dg).ok
    ok, witness = diamond_relations_check(dg)
    assert ok and witness is None
    assert iterated_identification(dg)


def test_nilpotent_pair_degenerate_shape(nilpotent_pair):
    # all four table values square to zero here, so every candidate strips
    # from the top: two extra degree-1 divisors appear beyond the generic four
    x1, x2 = nilpotent_pair
    rs = RootSet([x1, x2])
    poly = canonical_polynomial(rs)
    dg = build_divisor_graph(poly, {"a": x1, "b": x2, "c": -x1, "d": -x2})
    assert len(dg.graph.vertices) == 6 and len(dg.graph.edges) == 8
    assert verify_path_independence(dg).ok
    assert diamond_relations_check(dg)[0]
    assert iterated_identification(dg)


def test_single_element_chain(nilpotent_pair):
    x1, _ = nilpotent_pair
    rs = RootSet(list(nilpotent_pair))
    poly = canonical_polynomial(rs)
    dg = build_divisor_graph(poly, {"a": x1})
    # one strip is exact, then x1 no longer left-divides the quotient
    assert len(dg.graph.edges) == 1
    assert sorted(p.degree for p in dg.polys.values()) == [1, 2]
    # with both signs available the two chains close into a diamond on 1
    full = build_divisor_graph(poly, {"a": x1, "c": -x1})
    assert any(p == NCPoly.one(2) for p in full.polys.values())
    assert len(full.graph.vertices) == 4 and len(full.graph.edges) == 4


def test_requires_monic(nilpotent_pair):
    x1, _ = nilpotent_pair
    with pytest.raises(ValueError):
        build_divisor_graph(NCPoly([x1, x1]), {"a": x1})


def test_vertex_invariants(generic3):
    rs, table, poly = generic3
    dg = build_divisor_graph(poly, named_table(table))
    for v, b in dg.polys.items():
        assert dg.quotients[v] * b == poly
        assert dg.graph.rank[v] == b.degree
    for e, (v1, v2) in dg.graph.edges.items():
        assert NCPoly.t_minus(dg.labels[e]) * dg.polys[v2] == dg.polys[v1]


def test_corrupt_label_breaks_both_checks(generic3):
    rs, table, poly = generic3
    dg = build_divisor_graph(poly, named_table(table))
    victim = sorted(dg.labels)[0]
    dg.labels[victim] = dg.labels[victim] + RatMatrix.identity(2)
    pi = verify_path_independence(dg)
    assert not pi.ok and pi.witness is not None
    ok, witness = diamond_relations_check(dg)
    assert not ok and witness is not None


def test_scalar_labels_commutative_case():
    rs = RootSet([RatMatrix([[v]]) for v in (2, 3, 5)])
    table = build_table(rs)
    poly = canonical_polynomial(rs)
    dg = build_divisor_graph(poly, named_table(table))
    assert diamond_relations_check(dg)[0]
    assert verify_path_independence(dg).ok


def test_source_sink_product_returned(generic2):
    rs, table, poly = generic2
    dg = build_divisor_graph(poly, named_table(table))
    pi = verify_path_independence(dg)
    assert pi.source_sink_poly == poly


def test_match_rejects_wrong_table(generic2, generic3):
    _, table2, _ = generic2
    rs3, table3, poly3 = generic3
    dg = build_divisor_graph(poly3, named_table(table3))
    mapping, reason = match_boolean_table(dg, table2)
    assert mapping is None and reason


def test_generic_n4_matches_boolean_lattice():
    rs = random_generic_rootset(4, 2, seed=24)
    table = build_table(rs)
    poly = canonical_polynomial(rs)
    dg = build_divisor_graph(poly, named_table(table))
    assert len(dg.graph.vertices) == 16 and len(dg.graph.edges) == 32
    mapping, reason = match_boolean_table(dg, table)
    assert mapping is not None, reason
    assert diamond_relations_check(dg)[0]
