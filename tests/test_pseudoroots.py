import itertools
import random
from fractions import Fraction

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

import ncroots.pseudoroots as pseudoroots
from conftest import matrices
from ncroots.digraph import EdgeSet
from ncroots.duclosure import completion
from ncroots.exact_linalg import RatMatrix, SingularMatrixError
from ncroots.hasse import boolean_lattice
from ncroots.ncpoly import NCPoly, from_linear_factors
from ncroots.pseudoroots import (
    Diff,
    Gen,
    InconsistentLabelsError,
    LConj,
    LabeledEdgeSet,
    Neg,
    NotSufficientError,
    OrderingDependentError,
    Prod,
    PseudoRootTable,
    RConj,
    RootSet,
    SingularDifferenceError,
    Sum,
    build_table,
    canonical_polynomial,
    d_op,
    derive_factorization,
    factor_sequence,
    labeled_completion,
    pseudo_root,
    random_generic_rootset,
    random_rootset,
    scalar_specialize,
    u_op,
    vandermonde_matrix,
    vandermonde_quasidet,
)


@pytest.fixture
def nilpotent_rootset(nilpotent_pair):
    return RootSet(list(nilpotent_pair))


def scalar_rootset(*values):
    return RootSet([RatMatrix([[v]]) for v in values])


# ---- Vandermonde matrices and quasideterminants ----


def test_vandermonde_blocks(nilpotent_rootset):
    x1, x2 = nilpotent_rootset.roots
    v = vandermonde_matrix(nilpotent_rootset, (1, 2))
    from ncroots.exact_linalg import block_assemble
    assert v == block_assemble([[x1, x2], [RatMatrix.identity(2), RatMatrix.identity(2)]])
    v.inverse()  # invertible for the nilpotent pair


def test_vandermonde_scalar():
    rs = scalar_rootset(2, 3)
    assert vandermonde_matrix(rs, (1, 2)) == RatMatrix([[2, 3], [1, 1]])


def test_vandermonde_rejects_repeats(nilpotent_rootset):
    with pytest.raises(ValueError):
        vandermonde_matrix(nilpotent_rootset, (1, 1))


def test_quasidet_n2(nilpotent_rootset):
    x1, x2 = nilpotent_rootset.roots
    assert vandermonde_quasidet(nilpotent_rootset, (1, 2)) == x2 - x1
    assert vandermonde_quasidet(nilpotent_rootset, (2, 1)) == x1 - x2


def test_quasidet_scalar():
    rs = scalar_rootset(2, 3)
    assert vandermonde_quasidet(rs, (1, 2)) == RatMatrix([[1]])


def test_quasidet_prefix_permutation_invariance():
    rs = random_generic_rootset(4, 2, seed=31)
    base = vandermonde_quasidet(rs, (1, 2, 3, 4))
    for perm in itertools.permutations((1, 2, 3)):
        assert vandermonde_quasidet(rs, perm + (4,)) == base


# ---- genericity ----


def test_nilpotent_pair_is_generic(nilpotent_rootset):
    assert nilpotent_rootset.is_generic() == (True, None)


def test_repeated_root_not_generic(nilpotent_pair):
    x1, _ = nilpotent_pair
    ok, witness = RootSet([x1, x1]).is_generic()
    assert not ok
    assert witness == ("vandermonde", (1, 2))


def _reference_is_generic(rs):
    # the genericity check alone: no table, every V(rest) inverted afresh
    for k in range(1, rs.n):
        for subset in itertools.combinations(range(1, rs.n + 1), k + 1):
            try:
                vandermonde_matrix(rs, subset).inverse()
            except SingularMatrixError:
                return False, ("vandermonde", subset)
            for last in subset:
                rest = tuple(i for i in subset if i != last)
                try:
                    vandermonde_quasidet(rs, rest + (last,)).inverse()
                except SingularMatrixError:
                    return False, ("quasidet", rest + (last,))
    return True, None


def test_is_generic_witnesses_match_reference(nilpotent_pair):
    x1, x2 = nilpotent_pair
    x3 = RatMatrix([[1, 1], [-1, -1]])  # a third right root of t^2
    fixtures = [RootSet([x1, x1]), RootSet([x1, x2, x3]), RootSet([x1, x2]), scalar_rootset(2, 3, 2)]
    rng = random.Random(5)
    fixtures += [random_rootset(4, 2, rng, lo=-2, hi=2) for _ in range(60)]
    witnesses = set()
    for rs in fixtures:
        verdict = rs.is_generic()
        assert verdict == _reference_is_generic(rs)
        witnesses.add(verdict[1] and len(verdict[1][1]))
    assert witnesses == {None, 2, 3}
    assert RootSet([x1, x2, x3]).is_generic() == (False, ("vandermonde", (1, 2, 3)))


def test_full_vandermonde_is_decided_by_its_quasideterminants(monkeypatch, nilpotent_pair):
    # x3 is a third right root of t^2, so V(1,2,3) is singular; every pair is not
    x1, x2 = nilpotent_pair
    rs = RootSet([x1, x2, RatMatrix([[1, 1], [-1, -1]])])
    for pair in itertools.combinations((1, 2, 3), 2):
        vandermonde_matrix(rs, pair).inverse()
    built = []
    real = pseudoroots.vandermonde_matrix
    monkeypatch.setattr(pseudoroots, "vandermonde_matrix",
                        lambda rs, indices: built.append(tuple(indices)) or real(rs, indices))
    assert rs.is_generic() == (False, ("vandermonde", (1, 2, 3)))
    assert (1, 2, 3) not in built
    with pytest.raises(pseudoroots.SingularVandermondeError, match=r"V\(1, 2, 3\) is singular"):
        build_table(rs)


def test_random_generic_sampler_deterministic():
    a = random_generic_rootset(3, 2, seed=42)
    b = random_generic_rootset(3, 2, seed=42)
    assert a.roots == b.roots
    assert a.is_generic()[0]


# ---- pseudo-roots and the table ----


def test_pseudo_root_empty_set(nilpotent_rootset):
    assert pseudo_root(nilpotent_rootset, (), 1) == nilpotent_rootset.root(1)


def test_pseudo_root_conjugation_formula():
    rs = random_generic_rootset(2, 2, seed=1)
    x1, x2 = rs.roots
    d = x2 - x1
    assert pseudo_root(rs, {1}, 2) == d * x2 * d.inverse()


def test_pseudo_root_nilpotent(nilpotent_rootset):
    x1, x2 = nilpotent_rootset.roots
    assert pseudo_root(nilpotent_rootset, {1}, 2) == -x1
    assert pseudo_root(nilpotent_rootset, {2}, 1) == -x2


def test_pseudo_root_rejects_contained_index(nilpotent_rootset):
    with pytest.raises(ValueError):
        pseudo_root(nilpotent_rootset, {1}, 1)


def test_build_table_nilpotent(nilpotent_rootset):
    x1, x2 = nilpotent_rootset.roots
    table = build_table(nilpotent_rootset)
    assert len(table) == 4
    assert set(dict(table.items()).values()) == {x1, x2, -x1, -x2}
    assert table[(), 1] == x1 and table[{1}, 2] == -x1


def test_table_diamond_identities():
    rs = random_generic_rootset(3, 2, seed=12)
    t = build_table(rs)
    for A_size in range(2):
        for A in itertools.combinations((1, 2, 3), A_size):
            rest = [i for i in (1, 2, 3) if i not in A]
            for i, j in itertools.combinations(rest, 2):
                A_ = frozenset(A)
                assert t[A_ | {i}, j] + t[A_, i] == t[A_ | {j}, i] + t[A_, j]
                assert t[A_ | {i}, j] * t[A_, i] == t[A_ | {j}, i] * t[A_, j]


def test_table_ordering_independence_n4():
    rs = random_generic_rootset(4, 2, seed=3)
    for A in [{1, 2, 3}, {2, 3, 4}, {1, 2, 4}]:
        i = next(iter({1, 2, 3, 4} - A))
        values = set()
        for perm in itertools.permutations(sorted(A)):
            from ncroots.pseudoroots import _conjugate
            values.add(_conjugate(rs, perm, i))
        assert len(values) == 1
        assert values.pop() == pseudo_root(rs, A, i)


@pytest.mark.parametrize("n, d", [(3, 2), (3, 3), (4, 2), (4, 3)])
def test_cached_table_matches_quasideterminant_oracle(n, d):
    rs = random_generic_rootset(n, d, seed=10 * n + d)
    table = build_table(rs)
    assert len(table) == n * 2 ** (n - 1)
    for (A, i), value in table.items():
        assert value == pseudo_root(rs, A, i)
    for perm in itertools.permutations(range(1, n + 1)):
        assert factor_sequence(rs, perm) == [pseudo_root(rs, perm[:k], perm[k]) for k in range(n)]


def test_recursion_cross_check_catches_a_wrong_quasideterminant(monkeypatch):
    roots = random_generic_rootset(3, 2, seed=9).roots
    real = pseudoroots.vandermonde_quasidet

    def skewed(rs, indices, vinv=None):
        v = real(rs, indices, vinv)
        return v + RatMatrix.identity(rs.d) if tuple(indices) == (1, 2, 3) else v

    monkeypatch.setattr(pseudoroots, "vandermonde_quasidet", skewed)
    with pytest.raises(OrderingDependentError, match=r"x_\(\{1,2\},3\)"):
        RootSet(roots).is_generic()


def test_recursion_rejects_singular_difference():
    rs = random_generic_rootset(2, 2, seed=3)
    entries = {(frozenset(A), i): pseudo_root(rs, A, i) for A, i in [((), 1), ((), 2), ((1,), 2), ((2,), 1)]}
    pseudoroots._check_recursion(entries)
    # equal level-0 values make every difference singular
    entries[frozenset(), 2] = entries[frozenset(), 1]
    with pytest.raises(OrderingDependentError, match=r"x_\(\{1\},2\)"):
        pseudoroots._check_recursion(entries)


def test_corrupt_cached_entry_is_caught():
    rs = random_generic_rootset(3, 2, seed=9)
    rs._pseudo_roots()[frozenset({1}), 2] += RatMatrix.identity(2)
    with pytest.raises(ArithmeticError, match="diamond identity"):
        build_table(rs)
    with pytest.raises(OrderingDependentError, match=r"Q_\{1,2\}"):
        canonical_polynomial(rs)


def test_table_of_non_generic_set_raises(nilpotent_pair):
    x1, _ = nilpotent_pair
    with pytest.raises(SingularMatrixError, match=r"V\(1, 2\) is singular"):
        build_table(RootSet([x1, x1]))


def test_canonical_polynomial_checks_orderings_at_n6():
    rs = random_generic_rootset(6, 2, seed=6)
    poly = canonical_polynomial(rs)
    for i in range(1, 7):
        assert poly.right_eval(rs.root(i)).is_zero()
    # an entry off the identity chain: only the subset-lattice check reads it
    rs._pseudo_roots()[frozenset({1, 2, 3, 4}), 6] += RatMatrix.identity(2)
    assert from_linear_factors(list(reversed(factor_sequence(rs, range(1, 7))))) == poly
    with pytest.raises(OrderingDependentError):
        canonical_polynomial(rs)


def test_canonical_polynomial_nilpotent(nilpotent_rootset):
    poly = canonical_polynomial(nilpotent_rootset)
    z = RatMatrix.zeros(2)
    assert poly == NCPoly([RatMatrix.identity(2), z, z])


def test_canonical_polynomial_roots():
    rs = random_generic_rootset(3, 2, seed=77)
    poly = canonical_polynomial(rs)
    for i in (1, 2, 3):
        assert poly.right_eval(rs.root(i)).is_zero()


def test_canonical_polynomial_scalar_viete():
    rs = scalar_rootset(2, 3, 5)
    poly = canonical_polynomial(rs)
    # elementary symmetric functions of 2, 3, 5
    assert [c[0, 0] for c in poly.coeffs] == [1, -10, 31, -30]


def test_factor_sequence_reconstructs():
    rs = random_generic_rootset(3, 2, seed=8)
    poly = canonical_polynomial(rs)
    for perm in itertools.permutations((1, 2, 3)):
        ys = factor_sequence(rs, perm)
        assert from_linear_factors(list(reversed(ys))) == poly


# ---- conjugation operations ----


def test_d_op_scalars_swap():
    a1, a2 = RatMatrix([[3]]), RatMatrix([[5]])
    assert d_op(a1, a2) == (a2, a1)
    assert u_op(a1, a2) == (a2, a1)


def test_u_op_nilpotent(nilpotent_pair):
    x1, x2 = nilpotent_pair
    a1, a2 = u_op(x1, x2)
    assert a1 == -x1 and a2 == -x2


def test_d_op_nilpotent_inverts_u(nilpotent_pair):
    x1, x2 = nilpotent_pair
    b1, b2 = d_op(-x1, -x2)
    assert b1 == x1 and b2 == x2


@given(matrices(), matrices())
def test_diamond_identities_after_ops(a, b):
    try:
        b1, b2 = d_op(a, b)
    except SingularDifferenceError:
        assume(False)
    assert a + b1 == b + b2
    assert a * b1 == b * b2
    c1, c2 = u_op(a, b)
    assert c1 + a == c2 + b
    assert c1 * a == c2 * b


def d_op_reference(a1, a2):
    """The four-product form: one inverse shared by both conjugations."""
    delta = a1 - a2
    dinv = delta.inverse()
    return dinv * a2 * delta, dinv * a1 * delta


def u_op_reference(b1, b2):
    delta = b1 - b2
    dinv = delta.inverse()
    return delta * b2 * dinv, delta * b1 * dinv


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=4).flatmap(lambda d: st.tuples(matrices(d), matrices(d))))
def test_conj_ops_match_four_product_reference(pair):
    a, b = pair
    try:
        expected_d, expected_u = d_op_reference(a, b), u_op_reference(a, b)
    except SingularMatrixError:
        for op in (d_op, u_op):
            with pytest.raises(SingularDifferenceError, match="difference of the pair is singular"):
                op(a, b)
        return
    b1, b2 = d_op(a, b)
    c1, c2 = u_op(a, b)
    assert (b1, b2) == expected_d and (c1, c2) == expected_u
    # the linear diamond identity: the second output is the first plus delta
    assert b2 - b1 == a - b and c2 - c1 == a - b


def test_singular_difference_raises(nilpotent_pair):
    x1, _ = nilpotent_pair
    with pytest.raises(SingularDifferenceError):
        d_op(x1, x1)
    with pytest.raises(SingularDifferenceError):
        u_op(x1, RatMatrix.zeros(2))  # difference x1 is nilpotent


# ---- expression trees ----


def test_expr_eval_and_render(nilpotent_pair):
    x1, x2 = nilpotent_pair
    env = {"a": x1, "b": x2}
    assert Gen("a").eval(env) == x1
    assert Neg(Gen("a")).eval(env) == -x1
    assert Sum(Gen("a"), Gen("b")).eval(env) == x1 + x2
    assert Diff(Gen("a"), Gen("b")).eval(env) == x1 - x2
    assert Prod(Gen("a"), Gen("b")).eval(env) == x1 * x2
    assert LConj(Gen("b"), Gen("a")).eval(env) == (x2 - x1) * x2 * (x2 - x1).inverse()
    assert RConj(Gen("b"), Gen("a")).eval(env) == (x2 - x1).inverse() * x2 * (x2 - x1)
    expr = LConj(Gen("b"), Gen("a"))
    assert str(expr) == "lconj(b,a)"
    assert str(Sum(Neg(Gen("a")), Prod(Gen("a"), Gen("b")))) == "((-a)+(a*b))"


def test_expr_coefficients_of_quadratic(nilpotent_pair):
    # coefficients of (t-a)(t-b) expressed with the ring nodes
    a, b = nilpotent_pair
    env = {"a": a, "b": b}
    poly = NCPoly.t_minus(a) * NCPoly.t_minus(b)
    assert Neg(Sum(Gen("a"), Gen("b"))).eval(env) == poly.coeffs[1]
    assert Prod(Gen("a"), Gen("b")).eval(env) == poly.coeffs[2]


def test_conj_singular_difference():
    env = {"a": RatMatrix.identity(2), "b": RatMatrix.identity(2)}
    with pytest.raises(SingularDifferenceError):
        LConj(Gen("a"), Gen("b")).eval(env)


# ---- labeled closure ----


def test_labeled_completion_gamma2(nilpotent_pair):
    x1, x2 = nilpotent_pair
    g = boolean_lattice(2)
    ls = LabeledEdgeSet(g, {"{}:1": x1, "{}:2": x2})
    result = labeled_completion(ls)
    assert not result.skipped
    assert result.labeled.labels == {
        "{}:1": x1, "{}:2": x2, "{1}:2": -x1, "{2}:1": -x2,
    }


def test_labeled_completion_agrees_with_table():
    for seed in (0, 1, 2):
        rs = random_generic_rootset(3, 2, seed=seed)
        g = boolean_lattice(3)
        ls = LabeledEdgeSet(g, {f"{{}}:{k}": rs.root(k) for k in (1, 2, 3)})
        result = labeled_completion(ls)
        assert not result.skipped
        assert result.labeled.labels == build_table(rs).edge_value_map()


def test_labeled_closure_follows_graph_closure():
    # on a generic labeling no step is skipped, so the labeled closure
    # reaches the graph closure's edges and records exactly the graph
    # steps that first derive an edge
    for n in (3, 4, 5):
        g = boolean_lattice(n)
        rs = random_generic_rootset(n, 2, seed=n)
        ls = LabeledEdgeSet(g, {f"{{}}:{k}": rs.root(k) for k in range(1, n + 1)})
        result = labeled_completion(ls)
        comp, trace = completion(ls.edge_set())
        assert result.skipped == []
        assert set(result.labeled.labels) == comp.members
        assert result.steps == [trace.steps[i] for i in sorted(set(trace.derived.values()))]


def test_labeled_completion_detects_corruption():
    rs = random_generic_rootset(3, 2, seed=4)
    g = boolean_lattice(3)
    values = build_table(rs).edge_value_map()
    values["{1}:2"] = values["{1}:2"] + RatMatrix.identity(2)  # break one diamond
    with pytest.raises(InconsistentLabelsError):
        labeled_completion(LabeledEdgeSet(g, values))


def test_labeled_completion_skips_singular_differences():
    g = boolean_lattice(2)
    same = RatMatrix([[2]])
    ls = LabeledEdgeSet(g, {"{}:1": same, "{}:2": same})
    result = labeled_completion(ls)
    assert len(result.skipped) == 1
    assert result.skipped[0].kind == "U"
    assert set(result.labeled.labels) == {"{}:1", "{}:2"}


def test_labeled_expr_traces_reproduce_values():
    rs = random_generic_rootset(3, 2, seed=6)
    g = boolean_lattice(3)
    ls = LabeledEdgeSet(g, {f"{{}}:{k}": rs.root(k) for k in (1, 2, 3)})
    result = labeled_completion(ls)
    env = ls.assignment()
    for e, value in result.labeled.labels.items():
        assert result.labeled.exprs[e].eval(env) == value


# ---- factorization derivation ----


def test_derive_defining_set(nilpotent_pair):
    x1, _ = nilpotent_pair
    g = boolean_lattice(2)
    ls = LabeledEdgeSet(g, {"{1}:2": -x1, "{}:1": x1}, names={"{1}:2": "g1", "{}:1": "g2"})
    fact = derive_factorization(ls)
    assert fact.path == ("{1}:2", "{}:1")
    assert fact.exprs == (Gen("g1"), Gen("g2"))
    assert fact.poly == from_linear_factors([-x1, x1])


def test_derive_example_chain():
    rs = random_generic_rootset(3, 2, seed=13)
    g = boolean_lattice(3)
    values = build_table(rs).edge_value_map()
    ls = LabeledEdgeSet(g, {e: values[e] for e in ("{1}:2", "{2}:1", "{1}:3")})
    fact = derive_factorization(ls)
    assert len(fact.path) == 3
    assert fact.poly == canonical_polynomial(rs)
    env = ls.assignment()
    for factor, expr in zip(fact.factors, fact.exprs):
        assert expr.eval(env) == factor


def test_derive_not_sufficient():
    rs = random_generic_rootset(3, 2, seed=14)
    g = boolean_lattice(3)
    values = build_table(rs).edge_value_map()
    ls = LabeledEdgeSet(g, {e: values[e] for e in ("{1,2}:3", "{3}:2", "{}:1")})
    with pytest.raises(NotSufficientError):
        derive_factorization(ls)


# ---- scalar specialization ----


def test_scalar_specialize_table():
    rs = scalar_rootset(2, 3, 5)
    table = build_table(rs)
    spec = scalar_specialize(table, {1: 2, 2: 3, 3: 5})
    for (A, i), value in table.items():
        assert value == spec[A, i] == RatMatrix([[{1: 2, 2: 3, 3: 5}[i]]])


def test_scalar_specialize_edge_ids():
    spec = scalar_specialize(["{1}:2", "{}:1"], {1: Fraction(1, 2), 2: 7})
    assert spec["{1}:2"] == RatMatrix([[7]])
    assert spec["{}:1"] == RatMatrix([["1/2"]])


def test_scalar_specialize_rejects_repeats():
    with pytest.raises(ValueError):
        scalar_specialize(["{}:1"], {1: 1, 2: 1})


def test_sufficient_sets_specialize_onto_all_indices():
    # the pigeonhole content of the distinct-index theorem at d=1
    g = boolean_lattice(2)
    import ncroots.duclosure as duclosure
    for combo in itertools.combinations(sorted(g.edges), 2):
        if duclosure.is_sufficient(EdgeSet(g, combo))[0]:
            spec = scalar_specialize(combo, {1: 10, 2: 20})
            assert len(set(spec.values())) == 2


# ---- serialization ----


def test_rootset_json_roundtrip():
    rs = random_generic_rootset(2, 2, seed=2)
    back = RootSet.from_json(rs.to_json())
    assert back.roots == rs.roots
    with pytest.raises(ValueError):
        RootSet.from_json({"n": 3, "d": 2, "roots": [rs.root(1).to_json()]})


@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda d: st.lists(matrices(d), min_size=1, max_size=4)))
def test_rootset_json_roundtrip_property(roots):
    rs = RootSet(roots)
    back = RootSet.from_json(rs.to_json())
    assert (back.n, back.d, back.roots) == (rs.n, rs.d, rs.roots)


def test_labeled_set_json_roundtrip(nilpotent_pair):
    x1, x2 = nilpotent_pair
    g = boolean_lattice(2)
    ls = LabeledEdgeSet(g, {"{}:1": x1, "{}:2": x2}, names={"{}:1": "p", "{}:2": "q"})
    back = LabeledEdgeSet.from_json(g, ls.to_json())
    assert back.labels == ls.labels and back.names == ls.names


def test_table_json():
    rs = random_generic_rootset(2, 2, seed=5)
    table = build_table(rs)
    obj = table.to_json()
    assert obj["n"] == 2 and len(obj["entries"]) == 4
    assert obj["entries"][0]["A"] == []
