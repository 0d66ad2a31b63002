import json

import pytest

from ncroots.cli import main
from ncroots.exact_linalg import RatMatrix
from ncroots.pseudoroots import RootSet, build_table, canonical_polynomial, random_generic_rootset


def write(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def nilpotent_files(tmp_path, nilpotent_pair):
    x1, x2 = nilpotent_pair
    rs = RootSet([x1, x2])
    table = build_table(rs).edge_value_map()
    files = {
        "rootset": write(tmp_path / "rs.json", rs.to_json()),
        "poly": write(tmp_path / "p.json", canonical_polynomial(rs).to_json()),
        "table": table,
        "dir": tmp_path,
    }
    return files


def test_gen_boolean(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "boolean", "-n", "3", "-o", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert len(obj["vertices"]) == 8 and len(obj["edges"]) == 12


def test_gen_partition(capsys):
    assert main(["gen", "partition", "-n", "4"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["vertices"]) == 5 and len(obj["edges"]) == 5


def test_gen_complex(tmp_path, capsys):
    fam = write(tmp_path / "f.json", {"family": [[], [1], [2]]})
    assert main(["gen", "complex", "--family", fam]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["edges"]) == 2


def test_gen_bad_args(capsys):
    assert main(["gen", "boolean", "-n", "0"]) == 2
    assert main(["gen", "boolean"]) == 2
    assert main(["gen", "complex"]) == 2


@pytest.mark.parametrize("doc, field", [
    ([[], [1]], "family:"),
    ({"family": [1]}, "family[0]:"),
    ({"family": [[1, [2]]]}, "family[0][1]:"),
    ({"family": [[], [1], ["a"]]}, "family[2]:"),
])
def test_gen_complex_bad_family_is_input_error(tmp_path, capsys, doc, field):
    fam = write(tmp_path / "f.json", doc)
    assert_input_error(main(["gen", "complex", "--family", fam]), capsys, field)


def test_gen_dot(capsys):
    assert main(["gen", "boolean", "-n", "2", "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_check_valid(tmp_path, capsys):
    g = tmp_path / "g.json"
    main(["gen", "boolean", "-n", "3", "-o", str(g)])
    assert main(["check", str(g)]) == 0
    out = capsys.readouterr().out
    assert "modular: True" in out and "sources: ['{1,2,3}']" in out and "sinks: ['{}']" in out


def test_check_cycle(tmp_path, capsys):
    g = write(tmp_path / "bad.json", {
        "vertices": [{"id": "u"}, {"id": "v"}],
        "edges": [{"id": "a", "tail": "u", "head": "v"},
                  {"id": "b", "tail": "v", "head": "u"}],
    })
    assert main(["check", g]) == 2
    assert "cycle" in capsys.readouterr().out


def test_check_not_modular(tmp_path, capsys):
    g = write(tmp_path / "nm.json", {
        "vertices": [{"id": "u"}, {"id": "v"}, {"id": "w"}, {"id": "x"}],
        "edges": [{"id": "a", "tail": "u", "head": "v"},
                  {"id": "b", "tail": "v", "head": "w"},
                  {"id": "c", "tail": "u", "head": "x"}],
    })
    assert main(["check", g]) == 1
    assert "modular: False" in capsys.readouterr().out


def test_check_parse_failure(tmp_path, capsys):
    bad = tmp_path / "x.json"
    bad.write_text("{nope")
    assert main(["check", str(bad)]) == 2


def test_closure_and_sufficient(tmp_path, capsys):
    g = tmp_path / "g2.json"
    main(["gen", "boolean", "-n", "2", "-o", str(g)])
    es = write(tmp_path / "es.json", {"edges": ["{}:1", "{}:2"]})
    assert main(["closure", str(g), str(es)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["edges"]) == 4 and len(obj["trace"]) == 2
    assert main(["sufficient", str(g), str(es)]) == 0
    bad = write(tmp_path / "bad.json", {"edges": ["{1}:2", "{}:2"]})
    assert main(["sufficient", str(g), str(bad)]) == 1
    unknown = write(tmp_path / "unk.json", {"edges": ["{9}:1"]})
    assert main(["sufficient", str(g), str(unknown)]) == 2


def test_ample(tmp_path, capsys):
    g = tmp_path / "g2.json"
    main(["gen", "boolean", "-n", "2", "-o", str(g)])
    good = write(tmp_path / "a.json", {"edges": ["{1}:2", "{2}:1"]})
    assert main(["ample", str(g), str(good)]) == 0
    bad = write(tmp_path / "b.json", {"edges": ["{1}:2"]})
    assert main(["ample", str(g), str(bad)]) == 1
    assert "uncovered vertex" in capsys.readouterr().out


def test_factor(nilpotent_files, capsys):
    assert main(["factor", nilpotent_files["rootset"]]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["table"]["entries"]) == 4
    assert obj["polynomial"]["coeffs"][1]["entries"] == [["0", "0"], ["0", "0"]]
    assert len(obj["factorizations"]) == 1


def test_factor_orderings(nilpotent_files, capsys):
    code = main(["factor", nilpotent_files["rootset"], "--ordering", "1,2", "--ordering", "2,1"])
    assert code == 0
    obj = json.loads(capsys.readouterr().out)
    assert [f["ordering"] for f in obj["factorizations"]] == [[1, 2], [2, 1]]


def test_factor_non_generic(tmp_path, capsys, nilpotent_pair):
    x1, _ = nilpotent_pair
    rs = write(tmp_path / "bad_rs.json", RootSet([x1, x1]).to_json())
    assert main(["factor", rs]) == 3


def test_derive(tmp_path, nilpotent_files, capsys):
    g = tmp_path / "g2.json"
    main(["gen", "boolean", "-n", "2", "-o", str(g)])
    capsys.readouterr()
    table = nilpotent_files["table"]
    lab = write(tmp_path / "lab.json", {"edges": [
        {"edge": "{1}:2", "value": table["{1}:2"].to_json(), "name": "p"},
        {"edge": "{}:1", "value": table["{}:1"].to_json(), "name": "q"},
    ]})
    assert main(["derive", str(g), str(lab)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["path"] == ["{1}:2", "{}:1"]
    assert obj["traces"] == ["p", "q"]


def test_derive_not_sufficient(tmp_path, capsys):
    g3 = tmp_path / "g3.json"
    main(["gen", "boolean", "-n", "3", "-o", str(g3)])
    rs = random_generic_rootset(3, 2, seed=33)
    table = build_table(rs).edge_value_map()
    lab = write(tmp_path / "lab3.json", {"edges": [
        {"edge": e, "value": table[e].to_json()} for e in ("{1,2}:3", "{3}:2", "{}:1")
    ]})
    assert main(["derive", str(g3), str(lab)]) == 1


def test_divisors(tmp_path, nilpotent_files, capsys):
    table = nilpotent_files["table"]
    s = write(tmp_path / "s.json", {"edges": [
        {"name": name, "value": value.to_json()} for name, value in table.items()
    ]})
    assert main(["divisors", nilpotent_files["poly"], s]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert len(obj["vertices"]) == 6 and len(obj["edges"]) == 8
    assert main(["divisors", nilpotent_files["poly"], s, "--format", "dot"]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_verify_single_suite(capsys):
    assert main(["verify", "example4"]) == 0
    assert "PASS example4" in capsys.readouterr().out


def test_verify_json_output(capsys):
    assert main(["verify", "closure-chain", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["passed"] is True


def test_verify_unknown_suite(capsys):
    assert main(["verify", "nonsense"]) == 2


def test_outputs_are_deterministic(tmp_path, capsys, nilpotent_files):
    assert main(["factor", nilpotent_files["rootset"]]) == 0
    first = capsys.readouterr().out
    assert main(["factor", nilpotent_files["rootset"]]) == 0
    assert capsys.readouterr().out == first
    assert main(["gen", "boolean", "-n", "4"]) == 0
    g1 = capsys.readouterr().out
    assert main(["gen", "boolean", "-n", "4"]) == 0
    assert capsys.readouterr().out == g1


def assert_input_error(code, capsys, field):
    err = capsys.readouterr().err
    assert code == 2
    assert field in err and "Traceback" not in err


def test_derive_repeated_edge_is_input_error(tmp_path, capsys, nilpotent_pair):
    x1, x2 = nilpotent_pair
    g3 = tmp_path / "g3.json"
    main(["gen", "boolean", "-n", "3", "-o", str(g3)])
    lab = write(tmp_path / "dup.json", {"edges": [
        {"edge": "{}:1", "value": x1.to_json()},
        {"edge": "{}:1", "value": x2.to_json()},
    ]})
    assert_input_error(main(["derive", str(g3), lab]), capsys, "edges[1].edge")


@pytest.mark.parametrize("edges, field", [
    ([{"name": 5}, {"name": "b"}], "edges[0].name: expected a string"),
    ([{"name": [1]}, {"name": "b"}], "edges[0].name: expected a string"),
    ([{"name": "a"}, {}], "edges[1].name: missing; name every edge or none"),
    ([{}, {"name": "a"}], "edges[0].name: missing; name every edge or none"),
    ([{"name": "a"}, {"name": "a"}], "edges[1].name: 'a' used twice"),
    ([{}, {"value": {"entries": [["1"]]}}], "edges[1].value: dimension 1 does not match edges[0]'s 2"),
])
def test_derive_bad_labeled_record_is_input_error(tmp_path, capsys, nilpotent_pair, edges, field):
    g = tmp_path / "g2.json"
    main(["gen", "boolean", "-n", "2", "-o", str(g)])
    recs = [{"edge": e, "value": x.to_json()} for e, x in zip(("{}:1", "{}:2"), nilpotent_pair)]
    lab = write(tmp_path / "lab.json", {"edges": [{**r, **change} for r, change in zip(recs, edges)]})
    assert_input_error(main(["derive", str(g), lab]), capsys, field)


@pytest.mark.parametrize("command", ["closure", "sufficient", "ample"])
def test_edge_set_top_level_array_is_input_error(tmp_path, capsys, command):
    g = tmp_path / "g2.json"
    main(["gen", "boolean", "-n", "2", "-o", str(g)])
    es = write(tmp_path / "es.json", ["{}:1", "{}:2"])
    assert_input_error(main([command, str(g), es]), capsys, "edges")


def test_factor_top_level_array_is_input_error(tmp_path, capsys, nilpotent_pair):
    rs = write(tmp_path / "rs.json", [x.to_json() for x in nilpotent_pair])
    assert_input_error(main(["factor", rs]), capsys, "roots")


@pytest.mark.parametrize("entry", ["1/0", True])
def test_factor_bad_rational_is_input_error(tmp_path, capsys, nilpotent_pair, entry):
    doc = RootSet(nilpotent_pair).to_json()
    doc["roots"][1]["entries"][0][1] = entry
    rs = write(tmp_path / "rs.json", doc)
    assert_input_error(main(["factor", rs]), capsys, "roots[1].entries[0][1]")


@pytest.mark.parametrize("ordering, reason", [
    ("a,b", "'a,b' is not a comma-separated list of indices"),
    ("1,2", "'1,2' must list every index 1..3 exactly once"),
])
def test_factor_bad_ordering_is_input_error(tmp_path, capsys, ordering, reason):
    rs = write(tmp_path / "rs.json", random_generic_rootset(3, 2, seed=3).to_json())
    assert_input_error(main(["factor", rs, "--ordering", ordering]), capsys, f"--ordering: {reason}")


@pytest.mark.parametrize("doc, field", [
    ({"roots": [{"entries": [[1]]}], "n": True}, "n:"),
    ({"roots": [{"entries": [[1]]}], "d": True}, "d:"),
    ({"roots": [{"entries": [[1]], "d": True}]}, "roots[0].d:"),
    ({"roots": [{"entries": [[1]]}], "n": 1.0}, "n:"),
])
def test_factor_declared_size_must_be_integer(tmp_path, capsys, doc, field):
    rs = write(tmp_path / "rs.json", doc)
    assert_input_error(main(["factor", rs]), capsys, field)


def test_divisors_top_level_array_is_input_error(tmp_path, capsys, nilpotent_files):
    s = write(tmp_path / "s.json", [{"name": "a", "value": {"entries": [["1", "0"], ["0", "1"]]}}])
    assert_input_error(main(["divisors", nilpotent_files["poly"], s]), capsys, "edges")


@pytest.mark.parametrize("records, field", [
    ([1], "edges[0]:"),
    ([{"name": "a"}], "edges[0]:"),
    ([{"name": "a", "value": {"entries": [["1", "0"], ["0", "1"]]}}, {"name": "b"}], "edges[1]:"),
    ([{"name": 5, "value": {"entries": [["1", "0"], ["0", "1"]]}}], "edges[0].name:"),
    ([{"name": "a", "value": {"entries": [["1", "1/0"], ["0", "1"]]}}], "edges[0].value.entries[0][1]:"),
    ([{"name": "a", "value": {"entries": [["1", "0"], ["0", "1"]]}},
      {"name": "a", "value": {"entries": [["0", "1"], ["0", "0"]]}}], "edges[1].name: 'a' used twice"),
    ([{"edge": "{}:1", "value": {"entries": [["1", "0"], ["0", "1"]]}},
      {"edge": "{}:1", "value": {"entries": [["0", "1"], ["0", "0"]]}}], "edges[1].edge: '{}:1' used twice"),
    ([{"name": "a", "value": {"entries": [["1", "0"], ["0", "1"]]}}, {"name": "b", "value": {"entries": [["1"]]}}],
     "edges[1].value: dimension 1 does not match the polynomial's 2"),
])
def test_divisors_bad_set_record_is_input_error(tmp_path, capsys, nilpotent_files, records, field):
    s = write(tmp_path / "s.json", {"edges": records})
    assert_input_error(main(["divisors", nilpotent_files["poly"], s]), capsys, field)


@pytest.mark.parametrize("doc, field", [
    ({"d": 1, "coeffs": 5}, "coeffs:"),
    ({"d": 1, "coeffs": [5]}, "coeffs[0].entries:"),
    ({"d": 1, "coeffs": [{"entries": [["1"]]}, {"entries": [[True]]}]}, "coeffs[1].entries[0][0]:"),
    ({"d": True, "coeffs": [{"entries": [["1"]]}]}, "d:"),
    ({"coeffs": [{"entries": [["1"]]}]}, "d:"),
    ({"d": 2, "coeffs": [{"entries": [["1"]]}]}, "coeffs:"),
])
def test_divisors_bad_polynomial_is_input_error(tmp_path, capsys, doc, field):
    p = write(tmp_path / "p.json", doc)
    s = write(tmp_path / "s.json", {"edges": []})
    assert_input_error(main(["divisors", p, s]), capsys, field)


BAD_GRAPH_RECORDS = [
    ({"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"id": "a", "tail": "u"}]}, "edges[0].head: missing"),
    ({"vertices": [1, 2], "edges": []}, "vertices[0]: expected an object"),
    ({"vertices": [{"id": "u"}, {}], "edges": []}, "vertices[1].id: missing"),
    ({"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"id": "a", "tail": "u", "head": ["v"]}]},
     "edges[0].head: expected a string or a number"),
    ({"vertices": [{"id": "u"}, {"id": None}], "edges": []}, "vertices[1].id: expected a string or a number"),
    ({"vertices": [{"id": "u"}, {"id": "v"}], "edges": [{"id": True, "tail": "u", "head": "v"}]},
     "edges[0].id: expected a string or a number"),
    ({"vertices": [{"id": "u"}, {"id": "v"}], "edges": ["a"]}, "edges[0]: expected an object"),
]


@pytest.mark.parametrize("doc, field", BAD_GRAPH_RECORDS + [
    ({"vertices": [{"id": "u"}]}, "edges"),
    ([{"id": "u"}], "vertices"),
    ({"vertices": [{"id": "u", "rank": True}], "edges": []}, "got True"),
])
def test_check_bad_graph_record_is_input_error(tmp_path, capsys, doc, field):
    g = write(tmp_path / "g.json", doc)
    code = main(["check", g])
    captured = capsys.readouterr()
    assert code == 2
    assert field in captured.out + captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("doc, field", BAD_GRAPH_RECORDS)
def test_closure_bad_graph_record_is_input_error(tmp_path, capsys, doc, field):
    g = write(tmp_path / "g.json", doc)
    es = write(tmp_path / "es.json", {"edges": []})
    assert_input_error(main(["closure", g, es]), capsys, field)


NUMERIC_ID_GRAPH = {"vertices": [{"id": 0}, {"id": 1}, {"id": 2}, {"id": 3}],
                    "edges": [{"id": 10, "tail": 0, "head": 1}, {"id": 11, "tail": 0, "head": 2},
                              {"id": 12, "tail": 1, "head": 3}, {"id": 13, "tail": 2, "head": 3}]}


def test_check_accepts_numeric_ids(tmp_path, capsys):
    g = write(tmp_path / "g.json", NUMERIC_ID_GRAPH)
    assert main(["check", g]) == 0
    assert capsys.readouterr().out == (
        "simple: True\nacyclic: True\nlayered: n/a (no ranks)\n"
        "modular: True\nsources: ['0']\nsinks: ['3']\n")


def test_closure_accepts_numeric_ids(tmp_path, capsys):
    g = write(tmp_path / "g.json", NUMERIC_ID_GRAPH)
    es = write(tmp_path / "es.json", {"edges": ["10", "12"]})
    assert main(["closure", g, es]) == 0
    assert json.loads(capsys.readouterr().out)["edges"] == ["10", "12"]


def test_check_partially_ranked_report_is_unchanged(tmp_path, capsys):
    g = write(tmp_path / "g.json", {"vertices": [{"id": "u", "rank": 1}, {"id": "v"}],
                                    "edges": [{"id": "a", "tail": "u", "head": "v"}]})
    assert main(["check", g]) == 2
    assert capsys.readouterr().out == (
        "simple: True\nacyclic: True\nlayered: False\n"
        "problem: rank values must be non-negative integers, got None\n")
