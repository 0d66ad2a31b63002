"""Batch command-line front end.

Exit codes: 0 success / property true, 1 property false, 2 input error,
3 numeric failure (singular matrix met during computation).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import verify
from .digraph import Digraph, EdgeSet, GraphError, graph_records, validate_graph
from .divisor_graph import build_divisor_graph
from .duclosure import completion, is_ample, is_sufficient
from .exact_linalg import InputError, RatMatrix, SingularMatrixError, json_array, parse_at
from .hasse import boolean_lattice, complex_hasse, family_from_json, partition_lattice
from .ncpoly import NCPoly
from .pseudoroots import (
    LabeledEdgeSet,
    NotSufficientError,
    RootSet,
    build_table,
    canonical_polynomial,
    derive_factorization,
    factor_sequence,
)

OK, PROPERTY_FALSE, INPUT_ERROR, NUMERIC_ERROR = 0, 1, 2, 3


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _emit(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text if text.endswith("\n") else text + "\n")
    else:
        with open(out_path, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


def _graph_output(graph, fmt, out, highlight=None):
    if fmt == "dot":
        _emit(graph.to_dot(highlight), out)
    else:
        _emit(json.dumps(graph.to_json(), indent=2), out)


def cmd_gen(args):
    if args.kind in ("boolean", "partition") and args.n is None:
        raise ValueError(f"gen {args.kind} requires -n")
    if args.kind == "boolean":
        graph = boolean_lattice(args.n)
    elif args.kind == "partition":
        graph = partition_lattice(args.n)
    else:
        if not args.family:
            raise ValueError("gen complex requires --family FILE")
        graph = complex_hasse(family_from_json(_read_json(args.family)))
    _graph_output(graph, args.format, args.out)
    return OK


def cmd_check(args):
    vertices, edges, rank = graph_records(_read_json(args.graph))
    report = validate_graph(vertices, edges, rank)
    print(f"simple: {report.simple}")
    print(f"acyclic: {report.acyclic}")
    print(f"layered: {report.layered if report.layered is not None else 'n/a (no ranks)'}")
    for problem in report.problems:
        print(f"problem: {problem}")
    if not report.ok:
        return INPUT_ERROR
    graph = Digraph(vertices, edges, rank)
    modular, witness = graph.is_modular()
    print(f"modular: {modular}" + (f" (witness: {witness})" if witness else ""))
    print(f"sources: {sorted(graph.sources())}")
    print(f"sinks: {sorted(graph.sinks())}")
    return OK if modular else PROPERTY_FALSE


def _load_edge_set(graph_path, edges_path):
    graph = Digraph.from_json(_read_json(graph_path))
    edge_ids = json_array(_read_json(edges_path), "edges")
    return graph, EdgeSet(graph, edge_ids)


def cmd_closure(args):
    graph, es = _load_edge_set(args.graph, args.edgeset)
    comp, trace = completion(es)
    payload = {
        "edges": sorted(comp.members),
        "added": sorted(comp.members - es.members),
        "trace": [{"kind": s.kind, "inputs": list(s.inputs), "outputs": list(s.outputs)}
                  for s in trace],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return OK


def cmd_sufficient(args):
    graph, es = _load_edge_set(args.graph, args.edgeset)
    ok, path = is_sufficient(es)
    print(f"sufficient: {ok}")
    if path is not None:
        print("path: " + " ".join(path))
    return OK if ok else PROPERTY_FALSE


def cmd_ample(args):
    graph, es = _load_edge_set(args.graph, args.edgeset)
    ok, witness = is_ample(es)
    print(f"ample: {ok}")
    if witness is not None:
        clause, vertex = witness
        print(f"uncovered vertex ({clause}): {vertex}")
    return OK if ok else PROPERTY_FALSE


def _parse_ordering(text: str, n: int) -> tuple:
    try:
        ordering = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise InputError("--ordering", f"{text!r} is not a comma-separated list of indices") from None
    if sorted(ordering) != list(range(1, n + 1)):
        raise InputError("--ordering", f"{text!r} must list every index 1..{n} exactly once")
    return ordering


def cmd_factor(args):
    rs = RootSet.from_json(_read_json(args.rootset))
    orderings = [_parse_ordering(text, rs.n) for text in args.ordering or []]
    if not orderings:
        orderings.append(tuple(range(1, rs.n + 1)))
    generic, witness = rs.is_generic()
    if not generic:
        print(f"root set is not generic: {witness}", file=sys.stderr)
        return NUMERIC_ERROR
    poly = canonical_polynomial(rs)
    table = build_table(rs)
    payload = {
        "polynomial": poly.to_json(),
        "table": table.to_json(),
        "factorizations": [
            {"ordering": list(ordering),
             "factors": [m.to_json() for m in reversed(factor_sequence(rs, ordering))]}
            for ordering in orderings
        ],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return OK


def cmd_derive(args):
    graph = Digraph.from_json(_read_json(args.graph))
    ls = LabeledEdgeSet.from_json(graph, _read_json(args.labeled))
    try:
        fact = derive_factorization(ls)
    except NotSufficientError as exc:
        print(f"not sufficient: {exc}")
        return PROPERTY_FALSE
    payload = {
        "path": list(fact.path),
        "factors": [m.to_json() for m in fact.factors],
        "traces": [str(e) for e in fact.exprs],
        "polynomial": fact.poly.to_json(),
        "skipped": [{"kind": s.kind, "inputs": list(s.inputs), "reason": s.reason}
                    for s in fact.skipped],
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return OK


def cmd_divisors(args):
    poly = NCPoly.from_json(_read_json(args.poly))
    elements = {}
    for k, rec in enumerate(json_array(_read_json(args.set), "edges")):
        if not isinstance(rec, dict) or "value" not in rec:
            raise InputError(f"edges[{k}]", "expected an object with a 'value'")
        for key in ("name", "edge"):
            if key in rec and not isinstance(rec[key], str):
                raise InputError(f"edges[{k}].{key}", "expected a string")
        key = next((key for key in ("name", "edge") if rec.get(key)), None)
        name = rec[key] if key else f"s{len(elements) + 1}"
        if name in elements:
            raise InputError(f"edges[{k}].{key}" if key else f"edges[{k}]", f"{name!r} used twice")
        value = parse_at(f"edges[{k}].value", RatMatrix.from_json, rec["value"])
        if value.dim != poly.dim:
            raise InputError(f"edges[{k}].value",
                             f"dimension {value.dim} does not match the polynomial's {poly.dim}")
        elements[name] = value
    dg = build_divisor_graph(poly, elements)
    if args.format == "dot":
        _emit(dg.graph.to_dot(), args.out)
    else:
        payload = dg.graph.to_json()
        payload["polys"] = {v: p.to_json() for v, p in sorted(dg.polys.items())}
        payload["labels"] = {e: m.to_json() for e, m in sorted(dg.labels.items())}
        payload["label_names"] = dict(sorted(dg.label_names.items()))
        _emit(json.dumps(payload, indent=2), args.out)
    return OK


def cmd_verify(args):
    results = verify.run(args.suite, n=args.n, seed=args.seed)
    if args.json:
        payload = [{"name": r.name, "passed": r.passed, "elapsed": r.elapsed,
                    "budget": r.budget, "details": r.details} for r in results]
        print(json.dumps(payload, indent=2))
    else:
        for r in results:
            print(r.line())
            for d in r.details:
                print(f"    {d}")
    return OK if all(r.passed for r in results) else PROPERTY_FALSE


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ncroots",
        description="pseudo-roots of noncommutative polynomials and DU-closures "
                    "of edge sets, in exact rational arithmetic")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph family member")
    p.add_argument("kind", choices=["boolean", "partition", "complex"])
    p.add_argument("-n", type=int, default=None, help="size parameter")
    p.add_argument("--family", help="JSON file with {\"family\": [[...], ...]} (complex only)")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="validate and classify a graph")
    p.add_argument("graph")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("closure", help="DU-completion of an edge set with trace")
    p.add_argument("graph")
    p.add_argument("edgeset")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_closure)

    p = sub.add_parser("sufficient", help="does the completion reach source-to-sink?")
    p.add_argument("graph")
    p.add_argument("edgeset")
    p.set_defaults(func=cmd_sufficient)

    p = sub.add_parser("ample", help="non-domination test for an edge set")
    p.add_argument("graph")
    p.add_argument("edgeset")
    p.set_defaults(func=cmd_ample)

    p = sub.add_parser("factor", help="canonical polynomial, table and factorizations")
    p.add_argument("rootset")
    p.add_argument("--ordering", action="append", help="comma-separated index ordering; repeatable")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("derive", help="factorization from a labeled sufficient edge set")
    p.add_argument("graph")
    p.add_argument("labeled")
    p.add_argument("-o", "--out", default=None)
    p.set_defaults(func=cmd_derive)

    p = sub.add_parser("divisors", help="graph of right divisors reachable from a polynomial")
    p.add_argument("poly")
    p.add_argument("set")
    p.add_argument("-o", "--out", default=None)
    p.add_argument("--format", choices=["json", "dot"], default="json")
    p.set_defaults(func=cmd_divisors)

    p = sub.add_parser("verify", help="run a named verification suite (or 'all')")
    p.add_argument("suite")
    p.add_argument("-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NotSufficientError as exc:
        print(f"not sufficient: {exc}", file=sys.stderr)
        return PROPERTY_FALSE
    except SingularMatrixError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return NUMERIC_ERROR
    except (GraphError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
