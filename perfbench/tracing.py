"""Outside-in spans around the public entry points of every ncroots module.

Wrappers are installed only for a traced run; an untraced run never
calls ``install``. Each wrapped call records a span
(name, start, end, parent span, op id) in flat in-memory arrays that are
written out when the run ends. Self time, call counts and the counters
below are accumulated at the same boundaries, separately for set-up
(op id -1) and for the timed ops.

Module-level functions are rebound at every binding site: ``cli``,
``verify``, ``pseudoroots`` and ``divisor_graph`` import names with
``from ... import``, so each ncroots module attribute that *is* the
original function is replaced, otherwise those callers would bypass the
span. Methods are wrapped on their class (``RatMatrix.__mul__`` and
``RatMatrix.inverse`` rather than a kernel backend).
"""

from __future__ import annotations

import json
import sys
import types
from array import array
from pathlib import Path
from time import perf_counter

SETUP = -1


class Tracer:
    def __init__(self, max_spans: int = 1_000_000):
        self.max_spans = max_spans
        self.names = []
        self._ids = {}
        self.op = SETUP
        self.span_name = array("i")
        self.span_op = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.dropped = 0
        self.stack = []  # [span index, time covered by children, name id]
        self.scopes = {"setup": {}, "ops": {}}  # scope -> name -> [calls, self seconds]
        self.counters = {"setup": {}, "ops": {}}
        self.missing = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _scope(self) -> str:
        return "setup" if self.op == SETUP else "ops"

    def count(self, name: str, k=1):
        c = self.counters[self._scope()]
        c[name] = c.get(name, 0) + k

    def maximum(self, name: str, value):
        c = self.counters[self._scope()]
        c[name] = max(c.get(name, value), value)

    def inside(self, name: str) -> bool:
        nid = self._ids.get(name)
        return any(entry[2] == nid for entry in self.stack)

    def open(self, nid: int) -> float:
        stack = self.stack
        if len(self.span_start) < self.max_spans:
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_op.append(self.op)
            self.span_parent.append(stack[-1][0] if stack else -1)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
        else:
            idx = -1
            self.dropped += 1
        stack.append([idx, 0.0, nid])
        start = perf_counter()
        if idx >= 0:
            self.span_start[idx] = start
        return start

    def close(self, start: float):
        end = perf_counter()
        idx, child, nid = self.stack.pop()
        duration = end - start
        if idx >= 0:
            self.span_end[idx] = end
        if self.stack:
            self.stack[-1][1] += duration
        tot = self.scopes[self._scope()].get(nid)
        if tot is None:
            tot = self.scopes[self._scope()][nid] = [0, 0.0]
        tot[0] += 1
        tot[1] += duration - child

    def hide(self, start: float):
        """Keep the tracer's own work since ``start`` out of the caller's self time."""
        if self.stack:
            self.stack[-1][1] += perf_counter() - start

    def wrap(self, name: str, fn, after=None, reentrant: bool = True):
        """A span around fn; after(tracer, args, result) updates counters."""
        nid = self._id(name)
        tracer = self

        def wrapper(*args, **kwargs):
            if not reentrant and tracer.stack and tracer.stack[-1][2] == nid:
                return fn(*args, **kwargs)
            start = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(start)
            if after is not None:
                t = perf_counter()
                after(tracer, args, result)
                tracer.hide(t)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def counting(self, name: str, fn, after=None):
        """Counts calls without a span, for functions too small to time."""
        tracer = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            t = perf_counter()
            tracer.count(name + ".calls")
            if after is not None:
                after(tracer, args, result)
            tracer.hide(t)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---- results -------------------------------------------------------

    def total(self, scope: str, name: str):
        return self.scopes[scope].get(self._ids.get(name), [0, 0.0])

    def counter(self, name: str, scope: str = "ops"):
        return self.counters[scope].get(name, 0)

    def dump(self, directory: Path, stem: str):
        """Write the spans: a JSON header naming the fields and a binary body."""
        directory.mkdir(parents=True, exist_ok=True)
        body = directory / f"{stem}.spans.bin"
        with open(body, "wb") as fh:
            for arr in (self.span_name, self.span_op, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)
        header = {"names": self.names, "count": len(self.span_start), "dropped": self.dropped,
                  "fields": [["name", "i"], ["op", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
                  "layout": "each field as one native-endian array of count items, in field order",
                  "body": body.name}
        (directory / f"{stem}.spans.json").write_text(json.dumps(header))


# ---------------------------------------------------------------------------
# counters taken from arguments and results


def _inv_stats(tracer, args, result):
    m = args[0]
    tracer.count("inv.dim_sum", m.dim)
    bits = max(max(abs(x.numerator).bit_length(), x.denominator.bit_length())
               for row in m.rows() for x in row)
    tracer.maximum("inv.input_bits_max", bits)


def _table_entries(tracer, args, table):
    tracer.count("pseudoroots.table_entries", len(table) - table.n)


def _labeled(tracer, args, result):
    tracer.count("labeled_completion.steps", len(result.steps))
    tracer.count("labeled_completion.skipped", len(result.skipped))


def _completion(tracer, args, result):
    _, trace = result
    tracer.count("completion.steps", len(trace))
    tracer.count("completion.derived_edges", len(trace.derived))


def _applicable(tracer, args, kinds):
    if kinds:
        tracer.count("applicable.yield")


def _division(tracer, args, result):
    if tracer.inside("divisor_graph.build"):
        tracer.count("division.attempts")
        if result[1].is_zero():
            tracer.count("division.exact")


def _divisor_vertices(tracer, args, dg):
    tracer.count("divisor_graph.vertices", len(dg.graph.vertices))


# module, function, span name, counter hook
FUNCTIONS = [
    ("exact_linalg", "rect_mul", "exact_linalg.mul", None),
    ("pseudoroots", "vandermonde_quasidet", "pseudoroots.quasidet", None),
    ("pseudoroots", "canonical_polynomial", "pseudoroots.canonical_polynomial", None),
    ("pseudoroots", "build_table", "pseudoroots.build_table", _table_entries),
    ("pseudoroots", "factor_sequence", "pseudoroots.factor_sequence", None),
    ("pseudoroots", "labeled_completion", "pseudoroots.labeled_completion", _labeled),
    ("pseudoroots", "derive_factorization", "pseudoroots.derive_factorization", None),
    ("pseudoroots", "d_op", "pseudoroots.conj_ops", None),
    ("pseudoroots", "u_op", "pseudoroots.conj_ops", None),
    ("duclosure", "completion", "duclosure.completion", _completion),
    ("duclosure", "lex_path", "duclosure.lex_path", None),
    ("duclosure", "is_ample", "duclosure.is_ample", None),
    ("duclosure", "is_sufficient", "duclosure.is_sufficient", None),
    ("divisor_graph", "build_divisor_graph", "divisor_graph.build", _divisor_vertices),
    ("hasse", "boolean_lattice", "hasse.boolean_lattice", None),
    ("cli", "_read_json", "cli.json_io", None),
    ("cli", "_emit", "cli.json_io", None),
]

# module, class, method, span name, counter hook
METHODS = [
    ("exact_linalg", "RatMatrix", "__mul__", "exact_linalg.mul", None),
    ("exact_linalg", "RatMatrix", "inverse", "exact_linalg.inv", _inv_stats),
    ("pseudoroots", "RootSet", "is_generic", "pseudoroots.is_generic", None),
    ("ncpoly", "NCPoly", "__mul__", "ncpoly.mul", None),
    ("ncpoly", "NCPoly", "left_divide_linear", "ncpoly.left_divide_linear", _division),
    ("digraph", "Digraph", "from_json", "digraph.from_json", None),
    ("digraph", "Digraph", "descendants", "digraph.descendants", None),
]

# expression classes whose eval is one trace evaluation (outermost call only)
TRACE_EXPRS = ["Gen", "Neg", "Sum", "Diff", "Prod", "LConj", "RConj"]


def install(tracer: Tracer):
    """Wrap every entry point, for the rest of the process's life."""
    import ncroots  # noqa: F401  (loads every submodule)

    modules = {name: mod for name, mod in sys.modules.items()
               if name == "ncroots" or name.startswith("ncroots.")}

    def rebind(original, wrapper):
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)

    for modname, fname, span, hook in FUNCTIONS:
        mod = modules.get(f"ncroots.{modname}")
        fn = getattr(mod, fname, None)
        if fn is None:
            tracer.missing.append(f"{modname}.{fname}")
            continue
        rebind(fn, tracer.wrap(span, fn, hook))

    for modname, clsname, attr, span, hook in METHODS:
        cls = getattr(modules.get(f"ncroots.{modname}"), clsname, None)
        raw = cls.__dict__.get(attr) if cls is not None else None
        if raw is None:
            tracer.missing.append(f"{modname}.{clsname}.{attr}")
            continue
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(tracer.wrap(span, raw.__func__, hook)))
        else:
            setattr(cls, attr, tracer.wrap(span, raw, hook))

    applicable = getattr(modules["ncroots.duclosure"], "applicable", None)
    if applicable is None:
        tracer.missing.append("duclosure.applicable")
    else:
        rebind(applicable, tracer.counting("applicable", applicable, _applicable))

    for clsname in TRACE_EXPRS:
        cls = getattr(modules["ncroots.pseudoroots"], clsname, None)
        if cls is None or "eval" not in cls.__dict__:
            tracer.missing.append(f"pseudoroots.{clsname}.eval")
            continue
        cls.eval = tracer.wrap("pseudoroots.trace_eval", cls.__dict__["eval"], reentrant=False)

    # cli serializes its output with json.dumps; give it a json whose dumps is timed
    cli = modules["ncroots.cli"]
    real_json = getattr(cli, "json", None)
    if real_json is None:
        tracer.missing.append("cli.json")
        return
    proxy = types.ModuleType("json")
    proxy.__dict__.update(vars(real_json))
    proxy.dumps = tracer.wrap("cli.json_io", real_json.dumps)
    cli.json = proxy


# per-layer metric -> (unit, better); "calls" and "self_s" are per timed op
PER_LAYER = {
    "exact_linalg.mul.calls": ("calls/op", "lower"),
    "exact_linalg.mul.self_s": ("s/op", "lower"),
    "exact_linalg.inv.calls": ("calls/op", "lower"),
    "exact_linalg.inv.self_s": ("s/op", "lower"),
    "exact_linalg.inv.dim_mean": ("rows", "lower"),
    "exact_linalg.inv.input_bits_max": ("bits", "lower"),
    "pseudoroots.is_generic.self_s": ("s/op", "lower"),
    "pseudoroots.quasidet.calls": ("calls/op", "lower"),
    "pseudoroots.quasidet.self_s": ("s/op", "lower"),
    "pseudoroots.quasidet_per_entry": ("ratio", "lower"),
    "pseudoroots.canonical_polynomial.self_s": ("s/op", "lower"),
    "pseudoroots.build_table.self_s": ("s/op", "lower"),
    "pseudoroots.labeled_completion.self_s": ("s/op", "lower"),
    "pseudoroots.labeled_completion.steps": ("steps/call", "lower"),
    "pseudoroots.labeled_completion.skipped": ("steps/call", "lower"),
    "pseudoroots.conj_ops.calls": ("calls/op", "lower"),
    "pseudoroots.trace_eval.self_s": ("s/op", "lower"),
    "ncpoly.mul.calls": ("calls/op", "lower"),
    "ncpoly.mul.self_s": ("s/op", "lower"),
    "ncpoly.left_divide_linear.calls": ("calls/op", "lower"),
    "ncpoly.left_divide_linear.self_s": ("s/op", "lower"),
    "duclosure.completion.self_s": ("s/op", "lower"),
    "duclosure.completion.steps": ("steps/call", "lower"),
    "duclosure.completion.derived_edges": ("edges/call", "lower"),
    "duclosure.applicable.calls": ("calls/op", "lower"),
    "duclosure.pair_yield": ("ratio", "higher"),
    "duclosure.lex_path.self_s": ("s/op", "lower"),
    "duclosure.is_ample.self_s": ("s/op", "lower"),
    "digraph.from_json.self_s": ("s/op", "lower"),
    "digraph.descendants.calls": ("calls/op", "lower"),
    "digraph.descendants.self_s": ("s/op", "lower"),
    "hasse.boolean_lattice.self_s": ("s/setup", "lower"),
    "divisor_graph.build.self_s": ("s/op", "lower"),
    "divisor_graph.division_yield": ("ratio", "higher"),
    "divisor_graph.vertices": ("vertices/call", "lower"),
    "cli.json_io.self_s": ("s/op", "lower"),
    "cli.op.self_s": ("s/op", "lower"),
    "trace.throughput_ops_s": ("ops/s", "higher"),
}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(tracer: Tracer, ops: int, throughput: float) -> dict:
    """Per-layer metric values of a traced run over ``ops`` timed ops."""
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s") and layer != "duclosure.applicable":
            calls, self_s = tracer.total("ops", layer)
            values[name] = _ratio(calls if field == "calls" else self_s, ops)
    c = tracer.counter
    inv_calls = tracer.total("ops", "exact_linalg.inv")[0]
    lab_calls = tracer.total("ops", "pseudoroots.labeled_completion")[0]
    comp_calls = tracer.total("ops", "duclosure.completion")[0]
    values.update({
        "exact_linalg.inv.dim_mean": _ratio(c("inv.dim_sum"), inv_calls),
        "exact_linalg.inv.input_bits_max": float(c("inv.input_bits_max")),
        "pseudoroots.quasidet_per_entry": _ratio(tracer.total("ops", "pseudoroots.quasidet")[0],
                                                 c("pseudoroots.table_entries")),
        "pseudoroots.labeled_completion.steps": _ratio(c("labeled_completion.steps"), lab_calls),
        "pseudoroots.labeled_completion.skipped": _ratio(c("labeled_completion.skipped"), lab_calls),
        "duclosure.completion.steps": _ratio(c("completion.steps"), comp_calls),
        "duclosure.completion.derived_edges": _ratio(c("completion.derived_edges"), comp_calls),
        "duclosure.applicable.calls": _ratio(c("applicable.calls"), ops),
        "duclosure.pair_yield": _ratio(c("applicable.yield"), c("applicable.calls")),
        "hasse.boolean_lattice.self_s": tracer.total("setup", "hasse.boolean_lattice")[1],
        "divisor_graph.division_yield": _ratio(c("division.exact"), c("division.attempts")),
        "divisor_graph.vertices": _ratio(c("divisor_graph.vertices"),
                                         tracer.total("ops", "divisor_graph.build")[0]),
        "trace.throughput_ops_s": throughput,
    })
    return values
