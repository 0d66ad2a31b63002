"""Tests of the benchmark itself, at tiny sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py
"""

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.rstrip("\n").split("\n")
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_metrics_and_no_errors(workload):
    lines, result = bench(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert any(line.split()[:2] == ["error_rate", "0"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    _, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    linalg = metrics["exact_linalg.inv.calls"] + metrics["exact_linalg.mul.calls"]
    closure = metrics["duclosure.applicable.calls"]
    if workload == "closure":
        assert linalg == 0 and metrics["duclosure.completion.self_s"] > 0
    if workload == "factor":
        assert closure == 0 and metrics["pseudoroots.quasidet.calls"] > 0
    if workload == "derive":
        assert linalg > 0 and closure > 0 and metrics["divisor_graph.vertices"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_digest(workload):
    def digest(seed):
        lines, _ = bench(workload, 0, seed)
        return next(line for line in lines if line.startswith("# digest"))

    assert digest(3) == digest(3)
    assert digest(3) != digest(4)


def _bump_first_entry(obj):
    """Add 1 to the first matrix entry found in a JSON document."""
    if isinstance(obj, dict):
        if "entries" in obj:
            row = obj["entries"][0]
            row[0] = str(Fraction(row[0]) + 1)
            return True
        return any(_bump_first_entry(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_bump_first_entry(v) for v in obj)
    return False


def _corrupt(command, rc, text):
    """One wrong entry in an output, and the exit code that goes with it."""
    if command in ("factor", "derive", "divisors"):
        doc = json.loads(text)
        if command == "factor":
            _bump_first_entry(doc["table"]["entries"][-1])
        elif command == "derive":
            _bump_first_entry(doc["factors"][0])
        else:
            _bump_first_entry(doc["labels"])
        return rc, json.dumps(doc)
    if command == "closure":
        doc = json.loads(text)
        doc["edges"].pop()
        return rc, json.dumps(doc)
    first, _, rest = text.partition("\n")
    if first.endswith("True"):
        return 1, first.replace("True", "False") + "\n"
    return 0, first.replace("False", "True") + "\n" + rest


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_output_is_caught(workload, tmp_path):
    if "ncroots" not in sys.modules:
        run.import_checkout()
    from ncroots import cli

    wl = workloads.WORKLOADS[workload](5, tmp_path, 1, tiny=True)
    for ops in wl.pools.values():
        op = ops[0]
        rc, _, text, err = run.call(cli.main, op)
        assert run.verdict(op, rc, text, err) == []
        if op.out is not None:
            text = Path(op.out).read_text()
        bad_rc, bad_text = _corrupt(op.argv[0], rc, text)
        if op.out is not None:
            Path(op.out).write_text(bad_text)
        assert run.verdict(op, bad_rc, bad_text, err), f"{op.cls}: corruption not caught"
