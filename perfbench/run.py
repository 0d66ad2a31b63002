#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the ncroots command line.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload factor|closure|derive --seed N \
        --seconds S --trace 0|1

One process, one thread, a closed loop with one client: each op is one
in-process call to ``ncroots.cli.main(argv)`` on input files written
during set-up, so interpreter start-up and ``import ncroots`` are paid
once, in ``setup_s``. The package is imported from ``src/`` of the
checkout that holds this script, never from an installed copy.

With ``--trace 0`` no wrapper is installed and the end-to-end metrics are
reported; with ``--trace 1`` every module entry point is wrapped in a
span and the per-layer metrics are reported instead. Every op's output
is checked exactly, outside the timed interval, by ``oracle.py``. Times
are scaled to a reference host speed measured during the run (see
``reference``). The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib.util  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Untraced runs set up this many times and report the median: once before
# the timed phase, then evenly spread over it.
SETUP_PASSES = 3
# Reported times are scaled to a host on which reference() takes this long.
# A shared host's speed drifts (by up to 1.7x, for tens of seconds at a
# time, on a shared 2-vCPU Xeon) by the same factor for every op class; the
# reference, timed after every op, tracks that drift. NOTES.md has the
# figures. Raw times are printed as well.
REFERENCE_S = 0.002
# Input pools hold this many cycles per class; a longer run wraps around.
POOL_CYCLES = {"factor": 12, "closure": 16, "derive": 8}
# Stop mid-cycle past this wall time, so a run always ends within 180 s.
WALL_LIMIT_S = 150.0
# A rarely failing op prints this many problems to stderr.
MAX_REPORTED = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=["factor", "closure", "derive"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True,
                   help="op time to measure; the timed phase runs whole cycles until it is reached")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    return p.parse_args(argv)


def import_checkout():
    """Import ncroots from this checkout's src/; exit with an error if it is not there."""
    if not (SRC / "ncroots" / "__init__.py").is_file():
        sys.exit(f"error: no ncroots package under {SRC}")
    sys.path.insert(0, str(SRC))
    import ncroots
    if Path(ncroots.__file__).resolve().parent != SRC / "ncroots":
        sys.exit(f"error: imported ncroots from {ncroots.__file__}, not from {SRC}")
    return ncroots


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ")[0]
    return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(ncroots):
    env = {
        "ncroots_file": ncroots.__file__,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }
    if importlib.util.find_spec("ncroots.backend") is not None:
        backend = importlib.import_module("ncroots.backend")
        env["kernel_backend"] = backend.kernels.name
    return env


def reference():
    """Seconds taken by a fixed CPU-bound snippet (Fraction arithmetic, a
    dict, a sort), with the garbage collector off so that the program's
    heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc, table = Fraction(0), {}
        for i in range(1, 300):
            acc += Fraction(i, i + 7) * Fraction(3, i)
            table[str(acc.denominator % 9973)] = i
        sorted(table.items())
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def call(main, op):
    """Run one op; returns (exit code or None, seconds, output text, error text)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = main(list(op.argv))
        except SystemExit as exc:  # argparse rejected the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # the op failed; the run goes on
            rc = None
            err.write(f"{type(exc).__name__}: {exc}")
        seconds = time.perf_counter() - start
    return rc, seconds, out.getvalue(), err.getvalue()


def verdict(op, rc, text, err):
    """Problems with one op's result, checked exactly and independently."""
    if rc is None:
        return [f"raised {err.strip()}"]
    if rc not in op.ok_codes:
        return [f"exit code {rc}: {err.strip()[:200]}"]
    if op.out is not None:
        text = Path(op.out).read_text()
    try:
        return op.check(rc, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def set_up(workload, seed, work, size, main):
    """Write the inputs and run the warm-up ops; returns (workload, seconds)."""
    start = time.perf_counter()
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cycles = 2 if size == "tiny" else POOL_CYCLES[workload]
    wl = workloads.WORKLOADS[workload](seed, work, cycles, tiny=size == "tiny")
    for op in wl.warmup:
        rc, _, text, err = call(main, op)
        problems = verdict(op, rc, text, err)
        if problems:
            print(f"warm-up op {op.argv[0]} failed: {problems[0]}", file=sys.stderr)
    return wl, time.perf_counter() - start


def percentile(values, q):
    """Linear interpolation between closest ranks (statistics 'inclusive')."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] if len(values) > 1 else values[0]


def run(args):
    ncroots = import_checkout()
    import_s = time.perf_counter() - T0
    from ncroots import cli

    env = environment(ncroots)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    tracer = None
    main = cli.main
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
        main = tracer.wrap("cli.op", cli.main)

    try:
        wl, seconds = set_up(args.workload, args.seed, work, args.size, main)
        passes = [seconds]
        repeats = 0 if args.trace else SETUP_PASSES - 1

        classes, failed, problems = [], 0, []
        digest, digest_ops = hashlib.sha256(), 0
        busy = 0.0
        cycles = []  # per cycle: raw op seconds, reference seconds, whether whole
        while busy < args.seconds and time.perf_counter() - T0 < WALL_LIMIT_S:
            raw, refs, whole = [], [], False
            for op in wl.cycle_ops(len(cycles)):
                if tracer is not None:
                    tracer.op = len(classes)
                rc, seconds, text, err = call(main, op)
                if tracer is not None:
                    tracer.op = tracing.SETUP
                raw.append(seconds)
                classes.append(op.cls)
                busy += seconds
                refs.append(reference())
                found = verdict(op, rc, text, err)
                if found:
                    failed += 1
                    problems.extend(f"{op.cls} {' '.join(op.argv)}: {p}" for p in found[:1])
                if not cycles:
                    body = Path(op.out).read_bytes() if op.out is not None and rc is not None else text.encode()
                    digest.update(f"{op.cls}\0{rc}\0".encode() + body + b"\0")
                    digest_ops += 1
                if time.perf_counter() - T0 > WALL_LIMIT_S:
                    break
            else:
                whole = True
            cycles.append((raw, refs, whole))
            while len(passes) <= repeats and (busy >= args.seconds * len(passes) / repeats
                                              or time.perf_counter() - T0 > WALL_LIMIT_S):
                passes.append(set_up(args.workload, args.seed, work, args.size, main)[1])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()

    # Each cycle's times are scaled by that cycle's reference median, so a
    # host whose speed changes during the run is followed cycle by cycle.
    scales = [REFERENCE_S / statistics.median(refs) for _, refs, _ in cycles]
    scale = REFERENCE_S / statistics.median(r for _, refs, _ in cycles for r in refs)
    raw = [t for times, _, _ in cycles for t in times]
    latencies = [t * k for (times, _, _), k in zip(cycles, scales) for t in times]
    ops = len(latencies)
    # Ops per second of a median cycle: every cycle has the same class mix,
    # and the median keeps one unusually costly input from moving the rate.
    cycle_s = [sum(times) * k for (times, _, whole), k in zip(cycles, scales) if whole]
    throughput = len(wl.cycle) / statistics.median(cycle_s) if cycle_s else ops / sum(latencies)
    print(f"# ncroots benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} size={args.size}")
    print(f"# env: {json.dumps(env)}")
    print(f"# cycle: {len(wl.cycle)} ops, classes {dict(sorted((c, wl.cycle.count(c)) for c in set(wl.cycle)))}")
    print(f"# digest of the first cycle ({digest_ops} ops): {digest.hexdigest()}")
    by_class = {}
    for cls, seconds in zip(classes, latencies):
        by_class.setdefault(cls, []).append(seconds)
    print("# per-class median ms: " + ", ".join(
        f"{cls} {statistics.median(v) * 1e3:.1f} (n={len(v)})"
        for cls, v in sorted(by_class.items(), key=lambda kv: statistics.median(kv[1]))))
    print(f"# wall time so far: {time.perf_counter() - T0:.1f} s")
    for p in problems[:MAX_REPORTED]:
        print(f"FAILED {p}", file=sys.stderr)

    if tracer is None:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        print(f"# host: reference took {REFERENCE_S / scale * 1e3:.3f} ms (median of {ops}); "
              f"times are scaled by {min(scales):.4f} to {max(scales):.4f} per cycle, {scale:.4f} overall")
        metrics = {
            "throughput_ops_s": (throughput, "ops/s", f"{ops} ops in {busy:.3f} s raw, median of "
                                                     f"{len(cycle_s)} cycles"),
            "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms",
                               f"n={ops}; raw {percentile(raw, 50) * 1e3:.4g}"),
            "latency_p90_ms": (percentile(latencies, 90) * 1e3, "ms",
                               f"n={ops}; raw {percentile(raw, 90) * 1e3:.4g}"),
            "setup_s": ((import_s + statistics.median(passes)) * scale, "s",
                        f"raw: import {import_s:.3f} s + median of {len(passes)} set-ups "
                        + str([round(t, 3) for t in passes])),
            "peak_rss_mb": (rss_mb, "MB", "whole process"),
        }
        print(f"{'error_rate':42s} {failed / ops:14.6g} {'ratio':13s} {failed} of {ops} ops")
    else:
        tracer.dump(ROOT / ".perfbench_out", f"{args.workload}-seed{args.seed}")
        values = tracing.per_layer(tracer, ops, throughput)
        metrics = {name: (values[name] * (scale if unit.startswith("s/") else 1), unit, "")
                   for name, (unit, _) in tracing.PER_LAYER.items()}
        print(f"# spans: {len(tracer.span_start)} kept, {tracer.dropped} dropped; "
              f"written to .perfbench_out/{args.workload}-seed{args.seed}.spans.*")
        if tracer.missing:
            print(f"# entry points not found (metrics read 0): {tracer.missing}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name:42s} {value:14.6g} {unit:13s} {note}")
    result = {
        "correct": failed == 0,
        "attempted": ops,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    run(parse_args())
