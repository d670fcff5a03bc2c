#!/usr/bin/env python3
"""Benchmark of the weylppav CLI: one command prints every number.

Run from the repository root:

    python3 perfbench/run.py --workload rank-queries --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10
    python3 perfbench/run.py --self-test

A workload run is one closed loop with a single caller: it generates its
inputs from the seed, imports ``weylppav.cli`` from ``src/`` and calls
``main(argv)`` in-process with stdout captured, running whole decks of
operations until ``--seconds`` have passed (and, for the query workloads,
at least 100 operations are done). Outputs are checked after the loop.
Every reported time is in seconds of a nominal machine: measured times
are divided by the duration of a fixed reference computation timed
alongside them (see ``refclock.py``), because the speed of a shared
machine swings by a third within a run and between runs.
The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. The exit code is
nonzero when any output check failed.

``--workload all`` runs every workload in its own fresh process, untraced
and traced, and reports the tracing overhead as the traced median
operation time over the untraced one. ``--self-test`` runs every workload
on a tiny input and asserts that every metric is emitted and that a
corrupted output is counted and fails the run.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "_work"
sys.path.insert(0, str(HERE))

from refclock import NOMINAL_SECONDS, REFERENCE_SOURCE, RefClock  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Imports timed before and after the timed loop, so that one slow phase of
# the machine does not hold them all.
SETUP_RUNS = 6
# A fresh interpreter times the reference computation around the import,
# so the import's time can be stated in refs; it imports nothing else.
IMPORT_CLI = REFERENCE_SOURCE + """
import time
def ref_times(k):
    ts = []
    for _ in range(k):
        t = time.perf_counter()
        reference()
        ts.append(time.perf_counter() - t)
    return ts
for _ in range(5):
    reference()
before = ref_times(7)
t = time.perf_counter()
import weylppav.cli
t = time.perf_counter() - t
refs = sorted(before + ref_times(7))
print(t, (refs[6] + refs[7]) / 2)
"""


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def import_times(runs: int) -> list:
    """(seconds, reference seconds) of a fresh interpreter importing weylppav.cli,
    once per run."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(runs):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CLI], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, ref = map(float, proc.stdout.split())
        times.append((seconds, ref))
    return times


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import weylppav
    return {"python": platform.python_version(),
            "using_compiled": weylppav.USING_COMPILED,
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "commit": git_commit(),
            "seed": seed}


def run_op(cli_main, argv, clock):
    """One CLI call with stdout and stderr captured.

    Returns (rc, stdout, (start, end, seconds)), where seconds leaves out
    the time the reference clock's handler took inside the call.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        spent = clock.spent
        t0 = perf_counter()
        try:
            rc = cli_main(list(argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = "exception: " + traceback.format_exc(limit=3)
        t1 = perf_counter()
        spent = clock.spent - spent
    return rc, out.getvalue(), (t0, t1, t1 - t0 - spent)


def drive(cli_main, decks, seconds: float, min_ops: int, rounds: int, clock, tracer=None):
    """Closed loop with one caller.

    The first round runs whole decks until seconds/rounds have passed and
    min_ops operations are done; later rounds run the same decks again.
    Returns every execution (op, rc, stdout), each operation's timings
    (one (start, end, seconds) per round), and the number of decks in a
    round.
    """
    executions, timings = [], []
    start = perf_counter()
    count = 0
    while True:
        for op in decks[count % len(decks)]:
            if tracer is not None:
                tracer.op = len(executions)
            rc, out, timing = run_op(cli_main, op.argv, clock)
            executions.append((op, rc, out))
            timings.append([timing])
        count += 1
        if perf_counter() - start >= seconds / rounds and len(timings) >= min_ops:
            break
    for _ in range(rounds - 1):
        i = 0
        for d in range(count):
            for op in decks[d % len(decks)]:
                if tracer is not None:
                    tracer.op = len(executions)
                rc, out, timing = run_op(cli_main, op.argv, clock)
                executions.append((op, rc, out))
                timings[i].append(timing)
                i += 1
    return executions, timings, count


def load_digests() -> dict:
    with open(HERE / "digests.json") as handle:
        return json.load(handle)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, corrupt: bool = False):
    """One workload run. Returns (result, report lines)."""
    spec = WORKLOADS[name]
    digests = load_digests()
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        decks = spec["decks"](seed, str(workdir), tiny)
        setup_runs = 0 if trace else 2 if tiny else SETUP_RUNS
        # The first import writes the bytecode caches, as a first invocation would.
        setup_times = import_times(setup_runs + 1)[1:] if setup_runs else []
        from weylppav import cli
        env = environment(seed)
        tracer = Tracer().install() if trace else None
        try:
            wall = perf_counter()
            with RefClock() as clock:
                executions, timings, deck_count = drive(
                    cli.main, decks, seconds, 1 if tiny else spec["min_ops"], spec["rounds"],
                    clock, tracer)
            wall = perf_counter() - wall
        finally:
            if tracer is not None:
                tracer.uninstall()
        setup_times += import_times(setup_runs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if corrupt:
        # Change one digit of the first output that has one.
        i = next(i for i, e in enumerate(executions) if any(c.isdigit() for c in e[2]))
        op, rc, out = executions[i]
        j = next(j for j, c in enumerate(out) if c.isdigit())
        executions[i] = (op, rc, out[:j] + str((int(out[j]) + 1) % 10) + out[j + 1:])
    failures = []
    for i, (op, rc, out) in enumerate(executions):
        problem = spec["check"](op, rc, out, digests)
        if problem:
            failures.append(f"op {i} {' '.join(op.argv)}: {problem}")

    # An operation's latency is the median over rounds of its time in
    # seconds of the nominal machine (see refclock.py).
    latencies = [statistics.median(clock.nominal(net, t0, t1) for t0, t1, net in ts)
                 for ts in timings]
    p50 = quantile(latencies, 0.5) * 1000
    p90 = quantile(latencies, 0.9) * 1000
    ops_per_s = len(latencies) / sum(latencies)
    measured = [statistics.median(net for _, _, net in ts) for ts in timings]
    if trace:
        tracer.counters["cli.bytes_out"] = sum(len(e[2].encode()) for e in executions)
        metrics = tracer.layer_metrics()
        metrics.update({"trace.calls": (len(executions), "count"),
                        "trace.op_p50_ms": (p50, "ms"),
                        "trace.ops_per_s": (ops_per_s, "1/s")})
        WORK.mkdir(exist_ok=True)
        tracer.write(WORK / f"spans-{name}-{seed}.jsonl")
    else:
        setup_s = statistics.median(t / ref * NOMINAL_SECONDS for t, ref in setup_times)
        metrics = {"setup_s": (setup_s, "s"),
                   "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
                   "op_p50_ms": (p50, "ms"),
                   "op_p90_ms": (p90, "ms"),
                   "ops_per_s": (ops_per_s, "1/s")}

    lines = [f"workload {name} seed {seed} trace {int(trace)}",
             "environment " + json.dumps(env, sort_keys=True),
             f"operations {len(latencies)} in {deck_count} deck(s), {spec['rounds']} round(s), "
             f"{len(executions)} calls in {wall:.3f} s",
             f"error_rate {len(failures) / len(executions):.6g} ({len(failures)} of {len(executions)})"]
    if name == "verify-catalog" and not trace:
        lines.append(f"verify_s {p50 / 1000:.6g} s (median of {len(latencies)} pass(es))")
    wall_line = (f"wall-clock op_p50 {quantile(measured, 0.5) * 1000:.6g} ms, "
                 f"op_p90 {quantile(measured, 0.9) * 1000:.6g} ms, "
                 f"reference {statistics.median(clock.seconds) * 1000:.6g} ms")
    if setup_times:
        wall_line += f", import {statistics.median(t for t, _ in setup_times):.6g} s"
    lines.append(wall_line + " (as measured, not in nominal seconds)")
    lines += [f"{k} {v:.6g} {unit}" for k, (v, unit) in metrics.items()]
    lines += [f"FAILED {f}" for f in failures[:20]]
    result = {"correct": not failures, "attempted": len(executions), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}}
    return result, lines


def run_all(seed: int, seconds: float) -> int:
    """Every workload in a fresh process, untraced then traced."""
    summary = {"environment": None, "workloads": {}}
    ok = True
    for name in WORKLOADS:
        entry = {"why": WORKLOADS[name]["why"]}
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            lines = proc.stdout.strip().splitlines()
            if not lines or not lines[-1].startswith("{"):
                print(proc.stderr, file=sys.stderr)
                return 1
            for line in lines[:-1]:
                print(line)
                if line.startswith("environment "):
                    summary["environment"] = json.loads(line[len("environment "):])
            result = json.loads(lines[-1])
            ok = ok and proc.returncode == 0 and result["correct"]
            entry["per_layer" if trace else "end_to_end"] = {
                k: m["value"] for k, m in result["metrics"].items()}
            entry["error_rate" if not trace else "traced_error_rate"] = (
                result["failed"] / result["attempted"])
        base = entry["end_to_end"]["op_p50_ms"]
        entry["tracing_overhead"] = entry["per_layer"]["trace.op_p50_ms"] / base - 1
        print(f"tracing_overhead {name} {entry['tracing_overhead']:+.2%} "
              f"(traced op_p50_ms over untraced)")
        summary["workloads"][name] = entry
    summary["correct"] = ok
    print(json.dumps(summary, sort_keys=True))
    return 0 if ok else 1


def self_test() -> int:
    """Tiny inputs: every metric is emitted; a corrupted output fails the run."""
    with open(ROOT / "BENCHMARK.json") as handle:
        bench = json.load(handle)
    expected = {0: {m["name"] for m in bench["end_to_end"]},
                1: {m["name"] for m in bench["per_layer"]}}
    for name in WORKLOADS:
        for trace in (0, 1):
            result, _ = run_workload(name, 7, 0.0, bool(trace), tiny=True)
            missing = expected[trace] - set(result["metrics"])
            assert not missing, f"{name} trace {trace}: missing {sorted(missing)}"
            assert result["correct"] and result["failed"] == 0, (name, trace, result)
        result, lines = run_workload(name, 7, 0.0, False, tiny=True, corrupt=True)
        assert not result["correct"] and result["failed"] >= 1, (name, result)
        assert exit_code(result) != 0
        assert any(line.startswith("error_rate ") and not line.startswith("error_rate 0 ")
                   for line in lines), lines
        print(f"self-test {name}: ok")
    print("self-test passed")
    return 0


def exit_code(result) -> int:
    return 0 if result["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "weylppav" / "cli.py").is_file():
        print(f"error: no weylppav sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload or --self-test is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    result, lines = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in lines:
        print(line)
    print(json.dumps(result))
    return exit_code(result)


if __name__ == "__main__":
    sys.exit(main())
