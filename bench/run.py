"""groverweight benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload plane-sweep --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  With --trace 0 the workload's operations run
back to back in a closed loop (one client, one thread) for --seconds
seconds, in whole rounds, and the end-to-end metrics are reported.  With
--trace 1 a fixed number of rounds runs twice, untraced and then with
spans around every layer call, and the per-layer metrics are reported.
Every result is checked outside the timed region.  Human-readable lines
come first; the last line of stdout is one JSON object.  Result and span
files go to bench/out/.  Exit status: 0 when every operation passed its
check, 1 when one failed, 2 when the checkout holds no source.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "groverweight" / "__init__.py"
OUT = Path(__file__).resolve().parent / "out"

if __name__ == "__main__":
    # One worker thread: no Monte Carlo fan-out, no BLAS/OpenMP thread
    # pools.  Set before numpy is imported; children inherit it.
    os.environ.pop("GROVERWEIGHT_THREADS", None)
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

if PACKAGE.is_file():
    import spans
    import workloads  # imports groverweight from ./src

SETUP_PROBES = 7       # at least this many fresh processes timed for setup_s
START_PROBES = 7       # fresh processes timed for cli.interp_s and cli.import_s
TRACE_ROUNDS = {"cli-session": 2, "plane-sweep": 1, "full-state": 1}

END_TO_END = (
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
    ("setup_s", "s"),
)

NOTES = (
    "n = 20 state vector is 16 MiB, far below 4x the last-level cache, so statevector numbers are cache-resident",
    "bandwidth and roofline ratios are not reported: the peak bandwidth of a shared VM cannot be measured",
    "statevector.amp_bytes_computed is computed from array sizes (16 B/amplitude, read+write per operator), not measured",
)


def monotonic() -> float:
    """System-wide clock, comparable between this process and its children."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def machine() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpu_model": "unknown",
        "llc": "unknown",
        "python": platform.python_version(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [(int((d / "level").read_text()), (d / "size").read_text().strip()) for d in caches.glob("index*")]
        info["llc"] = max(levels)[1]
    except (OSError, ValueError):
        pass
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    info["git_commit"] = _git_commit()
    return info


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref:"):
            return ref
        name = ref.split(None, 1)[1]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def run_op(op, failures: list, tracer=None) -> float:
    """Time one operation, then check it; return the latency in seconds.

    With a tracer, the call (not the check) is recorded as one op span.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op.call()
        else:
            with tracer.recording(f"op.{op.family}"):
                result = op.call()
    except Exception:
        elapsed = time.perf_counter() - start
        failures.append(f"{op.family} {op.desc[:4]}: raised\n{traceback.format_exc()}")
        return elapsed
    elapsed = time.perf_counter() - start
    try:
        reason = op.check(result)
    except Exception:
        reason = f"check raised\n{traceback.format_exc()}"
    if reason:
        failures.append(f"{op.family}: {reason}")
    return elapsed


def measure(workload: str, seed: int, seconds: float, first_round) -> dict:
    """Whole rounds until `seconds` of wall time, set-up probes excluded, have passed.

    One set-up probe runs after each round, outside the timed operations,
    so that setup_s samples the same stretch of time as the operations.
    """
    latencies: list[float] = []
    failures: list[str] = []
    setups: list[float] = []
    child_peak_kib = 0
    ops, round_index = first_round, 0
    begin = time.perf_counter()
    while True:
        latencies.extend(run_op(op, failures) for op in ops)
        child_peak_kib = max([child_peak_kib] + [op.peak_kib for op in ops])
        probe_start = time.perf_counter()
        setups.append(setup_seconds(workload, seed))
        begin += time.perf_counter() - probe_start
        if time.perf_counter() - begin >= seconds:
            break
        round_index += 1
        ops = workloads.make_round(workload, seed, round_index)
    while len(setups) < SETUP_PROBES:
        setups.append(setup_seconds(workload, seed))
    if workload == "cli-session":
        peak_kib = child_peak_kib
    else:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "metrics": {
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": deciles[8],
            "ops_per_s": len(latencies) / sum(latencies),
            "peak_rss_mb": peak_kib / 1024.0,
            "setup_s": statistics.median(setups),
        },
        "attempted": len(latencies),
        "failures": failures,
        "rounds": round_index + 1,
        "setup_samples": setups,
    }


def _child_seconds(argv: list[str], probes: int) -> list[float]:
    """Wall time of fresh interpreters running argv, from spawn to exit."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=workloads.child_env(), check=True, capture_output=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def setup_seconds(workload: str, seed: int) -> float:
    """Process start to first timed operation, in a fresh process."""
    start = monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout.strip().splitlines()[-1]) - start


def traced(workload: str, seed: int, first_round) -> dict:
    """TRACE_ROUNDS rounds, each run untraced then traced."""
    tracer = spans.Tracer()
    failures: list[str] = []
    attempted = 0
    invocations = 0
    untraced_s = traced_s = 0.0
    for round_index in range(TRACE_ROUNDS[workload]):
        ops = first_round if round_index == 0 else workloads.make_round(workload, seed, round_index)
        if workload == "cli-session":
            # The subprocesses emit the reports that --verify reads; the
            # layers are traced through the same argv run in process.
            for op in ops:
                run_op(op, failures)
            attempted += len(ops)
            invocations += len(ops)
            ops = [workloads.in_process_op(inv) for inv in workloads.cli_cycle(seed, round_index)]
            # Warm pass: the first in-process run of each command pays
            # one-off costs that would otherwise count against the untraced pass.
            for op in ops:
                run_op(op, failures)
            attempted += len(ops)
        untraced_s += sum(run_op(op, failures) for op in ops)
        with spans.patched(tracer):
            for op_id, op in enumerate(ops):
                tracer.op = f"{round_index}.{op_id}"
                traced_s += run_op(op, failures, tracer)
        attempted += 2 * len(ops)
    interp = statistics.median(_child_seconds([sys.executable, "-c", "pass"], START_PROBES))
    imported = statistics.median(_child_seconds([sys.executable, "-c", "import groverweight.cli"], START_PROBES))
    extra = {
        "cli.interp_s": interp,
        "cli.import_s": imported - interp,
        "bench.trace_overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
    }
    if workload == "cli-session":
        extra["cli.invocations"] = invocations
    return {
        "metrics": spans.layer_metrics(tracer, extra),
        "attempted": attempted,
        "failures": failures,
        "tracer": tracer,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli-session", "plane-sweep", "full-state"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up and print the monotonic clock (used for setup_s)")
    args = parser.parse_args(argv)
    if not PACKAGE.is_file():
        print(f"no groverweight source at {PACKAGE.relative_to(ROOT)}; run from a source checkout",
              file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    first_round = workloads.make_round(args.workload, args.seed, 0)
    if args.setup_only:
        print(repr(monotonic()))
        return 0

    if args.trace:
        result = traced(args.workload, args.seed, first_round)
        units = {name: unit for name, unit, *_ in spans.LAYER_METRICS}
    else:
        result = measure(args.workload, args.seed, args.seconds, first_round)
        units = dict(END_TO_END)

    info = machine()
    failed = len(result["failures"])
    attempted = result["attempted"]
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": info,
        "notes": NOTES,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted,
        "metrics": result["metrics"],
        "failures": result["failures"],
    }
    if args.trace:
        tracer = result["tracer"]
        tracer.write(OUT / f"spans-{stem}.jsonl")
        record["self_times"] = spans.self_times(tracer.spans)
        record["trace_overhead"] = {"untraced_s": result["untraced_s"], "traced_s": result["traced_s"]}
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for key, value in info.items():
        print(f"# machine {key}: {value}")
    for note in NOTES:
        print(f"# note: {note}")
    for message in result["failures"]:
        print(f"# FAILED {message}")
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, failed_fraction {failed / attempted:.6g}")
    if args.trace:
        print(f"# trace overhead: untraced {result['untraced_s']:.4f} s, traced {result['traced_s']:.4f} s")
        families = {name[3:]: total for name, (_, total, _) in record["self_times"].items() if name.startswith("op.")}
        print("# family time shares (traced): " + ", ".join(
            f"{name} {100 * total / sum(families.values()):.1f}%" for name, total in sorted(families.items())))
        for name, unit, moves, on in spans.LAYER_METRICS:
            print(f"# {name} = {result['metrics'][name]:.6g} {unit}   (should move {moves} on {on})")
    else:
        print(f"# latency samples {attempted} over {result['rounds']} rounds; "
              f"setup samples {', '.join(f'{s:.4f}' for s in result['setup_samples'])}")
        for name, unit in END_TO_END:
            print(f"# {name} = {result['metrics'][name]:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in result["metrics"].items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
