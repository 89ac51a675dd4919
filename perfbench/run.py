"""Benchmark of flatknots: four seeded workloads, end to end and per layer.

    python3 perfbench/run.py --workload census|search|statesum|realize \\
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Each pass runs in a fresh
interpreter (perfbench/worker.py), one at a time, so the library's
caches start cold as they do for a command-line user.  Passes repeat
while the next one is predicted to end within --seconds; at least one
always runs.  The inputs come from (workload, seed) alone, so every pass
of a run does the same work.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
runs each pass twice, untraced then traced, and reports the per-layer
metrics plus the tracing overhead.  Every output is checked against the
oracles in tests/oracles.py; a failed check or a raised error counts in
"failed" and makes the exit code 1.  The last line of stdout is one JSON
object; a full record of the run is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 21
PASS_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def percentile(values, q: float) -> float:
    """Linear interpolation between order statistics (q in [0, 1])."""
    data = sorted(values)
    pos = q * (len(data) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def setup_time() -> float:
    """Interpreter start, import flatknots and load_corpus(), in seconds."""
    start = time.perf_counter()
    with subprocess.Popen(
        [sys.executable, str(WORKER), "--setup"], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise BenchError("setup probe failed")
    return elapsed


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--trace")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"a pass of {workload} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool):
    """Untraced passes, and with ``trace`` a traced twin of each."""
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        group_start = time.perf_counter()
        untraced.append(run_pass(workload, seed, False))
        if trace:
            traced.append(run_pass(workload, seed, True))
        now = time.perf_counter()
        if now - started + (now - group_start) > seconds:
            return untraced, traced


def count_failures(passes):
    items = [item for p in passes for item in p["items"]]
    errors = [f"{kind}: {error}" for kind, _, error in items if error]
    return len(items), errors


def item_percentile_ms(passes, q: float) -> float:
    """Median over passes of each pass's item latency percentile.

    Taken per pass, so the result does not depend on how many passes fit
    in the run.
    """
    per_pass = [percentile([seconds for _, seconds, _ in p["items"]], q) for p in passes]
    return statistics.median(per_pass) * 1000.0


def end_to_end(passes, setup_samples) -> dict:
    return {
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "item_p50_ms": item_percentile_ms(passes, 0.5),
        "item_p90_ms": item_percentile_ms(passes, 0.9),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_samples),
    }


def per_layer(untraced, traced) -> dict:
    """Median of each per-layer metric over the traced passes."""
    out = {}
    for name in traced[0]["layers"]:
        values = [p["layers"][name] for p in traced if p["layers"][name] is not None]
        out[name] = statistics.median(values) if values else None
    out["trace_overhead_s"] = statistics.median(p["wall_s"] for p in traced) - statistics.median(
        p["wall_s"] for p in untraced
    )
    return out


def machine_record(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    sources = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
    }


def check_checkout() -> dict:
    needed = [ROOT / "src" / "flatknots" / "__init__.py", ROOT / "tests" / "oracles.py", ROOT / "BENCHMARK.json"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        raise BenchError("not a flatknots checkout, missing: " + ", ".join(missing))
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def parse_args(argv):
    parser = argparse.ArgumentParser(description="flatknots benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        spec = check_checkout()
        record = machine_record(args.workload, args.seed, args.seconds, args.trace)
        setup_samples = [] if args.trace else [setup_time() for _ in range(SETUP_PROBES)]
        untraced, traced = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        measured, wanted, note = per_layer(untraced, traced), spec["per_layer"], f"{len(traced)} traced passes"
    else:
        measured, wanted, note = end_to_end(untraced, setup_samples), spec["end_to_end"], f"{len(untraced)} passes"
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}
    attempted, errors = count_failures(untraced + traced)

    print("record " + json.dumps(record))
    for name, metric in metrics.items():
        print(f"{name:36} {metric['value']!r:>24} {metric['unit']}")
    print(f"{'failed_frac':36} {len(errors) / attempted!r:>24} ({len(errors)} of {attempted} items, {note})")
    for error in errors:
        print(f"FAILED {error}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    full = {"record": record, "metrics": metrics, "setup_samples_s": setup_samples,
            "passes": untraced, "traced_passes": traced, "errors": errors}
    name = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")

    result = {"correct": not errors, "attempted": attempted, "failed": len(errors), "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main())
