"""One benchmark pass in a fresh interpreter, so every cache starts cold.

    python3 perfbench/worker.py --setup
        imports flatknots, loads the bundled catalog, prints "ready".
    python3 perfbench/worker.py --workload W --seed S [--trace]
        runs one pass of workload W and prints one JSON line: the pass wall
        time, each item's latency and error, the peak resident memory and,
        with --trace, the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = Path(__file__).resolve().parent / "out"


def load_oracles():
    spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_pass(workload: str, seed: str, trace: bool) -> dict:
    import flatknots as fk

    fk.load_corpus()
    importlib.import_module("flatknots.cli")
    import workloads
    from tracer import Tracer

    items = workloads.build(workload, fk, load_oracles(), ROOT, seed)
    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    try:
        outcomes, outputs, wall = workloads.run_items(items)
    finally:
        if tracer:
            tracer.uninstall()
    rss = peak_rss_mb()
    result = {"wall_s": wall, "peak_rss_mb": rss}
    if tracer:
        result["layers"] = tracer.metrics()
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans_{workload}.bin")
    workloads.check_items(items, outcomes, outputs)
    result["items"] = [[o.kind, o.seconds, o.error] for o in outcomes]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup", action="store_true")
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup:
        import flatknots

        flatknots.load_corpus()
        print("ready", flush=True)
        return 0
    print(json.dumps(run_pass(args.workload, args.seed, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
