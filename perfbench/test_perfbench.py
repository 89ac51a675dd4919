"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import flatknots as fk  # noqa: E402
import flatknots.cli  # noqa: E402,F401  (the search workload calls fk.cli.main)
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import load_oracles  # noqa: E402

ORACLES = load_oracles()
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_pass(workload: str, seed: str = "self-test"):
    items = workloads.build(workload, fk, ORACLES, ROOT, seed, "tiny")
    outcomes, outputs, _ = workloads.run_items(items)
    workloads.check_items(items, outcomes, outputs)
    return outcomes


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_pass_is_correct(workload):
    outcomes = tiny_pass(workload)
    assert outcomes
    assert [o.error for o in outcomes] == [None] * len(outcomes)


def test_corrupted_expected_answer_counts_as_failed(monkeypatch):
    monkeypatch.setitem(workloads.CENSUS_COUNTS, 4, 2)
    outcomes = tiny_pass("census")
    passes = [{"items": [[o.kind, o.seconds, o.error] for o in outcomes]}]
    attempted, errors = run.count_failures(passes)
    assert (attempted, len(errors)) == (1, 1)
    assert "census(4)" in errors[0]


def test_raised_error_counts_as_failed():
    outcomes, outputs, _ = workloads.run_items([workloads.Item("boom", lambda: 1 // 0, lambda r: None)])
    assert outputs == [None]
    assert outcomes[0].error.startswith("ZeroDivisionError")


def test_missing_counter_source_reads_null(monkeypatch):
    monkeypatch.delattr(fk.words, "_canonical_cached")
    monkeypatch.delattr(fk.moves, "find_sites")
    t = tracer.Tracer()
    t.install()
    try:
        fk.cross_chord_number(("a", "b", "a", "b"))
    finally:
        t.uninstall()
    metrics = t.metrics()
    assert metrics["words.canonical.cache_hit_ratio"] is None
    assert metrics["moves.find_sites.calls"] is None
    assert metrics["moves.sites_found"] is None
    assert metrics["invariants.cross_chord_number.calls"] == 1
    assert metrics["moves.apply_move.calls"] == 0


def test_tracer_wraps_every_binding_and_restores_them():
    original = fk.words.canonical
    t = tracer.Tracer()
    t.install()
    try:
        assert fk.canonical is fk.words.canonical is fk.embedding.canonical
        assert fk.words.canonical is not original
        fk.is_realizable(("a", "b", "c", "a", "b", "c"))
    finally:
        t.uninstall()
    assert fk.canonical is fk.words.canonical is fk.embedding.canonical is original
    metrics = t.metrics()
    assert metrics["embedding.is_realizable.calls"] == 1
    assert metrics["words.canonical.calls"] >= 1
    assert metrics["embedding.accept_ratio"] == 1.0
    names = [t.names[i] for i in t.span_name]
    assert names[0] == "embedding.is_realizable"
    assert "words.canonical" in names
    assert all(parent < index for index, parent in enumerate(t.span_parent))


def test_benchmark_json_matches_the_code():
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    wanted = {m["name"] for m in SPEC["per_layer"]} - {"trace_overhead_s"}
    assert set(t.metrics()) == wanted
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_the_contract_result(trace, section):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "statesum", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC[section]]


def test_run_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
