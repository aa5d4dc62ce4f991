"""Smoke tests of the benchmark itself, on the smoke size of each workload.

Run from the root of the repository::

    python -m pytest e2ebench -q

They check the benchmark's contract, not the program's speed: every
metric ``BENCHMARK.json`` names is printed with its unit, outputs are
checked, every layer of the layer table is seen and with ``untraced_s``
adds up to the traced wall, the residue stays small, and an injected
delay shows up in its own layer only.
"""

from __future__ import annotations

import functools
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in CONTRACT["workloads"]]
INJECT_MS = 1000.0


@functools.cache
def bench(workload: str, trace: int, inject: str | None = None):
    """Run one smoke-size benchmark; (printed result, full record)."""
    cmd = [
        sys.executable, "e2ebench/run.py", "--workload", workload,
        "--seed", "3", "--seconds", "1", "--trace", str(trace),
        "--size", "smoke",
    ]
    if inject is not None:
        cmd += ["--inject", inject, "--inject-ms", str(INJECT_MS)]
    done = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    printed = json.loads(done.stdout.strip().splitlines()[-1])
    results = (ROOT / ".e2ebench" / "results.jsonl").read_text()
    record = json.loads(results.strip().splitlines()[-1])
    assert record["workload"] == workload and record["trace"] == trace
    return printed, record


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    printed, record = bench(workload, trace)
    assert set(printed) == {"correct", "attempted", "failed", "metrics"}
    assert printed["correct"] is True, record["extra"]["problems"]
    assert printed["failed"] == 0
    assert printed["attempted"] >= 1
    listed = CONTRACT["per_layer" if trace else "end_to_end"]
    assert list(printed["metrics"]) == [entry["name"] for entry in listed]
    for entry in listed:
        metric = printed["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in printed["metrics"].values())


#: The most of a smoke run's traced wall that no named layer may
#: explain. Measured on a 2-vCPU x86-64 box: mine runs leave about
#: 0.12 s of 0.6 s (process start, argument parsing, printing the
#: rules), serve-stream about 0.4 s of a 5 s cycle (request drawing,
#: the stats round trip). A probe that stops firing pushes its
#: layer's time into the residue.
UNTRACED_SHARE = {
    "tall-paper": 0.35,
    "short-lowsup": 0.35,
    "serve-stream": 0.25,
}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_table_adds_up_to_the_traced_wall(workload):
    _, record = bench(workload, 1)
    table = dict(record["extra"]["layer_table"])
    wall = record["extra"]["traced_wall_s"]
    untraced = table.pop("untraced_s")
    assert 0 <= untraced < UNTRACED_SHARE[workload] * wall
    assert sum(table.values()) + untraced == pytest.approx(wall, abs=1e-9)
    silent = [layer for layer, seconds in table.items() if seconds <= 0]
    assert not silent, f"layers whose probe never fired: {silent}"
    assert "trace_overhead_s" in record["metrics"]


def test_traced_and_untraced_runs_agree_on_the_rules():
    _, record = bench("tall-paper", 1)
    assert record["correct"]
    assert record["attempted"] == 2  # one untraced, one traced run


def test_injected_delay_moves_only_its_own_layer():
    _, base = bench("short-lowsup", 1)
    _, slow = bench("short-lowsup", 1, "candidates")
    delay = INJECT_MS / 1000.0
    before, after = base["extra"]["layer_table"], slow["extra"]["layer_table"]
    assert after["candidates.gen_s"] - before["candidates.gen_s"] >= (
        0.9 * delay
    )
    for layer in before:
        if layer not in ("candidates.gen_s", "untraced_s"):
            assert abs(after[layer] - before[layer]) < 0.5 * delay, layer

    plain, _ = bench("short-lowsup", 0)
    injected, _ = bench("short-lowsup", 0, "candidates")
    moved = (
        injected["metrics"]["wall_s"]["value"]
        - plain["metrics"]["wall_s"]["value"]
    )
    assert moved >= 0.8 * delay
