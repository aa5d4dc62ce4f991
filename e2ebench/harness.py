"""Shared plumbing: checkout paths, inputs, child processes, statistics.

All files the benchmark writes live under ``.e2ebench/`` in the
checkout root (the directory it is run from): generated inputs, the
per-seed copies, child outputs and the appended ``results.jsonl``.
"""

from __future__ import annotations

import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".e2ebench"
LAUNCH = BENCH / "launch.py"
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


class Tally:
    """Operations attempted and failed, and what went wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, problem: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)

    def result(self, metrics: dict, extra: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
            "extra": {**extra, "problems": self.problems},
        }


def check_checkout() -> None:
    if not (SRC / "repro" / "cli.py").is_file():
        raise BenchError(
            f"no program to measure: {SRC / 'repro' / 'cli.py'} is missing "
            "(run from the root of a checkout of the repository)"
        )


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def repro_cmd(*args: str) -> list[str]:
    """``python -m repro ARGS``: the program exactly as users run it."""
    return [sys.executable, "-m", "repro", *args]


def launch_cmd(mode: str, *args: str) -> list[str]:
    return [sys.executable, str(LAUNCH), mode, *args]


def inject_args(inject: str | None, inject_ms: float) -> list[str]:
    if inject is None:
        return []
    return ["--inject", inject, "--inject-ms", str(inject_ms)]


@dataclass
class ChildRun:
    wall_s: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


def run_child(cmd: list[str], tag: str) -> ChildRun:
    """Run *cmd* to completion; wall from spawn to exit, peak RSS.

    Output goes through files under ``.e2ebench/tmp`` (no pipes to
    fill). A child still running after :data:`CHILD_TIMEOUT_S` is
    killed and reported with code -9.
    """
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    out_path, err_path = tmp / f"{tag}.out", tmp / f"{tag}.err"
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=child_env(), cwd=ROOT
        )
        code, rusage = reap(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
    return ChildRun(
        wall_s=wall,
        rss_mb=rusage.ru_maxrss / 1024.0,
        code=code,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
    )


def reap(proc: subprocess.Popen, timeout: float):
    """Wait for *proc* (killing it past *timeout*); (code, rusage)."""
    deadline = time.monotonic() + timeout
    while True:
        pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, rusage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.002)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, rusage


def stop_child(proc: subprocess.Popen, timeout: float = 20.0):
    """SIGINT *proc* (a server), then reap it; (code, rusage)."""
    if proc.returncode is None:
        proc.send_signal(signal.SIGINT)
    return reap(proc, timeout)


# -- inputs ---------------------------------------------------------------


def generate(name: str, preset: str, gen_seed: int, *extra: str):
    """Generate ``name``'s basket and taxonomy files once per checkout."""
    folder = WORK / "data" / name
    baskets, taxonomy = folder / "base.basket", folder / "base.tax"
    if baskets.exists() and taxonomy.exists():
        return baskets, taxonomy
    folder.mkdir(parents=True, exist_ok=True)
    tmp_b, tmp_t = folder / "tmp.basket", folder / "tmp.tax"
    done = subprocess.run(
        repro_cmd(
            "generate", "--preset", preset, "--seed", str(gen_seed),
            "--baskets", str(tmp_b), "--taxonomy", str(tmp_t), *extra,
        ),
        env=child_env(), cwd=ROOT, capture_output=True, text=True,
        timeout=600,
    )
    if done.returncode != 0:
        raise BenchError(f"generating {name} failed: {done.stderr}")
    os.replace(tmp_t, taxonomy)
    os.replace(tmp_b, baskets)
    return baskets, taxonomy


def read_rows(path: Path) -> list[str]:
    return [
        line for line in path.read_text().splitlines()
        if line.strip() and not line.startswith("#")
    ]


def write_rows(path: Path, rows: list[str]) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(
        "# repro basket file: one transaction per line\n"
        + "".join(row + "\n" for row in rows)
    )
    os.replace(tmp, path)


def permuted(base: Path, seed: int) -> Path:
    """*base* with its rows in the order ``seed`` draws (cached)."""
    path = base.with_name(f"seed-{seed}.basket")
    if not path.exists():
        rows = read_rows(base)
        random.Random(seed).shuffle(rows)
        write_rows(path, rows)
    return path


# -- statistics and stamps ------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def mean(values) -> float:
    return float(statistics.fmean(values)) if values else 0.0


def percentile(values, q: float) -> float:
    """The *q*-th percentile (nearest rank) of *values*."""
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, round(q / 100 * len(ordered)) - 1))
    return float(ordered[rank])


def calibrate() -> dict[str, float]:
    """Time a fixed pure-Python loop and a fixed numpy kernel (ms).

    Results from machines whose calibration differs are not compared
    blindly; each figure is the best of three.
    """
    import numpy as np

    def python_loop() -> int:
        total = 0
        for value in range(300_000):
            total += value * value % 7
        return total

    words = np.random.default_rng(0).integers(
        0, 2**63, size=(64, 4096), dtype=np.uint64
    )

    def numpy_kernel() -> int:
        total = 0
        for row in range(words.shape[0]):
            total += int(np.count_nonzero(words & words[row]))
        return total

    figures = {}
    for name, kernel in (("python", python_loop), ("numpy", numpy_kernel)):
        best = float("inf")
        for _ in range(3):
            start = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - start)
        figures[f"calib_{name}_ms"] = best * 1000.0
    return figures


def stamp() -> dict:
    """Where and how a result set was measured."""
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **calibrate(),
    }


def append_result(record: dict) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    with open(WORK / "results.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")
