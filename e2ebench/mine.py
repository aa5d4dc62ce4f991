"""The mine workloads: whole ``repro mine`` runs on Tall and Short.

``tall-paper``
    Tall at scale 1 (50,000 rows, 11,440 nodes), MinSup 0.005, the
    paper's low end; generalized counting does most of the work.
``short-lowsup``
    Short at scale 0.02 (1,000 rows), MinSup 0.06, one step above
    E1's low-support end; negative candidate generation does most of
    the work (about 78 % of a 7 s mine, 46,644 candidates). At MinSup
    0.05 a mine takes 12-17 s, too long to mine three times per run
    within the benchmark's time budget.

Both run with the default miner, algorithm and engine. The data is
generated once per checkout from the workload's pinned generator seed;
``--seed`` shuffles the row order, which changes the input file but not
the mined rules, so every seed is checked against one expected digest
(``expected.json``).

Untraced runs are ``python -m repro mine ... --limit 1000000000``
child processes (every rule is printed, so the digest covers the rule
list). The traced run is the same command through ``launch.py cli
--trace-out``: the program's own ``repro mine``, with every layer
probed.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

import harness
from probe import mining_metrics

SETUP_REPEATS = 5
MINRI = 0.5
#: The self times that make up a mine run's layer table; with
#: ``untraced_s`` they add up to the traced wall.
LAYER_TABLE = (
    "cli.import_s",
    "data.load_baskets_s",
    "data.load_taxonomy_s",
    "generalized.gen_s",
    "engine.count_s",
    "taxonomy.restrict_s",
    "candidates.gen_s",
    "negcount.select_s",
    "rulegen.s",
)


@dataclass(frozen=True)
class MineSpec:
    """One size of a mine workload.

    A run mines for ``--seconds`` and at least *min_runs* times and
    reports the median wall. Short's mine varies by 20-30 % from one
    process to the next on a shared 2-vCPU host; with one or two mines
    per run the median spread up to 0.30 (IQR/median over ten seeds),
    with three 0.09-0.14 while the host's speed held, so it always
    mines three times.
    """

    preset: str
    gen_seed: int
    minsup: float
    generate: tuple[str, ...]
    min_runs: int = 1


SPECS = {
    ("tall-paper", "full"): MineSpec(
        "tall", 1, 0.005, ("--scale", "1.0")
    ),
    ("tall-paper", "smoke"): MineSpec(
        "tall", 1, 0.25, ("--scale", "0.02", "--transactions", "500")
    ),
    ("short-lowsup", "full"): MineSpec(
        "short", 1998, 0.06, ("--scale", "0.02"), min_runs=3
    ),
    ("short-lowsup", "smoke"): MineSpec(
        "short", 1998, 0.15, ("--scale", "0.02", "--transactions", "300")
    ),
}


def digest(stdout: str) -> dict:
    """Counts from a mine summary plus a hash of its sorted rule lines."""
    lines = stdout.splitlines()
    fields = {}
    for line in lines:
        key, sep, value = line.partition(":")
        if sep and not line.startswith(" "):
            fields[key.strip()] = value.strip()
    rules = sorted(
        line for line in lines
        if line.startswith("  ") and not line.startswith("  ... and")
    )
    try:
        counts = {
            "large": int(fields["large itemsets"]),
            "candidates": int(fields["candidates"]),
            "negatives": int(fields["negative sets"]),
            "rules": int(fields["rules"]),
        }
    except (KeyError, ValueError):
        return {"unparsable": stdout[-300:]}
    text = "\n".join(rules).encode()
    return {
        **counts,
        "printed_rules": len(rules),
        "rules_sha256": hashlib.sha256(text).hexdigest()[:16],
    }


def expected_digest(workload: str, size: str) -> dict | None:
    table = json.loads((harness.BENCH / "expected.json").read_text())
    return table.get(f"{workload}/{size}")


class MineWorkload(harness.Tally):
    def __init__(self, name: str, args) -> None:
        super().__init__()
        self.name = name
        self.args = args
        self.spec = SPECS[(name, args.size)]
        base, self.taxonomy = harness.generate(
            f"{name}-{args.size}", self.spec.preset, self.spec.gen_seed,
            *self.spec.generate,
        )
        self.baskets = harness.permuted(base, args.seed)
        self.rows = len(harness.read_rows(self.baskets))
        self.expected = expected_digest(name, args.size)
        self.last_digest: dict | None = None

    # -- commands -----------------------------------------------------

    def _data(self) -> list[str]:
        return ["--baskets", str(self.baskets),
                "--taxonomy", str(self.taxonomy)]

    def _inject(self) -> list[str]:
        return harness.inject_args(self.args.inject, self.args.inject_ms)

    def mine_cmd(self, trace_out=None) -> list[str]:
        """``repro mine`` printing every rule; probed given *trace_out*."""
        mine_args = [
            "mine", *self._data(),
            "--minsup", str(self.spec.minsup),
            "--minri", str(MINRI),
            "--limit", str(10**9),
        ]
        launcher = self._inject()
        if trace_out is not None:
            launcher += ["--trace-out", str(trace_out)]
        if not launcher:
            return harness.repro_cmd(*mine_args)
        return harness.launch_cmd("cli", *launcher, "--", *mine_args)

    def setup_cmd(self) -> list[str]:
        return harness.launch_cmd("setup", *self._data(), *self._inject())

    # -- checked runs -------------------------------------------------

    def checked(self, cmd: list[str], tag: str) -> harness.ChildRun:
        """Run one mine child and check its output against the digest."""
        run = harness.run_child(cmd, tag)
        self.attempted += 1
        found = self.last_digest = digest(run.stdout)
        problem = None
        if run.code != 0:
            problem = f"{tag}: exit {run.code}: {run.stderr[-300:]}"
        elif self.expected is None:
            problem = f"{tag}: no expected digest for {self.name}"
        elif found != self.expected:
            problem = f"{tag}: digest {found} != expected {self.expected}"
        if problem is not None:
            self.fail(problem)
        return run

    def measure_setup(self) -> float:
        harness.run_child(self.setup_cmd(), "setup-warm")
        walls = []
        for repeat in range(SETUP_REPEATS):
            run = harness.run_child(self.setup_cmd(), f"setup-{repeat}")
            if run.code != 0:
                self.fail(f"setup: exit {run.code}")
            self.attempted += 1
            walls.append(run.wall_s)
        return harness.median(walls)

    def run(self) -> dict:
        if self.args.trace:
            return self.run_traced()
        setup_s = self.measure_setup()
        walls, rss = [], []
        start = time.perf_counter()
        while (
            len(walls) < self.spec.min_runs
            or time.perf_counter() - start < self.args.seconds
        ):
            run = self.checked(self.mine_cmd(), f"mine-{len(walls)}")
            walls.append(run.wall_s)
            rss.append(run.rss_mb)
        wall_s = harness.median(walls)
        return self.result({
            "wall_s": wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": max(rss),
            "ops_per_s": self.rows / wall_s,
        }, {"walls_s": walls, "digest": self.last_digest})

    def run_traced(self) -> dict:
        untraced = self.checked(self.mine_cmd(), "mine-untraced")
        trace_out = harness.WORK / "tmp" / "mine-trace.json"
        traced = self.checked(self.mine_cmd(trace_out), "mine-traced")
        trace = (
            json.loads(trace_out.read_text())
            if traced.code == 0 else {"totals": {}}
        )
        metrics = layer_metrics(trace, traced.wall_s)
        metrics["trace_overhead_s"] = traced.wall_s - untraced.wall_s
        return self.result(metrics, {
            "digest": self.last_digest,
            "traced_wall_s": traced.wall_s,
            "untraced_wall_s": untraced.wall_s,
            "layer_table": {
                name: metrics[name]
                for name in (*LAYER_TABLE, "untraced_s")
            },
        })


def layer_metrics(trace: dict, traced_wall_s: float) -> dict:
    """Per-layer metrics of one traced mine run."""
    metrics = mining_metrics(trace["totals"])
    metrics["cli.import_s"] = trace.get("cli.import_s", 0.0)
    metrics["engine.rows_scanned"] = trace.get("engine.rows_scanned", 0)
    metrics["untraced_s"] = traced_wall_s - sum(
        metrics[name] for name in LAYER_TABLE
    )
    return metrics
