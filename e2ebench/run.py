"""The repository's end-to-end benchmark.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload tall-paper --seed 1 --seconds 15 \\
        --trace 0

Workloads (see ``mine.py`` and ``serve_stream.py``):

``tall-paper``
    ``repro mine`` on Tall at scale 1, MinSup 0.005.
``short-lowsup``
    ``repro mine`` on Short at scale 0.02, MinSup 0.06.
``serve-stream``
    A ``repro serve`` process answering score requests while a
    streaming watcher appends rows, re-mines and pushes deltas to it.

``--trace 0`` measures with no probe installed and reports the
end-to-end metrics; ``--trace 1`` adds a probed run and reports the
per-layer metrics, the ``untraced_s`` residue and the tracing
overhead. The metric names and units are the ones ``BENCHMARK.json``
lists. ``--size smoke`` runs every code path on small inputs in
seconds; ``--inject LAYER`` adds ``--inject-ms`` to every call of that
layer's public function, to show that the attribution sees it.

Every run checks the program's output (``correct``/``failed`` in the
result), appends its result set, stamped with the machine's CPU count,
Python and numpy versions and a calibration loop's times, to
``.e2ebench/results.jsonl``, and prints it as JSON on its last line.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import harness
from probe import INJECT_TARGETS

WORKLOADS = ("tall-paper", "short-lowsup", "serve-stream")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="e2ebench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    parser.add_argument("--inject", choices=sorted(INJECT_TARGETS),
                        default=None)
    parser.add_argument("--inject-ms", type=float, default=200.0)
    return parser.parse_args(argv)


def run_workload(args: argparse.Namespace) -> dict:
    """Run one workload; the full result record (metrics and extras)."""
    harness.check_checkout()
    sys.path.insert(0, str(harness.SRC))
    if args.workload == "serve-stream":
        from serve_stream import ServeStream

        workload = ServeStream(args)
    else:
        from mine import MineWorkload

        workload = MineWorkload(args.workload, args)
    return workload.run()


def contract_metrics(result: dict, trace: int) -> dict:
    """The metrics ``BENCHMARK.json`` lists, with their units.

    A per-layer metric of a layer the workload does not run reads 0.
    """
    contract = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    listed = contract["per_layer" if trace else "end_to_end"]
    metrics = {}
    for entry in listed:
        name = entry["name"]
        if name in result["metrics"]:
            value = result["metrics"][name]
        elif trace:
            value = 0.0
        else:
            raise harness.BenchError(f"workload did not measure {name}")
        metrics[name] = {"value": value, "unit": entry["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        result = run_workload(args)
        metrics = contract_metrics(result, args.trace)
    except harness.BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    stamp = harness.stamp()
    harness.append_result({
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "workload": args.workload,
        "size": args.size,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inject": args.inject,
        "inject_ms": args.inject_ms if args.inject else 0.0,
        "stamp": stamp,
        **result,
    })
    print(f"# {args.workload} ({args.size}) seed {args.seed}: {stamp}")
    for problem in result["extra"].get("problems", []):
        print(f"# FAILED: {problem}")
    for name, metric in metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    table = result["extra"].get("layer_table")
    if table:
        wall = result["extra"]["traced_wall_s"]
        print(f"# layer table (traced wall {wall:.3f} s)")
        for name, seconds in table.items():
            share = seconds / wall if wall else 0.0
            print(f"#   {name:24s} {seconds:10.4f} s {share:7.1%}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
