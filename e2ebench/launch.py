"""Child-process launcher: the program under the benchmark's probes.

Every process the benchmark starts that needs a probe goes through
this file, run from the checkout root:

``launch.py cli [--inject L --inject-ms N] [--trace-out F] -- ARGS``
    ``repro.cli.main(ARGS)``, the same entry ``python -m repro`` runs,
    with the injected delay and, given ``--trace-out``, every layer
    probe installed; the probe's totals go to ``F`` as JSON when the
    command returns (a ``serve`` returns on SIGINT).
``launch.py setup --baskets B --taxonomy T [--inject ...]``
    Import ``repro.cli`` and load both files, then exit: the set-up
    share of a mine run.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import probe as probes


def _parse(argv: list[str]) -> tuple[argparse.Namespace, list[str]]:
    rest: list[str] = []
    if "--" in argv:
        split = argv.index("--")
        argv, rest = argv[:split], argv[split + 1:]
    parser = argparse.ArgumentParser(prog="launch.py")
    parser.add_argument("mode", choices=("cli", "setup"))
    parser.add_argument("--inject", default=None)
    parser.add_argument("--inject-ms", type=float, default=0.0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--baskets")
    parser.add_argument("--taxonomy")
    return parser.parse_args(argv), rest


def _dump(probe: probes.Probe, path: str, import_s: float) -> None:
    payload = {
        "totals": dict(probe.totals),
        "samples": dict(probe.samples),
        "cli.import_s": import_s,
        "engine.rows_scanned": probe.rows_scanned(),
    }
    Path(path).write_text(json.dumps(payload))


def main(argv: list[str]) -> int:
    args, rest = _parse(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    start = time.perf_counter()
    import repro.cli as cli

    import_s = time.perf_counter() - start
    probe = probes.Probe(args.inject, args.inject_ms / 1000.0)
    traced = args.trace_out is not None
    probe.install(None if traced else ())

    if args.mode == "cli":
        code = cli.main(rest)
        if traced:
            _dump(probe, args.trace_out, import_s)
        return code

    # cli.load_* is looked up at call time, so the probe sees the calls.
    cli.load_basket_file(args.baskets)
    cli.load_taxonomy_file(args.taxonomy)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
