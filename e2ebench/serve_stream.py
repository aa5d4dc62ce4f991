"""The serve-stream workload: serving reads while streaming writes.

The watcher (:class:`repro.stream.StreamingMiner`, in the benchmark
process) bootstraps on the first 80 % of the Tall scale-0.02 rows
(generator seed 12; MinSup 0.1, MinRI 0.5, minconf 0.9: about 21,000
rules) and a ``repro serve`` child process loads the index it wrote.
One client connection then runs a closed loop of ``--seconds`` /
``cycle_s`` cycles (at least two, at most one per appended chunk):

1. ``requests`` score requests (``limit: 10``), each sent when the
   previous answer arrived. Baskets are drawn with Zipf-skewed reuse
   from held-out rows (a second generator run with the same taxonomy),
   more distinct baskets than the server's 1,024-entry LRU holds, so
   both cache hits and cold matches stay steady shares.
2. One chunk of the remaining 20 % of the rows is appended to the
   basket file; ``StreamingMiner.poll()`` absorbs it, re-mines and
   pushes a ``reload_delta``, which the server answers once the delta
   is applied. The time from the append to that answer is the delta's
   visibility time (``wall_s``); the watcher's own publish step after
   the push (installing the delta, saving its index file) is not part
   of it. The client then asks the server for ``stats`` and checks it
   reports the new ``index_version``.

``--seed`` draws the request sequence and the order of the rows inside
the bootstrap file and inside each chunk; which rows are mined at each
step and which baskets are popular do not change, so every seed mines
the same rules and sees the same traffic mix.

Correctness: after every push the server's ``stats`` must show the
next index version and the watcher's rule count, and every
``verify_every``-th response must equal the top 10 of ``naive_match``
on the index the watcher published. Error replies, mismatches and
rejected pushes count as failed.
"""

from __future__ import annotations

import bisect
import json
import random
import select
import shutil
import socket
import subprocess
import time
from dataclasses import dataclass

import harness
from probe import Probe, mining_metrics

SETUP_REPEATS = 3
LIMIT = 10
HOST = "127.0.0.1"
#: Generator seed of the Tall data: about 21,000 rules at MinSup 0.1
#: and ~2 s per delta (seed 11 gives 62,000 rules and 8.5 s per delta).
GEN_SEED = 12
#: Share of the rows the watcher bootstraps on; the rest is appended.
BOOTSTRAP_SHARE = 0.8
MINRI = 0.5
MINCONF = 0.9
#: Popularity skew of the request baskets: rank r is drawn with weight
#: 1 / r ** ZIPF_S, the usual model of request popularity. With 5,000
#: distinct baskets, a 1,024-entry LRU and each delta invalidating the
#: entries it touches, about 47 % of the full-size requests hit the
#: cache and the rest are cold matches.
ZIPF_S = 1.0


@dataclass(frozen=True)
class ServeSpec:
    """One size of the workload.

    Each cycle sends *requests* score requests, then appends
    *chunk_rows* rows (4 % of the data at full size). At full size
    the reads take 3-5 s and one delta's re-mine and push 2-3 s. The
    reads get the larger share because on a shared host the read rate
    moves by 20-30 % from one cycle to the next, more than a delta's
    time does, so it needs the longer sample.
    *cycle_s* is the share of ``--seconds`` one cycle stands for; it
    sets how many cycles a run makes, not how long they take.
    """

    generate: tuple[str, ...]
    pool_transactions: int
    minsup: float
    chunk_rows: int
    requests: int
    verify_every: int
    cycle_s: float
    cache_size: int = 1024


SPECS = {
    "full": ServeSpec(
        generate=("--scale", "0.02"), pool_transactions=5000,
        minsup=0.1, chunk_rows=40, requests=480, verify_every=20,
        cycle_s=3.0,
    ),
    "smoke": ServeSpec(
        generate=("--scale", "0.02", "--transactions", "300"),
        pool_transactions=600, minsup=0.2, chunk_rows=20, requests=150,
        verify_every=15, cycle_s=1.0, cache_size=64,
    ),
}


def _match_payload(match) -> dict:
    """A match as the wire protocol sends it."""
    return {
        "slot": match.slot,
        "kind": match.kind,
        "rule": match.rule.as_dict(),
        "consequent_present": match.consequent_present,
    }


class Client:
    """One persistent newline-JSON connection to the server."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection((HOST, port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.stream = self.sock.makefile("rwb")

    def call(self, payload: dict) -> tuple[bytes, float]:
        line = json.dumps(payload).encode() + b"\n"
        start = time.perf_counter()
        self.stream.write(line)
        self.stream.flush()
        answer = self.stream.readline()
        return answer, time.perf_counter() - start

    def close(self) -> None:
        self.stream.close()
        self.sock.close()


class ServeStream(harness.Tally):
    def __init__(self, args) -> None:
        super().__init__()
        self.args = args
        self.spec = spec = SPECS[args.size]
        base, self.taxonomy = harness.generate(
            f"serve-stream-{args.size}", "tall", GEN_SEED, *spec.generate,
        )
        pool, pool_taxonomy = harness.generate(
            f"serve-stream-{args.size}-pool", "tall", GEN_SEED,
            *spec.generate, "--transactions", str(spec.pool_transactions),
        )
        if pool_taxonomy.read_text() != self.taxonomy.read_text():
            raise harness.BenchError("request pool taxonomy differs")
        rows = harness.read_rows(base)
        rng = random.Random(args.seed)
        cut = int(len(rows) * BOOTSTRAP_SHARE)
        self.bootstrap = rows[:cut]
        rng.shuffle(self.bootstrap)
        self.chunks = []
        for start in range(cut, len(rows), spec.chunk_rows):
            chunk = rows[start:start + spec.chunk_rows]
            rng.shuffle(chunk)
            self.chunks.append(chunk)
        # The pool keeps its generated order, so the Zipf ranks (which
        # baskets are hot) are the same for every seed; the seed draws
        # the request sequence.
        self.pool = [
            [int(item) for item in row.split()]
            for row in harness.read_rows(pool)
        ]
        weights = [
            1.0 / (rank + 1) ** ZIPF_S for rank in range(len(self.pool))
        ]
        total = 0.0
        self.cumulative = []
        for weight in weights:
            total += weight
            self.cumulative.append(total)
        self.servers = []
        self.client_probe = Probe(args.inject, args.inject_ms / 1000.0)

    # -- set-up -------------------------------------------------------

    def server_cmd(self, index, trace_out) -> list[str]:
        serve_args = [
            "serve", "--index", str(index), "--host", HOST, "--port", "0",
            "--cache-size", str(self.spec.cache_size),
        ]
        launcher = harness.inject_args(self.args.inject, self.args.inject_ms)
        if trace_out is not None:
            launcher += ["--trace-out", str(trace_out)]
        if not launcher:
            return harness.repro_cmd(*serve_args)
        return harness.launch_cmd("cli", *launcher, "--", *serve_args)

    def setup(self, tag: str, trace_out=None):
        """Bootstrap a watcher and start a server on its index.

        Returns ``(miner, server, port, seconds, baskets)``; the
        seconds run from the watcher's start to the server's ready
        line, and *baskets* is the live basket file the watcher tails.
        """
        import repro.cli as cli
        from repro.core.api import MiningConfig
        from repro.data.filedb import FileBackedDatabase
        from repro.stream import RowCountPolicy, StreamingMiner

        folder = harness.WORK / "run" / tag
        shutil.rmtree(folder, ignore_errors=True)
        folder.mkdir(parents=True)
        baskets = folder / "live.basket"
        harness.write_rows(baskets, self.bootstrap)
        spec = self.spec
        start = time.perf_counter()
        miner = StreamingMiner(
            FileBackedDatabase(baskets),
            cli.load_taxonomy_file(self.taxonomy),
            config=MiningConfig(minsup=spec.minsup, minri=MINRI),
            policy=RowCountPolicy(spec.chunk_rows),
            minconf=MINCONF,
            index_path=folder / "index.json",
        )
        miner.start()
        err = open(folder / "server.err", "w")
        server = subprocess.Popen(
            self.server_cmd(folder / "index.json", trace_out),
            stdout=subprocess.PIPE, stderr=err,
            env=harness.child_env(), cwd=harness.ROOT,
        )
        err.close()
        self.servers.append(server)
        port = self._ready_port(server)
        seconds = time.perf_counter() - start
        return miner, server, port, seconds, baskets

    def _ready_port(self, server) -> int:
        deadline = time.monotonic() + harness.CHILD_TIMEOUT_S
        while time.monotonic() < deadline:
            ready, _, _ = select.select([server.stdout], [], [], 0.5)
            if ready:
                line = server.stdout.readline().decode()
                if not line:
                    break
                if line.startswith("serving "):
                    return int(line.rsplit(":", 1)[1])
            elif server.poll() is not None:
                break
        raise harness.BenchError("rule server did not become ready")

    def stop(self, server):
        """Stop *server*; returns its rusage."""
        code, rusage = harness.stop_child(server)
        server.stdout.close()
        self.servers.remove(server)
        if code not in (0, -2, 130):
            self.fail(f"server exit {code}")
        return rusage

    def stop_all(self) -> None:
        for server in list(self.servers):
            harness.stop_child(server)
            server.stdout.close()
            self.servers.remove(server)

    # -- the closed loop ----------------------------------------------

    def cycles(self) -> int:
        """How many request/delta cycles fill ``--seconds``.

        The number depends on ``--seconds`` alone, never on how fast a
        run goes, so every run compares the same cycles.
        """
        wanted = round(self.args.seconds / self.spec.cycle_s)
        return max(2, min(wanted, len(self.chunks)))

    def loop(self, miner, port, baskets, push_probe=None):
        """Run :meth:`cycles` request/delta cycles on one connection."""
        from repro.errors import ReproError
        from repro.serve.matcher import naive_match
        from repro.stream import push_to_server

        push = push_to_server(HOST, port, timeout=120)
        if push_probe is not None:
            push = push_probe(push)
        answered: list[float] = []

        def timed_push(delta):
            reply = push(delta)
            answered.append(time.perf_counter())
            return reply

        miner.push = timed_push
        client = Client(port)
        draw = random.Random(self.args.seed + 1)
        spec = self.spec
        out = {
            "latencies": [], "bytes": [], "visible": [],
            "request_s": 0.0, "verify_s": 0.0, "cycles": 0,
        }
        version = miner.index.version
        start = time.perf_counter()
        try:
            while out["cycles"] < self.cycles():
                phase = time.perf_counter()
                verify_s = 0.0
                for number in range(spec.requests):
                    basket = self.pool[bisect.bisect_left(
                        self.cumulative,
                        draw.random() * self.cumulative[-1],
                    )]
                    payload = {"op": "score", "basket": basket,
                               "limit": LIMIT}
                    answer, elapsed = client.call(payload)
                    self.attempted += 1
                    out["latencies"].append(elapsed)
                    out["bytes"].append(len(answer))
                    check = time.perf_counter()
                    response = json.loads(answer)
                    if "error" in response:
                        self.fail(f"score error: {response['error']}")
                    elif number % spec.verify_every == 0:
                        self._verify(response, basket, miner, naive_match)
                    verify_s += time.perf_counter() - check
                out["request_s"] += time.perf_counter() - phase - verify_s
                out["verify_s"] += verify_s
                chunk = self.chunks[out["cycles"]]
                appended = time.perf_counter()
                with open(baskets, "a") as handle:
                    handle.write("".join(row + "\n" for row in chunk))
                self.attempted += 1
                try:
                    fired = miner.poll()
                except (ReproError, OSError) as exc:
                    self.fail(f"push failed: {exc!r}")
                    break
                if not fired or len(answered) != out["cycles"] + 1:
                    self.fail("append did not push a delta")
                    break
                out["visible"].append(answered[-1] - appended)
                version += 1
                stats = self._await_version(client, version)
                if stats.get("rules") != len(miner.index):
                    self.fail(
                        f"server holds {stats.get('rules')} rules, "
                        f"watcher published {len(miner.index)}"
                    )
                out["cycles"] += 1
            out["loop_s"] = time.perf_counter() - start
            answer, _ = client.call({"op": "stats"})
            out["stats"] = json.loads(answer)
        finally:
            client.close()
        return out

    def _verify(self, response, basket, miner, naive_match) -> None:
        matches = naive_match(miner.index, basket)
        expected = json.loads(json.dumps({
            "basket": sorted(set(basket)),
            "total_matches": len(matches),
            "matches": [_match_payload(m) for m in matches[:LIMIT]],
        }))
        if response != expected:
            self.fail(f"response for {basket} differs from naive_match")

    def _await_version(self, client, version: int) -> dict:
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            answer, _ = client.call({"op": "stats"})
            stats = json.loads(answer)
            if stats.get("index_version") == version:
                return stats
            if stats.get("index_version", 0) > version:
                break
        self.fail(f"server never reported index version {version}")
        return {}

    # -- runs ---------------------------------------------------------

    def run(self) -> dict:
        self.client_probe.install(())
        try:
            if self.args.trace:
                return self.run_traced()
            return self.run_untraced()
        finally:
            self.client_probe.restore()
            self.stop_all()

    def run_untraced(self) -> dict:
        setups = []
        for repeat in range(SETUP_REPEATS):
            miner, server, port, seconds, baskets = self.setup(
                f"serve-{repeat}"
            )
            setups.append(seconds)
            if repeat < SETUP_REPEATS - 1:
                self.stop(server)
        out = self.loop(miner, port, baskets)
        rusage = self.stop(server)
        stats = out["stats"]
        return self.result({
            "wall_s": harness.median(out["visible"]),
            "setup_s": harness.median(setups),
            "peak_rss_mb": rusage.ru_maxrss / 1024.0,
            "ops_per_s": len(out["latencies"]) / out["request_s"],
        }, {
            "setups_s": setups,
            "visible_s": out["visible"],
            "score_p50_ms": harness.percentile(out["latencies"], 50) * 1e3,
            "score_p99_ms": harness.percentile(out["latencies"], 99) * 1e3,
            "requests": len(out["latencies"]),
            "cache_hit_rate": stats["cache_hits"]
            / max(stats["cache_hits"] + stats["cache_misses"], 1),
        })

    def run_traced(self) -> dict:
        miner, server, port, _, baskets = self.setup("serve-untraced")
        plain = self.loop(miner, port, baskets)
        self.stop(server)

        trace_out = harness.WORK / "tmp" / "serve-trace.json"
        miner, server, port, _, baskets = self.setup(
            "serve-traced", trace_out
        )
        probe = Probe()
        pushes = {"push": [], "bytes": [], "edits": [], "rows": []}
        database = miner.database
        scans = [database.scans]

        def push_probe(push):
            def traced_push(delta):
                # Only a re-mine scans the database, and each re-mine
                # pushes once: the scans since the last push are this
                # re-mine's.
                pushes["rows"].append(
                    (database.scans - scans[-1]) * len(database)
                )
                scans.append(database.scans)
                pushes["bytes"].append(len(json.dumps(delta.to_payload())))
                pushes["edits"].append(delta.rule_edits)
                start = time.perf_counter()
                answer = push(delta)
                pushes["push"].append(time.perf_counter() - start)
                return answer

            return traced_push

        probe.install()
        try:
            traced = self.loop(miner, port, baskets, push_probe)
        finally:
            probe.restore()
        self.stop(server)
        server_trace = json.loads(trace_out.read_text())
        metrics, table = self.layer_metrics(
            probe, server_trace, traced, pushes
        )
        cycles = max(traced["cycles"], 1)
        plain_cycle = (plain["loop_s"] - plain["verify_s"]) / max(
            plain["cycles"], 1
        )
        traced_cycle = (traced["loop_s"] - traced["verify_s"]) / cycles
        metrics["untraced_s"] = traced_cycle - sum(table.values())
        metrics["trace_overhead_s"] = traced_cycle - plain_cycle
        metrics["serve.score_p50_ms"] = (
            harness.percentile(plain["latencies"], 50) * 1e3
        )
        metrics["serve.score_p99_ms"] = (
            harness.percentile(plain["latencies"], 99) * 1e3
        )
        return self.result(metrics, {
            "cycles": cycles,
            "request_s": [plain["request_s"], traced["request_s"]],
            "visible_s": [plain["visible"], traced["visible"]],
            "traced_wall_s": traced_cycle,
            "untraced_wall_s": plain_cycle,
            "layer_table": {
                **table, "untraced_s": metrics["untraced_s"]
            },
        })

    def layer_metrics(self, probe, server_trace, traced, pushes):
        """Per-layer metrics and the per-cycle layer table."""
        cycles = max(traced["cycles"], 1)
        totals, samples = server_trace["totals"], server_trace["samples"]
        match = samples.get("serve.match", [])
        score = samples.get("serve.score", [])
        latencies = traced["latencies"]
        stats = traced["stats"]
        lookups = stats["cache_hits"] + stats["cache_misses"]
        mean = harness.mean
        client = probe.samples
        # Every delta re-mines through the mining layers: report their
        # times and counts per re-mine (ratios stay as they are).
        metrics = {
            name: value
            if name.endswith(("yield", "per_large")) else value / cycles
            for name, value in mining_metrics(probe.totals).items()
        }
        metrics.update({
            "cli.import_s": server_trace.get("cli.import_s", 0.0),
            "engine.rows_scanned": mean(pushes["rows"]),
            "serve.index_load_s": totals.get("serve.index_load_s", 0.0),
            "serve.match_ms": mean(match) * 1e3,
            "serve.payload_ms": (sum(score) - sum(match))
            / max(len(score), 1) * 1e3,
            "serve.wire_ms": (mean(latencies) - mean(score)) * 1e3,
            "serve.cache_hit_rate": stats["cache_hits"] / max(lookups, 1),
            "serve.response_bytes": mean(traced["bytes"]),
            "serve.delta_apply_s": mean(samples.get("serve.delta_apply", [])),
            "serve.cache_invalidated": totals.get(
                "serve.cache_invalidated", 0
            ) / cycles,
            "stream.absorb_s": sum(client["stream.absorb"]) / cycles,
            "stream.remine_s": probe.totals["stream.remine_s"] / cycles,
            "stream.diff_s": mean(client["stream.diff"]),
            "stream.push_s": mean(pushes["push"]),
            "stream.publish_s": probe.totals["stream.publish_s"] / cycles,
            "stream.delta_bytes": mean(pushes["bytes"]),
            "stream.delta_rules": mean(pushes["edits"]),
        })
        table = {
            "serve.match": sum(match) / cycles,
            "serve.payload": (sum(score) - sum(match)) / cycles,
            "serve.wire": (sum(latencies) - sum(score)) / cycles,
            "stream.absorb": metrics["stream.absorb_s"],
            "stream.remine": metrics["stream.remine_s"],
            "stream.diff": sum(client["stream.diff"]) / cycles,
            "stream.push": sum(pushes["push"]) / cycles,
            "stream.publish": metrics["stream.publish_s"],
        }
        return metrics, table
