"""Layer probes: time each call into a layer's public function.

A :class:`Probe` patches the public functions of the program's layers
with thin wrappers that time every call and record the counts that
explain its cost. Everything lives in the benchmark: the wrappers are
installed from here, in the benchmark's own processes, and removed
again by :meth:`Probe.restore`; nothing under ``src/`` changes.

Each layer's time is its *self* time, so the layer table adds up:
``generalized.gen_s`` is the time inside ``mine_generalized`` minus the
counting passes it made, which land in ``engine.count_s``.
``engine.pass2_s`` and ``negcount.count_s`` are the parts of
``engine.count_s`` spent on generalized pass 2 and on the negative
counting pass.

The same wrappers carry the ``--inject`` delay: the probe sleeps a
fixed time inside the one wrapper :data:`INJECT_TARGETS` names for the
chosen layer, once per call, so the delay lands in that layer's metric
and in no other.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict

#: Layer name -> the (module, class or None, attribute) whose calls the
#: injected delay wraps: the layer's public call.
INJECT_TARGETS = {
    "data": ("repro.cli", None, "load_basket_file"),
    "taxonomy": ("repro.core.negmining", None, "restrict_to_items"),
    "generalized": ("repro.core.negmining", None, "mine_generalized"),
    "engine": ("repro.core.session", "MiningSession", "count"),
    "candidates": (
        "repro.core.negmining", None, "generate_negative_candidates"
    ),
    "negcount": ("repro.core.negmining", None, "select_negatives"),
    "rulegen": ("repro.core.api", None, "generate_negative_rules"),
    "serve": ("repro.serve.service", "RuleService", "score"),
    "stream": ("repro.data.filedb", "FileBackedDatabase", "absorb_appends"),
}


class Probe:
    """Timing wrappers plus the totals and samples they accumulate.

    *inject* names the layer whose public call sleeps *inject_s*
    seconds on every call (see :data:`INJECT_TARGETS`).
    """

    def __init__(
        self, inject: str | None = None, inject_s: float = 0.0
    ) -> None:
        if inject is not None and inject not in INJECT_TARGETS:
            raise ValueError(
                f"unknown layer {inject!r}; choose from "
                f"{', '.join(sorted(INJECT_TARGETS))}"
            )
        self.inject = inject
        self.inject_s = inject_s
        self.totals: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._undo: list[tuple[object, str, object]] = []
        self._in_generalized = 0
        self._loaded: list[object] = []

    # -- patching -----------------------------------------------------

    def _patch(self, target, record=None, bracket=False) -> None:
        """Replace *target* with a timed wrapper calling *record*.

        *record(elapsed, args, result)* books one call. *bracket* marks
        the calls made inside this one as generalized-mining passes.
        Class- and staticmethods come back as staticmethods around the
        bound original, so calls through the class and through
        instances both keep working.
        """
        module, owner, name = target
        holder = importlib.import_module(module)
        if owner is not None:
            holder = getattr(holder, owner)
        raw = vars(holder)[name]
        original = getattr(holder, name)
        delay = (
            self.inject_s
            if self.inject is not None
            and INJECT_TARGETS[self.inject] == target
            else 0.0
        )
        probe = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            if delay:
                time.sleep(delay)
            if bracket:
                probe._in_generalized += 1
            try:
                result = original(*args, **kwargs)
            finally:
                if bracket:
                    probe._in_generalized -= 1
            if record is not None:
                record(time.perf_counter() - start, args, result)
            return result

        if isinstance(raw, (classmethod, staticmethod)):
            setattr(holder, name, staticmethod(wrapper))
        else:
            setattr(holder, name, wrapper)
        self._undo.append((holder, name, raw))

    def _patch_levels(self) -> None:
        """Count the levels ``iter_generalized_levels`` yields."""
        from repro.mining import generalized

        original = generalized.iter_generalized_levels
        totals = self.totals

        @functools.wraps(original)
        def levels(*args, **kwargs):
            for level in original(*args, **kwargs):
                totals["generalized.levels"] += 1
                yield level

        generalized.iter_generalized_levels = levels
        self._undo.append(
            (generalized, "iter_generalized_levels", original)
        )

    def install(self, layers=None) -> "Probe":
        """Install the wrappers of *layers* (``None`` = every layer).

        ``layers=()`` installs only the injected layer's wrapper, which
        carries the delay but books nothing.
        """
        wanted = set(INJECT_TARGETS) if layers is None else set(layers)
        booked = set()
        for layer, targets in self._targets().items():
            if layer not in wanted:
                continue
            for target, record, *bracket in targets:
                self._patch(target, record, bool(bracket))
                booked.add(target)
            if layer == "generalized":
                self._patch_levels()
        if self.inject is not None:
            target = INJECT_TARGETS[self.inject]
            if target not in booked:
                self._patch(target)
        return self

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            holder, name, raw = self._undo.pop()
            setattr(holder, name, raw)

    # -- per-layer bookkeeping ----------------------------------------

    def _targets(self) -> dict[str, list[tuple]]:
        negmining = "repro.core.negmining"
        return {
            "data": [
                (INJECT_TARGETS["data"], self._on_baskets),
                (("repro.cli", None, "load_taxonomy_file"),
                 self._adder("data.load_taxonomy_s")),
            ],
            "taxonomy": [
                (INJECT_TARGETS["taxonomy"],
                 self._adder("taxonomy.restrict_s")),
            ],
            "generalized": [
                ((negmining, None, "mine_generalized"),
                 self._on_generalized, True),
            ],
            "engine": [(INJECT_TARGETS["engine"], self._on_count)],
            "candidates": [
                (INJECT_TARGETS["candidates"], self._on_candidates),
            ],
            "negcount": [(INJECT_TARGETS["negcount"], self._on_select)],
            "rulegen": [(INJECT_TARGETS["rulegen"], self._on_rulegen)],
            "serve": [
                (("repro.serve.matcher", "BasketMatcher", "match"),
                 self._sampler("serve.match")),
                (INJECT_TARGETS["serve"], self._sampler("serve.score")),
                (("repro.serve.service", "RuleService", "apply_delta"),
                 self._on_apply_delta),
                (("repro.serve.rule_index", "RuleIndex", "load"),
                 self._adder("serve.index_load_s")),
            ],
            "stream": [
                (INJECT_TARGETS["stream"], self._sampler("stream.absorb")),
                (("repro.stream.watcher", None, "mine_negative_rules"),
                 self._adder("stream.remine_s")),
                (("repro.stream.watcher", None, "generate_rules"),
                 self._adder("stream.remine_s")),
                (("repro.stream.delta", "RuleIndexDelta", "diff"),
                 self._sampler("stream.diff")),
                # The watcher's own publish step after a push: install
                # the delta locally and save the index file.
                (("repro.serve.rule_index", "RuleIndex", "apply_delta"),
                 self._adder("stream.publish_s")),
                (("repro.serve.rule_index", "RuleIndex", "save"),
                 self._adder("stream.publish_s")),
            ],
        }

    def _adder(self, metric: str):
        def record(elapsed, args, result):
            self.totals[metric] += elapsed

        return record

    def _sampler(self, prefix: str):
        def record(elapsed, args, result):
            self.samples[prefix].append(elapsed)

        return record

    def _on_baskets(self, elapsed, args, result) -> None:
        self.totals["data.load_baskets_s"] += elapsed
        self.totals["data.rows"] += len(result)
        self._loaded.append(result)

    def rows_scanned(self) -> int:
        """Rows read by full scans of every database loaded so far."""
        return sum(db.scans * len(db) for db in self._loaded)

    def _on_generalized(self, elapsed, args, result) -> None:
        self.totals["generalized.total_s"] += elapsed
        self.totals["generalized.large"] += len(result)

    def _on_count(self, elapsed, args, result) -> None:
        candidates = args[1]
        totals = self.totals
        totals["engine.count_s"] += elapsed
        totals["engine.passes"] += 1
        totals["engine.candidates"] += len(candidates)
        if self._in_generalized:
            totals["generalized.count_s"] += elapsed
            totals["generalized.candidates"] += len(candidates)
            if len(next(iter(candidates), ())) == 2:
                totals["engine.pass2_s"] += elapsed
                totals["engine.pass2_candidates"] += len(candidates)
        else:
            totals["negcount.count_s"] += elapsed
            totals["negcount.counted"] += len(candidates)

    def _on_candidates(self, elapsed, args, result) -> None:
        self.totals["candidates.gen_s"] += elapsed
        self.totals["candidates.admitted"] += len(result)
        self.totals["candidates.large"] += len(args[0])

    def _on_select(self, elapsed, args, result) -> None:
        self.totals["negcount.select_s"] += elapsed
        self.totals["negcount.negatives"] += len(result)

    def _on_rulegen(self, elapsed, args, result) -> None:
        self.totals["rulegen.s"] += elapsed
        self.totals["rulegen.rules"] += len(result)

    def _on_apply_delta(self, elapsed, args, result) -> None:
        self.samples["serve.delta_apply"].append(elapsed)
        self.totals["serve.cache_invalidated"] += result[
            "cache_invalidated"
        ]


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def mining_metrics(totals) -> dict[str, float]:
    """The mining layers' per-layer metrics from a probe's totals."""
    t = defaultdict(float, totals)
    gen_s = t["generalized.total_s"] - t["generalized.count_s"]
    return {
        "data.load_baskets_s": t["data.load_baskets_s"],
        "data.load_taxonomy_s": t["data.load_taxonomy_s"],
        "data.rows": t["data.rows"],
        "taxonomy.restrict_s": t["taxonomy.restrict_s"],
        "generalized.gen_s": gen_s,
        "generalized.levels": t["generalized.levels"],
        "generalized.candidates": t["generalized.candidates"],
        "generalized.large": t["generalized.large"],
        "generalized.yield": _ratio(
            t["generalized.large"], t["generalized.candidates"]
        ),
        "engine.count_s": t["engine.count_s"],
        "engine.pass2_s": t["engine.pass2_s"],
        "engine.pass2_candidates": t["engine.pass2_candidates"],
        "engine.passes": t["engine.passes"],
        "engine.candidates": t["engine.candidates"],
        "candidates.gen_s": t["candidates.gen_s"],
        "candidates.admitted": t["candidates.admitted"],
        "candidates.per_large": _ratio(
            t["candidates.admitted"], t["candidates.large"]
        ),
        "negcount.count_s": t["negcount.count_s"],
        "negcount.select_s": t["negcount.select_s"],
        "negcount.negatives": t["negcount.negatives"],
        "negcount.yield": _ratio(
            t["negcount.negatives"], t["negcount.counted"]
        ),
        "rulegen.s": t["rulegen.s"],
        "rulegen.rules": t["rulegen.rules"],
    }
