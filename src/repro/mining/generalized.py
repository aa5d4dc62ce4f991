"""Generalized association mining over a taxonomy (Srikant–Agrawal 1995).

The negative-rule algorithm's first step is "find all the generalized large
itemsets in the data (i.e., itemsets at all levels in the taxonomy whose
support is greater than the user specified minimum support)", citing the
*Basic*, *Cumulate* and *EstMerge* algorithms. All three are implemented
here behind one entry point, :func:`mine_generalized`.

Generalized support: a transaction (of leaf items) supports an itemset when
the transaction *extended with all ancestors* of its items contains the
itemset. Categories therefore accumulate the support of their descendants.

Algorithms
----------
Basic
    Extend every transaction with all ancestors and run plain level-wise
    Apriori over the extended rows. Itemsets containing both an item and
    its ancestor are kept (they are trivially as frequent as the item) —
    exactly as in the original paper.

Cumulate
    Three optimizations over Basic, none of which changes which
    *interesting* itemsets are found:

    1. pre-computed ancestor table and per-pass filtering of the extension
       to items that can occur in a candidate;
    2. pruning of any candidate that contains both an item and one of its
       ancestors (their support equals the support without the ancestor, so
       they carry no information) — applied to the pairs only: a later
       candidate holding an item and its ancestor has that pair as a
       subset, so ``apriori_gen``'s subset prune already drops it;
    3. items occurring in no candidate are dropped from rows before
       matching.

Est_merge (``"estmerge"``)
    Sampling-guided counting. Each new candidate's support is first
    estimated on a random sample; estimated-large candidates are counted
    against the full database in the current pass, while the doubtful
    rest are *deferred and merged* into the following pass. Candidates
    are always generated from confirmed large itemsets; when a deferred
    candidate proves large after all, the next size is re-queued so its
    extensions are generated and counted in a catch-up pass (the
    "merge"). Every candidate is counted against the database exactly
    once and the final output equals Cumulate's (property-tested) — the
    sample only shifts *when* each candidate is counted. This follows
    the estimate-then-merge structure of the original; its remaining-time
    heuristics for choosing what to defer are simplified to a single
    estimated-support threshold.

Levels 1 and 2
--------------
All three algorithms count levels 1 and 2 with the dense kernels of
:mod:`repro.mining.pairs` instead of a counting engine: one scan encodes
the ancestor-extended rows, level 1 is a ``bincount`` over all nodes and
level 2 a ``bincount`` over the pairs of large singles. Neither level
has a candidate list worth matching (level 2 is every pair of large
singles), so the session's engine counts from level 3 on. The scan
still books two *logical* passes, one per level, so the paper's pass
accounting is unchanged.
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from .. import _util
from .._util import check_fraction
from ..data.database import TransactionDatabase
from ..data.sampling import sample_database
from ..errors import ConfigError
from ..itemset import Itemset
from ..obs import api as obs
from ..taxonomy.tree import Taxonomy
from .apriori import apriori_gen
from .itemset_index import LargeItemsetIndex
from .pairs import count_dense_levels

ALGORITHMS = ("basic", "cumulate", "estmerge")


def _resolve_session(session, database, taxonomy):
    """The caller's session, or a serial default-engine one.

    Imported lazily: :mod:`repro.core.session` sits above the mining
    package in the import graph.
    """
    if session is not None:
        return session
    from ..core.session import MiningSession

    return MiningSession(database, taxonomy)


def extend_database(
    database: TransactionDatabase, taxonomy: Taxonomy
) -> TransactionDatabase:
    """Materialize the ancestor-extended version of *database*.

    Useful for running non-taxonomy miners (e.g. Partition) in the
    generalized setting. Costs one pass over the data.
    """
    return TransactionDatabase(
        taxonomy.ancestor_closure(row) for row in database.scan()
    )


def contains_item_and_ancestor(items: Itemset, taxonomy: Taxonomy) -> bool:
    """True when some member of *items* is an ancestor of another member."""
    members = set(items)
    for item in items:
        if members.intersection(taxonomy.ancestors(item)):
            return True
    return False


def mine_generalized(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    algorithm: str = "cumulate",
    session=None,
    max_size: int | None = None,
    sample_fraction: float = 0.1,
    estimation_slack: float = 0.9,
    rng: random.Random | None = None,
) -> LargeItemsetIndex:
    """Mine all generalized large itemsets of *database* under *taxonomy*.

    Parameters
    ----------
    database:
        Transactions over taxonomy *leaves*.
    taxonomy:
        The item taxonomy; every transaction item must be a node in it.
    minsup:
        Fractional minimum support in ``(0, 1]``.
    algorithm:
        ``"basic"``, ``"cumulate"`` (default) or ``"estmerge"``.
    session:
        The :class:`~repro.core.session.MiningSession` every counting
        pass from level 3 on goes through (engine, cache and parallel
        policy); ``None`` uses a serial default-engine session over
        *database*. Levels 1 and 2 are counted by the dense kernels of
        :mod:`repro.mining.pairs`.
    max_size:
        Optional cap on itemset size.
    sample_fraction, estimation_slack, rng:
        EstMerge tuning: sample size as a fraction of |D|, and the
        fraction of ``minsup`` above which a sampled estimate counts as
        "probably large". Ignored by the other algorithms.

    Returns
    -------
    LargeItemsetIndex
        All generalized large itemsets with fractional supports. With
        ``"basic"``, itemsets mixing an item and its ancestor are included
        (as in the original Basic); the other algorithms prune them.
    """
    check_fraction(minsup, "minsup")
    if algorithm not in ALGORITHMS:
        raise ConfigError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    session = _resolve_session(session, database, taxonomy)
    if algorithm == "estmerge":
        return _mine_estmerge(
            database,
            taxonomy,
            minsup,
            session,
            max_size,
            sample_fraction,
            estimation_slack,
            rng,
        )
    prune_lineage = algorithm == "cumulate"
    restrict = algorithm == "cumulate"
    return _mine_levelwise(
        database,
        taxonomy,
        minsup,
        session,
        max_size,
        prune_lineage,
        restrict,
    )


def _dense_levels(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    min_count: int,
    max_size: int | None,
    prune_lineage: bool,
) -> tuple[dict[Itemset, int], dict[Itemset, int]]:
    """Levels 1 and 2 as counts, from one scan (two logical passes).

    With *prune_lineage* (Cumulate), pairs of an item and its ancestor
    are dropped. Level 2's logical pass is booked exactly when the
    candidate-list path would have counted a non-empty C2: the pairs of
    large singles, less the item-ancestor pairs under Cumulate.
    """
    with_pairs = max_size is None or max_size >= 2
    with obs.span("gen.dense") as span:
        dense = count_dense_levels(
            database, taxonomy, min_count, with_pairs=with_pairs
        )
        singles, pairs = dense.singles, dense.pairs
        m = len(singles)
        candidates = m * (m - 1) // 2 if with_pairs else 0
        if prune_lineage:
            candidates -= sum(
                1
                for (item,) in singles
                for ancestor in taxonomy.ancestors(item)
                if (ancestor,) in singles
            )
            pairs = {
                pair: count
                for pair, count in pairs.items()
                if not contains_item_and_ancestor(pair, taxonomy)
            }
        if candidates:
            database.count_logical_pass()
        span.annotate("m", m)
        span.annotate("candidates", candidates)
        span.annotate("pairs_enumerated", dense.pairs_enumerated)
        span.annotate("pairs_emitted", len(dense.pairs))
        span.annotate("tiles", dense.tiles)
    obs.incr("gen.dense.large_singles", m)
    obs.incr("gen.dense.pairs_enumerated", dense.pairs_enumerated)
    obs.incr("gen.dense.pairs_emitted", len(dense.pairs))
    obs.incr("gen.dense.tiles", dense.tiles)
    return singles, pairs


def iter_generalized_levels(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session=None,
    max_size: int | None = None,
    prune_lineage: bool = True,
    restrict: bool = True,
) -> "Iterator[dict[Itemset, float]]":
    """Yield the generalized large itemsets one level at a time.

    Each yielded mapping holds the size-``k`` large itemsets with their
    fractional supports; producing it costs exactly one logical pass over
    the data. Levels 1 and 2 come from the dense kernels of
    :mod:`repro.mining.pairs` (one physical read of the database, whose
    counts are kept for later runs); from level 3 on, counting goes
    through *session* (``None`` = a serial default-engine session). The
    Naive negative miner consumes this generator so it can interleave its
    own negative-candidate counting pass after every level (two passes
    per iteration, as in Section 2.2.1).

    *prune_lineage* (Cumulate) drops pairs of an item and its ancestor
    from level 2, which keeps them out of every later level too.
    """
    check_fraction(minsup, "minsup")
    session = _resolve_session(session, database, taxonomy)
    total = len(database)
    min_count = _util.min_count(minsup, total)

    singles, pairs = _dense_levels(
        database, taxonomy, min_count, max_size, prune_lineage
    )
    yield {single: count / total for single, count in singles.items()}
    if not pairs:
        return
    level = {pair: count / total for pair, count in pairs.items()}
    yield level

    current = list(level)
    size = 3
    while max_size is None or size <= max_size:
        with obs.span("gen.candidates") as span:
            candidates = apriori_gen(current)
            span.annotate("size", size)
            span.annotate("candidates", len(candidates))
        if not candidates:
            return
        counts = session.count(
            candidates,
            transactions=database,
            taxonomy=taxonomy,
            restrict_to_candidate_items=restrict,
        )
        level = {
            candidate: count / total
            for candidate, count in counts.items()
            if count >= min_count
        }
        if not level:
            return
        yield level
        current = list(level)
        size += 1


def _mine_levelwise(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session,
    max_size: int | None,
    prune_lineage: bool,
    restrict: bool,
) -> LargeItemsetIndex:
    """Shared level-wise loop for Basic and Cumulate."""
    index = LargeItemsetIndex()
    for level in iter_generalized_levels(
        database,
        taxonomy,
        minsup,
        session=session,
        max_size=max_size,
        prune_lineage=prune_lineage,
        restrict=restrict,
    ):
        for candidate, support in level.items():
            index.add(candidate, support)
    return index


def _mine_estmerge(
    database: TransactionDatabase,
    taxonomy: Taxonomy,
    minsup: float,
    session,
    max_size: int | None,
    sample_fraction: float,
    estimation_slack: float,
    rng: random.Random | None,
) -> LargeItemsetIndex:
    """Sampling-guided variant; see module docstring for the contract.

    Work-queue formulation. Candidates are always generated from
    *confirmed* large itemsets (so every candidate's subsets are already
    known large). A new candidate's support is first estimated on the
    sample; estimated-large candidates join the current counting pass,
    estimated-small ones are *deferred* and merged into the following
    pass. When a deferred candidate proves large after all, the sizes
    above it are re-queued for generation so its extensions are produced
    (the "merge" catch-up) — already-counted candidates are skipped, so
    each candidate is counted against the database exactly once.
    """
    if not 0.0 < estimation_slack <= 1.0:
        raise ConfigError(
            f"estimation_slack must be in (0, 1], got {estimation_slack}"
        )
    total = len(database)
    min_count = _util.min_count(minsup, total)
    index = LargeItemsetIndex()

    sample = sample_database(database, sample_fraction, rng=rng)
    sample_threshold = estimation_slack * minsup * len(sample)

    singles, pairs = _dense_levels(
        database, taxonomy, min_count, max_size, prune_lineage=True
    )
    for items, count in (*singles.items(), *pairs.items()):
        index.add(items, count / total)

    queued: set[Itemset] = set()  # estimated or counted at least once
    deferred: list[Itemset] = []  # estimated-small, awaiting exact counts
    to_generate: set[int] = {3}
    while True:
        fresh: list[Itemset] = []
        with obs.span("gen.candidates") as span:
            for size in sorted(to_generate):
                if max_size is not None and size > max_size:
                    continue
                previous = sorted(index.of_size(size - 1))
                if not previous:
                    continue
                for candidate in apriori_gen(previous):
                    if candidate not in queued:
                        queued.add(candidate)
                        fresh.append(candidate)
            span.annotate("candidates", len(fresh))
        to_generate = set()

        if not fresh and not deferred:
            break

        if fresh:
            # The sample is small by construction; estimating on it stays
            # serial (the parallel wrapper is unwrapped) — sharding it
            # would cost more than it saves.
            estimates = session.count(
                fresh,
                transactions=sample,
                taxonomy=taxonomy,
                serial=True,
            )
            probably_large = [
                candidate
                for candidate in fresh
                if estimates[candidate] >= sample_threshold
            ]
            doubtful = [
                candidate
                for candidate in fresh
                if estimates[candidate] < sample_threshold
            ]
        else:
            probably_large, doubtful = [], []

        to_count = probably_large + deferred
        deferred = doubtful
        if not to_count:
            if not deferred:
                break
            continue
        counts = session.count(
            to_count,
            transactions=database,
            taxonomy=taxonomy,
            restrict_to_candidate_items=True,
        )
        for candidate, count in counts.items():
            if count >= min_count:
                index.add(candidate, count / total)
                # Newly confirmed itemsets may enable extensions that
                # were never generated; re-queue the next size.
                to_generate.add(len(candidate) + 1)
    return index
