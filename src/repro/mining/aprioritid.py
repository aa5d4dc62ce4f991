"""AprioriTid and AprioriHybrid (Agrawal & Srikant, VLDB 1994).

The paper's rule generator extends ap-genrules from reference [2], whose
other contribution is a pair of miners that avoid re-reading the database
after the first pass:

AprioriTid
    Keeps, for every transaction, the set of current-level candidates it
    contains (the set ``C̄_k``). Level ``k+1`` candidates are counted
    against ``C̄_k`` alone: a transaction contains candidate ``c`` exactly
    when it contains both of ``c``'s *generators* (the two ``k``-subsets
    joined by apriori-gen). Only **one** pass is ever made over the data;
    every later level works on the shrinking in-memory image.

AprioriHybrid
    Apriori's counting is cheaper in early passes (``C̄`` is huge), while
    AprioriTid wins once ``C̄`` fits comfortably in memory. The hybrid
    runs Apriori and switches to the Tid representation at the first
    level where the estimated image size drops under a budget.

Both return exactly the same :class:`LargeItemsetIndex` as plain Apriori
(property-tested).
"""

from __future__ import annotations

from collections import defaultdict

from .. import _util
from .._util import check_fraction, check_positive
from ..data.database import TransactionDatabase
from ..itemset import Itemset
from .apriori import _default_session, apriori_gen
from .itemset_index import LargeItemsetIndex

#: A transaction's image: the ids of the current-level candidates it
#: contains. Ids index into the level's candidate list.
_Image = list[set[int]]


def _generators(candidate: Itemset) -> tuple[Itemset, Itemset]:
    """The two (k-1)-subsets apriori-gen joined to build *candidate*."""
    return candidate[:-1], candidate[:-2] + candidate[-1:]


def find_large_itemsets_aprioritid(
    database: TransactionDatabase,
    minsup: float,
    max_size: int | None = None,
) -> LargeItemsetIndex:
    """Mine all large itemsets with a single pass over the data.

    Parameters
    ----------
    database:
        Transactions over plain items.
    minsup:
        Fractional minimum support in ``(0, 1]``.
    max_size:
        Optional cap on itemset size.

    Returns
    -------
    LargeItemsetIndex
        Identical content to
        :func:`repro.mining.apriori.find_large_itemsets`.
    """
    check_fraction(minsup, "minsup")
    total = len(database)
    min_count = _util.min_count(minsup, total)
    index = LargeItemsetIndex()

    # The single data pass: materialize rows and count 1-itemsets.
    rows = list(database.scan())
    counts: dict[int, int] = defaultdict(int)
    for row in rows:
        for item in row:
            counts[item] += 1
    large_items = {
        item for item, count in counts.items() if count >= min_count
    }
    for item in large_items:
        index.add((item,), counts[item] / total)

    current_level = sorted((item,) for item in large_items)
    # Initial image: the large items of each row, as candidate ids.
    position = {candidate: i for i, candidate in enumerate(current_level)}
    image: _Image = [
        {position[(item,)] for item in row if item in large_items}
        for row in rows
    ]

    size = 2
    while current_level and (max_size is None or size <= max_size):
        candidates = apriori_gen(current_level)
        if not candidates:
            break
        survivors = _advance(candidates, current_level, image, min_count)
        current_level = []
        for candidate, count in survivors:
            index.add(candidate, count / total)
            current_level.append(candidate)
        size += 1
    return index


def _advance(
    candidates: list[Itemset],
    previous_level: list[Itemset],
    image: _Image,
    min_count: int,
) -> list[tuple[Itemset, int]]:
    """Count *candidates* against the image and shrink it in place.

    Mutates *image* so each entry holds the ids of the *surviving*
    candidates it contains (entries for the next level).
    """
    previous_position = {
        candidate: i for i, candidate in enumerate(previous_level)
    }
    # first-generator id -> [(candidate index, second-generator id)]
    by_first: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for candidate_id, candidate in enumerate(candidates):
        first, second = _generators(candidate)
        by_first[previous_position[first]].append(
            (candidate_id, previous_position[second])
        )

    counts = [0] * len(candidates)
    matched_per_row: list[list[int]] = []
    for entry in image:
        matched: list[int] = []
        for first_id in entry:
            for candidate_id, second_id in by_first.get(first_id, ()):
                if second_id in entry:
                    matched.append(candidate_id)
                    counts[candidate_id] += 1
        matched_per_row.append(matched)

    survivors = [
        (candidate, counts[candidate_id])
        for candidate_id, candidate in enumerate(candidates)
        if counts[candidate_id] >= min_count
    ]
    renumber = {
        old_id: new_id
        for new_id, (old_id, _) in enumerate(
            (candidate_id, candidate)
            for candidate_id, candidate in enumerate(candidates)
            if counts[candidate_id] >= min_count
        )
    }
    for row_index, matched in enumerate(matched_per_row):
        image[row_index] = {
            renumber[candidate_id]
            for candidate_id in matched
            if candidate_id in renumber
        }
    return survivors


def find_large_itemsets_hybrid(
    database: TransactionDatabase,
    minsup: float,
    session=None,
    switch_budget: int = 100_000,
    max_size: int | None = None,
) -> LargeItemsetIndex:
    """AprioriHybrid: Apriori passes first, AprioriTid once ``C̄`` fits.

    Parameters
    ----------
    database, minsup, max_size:
        As for the other miners.
    session:
        :class:`~repro.core.session.MiningSession` used for the Apriori
        phase's counting; ``None`` uses a serial default-engine session.
    switch_budget:
        Switch to the Tid representation at the end of the first level
        whose image would hold at most this many (transaction, candidate)
        memberships — the original's "C̄_k fits in memory" test with the
        memory size expressed in entries.

    Returns
    -------
    LargeItemsetIndex
        Identical content to plain Apriori.
    """
    check_fraction(minsup, "minsup")
    check_positive(switch_budget, "switch_budget")
    if session is None:
        session = _default_session(database)
    total = len(database)
    min_count = _util.min_count(minsup, total)
    index = LargeItemsetIndex()

    item_counts = session.count(
        [(item,) for item in database.items],
        transactions=database,
        taxonomy=None,
    )
    current_level = []
    for single, count in sorted(item_counts.items()):
        if count >= min_count:
            index.add(single, count / total)
            current_level.append(single)

    size = 2
    while current_level and (max_size is None or size <= max_size):
        candidates = apriori_gen(current_level)
        if not candidates:
            break
        counts = session.count(
            candidates, transactions=database, taxonomy=None
        )
        current_level = []
        membership_entries = 0
        for candidate, count in counts.items():
            if count >= min_count:
                index.add(candidate, count / total)
                current_level.append(candidate)
                membership_entries += count
        size += 1
        if membership_entries <= switch_budget:
            break  # image is small enough; finish with the Tid phase

    if not current_level or (max_size is not None and size > max_size):
        return index

    # Build the image for the current level with one more pass, then run
    # the remaining levels in memory.
    current_level.sort()
    position = {candidate: i for i, candidate in enumerate(current_level)}
    image: _Image = []
    level_size = size - 1
    for row in database.scan():
        row_set = set(row)
        image.append(
            {
                position[candidate]
                for candidate in current_level
                if all(item in row_set for item in candidate)
            }
        )
    _ = level_size

    while current_level and (max_size is None or size <= max_size):
        candidates = apriori_gen(current_level)
        if not candidates:
            break
        survivors = _advance(candidates, current_level, image, min_count)
        current_level = []
        for candidate, count in survivors:
            index.add(candidate, count / total)
            current_level.append(candidate)
        size += 1
    return index
