"""Differential test: candidate generation vs a frozen per-leaf reference.

:func:`reference_candidates` is the generator as it was before lineage
moved into masks: it builds every leaf with ``replace_positions`` and
checks it with ``contains_item_and_ancestor``. The production generator
must return the *same dict* — same keys and ``NegativeCandidate`` values
compared field by field, so expectations must match bit for bit and the
first-wins ``source`` and ``case`` must agree.

Taxonomies are random forests of height >= 3 whose internal nodes have
siblings, so a sibling replacement can be (or be an ancestor of) a kept
item and two replaced positions can pick related items. Supports are
mostly consistent with the taxonomy but not always, so ratios above 1
occur too.
"""

import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.candidates import (
    CASE_CHILDREN,
    CASE_SIBLINGS,
    NegativeCandidate,
    generate_negative_candidates,
)
from repro.core.interest import deviation_threshold
from repro.itemset import replace_positions
from repro.mining.generalized import contains_item_and_ancestor
from repro.mining.itemset_index import LargeItemsetIndex
from repro.taxonomy.builders import taxonomy_from_parents
from repro.taxonomy.prune import restrict_to_items


# ----------------------------------------------------------------------
# Frozen reference: one tuple and one lineage scan per leaf.
# ----------------------------------------------------------------------
def _ratio_pool(index, item, relatives):
    own_support = index.support_or_none((item,))
    if own_support is None or own_support <= 0.0:
        return ()
    entries = [
        (relative, index.support((relative,)) / own_support)
        for relative in relatives
        if index.is_large((relative,))
    ]
    entries.sort(key=lambda entry: -entry[1])
    return tuple(entries)


def reference_candidates(
    index,
    taxonomy,
    minsup,
    minri,
    sources=None,
    max_size=None,
    max_sibling_replacements=None,
):
    threshold = deviation_threshold(minsup, minri)
    out = {}
    if sources is None:
        source_list = [
            items
            for size in index.sizes
            if size >= 2
            for items in sorted(index.of_size(size))
        ]
    else:
        source_list = [items for items in sources if len(items) >= 2]
    for source in source_list:
        if max_size is not None and len(source) > max_size:
            continue
        if any(item not in taxonomy for item in source):
            continue
        if contains_item_and_ancestor(source, taxonomy):
            continue
        _reference_expand(
            source, index.support(source), index, taxonomy, threshold,
            max_sibling_replacements, out,
        )
    return out


def _reference_expand(
    source, base, index, taxonomy, threshold, max_sibling_replacements, out
):
    size = len(source)
    for case, relatives_of, proper_only in (
        (CASE_CHILDREN, taxonomy.children, False),
        (CASE_SIBLINGS, taxonomy.siblings, True),
    ):
        max_positions = size - 1 if proper_only else size
        if case == CASE_SIBLINGS and max_sibling_replacements is not None:
            max_positions = min(max_positions, max_sibling_replacements)
        position_pools = [
            _ratio_pool(index, source[p], relatives_of(source[p]))
            for p in range(size)
        ]
        for count in range(1, max_positions + 1):
            for positions in combinations(range(size), count):
                pools = [position_pools[p] for p in positions]
                if any(not pool for pool in pools):
                    continue
                bound = base
                for pool in pools:
                    bound *= pool[0][1]
                if bound < threshold:
                    continue
                _reference_descend(
                    source, positions, pools, 0, (), base, case,
                    index, taxonomy, threshold, out,
                )


def _reference_descend(
    source, positions, pools, depth, chosen, accumulated, case,
    index, taxonomy, threshold, out,
):
    if depth == len(pools):
        _reference_admit(
            source, positions, chosen, accumulated, case, index,
            taxonomy, out,
        )
        return
    remaining_best = 1.0
    for pool in pools[depth + 1:]:
        remaining_best *= pool[0][1]
    for item, ratio in pools[depth]:
        value = accumulated * ratio
        if value * remaining_best < threshold:
            break
        _reference_descend(
            source, positions, pools, depth + 1, chosen + (item,),
            value, case, index, taxonomy, threshold, out,
        )


def _reference_admit(
    source, positions, assignment, expectation, case, index, taxonomy, out
):
    candidate = replace_positions(source, positions, assignment)
    if candidate is None or candidate in index:
        return
    if contains_item_and_ancestor(candidate, taxonomy):
        return
    existing = out.get(candidate)
    if existing is None or expectation > existing.expected_support:
        out[candidate] = NegativeCandidate(
            items=candidate,
            expected_support=expectation,
            source=source,
            case=case,
        )


# ----------------------------------------------------------------------
# Random forests and indexes
# ----------------------------------------------------------------------
def _forest(rng):
    """A forest with a root-to-node path of length >= 3, fanout 2-3."""
    parents = {}
    next_id = 1
    frontier = []
    for _ in range(rng.randint(1, 2)):
        frontier.append((next_id, 0, not frontier))
        next_id += 1
    while frontier:
        node, depth, spine = frontier.pop()
        if depth == 3 or (not spine and depth and rng.random() < 0.35):
            continue
        for slot in range(rng.randint(2, 3)):
            parents[next_id] = node
            frontier.append((next_id, depth + 1, spine and slot == 0))
            next_id += 1
    return taxonomy_from_parents(parents)


def _index(rng, taxonomy):
    """Large singles (some with a small parent) plus random itemsets."""
    supports = {}
    for node in sorted(taxonomy.nodes, key=taxonomy.depth):
        parent = taxonomy.parent(node)
        ceiling = 1.0 if parent is None else supports[parent]
        if rng.random() < 0.1:
            ceiling = min(1.0, ceiling * 1.5)
        supports[node] = rng.uniform(0.2, 1.0) * ceiling
    index = LargeItemsetIndex()
    for node, support in supports.items():
        if rng.random() < 0.85:
            index.add((node,), support)
    large = [items[0] for items in index.of_size(1)]
    for _ in range(rng.randint(3, 25)):
        # Now and then an itemset with a small item: a stale entry the
        # pruned taxonomy no longer knows.
        members = large if rng.random() < 0.9 else list(supports)
        if len(members) < 2:
            break
        size = rng.randint(2, min(4, len(members)))
        items = tuple(sorted(rng.sample(members, size)))
        if contains_item_and_ancestor(items, taxonomy):
            # Keep a few degenerate itemsets (the Basic miner's kind).
            if rng.random() < 0.8:
                continue
        support = rng.uniform(0.3, 1.0) * min(supports[i] for i in items)
        index.add(items, support)
    return index


@st.composite
def scenarios(draw):
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    taxonomy = _forest(rng)
    index = _index(rng, taxonomy)
    if draw(st.booleans()):
        # The Improved miner's pruned taxonomy; a large node under a
        # small parent is re-rooted there.
        taxonomy = restrict_to_items(
            taxonomy, [items[0] for items in index.of_size(1)]
        )
    sources = None
    if draw(st.booleans()):
        pool = sorted(index)
        sources = rng.sample(pool, rng.randint(0, len(pool)))
    return taxonomy, index, sources


@settings(max_examples=150, deadline=None)
@given(
    scenarios(),
    st.sampled_from([0.01, 0.05, 0.1]),
    st.sampled_from([0.2, 0.5]),
    st.sampled_from([None, 1, 2]),
    st.sampled_from([None, 2, 3]),
)
def test_generation_equals_frozen_reference(
    scenario, minsup, minri, max_sibling_replacements, max_size
):
    taxonomy, index, sources = scenario
    kwargs = dict(
        sources=sources,
        max_size=max_size,
        max_sibling_replacements=max_sibling_replacements,
    )
    produced = generate_negative_candidates(
        index, taxonomy, minsup, minri, **kwargs
    )
    assert produced == reference_candidates(
        index, taxonomy, minsup, minri, **kwargs
    )


def test_sibling_that_is_an_ancestor_of_a_kept_item():
    # 1 -> {2, 3}; 2 -> {4, 5}; 4 -> {6, 7}. Replacing 3 by its sibling
    # 2 next to the kept 6 would pair 6 with its grandparent.
    taxonomy = taxonomy_from_parents(
        {2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 4}
    )
    index = LargeItemsetIndex(
        {(node,): 0.5 for node in range(1, 8)} | {(3, 6): 0.4}
    )
    produced = generate_negative_candidates(index, taxonomy, 0.1, 0.5)
    assert produced == reference_candidates(index, taxonomy, 0.1, 0.5)
    assert (2, 6) not in produced
    assert (3, 7) in produced


def test_two_replaced_positions_never_pick_related_items():
    # Sources {3, 5, 9}: 3's sibling 2 is the parent of 5's sibling 4.
    taxonomy = taxonomy_from_parents(
        {2: 1, 3: 1, 4: 2, 5: 2, 8: 1, 9: 8, 10: 8}
    )
    singles = {(node,): 0.5 for node in range(1, 11) if node != 7}
    index = LargeItemsetIndex(singles | {(3, 5, 9): 0.3})
    produced = generate_negative_candidates(index, taxonomy, 0.05, 0.5)
    assert produced == reference_candidates(index, taxonomy, 0.05, 0.5)
    for items in produced:
        assert not contains_item_and_ancestor(items, taxonomy)
