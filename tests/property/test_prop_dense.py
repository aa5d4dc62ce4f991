"""Property tests: dense levels 1-2 equal the candidate-list oracle.

Generalized levels 1 and 2 are counted by the dense kernels of
:mod:`repro.mining.pairs` instead of an engine. The oracle is the path
they replaced: the ``brute`` engine counts every taxonomy node, then the
``apriori_gen`` pairs of the large singles (less the item-ancestor pairs
under Cumulate). Taxonomies are random forests whose node ids are
shuffled, so id order and the kernels' preorder slots disagree; rows
draw from every node, categories included.
"""

from itertools import combinations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.data.filedb import FileBackedDatabase
from repro.data.io import save_basket_file
from repro.itemset import itemset
from repro.mining import pairs
from repro.mining.apriori import apriori_gen
from repro.mining.generalized import (
    contains_item_and_ancestor,
    iter_generalized_levels,
)
from repro.mining.vertical import VerticalIndex
from repro.taxonomy.builders import taxonomy_from_parents


@st.composite
def taxonomies(draw, min_nodes=1, max_nodes=14):
    """A random forest: each node's parent is an earlier node or none."""
    size = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    ids = draw(st.permutations(range(10, 10 + size)))
    parents, roots = {}, []
    for position, node in enumerate(ids):
        parent = (
            draw(st.none() | st.integers(0, position - 1))
            if position
            else None
        )
        if parent is None:
            roots.append(node)
        else:
            parents[node] = ids[parent]
    return taxonomy_from_parents(parents, extra_roots=roots)


@st.composite
def mining_inputs(draw):
    """(taxonomy, rows, minsup); minsup is often an exact count / |D|."""
    taxonomy = draw(taxonomies())
    nodes = sorted(taxonomy.nodes)
    rows = draw(
        st.lists(
            st.lists(st.sampled_from(nodes), min_size=1, max_size=6),
            min_size=1,
            max_size=30,
        )
    )
    count = draw(st.integers(min_value=1, max_value=len(rows)))
    minsup = draw(
        st.sampled_from([count / len(rows), 0.1, 0.3, 0.5, 1.0])
    )
    return taxonomy, rows, minsup


def oracle_levels(rows, taxonomy, minsup, cumulate):
    """Levels 1-2 through the brute engine; and whether C2 is non-empty."""
    database = TransactionDatabase(rows)
    session = MiningSession(database, taxonomy, "brute")
    total = len(database)
    counts = session.count([(node,) for node in taxonomy.nodes])
    singles = {
        single: count / total
        for single, count in counts.items()
        if count / total >= minsup
    }
    candidates = apriori_gen(sorted(singles))
    if cumulate:
        candidates = [
            pair
            for pair in candidates
            if not contains_item_and_ancestor(pair, taxonomy)
        ]
    counts = session.count(candidates)
    doubles = {
        pair: count / total
        for pair, count in counts.items()
        if count / total >= minsup
    }
    return singles, doubles, bool(candidates)


def dense_levels(rows, taxonomy, minsup, cumulate):
    """Levels 1-2 from the miner, and the logical passes they booked."""
    database = TransactionDatabase(rows)
    levels = iter_generalized_levels(
        database, taxonomy, minsup, prune_lineage=cumulate
    )
    singles = next(levels)
    doubles = next(levels, {})
    return singles, doubles, database.logical_scans, database.scans


def check_against_oracle(rows, taxonomy, minsup, cumulate):
    singles, doubles, logical, physical = dense_levels(
        rows, taxonomy, minsup, cumulate
    )
    want_singles, want_doubles, counted_c2 = oracle_levels(
        rows, taxonomy, minsup, cumulate
    )
    assert singles == want_singles
    assert doubles == want_doubles
    assert list(singles) == sorted(singles)
    assert list(doubles) == sorted(doubles)
    # Two logical passes exactly when the old path counted a C2; one read.
    assert logical == 1 + counted_c2
    assert physical == 1


@pytest.mark.parametrize("cumulate", [False, True], ids=["basic", "cumulate"])
@settings(max_examples=150, deadline=None)
@given(mining_inputs())
def test_dense_levels_match_brute(cumulate, inputs):
    taxonomy, rows, minsup = inputs
    check_against_oracle(rows, taxonomy, minsup, cumulate)


@pytest.mark.parametrize("cumulate", [False, True], ids=["basic", "cumulate"])
@settings(max_examples=60, deadline=None)
@given(mining_inputs(), st.integers(min_value=1, max_value=120))
def test_tiled_triangle_matches_brute(cumulate, inputs, working_bytes):
    """A tiny working-memory cap splits the triangle into many tiles."""
    taxonomy, rows, minsup = inputs
    with mock.patch.object(pairs, "WORKING_BYTES", working_bytes):
        check_against_oracle(rows, taxonomy, minsup, cumulate)


def test_small_cap_counts_in_several_tiles():
    taxonomy = taxonomy_from_parents({}, extra_roots=range(6))
    rows = [[0, 1, 2, 3, 4, 5]] * 3 + [[0, 5]]
    whole = pairs.count_dense_levels(
        TransactionDatabase(rows), taxonomy, 2
    )
    with mock.patch.object(pairs, "WORKING_BYTES", 48):
        tiled = pairs.count_dense_levels(
            TransactionDatabase(rows), taxonomy, 2
        )
    assert whole.tiles == 1
    # 48 bytes leave 24 for the block: 2 cells of 12 bytes per tile.
    assert tiled.tiles == 15 // 2 + 1
    assert tiled == pairs.DenseLevels(
        whole.singles, whole.pairs, whole.pairs_enumerated, tiled.tiles
    )
    assert tiled.pairs[(0, 5)] == 4
    assert tiled.pairs_enumerated == 3 * 15 + 1


# Flat forest 0..5 plus a chain 10 -> 11 -> 12 (12 is the root).
EDGE_TAXONOMY = taxonomy_from_parents(
    {10: 11, 11: 12}, extra_roots=range(6)
)


@pytest.mark.parametrize("cumulate", [False, True], ids=["basic", "cumulate"])
@pytest.mark.parametrize(
    "rows, minsup",
    [
        pytest.param([[0], [1], [2], [3]], 0.5, id="no-large-single"),
        pytest.param([[0], [0, 1], [2], [0, 3]], 0.75, id="one-large-single"),
        pytest.param(
            [[0, 1], [0, 2], [1, 2], [3]], 0.5, id="rows-with-0-or-1-large"
        ),
        pytest.param(
            [[0, 1]] * 7 + [[2]] * 93, 0.07, id="float-threshold-above-7"
        ),
        pytest.param(
            [[0, 1]] * 29 + [[2]] * 71, 0.29, id="exactly-at-threshold"
        ),
        pytest.param([[10]] * 3 + [[0]], 0.5, id="chain-only-lineage-pairs"),
        pytest.param(
            [[10, 0], [11, 1], [12, 0]], 1 / 3, id="categories-in-rows"
        ),
    ],
)
def test_edge_cases_match_brute(rows, minsup, cumulate):
    check_against_oracle(rows, EDGE_TAXONOMY, minsup, cumulate)


def first_two_levels(database, taxonomy, minsup, cumulate):
    levels = iter_generalized_levels(
        database, taxonomy, minsup, prune_lineage=cumulate
    )
    return next(levels), next(levels, {})


def oracle_two_levels(rows, taxonomy, minsup, cumulate):
    return oracle_levels(rows, taxonomy, minsup, cumulate)[:2]


@pytest.mark.parametrize("cumulate", [False, True], ids=["basic", "cumulate"])
@settings(max_examples=60, deadline=None)
@given(mining_inputs(), st.data())
def test_appends_extend_the_cached_encoding(cumulate, inputs, data):
    """Re-mining after an append reads only the appended rows; an
    out-of-band rewrite re-encodes from a physical scan."""
    taxonomy, rows, minsup = inputs
    row_lists = st.lists(
        st.lists(st.sampled_from(sorted(taxonomy.nodes)), min_size=1),
        min_size=1,
        max_size=10,
    )
    tail, rewrite = data.draw(row_lists), data.draw(row_lists)
    database = TransactionDatabase(rows)
    assert first_two_levels(
        database, taxonomy, minsup, cumulate
    ) == oracle_two_levels(rows, taxonomy, minsup, cumulate)
    database.append(tail)
    assert first_two_levels(
        database, taxonomy, minsup, cumulate
    ) == oracle_two_levels(rows + tail, taxonomy, minsup, cumulate)
    # Another MinSup on the same counts: served from the kept triangle
    # when its singles cover the new large ones, recounted otherwise.
    other = data.draw(st.sampled_from([0.05, 0.2, 0.4, 0.8]))
    assert first_two_levels(
        database, taxonomy, other, cumulate
    ) == oracle_two_levels(rows + tail, taxonomy, other, cumulate)
    assert database.scans == 1
    database._transactions = tuple(map(itemset, rewrite))
    assert first_two_levels(
        database, taxonomy, minsup, cumulate
    ) == oracle_two_levels(rewrite, taxonomy, minsup, cumulate)
    assert database.scans == 2


def test_file_appends_extend_the_cached_encoding(tmp_path):
    path = tmp_path / "rows.basket"
    rows = [[10, 0], [11, 1], [12, 0], [0, 1]]
    save_basket_file(TransactionDatabase(rows), path)
    database = FileBackedDatabase(path)
    minsup = 0.25

    def check(current):
        assert first_two_levels(
            database, EDGE_TAXONOMY, minsup, True
        ) == oracle_two_levels(current, EDGE_TAXONOMY, minsup, True)

    check(rows)
    database.append([[10, 1], [2]])
    check(rows + [[10, 1], [2]])
    assert database.scans == 1
    save_basket_file(TransactionDatabase([[3, 4]] * 3), path)
    assert database.absorb_appends() == (0, True)  # a foreign rewrite
    check([[3, 4]] * 3)
    assert database.scans == 2


@st.composite
def lineage_free_levels(draw):
    """A taxonomy and a lineage-free level of (k-1)-itemsets, k >= 3.

    The level holds the lineage-free (k-1)-subsets of a random node
    pool, less a random few, so ``apriori_gen`` has many joins to make.
    """
    size = draw(st.integers(min_value=2, max_value=4))
    taxonomy = draw(taxonomies(min_nodes=size, max_nodes=10))
    pool = draw(
        st.lists(
            st.sampled_from(sorted(taxonomy.nodes)),
            min_size=size,
            max_size=8,
            unique=True,
        )
    )
    level = [
        items
        for items in combinations(sorted(pool), size)
        if not contains_item_and_ancestor(items, taxonomy)
    ]
    dropped = draw(st.sets(st.sampled_from(level))) if level else set()
    return taxonomy, set(level) - dropped


@settings(max_examples=200, deadline=None)
@given(lineage_free_levels())
def test_apriori_gen_keeps_levels_lineage_free(inputs):
    """Cumulate's item-ancestor prune is only needed at k = 2.

    A size-k candidate holding an item and its ancestor has a
    (k-1)-subset holding both (k >= 3), which is not in a lineage-free
    level, so the subset prune of ``apriori_gen`` already drops it.
    """
    taxonomy, previous = inputs
    for candidate in apriori_gen(previous):
        assert not contains_item_and_ancestor(candidate, taxonomy)


def index_counts(index, taxonomy):
    """Every node single and pair, counted plain and generalized."""
    nodes = sorted(taxonomy.nodes)
    candidates = [(node,) for node in nodes] + list(combinations(nodes, 2))
    return index.count(candidates), index.count(candidates, taxonomy)


@pytest.mark.parametrize("packed", [False, True], ids=["bigint", "packed"])
@settings(max_examples=60, deadline=None)
@given(mining_inputs(), st.data())
def test_index_built_from_kept_slots_matches_a_scan(packed, inputs, data):
    """After the kernel ran, the vertical index is built from its kept
    item slots without a read, holding the bits a scan would set — also
    once an append was caught up."""
    taxonomy, rows, minsup = inputs
    database = TransactionDatabase(rows)
    first_two_levels(database, taxonomy, minsup, True)
    if data.draw(st.booleans()):
        database.append(
            data.draw(
                st.lists(
                    st.lists(
                        st.sampled_from(sorted(taxonomy.nodes)), min_size=1
                    ),
                    min_size=1,
                    max_size=10,
                )
            )
        )
        first_two_levels(database, taxonomy, minsup, True)
    scans = database.scans
    built = VerticalIndex.build(database, packed=packed)
    assert database.scans == scans
    scanned = VerticalIndex.from_rows(list(database), packed=packed)
    assert index_counts(built, taxonomy) == index_counts(scanned, taxonomy)


def test_kept_slots_are_not_served_for_other_rows():
    database = TransactionDatabase([[10, 0], [11, 1]])
    first_two_levels(database, EDGE_TAXONOMY, 0.5, True)
    assert pairs.kept_row_bits(database, 8) is not None
    database.append([[2]])  # not caught up by the kernel yet
    assert pairs.kept_row_bits(database, 8) is None
    first_two_levels(database, EDGE_TAXONOMY, 0.5, True)
    assert pairs.kept_row_bits(database, 8) is not None
    database._transactions = ((3,),)  # an out-of-band rewrite
    assert pairs.kept_row_bits(database, 8) is None
    # Only a file-backed database's rows are decoded.
    assert pairs.kept_rows(database) is None


@pytest.mark.parametrize("engine", ["cached", "mmap"])
def test_caching_engines_read_a_fresh_basket_file_once(tmp_path, engine):
    """Levels 3+ count on an index built from the kernel's kept slots."""
    rows = [[0, 1, 2, 10], [0, 1, 2], [0, 1, 11], [2, 3], [0, 1, 2, 3]] * 4
    path = tmp_path / "rows.basket"
    save_basket_file(TransactionDatabase(rows), path)
    database = FileBackedDatabase(path)
    session = MiningSession(database, EDGE_TAXONOMY, engine)
    try:
        levels = list(
            iter_generalized_levels(database, EDGE_TAXONOMY, 0.4, session)
        )
    finally:
        if engine == "mmap":
            session.engine.close()
    oracle = list(
        iter_generalized_levels(
            TransactionDatabase(rows),
            EDGE_TAXONOMY,
            0.4,
            MiningSession(TransactionDatabase(rows), EDGE_TAXONOMY, "brute"),
        )
    )
    assert levels == oracle
    assert len(levels) >= 3
    assert list(pairs.kept_rows(database)) == list(map(itemset, rows))
    assert database.scans == 1
    assert database.logical_scans == len(levels)
