"""Property test: MinSup thresholds are exact at the boundary.

With ``minsup = k/n`` over n rows, an itemset in exactly k rows is large
— under every flat miner, every counting engine, every generalized
algorithm and selective serving — and it is not large at
``minsup = (k+1)/n``. The float product ``minsup * n`` misses the
first half on many k, n (``0.07 * 100 == 7.000000000000001``), which
is what :func:`repro._util.min_count` fixes.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro._util import min_count
from repro.core.session import MiningSession
from repro.data.database import TransactionDatabase
from repro.mining.apriori import find_large_itemsets
from repro.mining.aprioritid import (
    find_large_itemsets_aprioritid,
    find_large_itemsets_hybrid,
)
from repro.mining.engines import SERIAL_ENGINES
from repro.mining.generalized import ALGORITHMS, mine_generalized
from repro.mining.partition import find_large_itemsets_partition
from repro.parallel.engine import parallel_partition
from repro.serve import mine_selective
from repro.taxonomy.builders import taxonomy_from_parents

# Items 1 and 3 under category 10, items 2 and 4 under category 20.
TAXONOMY = taxonomy_from_parents({1: 10, 3: 10, 2: 20, 4: 20})
PAIR = (1, 2)


@st.composite
def boundary_cases(draw):
    """n rows with PAIR in exactly k of them, and k."""
    total = draw(st.integers(min_value=1, max_value=60))
    k = draw(st.integers(min_value=1, max_value=total))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10**6)))
    rows = [[1, 2] + rng.sample([3, 4], rng.randint(0, 2))
            for _ in range(k)]
    rows += [rng.sample([1, 3, 4], rng.randint(1, 3))
             for _ in range(total - k)]
    rng.shuffle(rows)
    return TransactionDatabase(rows), k


def _flat_miners(database, minsup):
    for engine in SERIAL_ENGINES:
        session = MiningSession(database, None, engine)
        yield engine, find_large_itemsets(database, minsup, session=session)
    yield "aprioritid", find_large_itemsets_aprioritid(database, minsup)
    yield "hybrid", find_large_itemsets_hybrid(database, minsup)
    yield "partition", find_large_itemsets_partition(database, minsup)
    yield "parallel-partition", parallel_partition(
        database, minsup, n_jobs=1
    )


def _taxonomy_miners(database, minsup):
    for algorithm in ALGORITHMS:
        yield algorithm, mine_generalized(
            database, TAXONOMY, minsup, algorithm=algorithm,
            rng=random.Random(0),
        )
    selective = mine_selective(database, TAXONOMY, 1, minsup, 0.5)
    yield "selective", selective.large_itemsets


def _large_everywhere(database, minsup):
    found = {}
    for name, index in _flat_miners(database, minsup):
        found[name] = PAIR in index
    for name, index in _taxonomy_miners(database, minsup):
        found[name] = PAIR in index
    return found


@settings(max_examples=40, deadline=None)
@given(boundary_cases())
def test_k_of_n_rows_is_large_at_minsup_k_over_n(case):
    database, k = case
    total = len(database)
    assert min_count(k / total, total) == k
    assert all(_large_everywhere(database, k / total).values())
    if k < total:
        above = _large_everywhere(database, (k + 1) / total)
        assert not any(above.values()), above


@pytest.mark.parametrize("k, total", [(7, 100), (29, 100), (1, 11), (5, 7)])
def test_min_count_examples(k, total):
    assert min_count(k / total, total) == k
    assert min_count(0.07, 100) == 7
    assert min_count(0.005, 50_000) == 250
