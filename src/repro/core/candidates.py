"""Candidate negative itemset generation (paper Section 2.1.1).

For every large itemset, candidates are formed by swapping items for their
taxonomy relatives wherever an expected support can be computed:

* **children replacements** — any non-empty subset of positions replaced by
  immediate children (all positions = Case 1, a proper subset = Case 2);
* **sibling replacements** — a *proper* non-empty subset of positions
  replaced by siblings (Case 3; the paper's exclusion list rules out
  candidates consisting solely of siblings).

Exclusions (Section 2.1.1): ancestors never participate, and children and
sibling replacements are never mixed within one candidate. Further
admission rules:

* every 1-item subset of a candidate must itself be a large itemset
  ("otherwise no rule will be produced for this itemset");
* the candidate must not already be a (generalized) large itemset — those
  are positive associations, as with {Bryers, Evian} in the paper's
  example;
* no item of a candidate may be an ancestor of another (such itemsets are
  degenerate: their support equals the support without the ancestor);
* the expected support must reach ``MinSup × MinRI`` — a smaller
  expectation can never produce a rule with ``RI >= MinRI``;
* when the same candidate arises from several large itemsets, "the largest
  value of the expected support is chosen" — enforced via the hash-table
  dedup of Section 2.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable
from itertools import combinations

from .._util import check_fraction
from ..itemset import Itemset
from ..mining.generalized import contains_item_and_ancestor
from ..mining.itemset_index import LargeItemsetIndex
from ..obs import api as obs
from ..taxonomy.tree import Taxonomy
from .interest import deviation_threshold

CASE_CHILDREN = "children"
CASE_SIBLINGS = "siblings"


@dataclass(frozen=True, slots=True)
class NegativeCandidate:
    """A candidate negative itemset awaiting a counting pass.

    Attributes
    ----------
    items:
        The canonical candidate itemset.
    expected_support:
        Fractional support predicted by the taxonomy (maximum over all
        generation paths).
    source:
        The large itemset the winning expectation was derived from.
    case:
        ``"children"`` (Cases 1–2) or ``"siblings"`` (Case 3).
    """

    items: Itemset
    expected_support: float
    source: Itemset
    case: str


#: A replacement pool: ``(relative, ratio, bit, up)`` entries, where
#: *ratio* is ``sup(relative) / sup(item)`` and *bit*/*up* are the
#: relative's lineage bit and ancestor mask (see :class:`_RelativeCache`).
RatioPool = tuple[tuple[int, float, int, int], ...]

#: The generation funnel, published as ``candgen.<name>`` counters once
#: per :func:`generate_negative_candidates` call (DESIGN.md §3).
FUNNEL = (
    "subsets",
    "bound_pruned",
    "pool_filtered",
    "leaves",
    "already_large",
    "lineage_rejected",
    "kept_lower",
    "admitted",
)


class _RelativeCache:
    """Large-filtered replacement pools and lineage masks, per item.

    A pool entry carries ``sup(relative) / sup(item)`` — the expectation
    factor contributed by replacing *item* with the relative. Pools are
    sorted by descending ratio so the branch-and-bound enumeration can
    cut off as soon as the bound falls below threshold.

    Lineage is kept as Python ints: every node met gets its own bit, and
    its *up* mask is its bit OR-ed with its ancestors' bits. Node ``a``
    is ``b`` or an ancestor of it exactly when ``bit(a) & up(b)``; an
    itemset's bits OR together into a key that identifies it.
    """

    __slots__ = ("_taxonomy", "_index", "_children", "_siblings",
                 "_lineage")

    def __init__(self, taxonomy: Taxonomy, index: LargeItemsetIndex) -> None:
        self._taxonomy = taxonomy
        self._index = index
        self._children: dict[int, RatioPool] = {}
        self._siblings: dict[int, RatioPool] = {}
        self._lineage: dict[int, tuple[int, int]] = {}

    def _pool(self, item: int, relatives: tuple[int, ...]) -> RatioPool:
        own_support = self._index.support_or_none((item,))
        if own_support is None or own_support <= 0.0:
            return ()
        entries = [
            (
                relative,
                self._index.support((relative,)) / own_support,
                *self.lineage(relative),
            )
            for relative in relatives
            if self._index.is_large((relative,))
        ]
        entries.sort(key=lambda entry: -entry[1])
        return tuple(entries)

    def children_ratios(self, item: int) -> RatioPool:
        if item not in self._children:
            self._children[item] = self._pool(
                item, self._taxonomy.children(item)
            )
        return self._children[item]

    def sibling_ratios(self, item: int) -> RatioPool:
        if item not in self._siblings:
            self._siblings[item] = self._pool(
                item, self._taxonomy.siblings(item)
            )
        return self._siblings[item]

    def lineage(self, node: int) -> tuple[int, int]:
        """``(bit, up)`` of *node*; bits are handed out on first use."""
        entry = self._lineage.get(node)
        if entry is None:
            up = 0
            # Root first, so each node's parent already has its entry.
            path = (*reversed(self._taxonomy.ancestors(node)), node)
            for step in path:
                entry = self._lineage.get(step)
                if entry is None:
                    bit = 1 << len(self._lineage)
                    entry = self._lineage[step] = (bit, bit | up)
                up = entry[1]
        return entry


def generate_negative_candidates(
    index: LargeItemsetIndex,
    taxonomy: Taxonomy,
    minsup: float,
    minri: float,
    sources: Iterable[Itemset] | None = None,
    max_size: int | None = None,
    max_sibling_replacements: int | None = None,
) -> dict[Itemset, NegativeCandidate]:
    """Generate all candidate negative itemsets from large itemsets.

    Parameters
    ----------
    index:
        The generalized large itemsets (with 1-itemset supports, which
        provide the expectation ratios).
    taxonomy:
        Full or pruned taxonomy. Pruning small items first (the Improved
        algorithm's optimization) shrinks the children/sibling lists that
        are iterated but cannot change the output: replacements are always
        filtered to large 1-itemsets here.
    minsup, minri:
        Thresholds; candidates need expected support of at least
        ``minsup * minri``.
    sources:
        Large itemsets to generate from. Defaults to every indexed itemset
        of size >= 2 (negative itemsets of size 1 cannot form rules).
    max_size:
        Skip sources larger than this (candidates keep the source's size).
    max_sibling_replacements:
        Cap on how many positions a Case-3 candidate may replace with
        siblings. ``None`` allows any proper subset (the paper's general
        formula); ``1`` matches the paper's worked examples exactly and
        tames the exponential blow-up on dense data — sibling support
        ratios are often near 1, so unlike children replacements the
        expectation threshold barely prunes them.

    Returns
    -------
    dict
        Candidate itemset -> :class:`NegativeCandidate`, deduplicated with
        maximum expected support. With observability on, the call also
        adds its :data:`FUNNEL` to the ``candgen.*`` counters and puts
        ``leaves`` and ``admitted`` on the innermost open span.
    """
    check_fraction(minsup, "minsup")
    threshold = deviation_threshold(minsup, minri)
    cache = _RelativeCache(taxonomy, index)
    out: dict[Itemset, NegativeCandidate] = {}

    if sources is None:
        source_list: list[Itemset] = [
            items
            for size in index.sizes
            if size >= 2
            for items in sorted(index.of_size(size))
        ]
    else:
        source_list = [items for items in sources if len(items) >= 2]

    funnel = dict.fromkeys(FUNNEL, 0)
    for source in source_list:
        if max_size is not None and len(source) > max_size:
            continue
        if any(item not in taxonomy for item in source):
            # A pruned taxonomy may have dropped items of a stale index
            # entry; such sources cannot yield admissible candidates.
            continue
        if contains_item_and_ancestor(source, taxonomy):
            # Degenerate large itemsets (possible with the Basic miner)
            # predict nothing beyond their non-degenerate reduction.
            continue
        counts = _expand(
            source, index.support(source), cache, index, threshold,
            max_sibling_replacements, out,
        )
        for name, count in zip(FUNNEL, counts):
            funnel[name] += count
    if obs.enabled():
        funnel["admitted"] = len(out)
        funnel["kept_lower"] = (
            funnel["leaves"] - funnel["already_large"] - len(out)
        )
        for name, count in funnel.items():
            obs.incr("candgen." + name, count)
        obs.annotate("leaves", funnel["leaves"])
        obs.annotate("admitted", len(out))
    return out


def _expand(
    source: Itemset,
    base: float,
    cache: _RelativeCache,
    index: LargeItemsetIndex,
    threshold: float,
    max_sibling_replacements: int | None,
    out: dict[Itemset, NegativeCandidate],
) -> tuple[int, ...]:
    """Enumerate all admissible replacements of *source* with pruning.

    The raw enumeration is exponential (the Section 2.1.2 estimate), and
    the paper lists "more efficient candidate generation techniques" as
    future work. This implementation contributes one: branch-and-bound on
    the expectation threshold. Each position's replacement pool is sorted
    by descending support ratio, so during the cross-product recursion an
    exact upper bound on the achievable expectation is available; branches
    (and whole position subsets) that cannot reach ``MinSup × MinRI`` are
    cut. Only candidates that the threshold would reject anyway are
    skipped, so the output is identical to exhaustive enumeration.

    Lineage is settled with masks before any tuple is built (DESIGN.md
    §3). *source* is lineage-free and the taxonomy a forest, so a child
    never collides with a kept item, and a sibling only by being one or
    an ancestor of one: such siblings leave the pool once per position
    subset. Choices at two replaced positions are checked against each
    other as the recursion goes down. Leaves of one source and case are
    then deduplicated by their bit key, and each distinct itemset costs
    one sorted tuple and two dict probes.

    Returns the funnel counts of :data:`FUNNEL` up to
    ``lineage_rejected``.
    """
    size = len(source)
    lineages = [cache.lineage(item) for item in source]
    subsets = bound_pruned = pool_filtered = 0
    leaves = already_large = lineage_rejected = 0
    sibling_positions = size - 1
    if max_sibling_replacements is not None:
        sibling_positions = min(sibling_positions, max_sibling_replacements)
    for case, ratio_pools, max_positions in (
        (CASE_CHILDREN, cache.children_ratios, size),
        (CASE_SIBLINGS, cache.sibling_ratios, sibling_positions),
    ):
        position_pools = [ratio_pools(item) for item in source]
        # A position with an empty pool takes part in no candidate.
        live = [p for p in range(size) if position_pools[p]]
        tops = [pool[0][1] if pool else 0.0 for pool in position_pools]
        # Bit key of a reached itemset -> (best expectation, kept items
        # plus all choices but the last, last choice).
        reached: dict[int, tuple[float, tuple[int, ...], int]] = {}
        for count in range(1, min(max_positions, len(live)) + 1):
            for positions in combinations(live, count):
                subsets += 1
                # Exact upper bound: best (first) ratio at every position.
                bound = base
                for p in positions:
                    bound *= tops[p]
                if bound < threshold:
                    bound_pruned += 1
                    continue
                pools = [position_pools[p] for p in positions]
                # Best ratio product of the positions after each depth,
                # over the unfiltered pools and multiplied in order.
                bests = []
                for depth in range(count - 1):
                    best = 1.0
                    for p in positions[depth + 1:]:
                        best *= tops[p]
                    bests.append(best)
                kept = []
                kept_key = kept_up = 0
                for position, item in enumerate(source):
                    if position not in positions:
                        kept.append(item)
                        kept_key |= lineages[position][0]
                        kept_up |= lineages[position][1]
                if case == CASE_SIBLINGS:
                    filtered = [
                        tuple(
                            entry for entry in pool
                            if not entry[2] & kept_up
                        )
                        for pool in pools
                    ]
                    pool_filtered += sum(map(len, pools)) - sum(
                        map(len, filtered)
                    )
                    if not all(filtered):
                        continue
                    pools = filtered
                # Every way to fill all positions but the last, then the
                # last position's pool, whose remaining best is 1.0.
                if count == 1:
                    stubs = [(tuple(kept), base, 0, kept_key)]
                else:
                    stubs = []
                    lineage_rejected += _descend(
                        pools, bests, 0, tuple(kept), base, 0, kept_key,
                        threshold, stubs,
                    )
                for chosen, accumulated, ups, key in stubs:
                    for item, ratio, bit, up in pools[-1]:
                        expectation = accumulated * ratio
                        if expectation < threshold:
                            break
                        if bit & ups or up & key:
                            lineage_rejected += 1
                            continue
                        leaves += 1
                        key_bits = key | bit
                        best_so_far = reached.get(key_bits)
                        if (
                            best_so_far is None
                            or expectation > best_so_far[0]
                        ):
                            reached[key_bits] = (expectation, chosen, item)
        for expectation, chosen, item in reached.values():
            candidate = tuple(sorted(chosen + (item,)))
            if candidate in index:
                already_large += 1
                continue
            existing = out.get(candidate)
            if existing is None or expectation > existing.expected_support:
                out[candidate] = NegativeCandidate(
                    items=candidate,
                    expected_support=expectation,
                    source=source,
                    case=case,
                )
    return (
        subsets, bound_pruned, pool_filtered, leaves, already_large,
        lineage_rejected,
    )


def _descend(
    pools: list[RatioPool],
    bests: list[float],
    depth: int,
    chosen: tuple[int, ...],
    accumulated: float,
    ups: int,
    key: int,
    threshold: float,
    stubs: list[tuple[tuple[int, ...], float, int, int]],
) -> int:
    """Depth-first cross-product with expectation bound pruning.

    Fills every position but the last. *chosen* holds the kept items
    plus the choices made so far and *accumulated* their expectation;
    *ups* ORs the choices' up masks and *key* the bits of *chosen*. Each
    completed prefix is appended to *stubs* as that 4-tuple. Returns how
    many choices were dropped for being, or being an ancestor or
    descendant of, an earlier choice.
    """
    rejected = 0
    remaining_best = bests[depth]
    next_is_last = depth + 2 == len(pools)
    for item, ratio, bit, up in pools[depth]:
        value = accumulated * ratio
        if value * remaining_best < threshold:
            # Pools are ratio-descending: no later item can recover.
            break
        if bit & ups or up & key:
            rejected += 1
        elif next_is_last:
            stubs.append((chosen + (item,), value, ups | up, key | bit))
        else:
            rejected += _descend(
                pools, bests, depth + 1, chosen + (item,), value,
                ups | up, key | bit, threshold, stubs,
            )
    return rejected
