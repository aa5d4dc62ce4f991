"""Dense kernels for generalized levels 1 and 2, counted from one scan.

Levels 1 and 2 of the generalized miners need no candidate list: level 1
counts every taxonomy node and level 2 every pair of large singles
(1,607,184 pairs on paper-scale Tall, of which about 2,200 are large).
Matching those candidates row by row through a counting engine is the
bulk of a whole mining run. :func:`count_dense_levels` instead reads the
database once and counts with ``np.bincount``:

1. Every row's items become int32 slots, and ``_closures`` expands
   them to the row's ancestor closure in CSR form (flat slots + row
   lengths). Slots are taxonomy preorder ranks, which lets it drop
   shared ancestors without building a set per row.
2. Level 1 is one ``bincount`` of the flat slots over all nodes.
3. The closures are remapped to the dense slots ``0..m-1`` of the ``m``
   large singles; every other entry is dropped.
4. ``_count_cells`` keys every row's pairs into a packed upper triangle
   of ``m (m - 1) / 2`` cells and counts the keys with ``bincount``.
   Rows are grouped by length and gathered with ``triu_indices``, so no
   Python loop runs per row or per pair.
5. Only cells with ``count >= min_count`` are emitted — the same
   int-against-float comparison the candidate-list path makes, so the
   results are bit-identical.

Working memory is bounded by :data:`WORKING_BYTES`. Rows are encoded
and expanded a chunk at a time (a quarter of it), pair keys are built a
chunk of rows at a time (another quarter), and the triangle is counted
in tiles (contiguous cell ranges) whose count block fits the other half.
At the paper's MinSup range one tile covers the triangle; lower
supports, where ``m`` grows quadratically in cells, take several. The
closures of the rows one call reads are held from level 1 to level 2
(4 bytes per closure slot, 8 per row) so they are expanded only once.

Kept state. Every row's item slots, every node's count and a one-tile
triangle stay with the database (``_DenseCounts``, attached like the
vertical index) for one taxonomy and one append epoch: 4 bytes per item
occurrence and 8 per row plus at most a sixth of ``WORKING_BYTES``,
resident while the database object lives. After a pure append only the
appended rows are read, and a triangle covering the new large singles
only adds their pairs, so a streaming re-mine costs O(append) here. The
caching engines build from the kept slots (:func:`kept_row_bits`,
:func:`kept_rows`) instead of reading the rows a second time.

The kernels deliberately avoid ``np.unique`` and ``np.sort``: the first
call of either pages in numpy sort code that stays resident for the rest
of the process (about 2.4 MB). Each row's items are put in slot order by
Python's ``sorted`` instead, and the closure comes out ascending.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..data.filedb import FileBackedDatabase
from ..errors import TaxonomyError
from ..itemset import Itemset
from ..taxonomy.tree import Taxonomy

#: Upper bound, in bytes, on the kernels' working memory: one tile's
#: count block gets half, one chunk of pair keys and one chunk of
#: encoded rows a quarter each.
WORKING_BYTES = 64 << 20

#: Bytes per triangle cell of a tile: the int32 block plus the int64
#: ``bincount`` result added into it.
_CELL_BYTES = 4 + 8

#: Bytes per enumerated pair of a key batch: two int32 gathers, the
#: int64 row base, the int64 key, and the key again while it waits for
#: ``bincount`` and in the concatenation it is counted from.
_PAIR_BYTES = 4 + 4 + 8 + 8 + 8 + 8

#: Bytes per item of a chunk of rows being encoded: its entry in the
#: Python list of the chunk's slots and in the int32 array.
_ITEM_BYTES = 8 + 4

#: Bytes per root-path entry of an encoded item: the int32 path gather,
#: its bool mask, the int32 closure slot, its int32 dense remap and the
#: bool mask keeping it.
_WALK_BYTES = 4 + 1 + 4 + 4 + 1

#: Item slots decoded back to rows at once by :func:`kept_rows`.
_DECODE_ITEMS = 1 << 16


@dataclass(frozen=True, slots=True)
class DenseLevels:
    """Large singles and pairs with their counts, and the kernel's cost.

    ``singles`` and ``pairs`` map each large itemset to its count, in
    ascending itemset order. ``pairs`` is empty when pairs were not
    requested or fewer than two singles are large. ``pairs_enumerated``
    counts the row pairs keyed; ``tiles`` is the number of triangle
    tiles counted.
    """

    singles: dict[Itemset, int]
    pairs: dict[Itemset, int]
    pairs_enumerated: int = 0
    tiles: int = 0


def count_dense_levels(
    database,
    taxonomy: Taxonomy,
    min_count: int,
    with_pairs: bool = True,
) -> DenseLevels:
    """Count levels 1 and (with *with_pairs*) 2 of *database*.

    Level 1 books one logical pass; the caller books level 2's. The rows
    are read by one physical pass the first time, and after that only
    as far as they were appended to. Itemsets are large when their count
    is ``>= min_count``. An item outside the taxonomy raises
    :class:`~repro.errors.TaxonomyError`, as the engines' closure does.
    """
    counts, absorbed = _DenseCounts.of(database, taxonomy)
    database.count_logical_pass()
    order = counts.order
    large = np.flatnonzero(counts.singles >= min_count)
    singles = dict(
        sorted(
            ((order[slot],), count)
            for slot, count in zip(
                large.tolist(), counts.singles[large].tolist()
            )
        )
    )
    if not with_pairs or len(large) < 2:
        return DenseLevels(singles, {})
    cells, enumerated, tiles = counts.large_pairs(
        large, min_count, absorbed
    )
    pairs = dict(
        sorted(
            (_pair(order[first], order[second]), count)
            for first, second, count in cells
        )
    )
    return DenseLevels(singles, pairs, enumerated, tiles)


def kept_row_bits(database, n_bytes: int):
    """Each item's row bitmap, built from the kernel's kept item slots.

    Yields ``(item, bits)`` for every item occurring in *database*:
    *bits* is a zeroed uint8 array of *n_bytes* with bit ``t & 7`` of
    byte ``t >> 3`` set when row ``t`` holds the item — the bits one
    physical scan would set. ``None`` when nothing current is kept.
    Reading the slots is not a pass. (Unlike the kernels, this groups
    the occurrences per item with a stable numpy argsort; it runs only
    where a caching engine builds its index.)
    """
    kept = _current(database)
    return None if kept is None else _row_bits(*kept, n_bytes)


def _row_bits(
    nodes: list[int],
    items: np.ndarray,
    items_per_row: np.ndarray,
    n_bytes: int,
):
    rows = np.repeat(
        np.arange(len(items_per_row), dtype=np.int64), items_per_row
    )[np.argsort(items, kind="stable")]
    byte_of = rows >> 3
    bit_of = np.left_shift(1, rows & 7).astype(np.uint8)
    per_slot = np.bincount(items)
    ends = np.cumsum(per_slot)
    for slot in np.flatnonzero(per_slot).tolist():
        stop = int(ends[slot])
        start = stop - int(per_slot[slot])
        bits = np.zeros(n_bytes, dtype=np.uint8)
        np.bitwise_or.at(bits, byte_of[start:stop], bit_of[start:stop])
        yield nodes[slot], bits


def kept_rows(database) -> Iterator[Itemset] | None:
    """The rows the kernel kept for a file-backed *database*, if current.

    Yields the itemsets a physical scan would, decoded from the kept
    item slots a chunk at a time — no pass, no read of the file.
    ``None`` when nothing current is kept, and for any other database
    type (an in-memory database iterates its rows faster than they
    decode).
    """
    if not isinstance(database, FileBackedDatabase):
        return None
    kept = _current(database)
    return None if kept is None else _decode(*kept)


def _current(
    database,
) -> tuple[list[int], np.ndarray, np.ndarray] | None:
    """``(nodes, items, items_per_row)`` kept for *database*, if current.

    ``nodes[s]`` is the node of slot ``s``, *items* every row's item
    slots back to back and *items_per_row* the int64 row lengths; kept
    slots are current when they encode exactly the database's rows.
    """
    kept = getattr(database, "_closure_cache", None)
    epoch_fn = getattr(database, "append_epoch", None)
    if kept is None or epoch_fn is None:
        return None
    epoch, n_rows = epoch_fn()
    if kept.epoch is not epoch or len(kept.items_per_row) != n_rows:
        return None
    return kept.order, kept.items, kept.items_per_row


def _decode(
    nodes: list[int], items: np.ndarray, items_per_row: np.ndarray
) -> Iterator[Itemset]:
    node_of = np.asarray(nodes, dtype=np.int64)
    for rows, chunk in _row_chunks(items_per_row, _DECODE_ITEMS):
        decoded = node_of[items[chunk]].tolist()
        ends = np.cumsum(items_per_row[rows]).tolist()
        for start, stop in zip([0, *ends], ends):
            yield tuple(sorted(decoded[start:stop]))


def _pair(first: int, second: int) -> Itemset:
    return (first, second) if first < second else (second, first)


@dataclass(slots=True)
class _DenseCounts:
    """Item slots and node counts of one database, kept across runs.

    Valid for one taxonomy and one append epoch of the database: every
    row's item slots (ascending within a row, back to back) with the
    row lengths, every node's count and — when it fits in one tile —
    a pair triangle: the counts of the pairs of the ``pair_slots`` node
    slots over the first ``triangle_rows`` rows.
    """

    taxonomy: Taxonomy
    epoch: object
    order: list[int]
    paths: np.ndarray
    slot_of: dict[int, int]
    items: np.ndarray
    items_per_row: np.ndarray
    singles: np.ndarray
    pair_slots: np.ndarray | None = None
    triangle: np.ndarray | None = None
    triangle_rows: int = 0

    @classmethod
    def of(cls, database, taxonomy: Taxonomy):
        """The database's counts, caught up with appends or rebuilt.

        Returns ``(counts, absorbed)``: *absorbed* is ``(first row,
        closures)`` of the rows this call read, for :meth:`large_pairs`.
        """
        epoch, n_rows = database.append_epoch()
        kept = getattr(database, "_closure_cache", None)
        if (
            kept is not None
            and kept.taxonomy is taxonomy
            and kept.epoch is epoch
        ):
            done = len(kept.items_per_row)
            tail = database.tail_rows(done) if n_rows > done else ()
            if len(tail) == n_rows - done:
                return kept, (done, kept._absorb(tail))
        order, paths = _preorder_paths(taxonomy)
        counts = cls(
            taxonomy,
            epoch,
            order,
            paths,
            {node: slot for slot, node in enumerate(order)},
            np.zeros(0, dtype=np.int32),
            np.zeros(0, dtype=np.int64),
            np.zeros(len(order), dtype=np.int64),
        )
        closures = counts._absorb(database.physical_scan())
        try:
            database._closure_cache = counts
        except AttributeError:
            pass  # Foreign database type without the cache slot.
        return counts, (0, closures)

    def _chunk_items(self) -> int:
        """Items per chunk of rows encoded or expanded at once."""
        per_item = _ITEM_BYTES + self.paths.shape[1] * _WALK_BYTES
        return max(1, WORKING_BYTES // 4 // per_item)

    def _absorb(self, rows) -> list[tuple[np.ndarray, np.ndarray]]:
        """Add *rows* to the kept item slots and the node counts.

        Returns the rows' closures, chunk by chunk, as ``(flat,
        lengths)``. Nothing changes when a row holds an item outside the
        taxonomy.
        """
        items, per_row = [self.items], [self.items_per_row]
        added = np.zeros(len(self.order), dtype=np.int64)
        closures = []
        for chunk_items, chunk_rows in _encode(
            rows, self.slot_of, self._chunk_items()
        ):
            flat, lengths = _closures(self.paths, chunk_items, chunk_rows)
            added += np.bincount(flat, minlength=len(self.order))
            items.append(chunk_items)
            per_row.append(chunk_rows)
            closures.append((flat, lengths))
        if closures:
            self.items = np.concatenate(items)
            self.items_per_row = np.concatenate(per_row)
            self.singles += added
        return closures

    def _closure_chunks(self, first_row: int):
        """The closures of the kept rows from *first_row* on, chunked."""
        offset = int(self.items_per_row[:first_row].sum())
        per_row = self.items_per_row[first_row:]
        for rows, items in _row_chunks(per_row, self._chunk_items()):
            yield _closures(
                self.paths,
                self.items[offset + items.start:offset + items.stop],
                per_row[rows],
            )

    def large_pairs(
        self, large: np.ndarray, min_count: int, absorbed
    ) -> tuple[list[tuple[int, int, int]], int, int]:
        """Pairs of the *large* slots counted ``>= min_count``.

        Returns ``(cells, enumerated, tiles)``: ``cells`` lists ``(slot,
        slot, count)``, ``enumerated`` the row pairs keyed by this call
        and ``tiles`` the triangle's tiles. A triangle that fits in one
        tile is kept. A later query whose *large* slots it covers only
        adds the rows appended since: appends move singles across the
        threshold both ways, and a pair counted ``>= min_count`` has
        both members counted ``>= min_count``, so a triangle over a
        superset of *large* emits exactly the large pairs. Any other
        query counts every tile from all kept rows. *absorbed* (from
        :meth:`of`) spares expanding the rows the same call just read
        a second time.
        """
        tile_cells = max(1, WORKING_BYTES // 2 // _CELL_BYTES)
        if self.triangle is not None:
            covered = np.zeros(len(self.order), dtype=bool)
            covered[self.pair_slots] = True
            if not covered[large].all():
                self.triangle = None
        if self.triangle is None and _cells(len(large)) <= tile_cells:
            self.pair_slots = large
            self.triangle = np.zeros(_cells(len(large)), dtype=np.int32)
            self.triangle_rows = 0
        slots = large if self.triangle is None else self.pair_slots
        m = len(slots)
        dense = np.full(len(self.order), -1, dtype=np.int32)
        dense[slots] = np.arange(m, dtype=np.int32)
        total_cells = _cells(m)
        first_cell, base = _triangle_index(m)
        if self.triangle is not None:
            enumerated = self._count_tile(
                self.triangle, dense, base, 0, total_cells,
                self.triangle_rows, absorbed,
            )
            self.triangle_rows = len(self.items_per_row)
            cells = _emit_cells(self.triangle, 0, min_count, first_cell, base)
            tiles = 1
        else:
            cells, tiles = [], 0
            for low in range(0, total_cells, tile_cells):
                block = np.zeros(
                    min(tile_cells, total_cells - low), dtype=np.int32
                )
                enumerated = self._count_tile(
                    block, dense, base, low, total_cells, 0, absorbed
                )
                cells.extend(
                    _emit_cells(block, low, min_count, first_cell, base)
                )
                tiles += 1
        slots = slots.tolist()
        return (
            [(slots[i], slots[j], count) for i, j, count in cells],
            enumerated,
            tiles,
        )

    def _count_tile(
        self,
        block: np.ndarray,
        dense: np.ndarray,
        base: np.ndarray,
        low: int,
        total_cells: int,
        first_row: int,
        absorbed,
    ) -> int:
        """Add the pairs of the rows from *first_row* on to *block*.

        *block* holds the triangle cells from *low* on; *dense* maps node
        slots to triangle slots (-1: not in the triangle). The rows'
        closures come from *absorbed* when it starts at *first_row*.
        Returns the number of row pairs keyed.
        """
        absorbed_from, closures = absorbed
        if absorbed_from != first_row:
            closures = self._closure_chunks(first_row)
        return _count_cells(
            block, _dense_groups(closures, dense), base, low, total_cells
        )


def _dense_groups(closures, dense: np.ndarray):
    """Each closure chunk in *dense* slots: ``(flat, starts, groups)``.

    Closure slots that *dense* maps to -1 are dropped; ``starts`` and
    ``groups`` come from :func:`_row_groups`.
    """
    for flat, lengths in closures:
        remapped = dense[flat]
        keep = remapped >= 0
        yield (remapped[keep], *_row_groups(_row_sums(keep, lengths)))


def _row_chunks(items_per_row: np.ndarray, limit: int):
    """``(row slice, item slice)`` of consecutive chunks of kept rows.

    A chunk ends at the first row reaching another *limit* items.
    """
    ends = np.cumsum(items_per_row)
    total = int(ends[-1]) if len(ends) else 0
    cuts = np.searchsorted(
        ends, np.arange(limit, total, limit), side="right"
    ).tolist()
    first = 0
    for stop in [*cuts, len(ends)]:
        if stop > first:
            start_item = int(ends[first - 1]) if first else 0
            yield (
                slice(first, stop),
                slice(start_item, int(ends[stop - 1])),
            )
            first = stop


def _encode(rows, slot_of: dict[int, int], limit: int):
    """*rows* as ``(item slots, row lengths)`` chunks of ~*limit* items.

    Each row's slots come out ascending. An item outside the taxonomy
    raises :class:`~repro.errors.TaxonomyError`.
    """
    lookup = slot_of.__getitem__
    items: list[int] = []
    lengths: list[int] = []
    for row in rows:
        try:
            items.extend(sorted(map(lookup, row)))
        except KeyError as error:
            raise TaxonomyError(f"unknown node {error.args[0]}") from None
        lengths.append(len(row))
        if len(items) >= limit:
            yield _as_arrays(items, lengths)
            items, lengths = [], []
    if lengths:
        yield _as_arrays(items, lengths)


def _as_arrays(items: list[int], lengths: list[int]):
    return (
        np.fromiter(items, np.int32, len(items)),
        np.fromiter(lengths, np.int64, len(lengths)),
    )


def _preorder_paths(taxonomy: Taxonomy) -> tuple[list[int], np.ndarray]:
    """Taxonomy nodes in depth-first preorder, with their root paths.

    Returns ``(order, paths)``: ``order[s]`` is the node of slot ``s``,
    and row ``s`` of the int32 matrix *paths* holds the slots from the
    root down to ``s`` (depth ``d`` in column ``d``), padded with -1. In
    preorder the descendants of every node occupy one contiguous range
    of slots, which ``_closures`` relies on.
    """
    order: list[int] = []
    stack = list(reversed(taxonomy.roots))
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(reversed(taxonomy.children(node)))
    slot_of = {node: slot for slot, node in enumerate(order)}
    paths = np.full((len(order), taxonomy.height + 1), -1, dtype=np.int32)
    for slot, node in enumerate(order):
        path = [slot_of[ancestor] for ancestor in taxonomy.ancestors(node)]
        path.reverse()
        path.append(slot)
        paths[slot, :len(path)] = path
    return order, paths


def _closures(
    paths: np.ndarray, items: np.ndarray, items_per_row: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every row's ancestor closure as node slots: ``(flat, lengths)``.

    *items* holds each row's item slots, ascending, back to back. The
    result holds each row's closure slots back to back, each row
    ascending and duplicate-free, with the int64 number of slots per
    row.

    Each row's items are expanded to their root paths. Two items of a
    row share an ancestor only if every item between them in slot order
    lies under it too, so an ancestor is new to a row exactly where its
    path entry differs from the previous item's at the same depth. That
    test keeps every closure node once, in ascending slot order, with no
    per-row set or sort of the closure.
    """
    walk = paths[items]
    fresh = np.ones(walk.shape, dtype=bool)
    np.not_equal(walk[1:], walk[:-1], out=fresh[1:])
    first_items = np.cumsum(items_per_row) - items_per_row
    fresh[first_items] = True
    fresh &= walk >= 0
    flat = walk[fresh]
    lengths = _row_sums(fresh.sum(axis=1), items_per_row)
    return flat, lengths


def _row_sums(values: np.ndarray, per_row: np.ndarray) -> np.ndarray:
    """Sums of *values* over consecutive runs of *per_row* entries."""
    running = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=running[1:])
    ends = np.cumsum(per_row)
    return running[ends] - running[ends - per_row]


def _cells(m: int) -> int:
    """Cells of the packed upper triangle over *m* slots."""
    return m * (m - 1) // 2


def _triangle_index(m: int) -> tuple[np.ndarray, np.ndarray]:
    """``(first_cell, base)`` of the row-major packed triangle of *m*.

    Pair ``(i, j)``, ``i < j``, lives in cell
    ``first_cell[i] + (j - i - 1) = base[i] + j``.
    """
    slots = np.arange(m, dtype=np.int64)
    first_cell = slots * m - slots * (slots + 1) // 2
    return first_cell, first_cell - slots - 1


def _row_groups(lengths: np.ndarray):
    """Row starts, and the rows of each length >= 2, for gathering."""
    starts = np.zeros(len(lengths), dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    by_length = np.bincount(lengths)
    groups = [
        (length, np.flatnonzero(lengths == length))
        for length in range(2, len(by_length))
        if by_length[length]
    ]
    return starts, groups


def _count_cells(
    block: np.ndarray,
    chunks,
    base: np.ndarray,
    low: int,
    total_cells: int,
) -> int:
    """Add the rows' pairs falling in *block*'s cells to *block*.

    *block* holds the triangle cells from *low* on. *chunks* yields
    ``(flat, starts, groups)``: each row's dense slots, ascending within
    a row, from ``starts``, and the rows of each length (``groups``, from
    :func:`_row_groups`). Pair keys are built a batch of rows at a time
    and held until there are as many as *block* has cells (at most a
    quarter of :data:`WORKING_BYTES` of them), whatever the row lengths
    and chunks they came from: each ``bincount`` touches every cell, so
    fewer, larger calls keep a big triangle's cost per key. Returns the
    number of row pairs keyed.
    """
    batch_pairs = max(1, WORKING_BYTES // 4 // _PAIR_BYTES)
    flush_at = min(batch_pairs, len(block))
    high = low + len(block)
    pending: list[np.ndarray] = []
    waiting = enumerated = 0
    for flat, starts, groups in chunks:
        for length, rows in groups:
            first, second = np.triu_indices(length, 1)
            offsets = np.arange(length, dtype=np.int64)
            step = max(1, batch_pairs // len(first))
            enumerated += len(rows) * len(first)
            for begin in range(0, len(rows), step):
                members = flat[
                    starts[rows[begin:begin + step], None] + offsets
                ]
                keys = (base[members[:, first]] + members[:, second]).ravel()
                if low or high < total_cells:
                    keys = keys[(keys >= low) & (keys < high)] - low
                pending.append(keys)
                waiting += len(keys)
                if waiting >= flush_at:
                    _add_counts(block, pending)
                    pending, waiting = [], 0
    if pending:
        _add_counts(block, pending)
    return enumerated


def _add_counts(block: np.ndarray, keys: list[np.ndarray]) -> None:
    """Count the cell *keys* (a list of arrays) into *block*."""
    merged = keys[0] if len(keys) == 1 else np.concatenate(keys)
    block += np.bincount(merged, minlength=len(block))


def _emit_cells(
    block: np.ndarray,
    low: int,
    min_count: int,
    first_cell: np.ndarray,
    base: np.ndarray,
) -> list[tuple[int, int, int]]:
    """``(i, j, count)`` of the cells of *block* counted ``>= min_count``."""
    hits = np.flatnonzero(block >= min_count)
    cells = hits + low
    rows = np.searchsorted(first_cell, cells, side="right") - 1
    return list(
        zip(
            rows.tolist(),
            (cells - base[rows]).tolist(),
            block[hits].tolist(),
        )
    )
