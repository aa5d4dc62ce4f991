"""Disk-backed transaction database with real per-pass IO.

The paper's whole efficiency argument is *passes over the data*: its
database lives on disk, so every extra pass costs real IO. The in-memory
:class:`~repro.data.database.TransactionDatabase` models that with a scan
counter; :class:`FileBackedDatabase` makes it literal — every
:meth:`~FileBackedDatabase.scan` re-reads and re-parses the basket file
from disk, so the Naive algorithm's ``2n`` passes cost visibly more wall
clock than the Improved algorithm's ``n + 1``, reproducing the *reason*
behind Figures 5 and 6 rather than only their shape.

The class is a drop-in for ``TransactionDatabase`` wherever only the
scanning interface is used (all miners); it deliberately does not cache
rows. Summary statistics needed repeatedly (length, item universe) are
computed once at open time. Caches that miners attach to the object do
hold O(|D|) state while it lives: the caching engines' indexes, and the
generalized miners' dense kernel keeps every row's item slots (4 bytes
per item occurrence plus 8 per row, see :mod:`repro.mining.pairs`).
"""

from __future__ import annotations

import os
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from ..errors import DatabaseError
from ..itemset import Itemset, itemset

PathLike = str | os.PathLike[str]


class FileBackedDatabase:
    """Scan-counted transaction database streaming from a basket file.

    Parameters
    ----------
    path:
        A basket file (see :mod:`repro.data.io`): one transaction of
        whitespace-separated item ids per line, ``#`` comments allowed.

    Notes
    -----
    Construction performs one full read to validate the file and compute
    |D|, the item universe and the average length; this validation read is
    *not* counted as a mining pass (the paper's counts start with the
    algorithm).
    """

    __slots__ = (
        "_path",
        "_scans",
        "_logical_scans",
        "_length",
        "_items",
        "_total_items",
        "_item_counts",
        "_vertical_index",
        "_shard_cache",
        "_closure_cache",
        "_epoch",
        "_epoch_token",
        "_offsets",
        "_end_offset",
        "_sealed",
    )

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        self._scans = 0
        self._logical_scans = 0
        self._vertical_index = None
        self._shard_cache = None
        self._closure_cache = None
        self._item_counts: dict[int, int] | None = None
        self._validate()
        self._epoch = object()
        self._epoch_token = self.cache_token()
        # Row-count -> byte-offset checkpoints at known row boundaries;
        # tail_rows() seeks the closest one instead of re-parsing the
        # head of the file. Every append records one.
        self._offsets: dict[int, int] = {0: 0}

    def _validate(self) -> None:
        """One uncounted read computing |D|, the item universe, lengths."""
        length = 0
        total_items = 0
        items: set[int] = set()
        offset = 0
        sealed = True
        try:
            handle = open(self._path, "rb")
        except OSError as exc:
            raise DatabaseError(
                f"cannot open basket file {self._path}: {exc}"
            ) from exc
        with handle:
            for line_number, raw in enumerate(handle, start=1):
                offset += len(raw)
                sealed = raw.endswith(b"\n")
                row = self._parse_line(raw, line_number)
                if row is None:
                    continue
                length += 1
                total_items += len(row)
                items.update(row)
        if length == 0:
            raise DatabaseError(f"{self._path}: no transactions found")
        self._length = length
        self._items = frozenset(items)
        self._total_items = total_items
        # Bytes consumed into rows so far, and whether that prefix ended
        # in a newline: absorb_appends() reads new bytes from here, and
        # refuses the fast path when the last consumed line was unsealed
        # (a later write may extend it rather than append after it).
        self._end_offset = offset
        self._sealed = sealed

    def _parse_line(
        self, raw: bytes, line_number: int | None = None
    ) -> Itemset | None:
        """One basket line as a canonical row; ``None`` for blank/comment.

        *line_number*, when known, only locates a malformed line in the
        error message.
        """
        text = raw.decode("utf-8")
        tokens = text.split()
        if not tokens or tokens[0].startswith("#"):
            return None
        try:
            return tuple(sorted(set(map(int, tokens))))
        except ValueError as exc:
            where = (
                self._path
                if line_number is None
                else f"{self._path}:{line_number}"
            )
            raise DatabaseError(
                f"{where}: malformed basket line {text.strip()!r}"
            ) from exc

    def _read(self) -> Iterator[Itemset]:
        """Stream the file line by line, skipping a live writer's tail.

        Scans reread the file, so complete lines appended since the last
        validation are seen (the long-standing contract). The one
        exception is an *unterminated* trailing fragment past the
        consumed boundary (``_end_offset``): that is a partial append a
        live writer has not finished — see :meth:`absorb_appends` — and
        counting half a basket would corrupt supports, so it is skipped.
        A static file legitimately missing its final newline is NOT
        skipped: validation sealed it inside ``_end_offset``.
        """
        try:
            handle = open(self._path, "rb")
        except OSError as exc:
            raise DatabaseError(
                f"cannot open basket file {self._path}: {exc}"
            ) from exc
        with handle:
            consumed = 0
            for line_number, raw in enumerate(handle, start=1):
                consumed += len(raw)
                if consumed > self._end_offset and not raw.endswith(
                    b"\n"
                ):
                    break
                row = self._parse_line(raw, line_number)
                if row is not None:
                    yield row

    # ------------------------------------------------------------------
    # TransactionDatabase-compatible interface
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[Itemset]:
        """Stream all transactions from disk, counting one pass.

        Records one logical *and* one physical pass, like
        :meth:`repro.data.database.TransactionDatabase.scan`.
        """
        self._scans += 1
        self._logical_scans += 1
        return self._read()

    def physical_scan(self) -> Iterator[Itemset]:
        """Stream rows counting a *physical* pass only (cache builds)."""
        self._scans += 1
        return self._read()

    def count_logical_pass(self) -> None:
        """Record one *logical* counting pass served without disk IO."""
        self._logical_scans += 1

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def append(self, transactions: Iterable[Iterable[int]]) -> int:
        """Append transactions to the basket file; returns rows added.

        Same canonicalization and emptiness rules as the in-memory
        database's :meth:`~repro.data.database.TransactionDatabase.append`.
        The pre-append end of file is recorded as a byte checkpoint so
        :meth:`tail_rows` can serve the appended suffix with a seek
        instead of re-parsing the whole file, and the append *epoch*
        is preserved (the ``cache_token`` still changes — size and
        mtime move — so non-incremental caches rebuild as before).
        """
        rows: list[Itemset] = []
        for index, raw in enumerate(transactions):
            row = itemset(raw)
            if not row:
                raise DatabaseError(
                    f"{self._path}: appended transaction {index} is empty"
                )
            rows.append(row)
        if not rows:
            return 0
        # Absorb any external rewrite first so the checkpoint below is
        # recorded against the file we actually extend.
        self.append_epoch()
        try:
            with open(self._path, "r+b") as handle:
                handle.seek(0, os.SEEK_END)
                size = handle.tell()
                if size:
                    handle.seek(size - 1)
                    if handle.read(1) != b"\n":
                        handle.write(b"\n")
                checkpoint = handle.tell()
                payload = "".join(
                    " ".join(map(str, row)) + "\n" for row in rows
                ).encode("utf-8")
                handle.write(payload)
        except OSError as exc:
            raise DatabaseError(
                f"cannot append to basket file {self._path}: {exc}"
            ) from exc
        self._offsets[self._length] = checkpoint
        self._end_offset = checkpoint + len(payload)
        self._sealed = True
        self._length += len(rows)
        self._total_items += sum(len(row) for row in rows)
        self._items = self._items | frozenset(chain.from_iterable(rows))
        if self._item_counts is not None:
            for row in rows:
                for item in row:
                    self._item_counts[item] = (
                        self._item_counts.get(item, 0) + 1
                    )
        self._epoch_token = self.cache_token()
        return len(rows)

    def append_epoch(self) -> tuple[object, int]:
        """The file's append lineage: ``(epoch, n_rows)``.

        The epoch object survives :meth:`append` calls but not external
        rewrites: if the on-disk fingerprint no longer matches the last
        state this object produced or observed, a fresh epoch is
        allocated, the seek checkpoints are dropped, and the summary
        statistics are recomputed (one uncounted read, like
        construction). Incrementally maintained caches therefore treat
        foreign modifications as full invalidations — never as appends.
        """
        token = self.cache_token()
        if token != self._epoch_token:
            self._epoch = object()
            self._epoch_token = token
            self._offsets = {0: 0}
            self._item_counts = None
            self._validate()
        return self._epoch, self._length

    def absorb_appends(self) -> tuple[int, bool]:
        """Absorb on-disk growth of the basket file (``tail -f`` style).

        External writers extend a live basket log between polls of the
        streaming watcher; this compares the current on-disk fingerprint
        with the last state this object produced or observed and returns
        ``(rows_absorbed, rewritten)``:

        * unchanged file → ``(0, False)``;
        * same inode, strictly larger, consumed prefix newline-sealed →
          a *grow in place*: only the appended bytes are read. Complete
          lines become rows (recording a byte checkpoint for
          :meth:`tail_rows`, exactly like :meth:`append`); a trailing
          line still missing its newline is a **partial append** — it is
          left unconsumed, and the fingerprint is left stale, so the
          next call re-examines the tail once the writer finishes the
          line. Returns ``(rows, False)``;
        * anything else — inode change, truncation, a same-size mtime
          change, or an unsealed consumed tail that may have been
          extended in place — is a *foreign rewrite*: full invalidation
          through :meth:`append_epoch` (fresh epoch, checkpoints
          dropped, statistics recomputed). Returns ``(0, True)``.

        Like ``tail -f``, a rewrite that keeps the inode and strictly
        grows the file is indistinguishable from an append and is
        absorbed as one; malformed appended lines raise
        :class:`~repro.errors.DatabaseError` before any state changes.
        """
        token = self.cache_token()
        if token == self._epoch_token:
            return 0, False
        old_inode, old_size = self._epoch_token[1], self._epoch_token[2]
        inode, size = token[1], token[2]
        if inode != old_inode or size <= old_size or not self._sealed:
            self.append_epoch()
            return 0, True
        try:
            with open(self._path, "rb") as handle:
                handle.seek(self._end_offset)
                chunk = handle.read()
        except OSError as exc:
            raise DatabaseError(
                f"cannot open basket file {self._path}: {exc}"
            ) from exc
        cut = chunk.rfind(b"\n")
        if cut < 0:
            # Only a partial line so far; consume nothing and keep the
            # fingerprint stale so the next poll looks again.
            return 0, False
        complete = chunk[: cut + 1]
        rows: list[Itemset] = []
        for line in complete.splitlines():
            row = self._parse_line(line)
            if row is not None:
                rows.append(row)
        checkpoint = self._end_offset
        self._end_offset += len(complete)
        if rows:
            self._offsets[self._length] = checkpoint
            self._length += len(rows)
            self._total_items += sum(len(row) for row in rows)
            self._items = self._items | frozenset(
                chain.from_iterable(rows)
            )
            if self._item_counts is not None:
                for row in rows:
                    for item in row:
                        self._item_counts[item] = (
                            self._item_counts.get(item, 0) + 1
                        )
        if cut == len(chunk) - 1:
            self._epoch_token = token
        return len(rows), False

    def tail_rows(self, start: int) -> list[Itemset]:
        """Rows from *start* on, **without** pass accounting.

        Seeks the closest recorded byte checkpoint at or before *start*
        (appends record one per batch) and parses only from there — for
        the common "extend by the appended suffix" read this touches
        just the appended bytes, not the head of the file.
        """
        if not 0 <= start <= self._length:
            raise DatabaseError(
                f"tail start {start} outside [0, {self._length}]"
            )
        anchor = max(
            (rows for rows in self._offsets if rows <= start), default=0
        )
        offset = self._offsets.get(anchor, 0)
        tail: list[Itemset] = []
        try:
            handle = open(self._path, "rb")
        except OSError as exc:
            raise DatabaseError(
                f"cannot open basket file {self._path}: {exc}"
            ) from exc
        with handle:
            handle.seek(offset)
            seen = anchor
            consumed = offset
            for line in handle:
                consumed += len(line)
                if consumed > self._end_offset and not line.endswith(
                    b"\n"
                ):
                    break  # a live writer's unfinished trailing line
                row = self._parse_line(line)
                if row is None:
                    continue
                if seen >= start:
                    tail.append(row)
                seen += 1
        return tail

    def item_counts(self) -> dict[int, int]:
        """Absolute occurrence count of every item (cached; not a pass)."""
        if self._item_counts is None:
            counts: dict[int, int] = {}
            for row in self._read():
                for item in row:
                    counts[item] = counts.get(item, 0) + 1
            self._item_counts = counts
        return dict(self._item_counts)

    def __iter__(self) -> Iterator[Itemset]:
        """Stream without counting (reports/tests only — still does IO)."""
        return self._read()

    def __len__(self) -> int:
        return self._length

    @property
    def scans(self) -> int:
        """Number of *physical* mining passes (disk reads) made so far."""
        return self._scans

    @property
    def logical_scans(self) -> int:
        """Number of *logical* counting passes made so far."""
        return self._logical_scans

    def reset_scans(self) -> None:
        self._scans = 0
        self._logical_scans = 0

    def cache_token(self) -> object:
        """Fingerprint of the on-disk file for cache invalidation.

        Inode, size and nanosecond mtime: any rewrite of the basket file
        changes the token, so a vertical index built against the old
        contents can never serve stale counts — it is rebuilt instead.
        """
        try:
            status = os.stat(self._path)
        except OSError as exc:
            raise DatabaseError(
                f"cannot stat basket file {self._path}: {exc}"
            ) from exc
        return (
            str(self._path), status.st_ino, status.st_size,
            status.st_mtime_ns,
        )

    @property
    def items(self) -> frozenset[int]:
        """The distinct items seen at validation time."""
        return self._items

    def average_length(self) -> float:
        return self._total_items / self._length

    def absolute(self, fraction: float) -> float:
        return fraction * self._length

    def fraction(self, count: int) -> float:
        return count / self._length

    @property
    def path(self) -> Path:
        """Location of the underlying basket file."""
        return self._path

    def __repr__(self) -> str:
        return (
            f"FileBackedDatabase(path={str(self._path)!r}, "
            f"transactions={self._length}, items={len(self._items)})"
        )
