"""Small internal helpers shared across subpackages."""

from __future__ import annotations

import math
import time
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

from .errors import ConfigError


def check_fraction(value: float, name: str) -> float:
    """Validate that *value* lies in ``(0, 1]`` and return it.

    Support and interest thresholds are fractions of the database size;
    zero is rejected because it would admit every itemset.
    """
    if not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must be in (0, 1], got {value!r}")
    return value


def min_count(minsup: float, total: int) -> int:
    """The fewest rows of *total* an itemset needs to be large at *minsup*.

    An itemset is large exactly when the support the miners report for
    it, ``count / total``, is at least *minsup*. So 7 of 100 rows is large
    at ``minsup=0.07`` (the float product ``0.07 * 100`` is
    ``7.000000000000001``), and k of n rows is large at ``minsup=k/n``
    for every k and n.
    """
    # count / total never falls as count grows, and the float product is
    # off the exact one by far less than a row, so the loops move the
    # first guess by a row at most.
    count = math.ceil(minsup * total)
    while count > 0 and (count - 1) / total >= minsup:
        count -= 1
    while count < total and count / total < minsup:
        count += 1
    return count


def check_positive(value: int, name: str) -> int:
    """Validate that *value* is a positive integer and return it."""
    if value < 1:
        raise ConfigError(f"{name} must be >= 1, got {value!r}")
    return value


def check_nonnegative(value: float, name: str) -> float:
    """Validate that *value* is >= 0 and return it."""
    if value < 0:
        raise ConfigError(f"{name} must be >= 0, got {value!r}")
    return value


@dataclass
class Stopwatch:
    """Accumulating wall-clock timer used by the benchmark harnesses.

    >>> watch = Stopwatch()
    >>> with watch.measure():
    ...     pass
    >>> watch.elapsed >= 0.0
    True
    """

    elapsed: float = 0.0
    _laps: list[float] = field(default_factory=list)

    @contextmanager
    def measure(self) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            lap = time.perf_counter() - start
            self.elapsed += lap
            self._laps.append(lap)

    @property
    def laps(self) -> list[float]:
        return list(self._laps)

    def reset(self) -> None:
        self.elapsed = 0.0
        self._laps.clear()
