"""Lightweight statistics collection.

Every component of the simulator exposes its measurements through a
:class:`StatGroup`: a named collection of counters and accumulators that the
experiment harness can snapshot, diff and merge.  Keeping the interface tiny
(increment, add, ratio) keeps the hot loops cheap while still letting the
benchmark harness assemble the exact rows the paper's figures report.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, Iterable, Mapping, Sequence, Tuple


class StatGroup:
    """A named bag of floating-point counters.

    Counters spring into existence at zero on first use, so components never
    need to pre-declare them.  Names are free-form strings; by convention they
    are lowercase with underscores (``"row_hits"``, ``"demand_reads"``).
    """

    def __init__(self, name: str = "stats") -> None:
        self.name = name
        self._counters: Dict[str, float] = defaultdict(float)

    def inc(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` (default 1) to counter ``key``."""
        self._counters[key] += amount

    def set(self, key: str, value: float) -> None:
        """Overwrite counter ``key`` with ``value``."""
        self._counters[key] = value

    def get(self, key: str, default: float = 0.0) -> float:
        """Return counter ``key`` or ``default`` when it was never touched."""
        return self._counters.get(key, default)

    def __getitem__(self, key: str) -> float:
        return self._counters.get(key, 0.0)

    def __contains__(self, key: str) -> bool:
        return key in self._counters

    def ratio(self, numerator: str, denominator: str) -> float:
        """Return ``numerator / denominator``, or 0.0 when the denominator is 0."""
        denom = self._counters.get(denominator, 0.0)
        if denom == 0:
            return 0.0
        return self._counters.get(numerator, 0.0) / denom

    def merge(self, other: "StatGroup") -> None:
        """Accumulate every counter of ``other`` into this group."""
        for key, value in other._counters.items():
            self._counters[key] += value

    def update(self, values: Mapping[str, float]) -> None:
        """Accumulate every entry of a plain mapping into this group."""
        for key, value in values.items():
            self._counters[key] += value

    def snapshot(self) -> Dict[str, float]:
        """Return a plain-dict copy of the current counter values."""
        return dict(self._counters)

    def reset(self, keys: Iterable[str] = ()) -> None:
        """Zero the listed counters, or every counter when none are listed.

        Listed counters are zeroed *in place*: a counter that existed before
        the reset still reports as touched (``key in group`` stays true and
        ``keys()`` still lists it), it just reads 0.  Counters that were never
        touched are not created.
        """
        if keys:
            for key in keys:
                if key in self._counters:
                    self._counters[key] = 0.0
        else:
            self._counters.clear()

    def keys(self) -> Iterable[str]:
        """Iterate over the names of all counters that have been touched."""
        return self._counters.keys()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"{k}={v:g}" for k, v in sorted(self._counters.items()))
        return f"StatGroup({self.name}: {body})"


def fold_pending(owner, group: StatGroup,
                 pending: Sequence[Tuple[str, str]]) -> StatGroup:
    """Fold ``owner``'s pending hot-counter ints into ``group``; return it.

    Hot paths bump plain int attributes instead of paying a
    :meth:`StatGroup.inc` call per event; ``pending`` lists the
    ``(attribute, key)`` pairs, and the owner's ``stats`` property calls
    this so the group is complete whenever it is read.  Each folded
    attribute is zeroed.  Zero values are skipped, so a key still appears
    only once its event has happened.
    """
    for attr, key in pending:
        value = getattr(owner, attr)
        if value:
            group.inc(key, value)
            setattr(owner, attr, 0)
    return group
