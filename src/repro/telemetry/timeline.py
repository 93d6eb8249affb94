"""Cycle-indexed time-series of the simulator's hot counters.

Every end-of-run metric the system reports today is a scalar; a
:class:`Timeline` turns the same counters into paper-style time-varying
curves.  At each streaming chunk boundary the telemetry recorder snapshots
the cumulative totals the engines already hold as plain ints / flat NumPy
arrays (never per access -- the sampling granularity *is* the chunk) and
appends one row of **interval deltas** keyed by the core cycle at which the
chunk ended.

Storage follows the flat-engine idiom: one preallocated 2D ``float64``
array, grown by doubling, one column per metric.  Columns fall into three
groups:

* ``cycle`` and ``accesses_total`` -- absolute coordinates of the sample
  (core cycle at the chunk boundary; accesses interpreted since the
  recorder first saw the system, monotone across measurement resets, which
  is what makes timelines from different chunk sizes alignable);
* ``queue_occupancy`` -- an instantaneous gauge (transfers queued but not
  yet served by the memory system when the sample was taken);
* everything else -- the delta of the corresponding cumulative counter over
  the interval since the previous sample.

Derived per-interval rates (L1/LLC hit rate, MPKI, row-buffer hit rate,
generated-traffic share) are computed on demand from the deltas; they are
never stored, so the recorded data stays exact counter arithmetic.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

__all__ = [
    "DELTA_COLUMNS",
    "TIMELINE_COLUMNS",
    "Timeline",
]

#: Column order of every sample row.  The first two columns are absolute
#: coordinates, ``queue_occupancy`` is an instantaneous gauge, and the
#: remaining columns are per-interval deltas of cumulative counters.
TIMELINE_COLUMNS = (
    "cycle",
    "accesses_total",
    "queue_occupancy",
    "accesses",
    "instructions",
    "l1_hits",
    "llc_hits",
    "llc_misses",
    "demand_reads",
    "covered_reads",
    "demand_writebacks",
    "bulk_reads",
    "prefetch_reads",
    "bulk_writebacks",
    "eager_writebacks",
    "dram_accesses",
    "row_hits",
    "row_misses",
    "row_conflicts",
)

#: The subset of :data:`TIMELINE_COLUMNS` recorded as interval deltas.
DELTA_COLUMNS = TIMELINE_COLUMNS[3:]

_NUM_COLUMNS = len(TIMELINE_COLUMNS)
_COLUMN_INDEX = {name: index for index, name in enumerate(TIMELINE_COLUMNS)}


def _guarded_ratio(numerator: np.ndarray, denominator: np.ndarray) -> np.ndarray:
    """Elementwise ``numerator / denominator`` with 0.0 where the denominator is 0."""
    out = np.zeros_like(numerator, dtype=np.float64)
    np.divide(numerator, denominator, out=out, where=denominator != 0)
    return out


class Timeline:
    """Growable columnar store of per-chunk samples.

    Rows are appended by the telemetry recorder; consumers read columns as
    NumPy views (:meth:`column`), whole tables (:meth:`as_dict`) or derived
    per-interval rates (:meth:`derived`).
    """

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self._data = np.zeros((capacity, _NUM_COLUMNS), dtype=np.float64)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def append(self, row) -> None:
        """Append one sample row (sequence in :data:`TIMELINE_COLUMNS` order)."""
        if len(row) != _NUM_COLUMNS:
            raise ValueError(
                f"sample row has {len(row)} values; expected {_NUM_COLUMNS}")
        if self._size == len(self._data):
            grown = np.zeros((2 * len(self._data), _NUM_COLUMNS), dtype=np.float64)
            grown[:self._size] = self._data[:self._size]
            self._data = grown
        self._data[self._size] = row
        self._size += 1

    def put(self, index: int, name: str, value: float) -> None:
        """Overwrite one recorded value (a sample filled in after the fact)."""
        if not 0 <= index < self._size:
            raise IndexError(f"no sample {index} in a timeline of {self._size}")
        self._data[index, _COLUMN_INDEX[name]] = value

    # ------------------------------------------------------------------ #
    # Reads
    # ------------------------------------------------------------------ #
    def column(self, name: str) -> np.ndarray:
        """One metric across all samples (a read-only view, no copy)."""
        try:
            index = _COLUMN_INDEX[name]
        except KeyError:
            raise KeyError(f"unknown timeline column {name!r}; "
                           f"known: {', '.join(TIMELINE_COLUMNS)}")
        view = self._data[:self._size, index]
        view.flags.writeable = False
        return view

    def as_dict(self) -> Dict[str, np.ndarray]:
        """Every recorded column, keyed by name."""
        return {name: self.column(name) for name in TIMELINE_COLUMNS}

    def rows(self) -> List[List[float]]:
        """Every sample as a plain list of floats (JSONL-serialisable)."""
        return self._data[:self._size].tolist()

    def cumulative(self, name: str) -> np.ndarray:
        """Running total of a delta column (absolute columns pass through)."""
        column = self.column(name)
        if name not in DELTA_COLUMNS:
            return column
        return np.cumsum(column)

    def derived(self) -> Dict[str, np.ndarray]:
        """Per-interval rates the observability reports plot.

        ``l1_hit_rate``
            L1 hits over accesses in the interval.
        ``llc_hit_rate``
            LLC hits over LLC demand lookups (hits + misses).
        ``mpki``
            LLC misses per thousand instructions.
        ``row_hit_rate``
            DRAM row-buffer hits over column accesses served.
        ``generated_read_share``
            Bulk + prefetch reads over all DRAM accesses served (the
            prediction mechanisms' share of the memory traffic).

        Every ratio is 0.0 where its denominator is 0 for the interval.
        """
        accesses = self.column("accesses")
        llc_hits = self.column("llc_hits")
        llc_misses = self.column("llc_misses")
        dram = self.column("dram_accesses")
        return {
            "l1_hit_rate": _guarded_ratio(self.column("l1_hits"), accesses),
            "llc_hit_rate": _guarded_ratio(llc_hits, llc_hits + llc_misses),
            "mpki": _guarded_ratio(1000.0 * llc_misses,
                                   self.column("instructions")),
            "row_hit_rate": _guarded_ratio(self.column("row_hits"), dram),
            "generated_read_share": _guarded_ratio(
                self.column("bulk_reads") + self.column("prefetch_reads"), dram),
        }

    def totals(self) -> Dict[str, float]:
        """Sum of every delta column over the whole run (exact, order-free:
        the deltas are integer-valued counter differences)."""
        return {name: float(self.column(name).sum()) for name in DELTA_COLUMNS}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Timeline({self._size} samples x {_NUM_COLUMNS} columns)"
