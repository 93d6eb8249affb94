"""An injected DRAM fault (test helper).

The fuzz oracle's ``dram`` check and the shrinker exist to catch the memory
system drifting from its specification, the reference DRAM.
:func:`drop_trcd` plants one instance of that bug class: the memory system
issues every column command right at its row's activation, without waiting
tRCD.  The reference keeps the configured timing, so the first activation
already disagrees.
"""

from __future__ import annotations

import dataclasses

from repro.dram.flat import FlatMemorySystem


def drop_trcd(monkeypatch) -> None:
    """Build every memory system with a zero activate-to-column delay."""
    init = FlatMemorySystem.__init__

    def without_trcd(self, timing, *args, **kwargs):
        init(self, dataclasses.replace(timing, tRCD=0), *args, **kwargs)

    monkeypatch.setattr(FlatMemorySystem, "__init__", without_trcd)
