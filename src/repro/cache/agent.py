"""Interface between the LLC and the engines that observe or inject traffic.

The paper places three kinds of engines next to the shared LLC: prefetchers
(the stride baseline and SMS), the eager-writeback engine (VWQ) and BuMP
itself.  All of them observe the LLC's access, miss and eviction streams and
may ask the system to inject additional block reads (prefetches / bulk
reads) or additional writebacks (eager / bulk writebacks).

To keep control flow simple and acyclic, agents do not act on the LLC
directly.  The system owns one *action sink* -- a fetch list and a
writeback list -- and binds it to every agent once per run
(:meth:`LLCAgent.bind_sink`).  Hooks take plain scalars (an eviction hands
over the victim's block and its packed flag byte, ``FLAG_*`` below), return
nothing, and append the block addresses they want fetched or written back
to the bound lists; the system model (:mod:`repro.sim.system`) takes what
the hooks of one LLC event appended, performs that traffic and attributes
it.  Nothing is allocated per notification.
"""

from __future__ import annotations

from typing import List


#: The packed flag byte of an LLC line (:class:`repro.cache.flat.CacheArray`
#: keeps one per line; :meth:`LLCAgent.on_eviction` receives the victim's).
#: A line is filled either demanded (``FLAG_USED``) or prefetched
#: (``FLAG_PREFETCHED``); a demand hit on a prefetched line sets
#: ``FLAG_USED``, so a prefetched line evicted without ``FLAG_USED`` was
#: never used (overfetch).
FLAG_DIRTY = 1
FLAG_PREFETCHED = 2
FLAG_USED = 4


class LLCAgent:
    """Base class for engines attached to the LLC.

    Subclasses override only the notifications they care about; the system
    never calls a hook an agent leaves at the base-class no-op.  Hooks may
    only run after :meth:`bind_sink`.
    """

    name = "agent"

    #: Block addresses to fetch into the LLC if not resident (system-owned).
    fetches: List[int]
    #: Block addresses whose dirty copies to write back (system-owned).
    writebacks: List[int]

    def bind_sink(self, fetches: List[int], writebacks: List[int]) -> None:
        """Direct this agent's requests into the system's action sink."""
        self.fetches = fetches
        self.writebacks = writebacks

    def on_access(self, core: int, pc: int, block: int, is_store: bool,
                  hit: bool) -> None:
        """A demand request (read or write) probed the LLC."""

    def on_miss(self, core: int, pc: int, block: int, is_store: bool) -> None:
        """A demand request missed in the LLC and will be sent to memory."""

    def on_eviction(self, block: int, flags: int) -> None:
        """``block`` was evicted from the LLC; ``flags`` is its flag byte."""

    def storage_bits(self) -> int:
        """Total storage the agent's hardware structures require, in bits.

        Used by the overhead analysis (Section V.F / VI of the paper).
        """
        return 0
