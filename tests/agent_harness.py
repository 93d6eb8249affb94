"""Drive one LLC agent's hooks against a private action sink (test helper).

Agents append the traffic they request to lists the system binds to them
(see :mod:`repro.cache.agent`).  :class:`AgentHarness` binds its own lists,
calls one hook at a time and returns what that call appended, so unit tests
can assert on each notification's requests.
"""

from __future__ import annotations

from typing import List

from repro.cache.agent import FLAG_DIRTY, FLAG_PREFETCHED, FLAG_USED


class Requested:
    """The blocks one hook call appended to the sink."""

    def __init__(self, fetch_blocks: List[int], writeback_blocks: List[int]) -> None:
        self.fetch_blocks = fetch_blocks
        self.writeback_blocks = writeback_blocks

    @property
    def empty(self) -> bool:
        return not self.fetch_blocks and not self.writeback_blocks


class AgentHarness:
    """Bind a fresh sink to ``agent`` and call its hooks one at a time."""

    def __init__(self, agent) -> None:
        self.agent = agent
        self.fetches: List[int] = []
        self.writebacks: List[int] = []
        agent.bind_sink(self.fetches, self.writebacks)

    def _take(self) -> Requested:
        requested = Requested(list(self.fetches), list(self.writebacks))
        self.fetches.clear()
        self.writebacks.clear()
        return requested

    def access(self, pc: int, block: int, store: bool = False, hit: bool = False,
               core: int = 0) -> Requested:
        """``on_access`` of a demand request (a load unless ``store``)."""
        assert self.agent.on_access(core, pc, block, store, hit) is None
        return self._take()

    def miss(self, pc: int, block: int, store: bool = False,
             core: int = 0) -> Requested:
        """``on_miss`` of a demand request."""
        assert self.agent.on_miss(core, pc, block, store) is None
        return self._take()

    def evict(self, block: int, dirty: bool = False, prefetched: bool = False,
              used: bool = True) -> Requested:
        """``on_eviction`` of a line with these flag bits."""
        flags = ((FLAG_DIRTY if dirty else 0)
                 | (FLAG_PREFETCHED if prefetched else 0)
                 | (FLAG_USED if used else 0))
        assert self.agent.on_eviction(block, flags) is None
        return self._take()
