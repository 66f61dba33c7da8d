"""Buffering techniques for tertiary joins using parallel I/O (Section 4).

Two building blocks:

* :class:`MemoryManager` — hard accounting of the ``M``-block main-memory
  budget every join method must respect (Table 2 verification).
* :class:`InterleavedDiskBuffer` — one physical disk buffer shared by two
  logical per-iteration buffers, releasing space gradually as the reader
  consumes it.  Its occupancy ledger regenerates Figure 4.
"""

from repro.buffering.memory import MemoryBudgetError, MemoryManager
from repro.buffering.interleaved import InterleavedDiskBuffer

__all__ = [
    "InterleavedDiskBuffer",
    "MemoryBudgetError",
    "MemoryManager",
]
