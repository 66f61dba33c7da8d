"""Magnetic disk model: arm, seek/rotation latency, extents and space.

Matches the paper's secondary-storage assumptions: multi-block requests pay
one positioning delay (seek + rotational latency) and a per-byte transfer
cost; back-to-back requests against the same extent stream without
repositioning.  Section 3.2 argues positioning is negligible for requests of
30+ blocks — we model it anyway, which correctly degrades small random
bucket appends at tiny memory sizes (Figures 8–9).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.simulator.resources import Resource
from repro.storage.block import MB, BlockSpec, DataChunk, slice_chunks
from repro.storage.bus import Bus


class DiskFullError(RuntimeError):
    """Raised when a write would exceed the disk's capacity."""


@dataclasses.dataclass(frozen=True)
class DiskParameters:
    """Performance characteristics of one disk drive.

    Defaults approximate a mid-1990s SCSI disk (Quantum Fireball class):
    ~3.5 MB/s sustained transfer, ~11 ms average seek, 5400 RPM.
    """

    transfer_rate_mb_s: float = 3.5
    avg_seek_ms: float = 11.0
    rotational_latency_ms: float = 5.6
    near_seek_ms: float = 4.0

    def __post_init__(self):
        if self.transfer_rate_mb_s <= 0:
            raise ValueError("transfer rate must be positive")
        if min(self.avg_seek_ms, self.rotational_latency_ms, self.near_seek_ms) < 0:
            raise ValueError("latencies must be non-negative")

    @property
    def rate_bytes_s(self) -> float:
        """Sustained transfer rate in bytes per second."""
        return self.transfer_rate_mb_s * MB

    @property
    def positioning_s(self) -> float:
        """Seek plus rotational latency for a repositioned request."""
        return (self.avg_seek_ms + self.rotational_latency_ms) / 1000.0

    @property
    def near_positioning_s(self) -> float:
        """Short reposition within one region (track-to-track class)."""
        return self.near_seek_ms / 1000.0


class DiskExtent:
    """A named, growable allocation on one disk.

    Content is an ordered list of :class:`DataChunk` objects.  Space
    accounting is live: appends grow the disk's used space, consumes shrink
    it, so buffer schemes that gradually release space (Section 4) are
    reflected in the disk's occupancy.
    """

    def __init__(self, disk: "Disk", name: str):
        self.disk = disk
        self.name = name
        self.chunks: list[DataChunk] = []
        self.n_blocks = 0.0

    @property
    def n_tuples(self) -> int:
        """Total tuples currently stored in the extent."""
        return sum(c.n_tuples for c in self.chunks)

    def _append(self, chunk: DataChunk) -> None:
        self.chunks.append(chunk)
        self.n_blocks += chunk.n_blocks

    def _consume_all(self) -> DataChunk:
        data = DataChunk.concat(self.chunks)
        self.chunks = []
        self.disk._release(self.n_blocks)
        self.n_blocks = 0.0
        return data

    def _consume_next(self) -> DataChunk:
        if not self.chunks:
            raise ValueError(f"extent {self.name!r} is empty")
        chunk = self.chunks.pop(0)
        self.n_blocks -= chunk.n_blocks
        self.disk._release(chunk.n_blocks)
        return chunk

    def peek_all(self) -> DataChunk:
        """All content without consuming it."""
        return DataChunk.concat(self.chunks)

    def slice_range(self, offset_blocks: float, n_blocks: float) -> DataChunk:
        """Tuples stored in the block range [offset, offset + n_blocks)."""
        return slice_chunks(self.chunks, self.n_blocks, offset_blocks, n_blocks)


class Disk:
    """One disk drive: a single arm, a bus attachment and an extent table."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bus: Bus,
        spec: BlockSpec,
        capacity_blocks: float,
        params: DiskParameters | None = None,
    ):
        if capacity_blocks <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_blocks}")
        self.sim = sim
        self.name = name
        self.bus = bus
        self.spec = spec
        self.capacity_blocks = float(capacity_blocks)
        self.params = params or DiskParameters()
        self.arm = Resource(sim, capacity=1)
        self.used_blocks = 0.0
        self.peak_used_blocks = 0.0
        self.read_blocks = 0.0
        self.write_blocks = 0.0
        self.busy_s = 0.0
        self.extents: dict[str, DiskExtent] = {}
        self._last_extent: DiskExtent | None = None
        #: Optional fault injector (``repro.faults``); None = fault-free,
        #: in which case every I/O takes the original unguarded path.
        self.faults = None
        #: Optional :class:`~repro.obs.recorder.JoinObserver`; recording
        #: is purely observational, so traced runs stay time-identical.
        self.observer = None

    @property
    def free_blocks(self) -> float:
        """Unused capacity in blocks."""
        return self.capacity_blocks - self.used_blocks

    # -- space management -----------------------------------------------------

    def allocate(self, name: str) -> DiskExtent:
        """Create a new, empty extent named ``name``."""
        if name in self.extents:
            raise ValueError(f"extent {name!r} already exists on {self.name}")
        extent = DiskExtent(self, name)
        self.extents[name] = extent
        return extent

    def free(self, extent: DiskExtent) -> None:
        """Drop an extent and release its space."""
        if self.extents.get(extent.name) is not extent:
            raise ValueError(f"extent {extent.name!r} not on {self.name}")
        self._release(extent.n_blocks)
        extent.chunks = []
        extent.n_blocks = 0.0
        del self.extents[extent.name]
        if self._last_extent is extent:
            self._last_extent = None

    def _reserve(self, n_blocks: float) -> None:
        if self.used_blocks + n_blocks > self.capacity_blocks + 1e-9:
            raise DiskFullError(
                f"disk {self.name}: write of {n_blocks:.1f} blocks needs more "
                f"than the {self.free_blocks:.1f} blocks free "
                f"({self.used_blocks:.1f}/{self.capacity_blocks:.1f} in use); "
                f"the join's disk budget (Table 2 requirement D) is exhausted"
            )
        self.used_blocks += n_blocks
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)

    def _release(self, n_blocks: float) -> None:
        self.used_blocks = max(0.0, self.used_blocks - n_blocks)

    # -- I/O ---------------------------------------------------------------------

    def _io(
        self,
        extent: DiskExtent,
        n_blocks: float,
        kind: str = "disk-read",
        far_positions: int | None = None,
        near_positions: int = 0,
    ) -> Event:
        """Hold the arm, pay positioning, then transfer ``n_blocks``.

        The lead-in charges ``far_positions`` full repositions plus
        ``near_positions`` short ones.  ``far_positions=None`` charges one
        full reposition unless the previous request hit the same extent
        (a sequential continuation).  A burst of small requests (bucket
        flushes, fragment reads) is one call charging every reposition:
        timing matches issuing them back to back, at the cost of one
        transfer.

        Returns the completion event.  It triggers inside the transfer's
        completion, so a process waiting on it resumes at once.
        """
        sim = self.sim
        done = Event(sim)
        req = self.arm.request()
        if self.observer is not None:
            self.observer.queue_depth(self.name, sim.now, len(self.arm.queue))

        def finish(transfer: Event, start: float) -> None:
            self.busy_s += sim.now - start
            if self.observer is not None:
                self.observer.device_busy(self.name, start, sim.now, kind)
                self.observer.queue_depth(self.name, sim.now, len(self.arm.queue))
            self.arm.release(req)
            if transfer._exception is None:
                done._succeed_now()
            else:
                done._fail_now(transfer._exception)

        def begin(_granted: Event | None = None) -> None:
            start = sim.now
            params = self.params
            far = far_positions
            if far is None:
                far = 0 if self._last_extent is extent else 1
            lead_in = far * params.positioning_s + near_positions * params.near_positioning_s
            self._last_extent = extent
            n_bytes = self.spec.bytes_from_blocks(n_blocks)
            # Positioning and transfer share one bus event (lead-in).
            if self.faults is None:
                transfer = self.bus.transfer(params.rate_bytes_s, n_bytes, lead_in)
            else:
                transfer = self.faults.guarded_transfer(
                    self.bus, params.rate_bytes_s, n_bytes, lead_in, self.name, kind
                )
            transfer.callbacks.append(lambda event: finish(event, start))

        if req.processed:
            begin()
        else:
            req.callbacks.append(begin)
        return done

    # -- extent I/O (generators; use with ``yield from``) ------------------------

    def write(self, extent: DiskExtent, chunk: DataChunk) -> typing.Generator:
        """Append ``chunk`` to ``extent`` (reserves space up front)."""
        self._reserve(chunk.n_blocks)
        self.write_blocks += chunk.n_blocks
        yield self._io(extent, chunk.n_blocks, "disk-write")
        extent._append(chunk)

    def read_all(self, extent: DiskExtent, consume: bool = False) -> typing.Generator:
        """Read the entire extent; optionally release its space."""
        n_blocks = extent.n_blocks
        self.read_blocks += n_blocks
        yield self._io(extent, n_blocks)
        if consume:
            return extent._consume_all()
        return extent.peek_all()

    def read_next(self, extent: DiskExtent) -> typing.Generator:
        """Read and consume the oldest chunk of the extent."""
        if not extent.chunks:
            raise ValueError(f"extent {extent.name!r} is empty")
        n_blocks = extent.chunks[0].n_blocks
        self.read_blocks += n_blocks
        yield self._io(extent, n_blocks)
        return extent._consume_next()

    def read_range(
        self, extent: DiskExtent, offset_blocks: float, n_blocks: float
    ) -> typing.Generator:
        """Read a block range without consuming (sequential scans)."""
        self.read_blocks += n_blocks
        yield self._io(extent, n_blocks)
        return extent.slice_range(offset_blocks, n_blocks)
