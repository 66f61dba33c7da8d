"""Magnetic tape model: volumes, files and drives.

Models the Quantum DLT-4000 class drive the paper used:

* inherently sequential media — appends only at the end of the volume;
* a sustained transfer rate that scales with data compressibility (the
  paper's Experiment 3 varies tape speed by using 0 %, 25 % and 50 %
  compressible data);
* repositioning (locate) penalties when access is not sequential, cheap
  rewinds (serpentine tracks), and optional stop/start penalties (off by
  default — the paper assumes the drive's read-ahead buffer hides them);
* a fixed volume capacity, which is how scratch-space requirements
  (``T_R``/``T_S`` in Table 2) are enforced and verified.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.simulator.resources import Resource
from repro.storage.block import MB, BlockSpec, DataChunk, slice_chunks
from repro.storage.bus import Bus


class TapeFullError(RuntimeError):
    """Raised when an append would exceed the volume's capacity."""


@dataclasses.dataclass(frozen=True)
class TapeDriveParameters:
    """Performance characteristics of one tape drive.

    ``native_rate_mb_s`` is the media rate; the effective rate is
    ``native / (1 - compression_ratio)`` — e.g. the DLT-4000's 1.5 MB/s
    native becomes 2.0 MB/s on 25 %-compressible data.
    """

    native_rate_mb_s: float = 1.5
    compression_ratio: float = 0.25
    reposition_s: float = 2.0
    rewind_s: float = 10.0
    load_s: float = 30.0
    stop_start_penalty_s: float = 0.0
    #: SCSI READ REVERSE support (the paper's footnote 2): a drive that
    #: can read backwards never repositions between alternating-direction
    #: scans, "making rewinds unnecessary in all the algorithms".
    supports_read_reverse: bool = False
    #: Distance term of the locate time, seconds per gigabyte of media
    #: crossed (0 = the paper's constant-cost simplification).  Hillyer &
    #: Silberschatz model DLT random access in detail; the join methods
    #: here are mostly sequential, so this mainly prices the jump between
    #: a relation's end and the appended bucket files.
    locate_s_per_gb: float = 0.0

    def __post_init__(self):
        if self.native_rate_mb_s <= 0:
            raise ValueError("native rate must be positive")
        if not 0 <= self.compression_ratio < 1:
            raise ValueError(
                f"compression ratio must be in [0, 1), got {self.compression_ratio}"
            )
        delays = (
            self.reposition_s, self.rewind_s, self.load_s,
            self.stop_start_penalty_s, self.locate_s_per_gb,
        )
        if min(delays) < 0:
            raise ValueError("delays must be non-negative")

    @property
    def effective_rate_mb_s(self) -> float:
        """Data rate seen by the host, after compression."""
        return self.native_rate_mb_s / (1.0 - self.compression_ratio)

    @property
    def rate_bytes_s(self) -> float:
        """Effective rate in bytes per second."""
        return self.effective_rate_mb_s * MB


class TapeFile:
    """A contiguous file on a tape volume."""

    def __init__(self, volume: "TapeVolume", name: str, start_block: float):
        self.volume = volume
        self.name = name
        self.start_block = start_block
        self.chunks: list[DataChunk] = []
        self.n_blocks = 0.0
        #: Bumped by every append, like ``StripedExtent.version``.
        self.version = 0
        self.closed = False

    @property
    def end_block(self) -> float:
        """Position just past the file's last block."""
        return self.start_block + self.n_blocks

    @property
    def n_tuples(self) -> int:
        """Total tuples stored in the file."""
        return sum(c.n_tuples for c in self.chunks)

    def peek_all(self) -> DataChunk:
        """Entire file content."""
        return DataChunk.concat(self.chunks)

    def slice_range(self, offset_blocks: float, n_blocks: float) -> DataChunk:
        """Tuples in block range [offset, offset + n_blocks) of the file."""
        return slice_chunks(self.chunks, self.n_blocks, offset_blocks, n_blocks)

    def _append(self, chunk: DataChunk) -> None:
        if self.closed:
            raise RuntimeError(f"tape file {self.name!r} is closed")
        self.chunks.append(chunk)
        self.n_blocks += chunk.n_blocks
        self.version += 1


class TapeVolume:
    """One tape cartridge: an ordered sequence of files."""

    def __init__(self, name: str, capacity_blocks: float, requirement: str | None = None):
        if capacity_blocks <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_blocks}")
        self.name = name
        self.capacity_blocks = float(capacity_blocks)
        #: Table 2 scratch symbol this volume's capacity enforces
        #: ("T_R"/"T_S"); names the violated requirement when it fills up.
        self.requirement = requirement
        self.files: list[TapeFile] = []
        self._by_name: dict[str, TapeFile] = {}

    @property
    def end_block(self) -> float:
        """Position of the end of recorded data."""
        return self.files[-1].end_block if self.files else 0.0

    @property
    def free_blocks(self) -> float:
        """Unrecorded capacity."""
        return self.capacity_blocks - self.end_block

    def file(self, name: str) -> TapeFile:
        """Look up a file by name."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no file {name!r} on volume {self.name}") from None

    def create_file(self, name: str) -> TapeFile:
        """Start a new file at the end of the volume.

        The previous last file is closed — tape media is append-only.
        """
        if name in self._by_name:
            raise ValueError(f"file {name!r} already on volume {self.name}")
        if self.files:
            self.files[-1].closed = True
        tape_file = TapeFile(self, name, self.end_block)
        self.files.append(tape_file)
        self._by_name[name] = tape_file
        return tape_file

    def written_after(self, position_block: float) -> float:
        """Blocks recorded at or after ``position_block`` (scratch usage)."""
        return max(0.0, self.end_block - position_block)


class TapeDrive:
    """One tape drive: a head position, a bus attachment and one media slot."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        bus: Bus,
        spec: BlockSpec,
        params: TapeDriveParameters | None = None,
    ):
        self.sim = sim
        self.name = name
        self.bus = bus
        self.spec = spec
        self.params = params or TapeDriveParameters()
        self.unit = Resource(sim, capacity=1)
        self.volume: TapeVolume | None = None
        self.head_block = 0.0
        self.read_blocks = 0.0
        self.write_blocks = 0.0
        self.repositions = 0
        self.busy_s = 0.0
        self._last_op_end = 0.0
        #: Optional fault injector (``repro.faults``); None = fault-free,
        #: in which case every I/O takes the original unguarded path.
        self.faults = None
        #: Optional :class:`~repro.obs.recorder.JoinObserver`; recording
        #: is purely observational, so traced runs stay time-identical.
        self.observer = None

    # -- media handling ---------------------------------------------------------

    def load(self, volume: TapeVolume) -> None:
        """Mount a volume instantly (bookkeeping only; the library charges time)."""
        if self.volume is not None:
            raise RuntimeError(f"drive {self.name} already has {self.volume.name} loaded")
        self.volume = volume
        self.head_block = 0.0

    def unload(self) -> TapeVolume:
        """Eject the mounted volume."""
        if self.volume is None:
            raise RuntimeError(f"drive {self.name} has no volume loaded")
        volume, self.volume = self.volume, None
        return volume

    def _require_volume(self) -> TapeVolume:
        if self.volume is None:
            raise RuntimeError(f"drive {self.name} has no volume loaded")
        return self.volume

    # -- I/O ---------------------------------------------------------------------

    def _op(
        self, target_block: float, n_blocks: float, kind: str = "tape-read", value=None
    ) -> Event:
        """Hold the drive, reposition if needed, then stream ``n_blocks``.

        A drive with READ REVERSE serves a request whose *end* is at the
        current head position by reading backwards — no reposition, and
        the head finishes at the range's start.

        Returns the completion event, carrying ``value``.  It triggers
        inside the transfer's completion, so a process waiting on it
        resumes at once.
        """
        sim = self.sim
        done = Event(sim)
        req = self.unit.request()
        if self.observer is not None:
            self.observer.queue_depth(self.name, sim.now, len(self.unit.queue))

        def finish(transfer: Event, start: float, reverse: bool) -> None:
            if transfer._exception is None:
                self.head_block = target_block if reverse else target_block + n_blocks
            self._last_op_end = sim.now
            self.busy_s += sim.now - start
            if self.observer is not None:
                self.observer.device_busy(self.name, start, sim.now, kind)
                self.observer.queue_depth(self.name, sim.now, len(self.unit.queue))
            self.unit.release(req)
            if transfer._exception is None:
                done._succeed_now(value)
            else:
                done._fail_now(transfer._exception)

        def begin(_granted: Event | None = None) -> None:
            start = sim.now
            params = self.params
            reverse = (
                params.supports_read_reverse
                and abs(self.head_block - (target_block + n_blocks)) <= 1e-9
                and n_blocks > 0
            )
            penalty = 0.0
            at_position = reverse or abs(self.head_block - target_block) <= 1e-9
            if not at_position:
                penalty += params.reposition_s
                if params.locate_s_per_gb > 0:
                    distance_gb = self.spec.bytes_from_blocks(
                        abs(self.head_block - target_block)
                    ) / (1024**3)
                    penalty += distance_gb * params.locate_s_per_gb
                self.repositions += 1
            elif params.stop_start_penalty_s > 0 and start - self._last_op_end > 1e-9:
                penalty += params.stop_start_penalty_s
            n_bytes = self.spec.bytes_from_blocks(n_blocks)
            # Positioning and streaming ride one bus event (lead-in), so a
            # reposition-then-read costs a single scheduled completion.
            if self.faults is None:
                transfer = self.bus.transfer(params.rate_bytes_s, n_bytes, penalty)
            else:
                transfer = self.faults.guarded_transfer(
                    self.bus, params.rate_bytes_s, n_bytes, penalty, self.name, kind
                )
            transfer.callbacks.append(lambda event: finish(event, start, reverse))

        if req.processed:
            begin()
        else:
            req.callbacks.append(begin)
        return done

    def read(self, file: TapeFile, offset_blocks: float, n_blocks: float) -> Event:
        """Start reading ``n_blocks`` from ``offset_blocks`` into ``file``.

        Returns the completion event; its value is the data read.
        """
        self._check_mounted(file)
        data = file.slice_range(offset_blocks, n_blocks)
        self.read_blocks += n_blocks
        return self._op(file.start_block + offset_blocks, n_blocks, "tape-read", data)

    # -- file I/O (generators; use with ``yield from``) ---------------------------

    def read_range(
        self, file: TapeFile, offset_blocks: float, n_blocks: float
    ) -> typing.Generator:
        """Read ``n_blocks`` starting ``offset_blocks`` into ``file``."""
        return (yield self.read(file, offset_blocks, n_blocks))

    def read_file(self, file: TapeFile) -> typing.Generator:
        """Read an entire file."""
        return (yield from self.read_range(file, 0.0, file.n_blocks))

    def append(self, file: TapeFile, chunk: DataChunk) -> typing.Generator:
        """Append ``chunk`` to ``file`` (must be the volume's last file)."""
        volume = self._check_mounted(file)
        if volume.files[-1] is not file:
            raise RuntimeError(
                f"file {file.name!r} is not at the end of volume {volume.name}; "
                "tape media is append-only"
            )
        if chunk.n_blocks > volume.free_blocks + 1e-9:
            requirement = (
                f"the Table 2 scratch requirement {volume.requirement} is violated"
                if volume.requirement
                else "the volume is full"
            )
            raise TapeFullError(
                f"volume {volume.name}: append of {chunk.n_blocks:.1f} blocks to "
                f"file {file.name!r} needs more than the {volume.free_blocks:.1f} "
                f"blocks available (capacity {volume.capacity_blocks:.1f}); "
                f"{requirement}"
            )
        self.write_blocks += chunk.n_blocks
        yield self._op(file.end_block, chunk.n_blocks, "tape-write")
        file._append(chunk)

    def rewind(self) -> typing.Generator:
        """Rewind to beginning of tape (cheap on serpentine media)."""
        self._require_volume()
        req = self.unit.request()
        if self.observer is not None:
            self.observer.queue_depth(self.name, self.sim.now, len(self.unit.queue))
        yield req
        start = self.sim.now
        try:
            yield self.sim.timeout(self.params.rewind_s)
            self.head_block = 0.0
        finally:
            self.busy_s += self.sim.now - start
            if self.observer is not None:
                self.observer.device_busy(self.name, start, self.sim.now, "tape-rewind")
                self.observer.queue_depth(
                    self.name, self.sim.now, len(self.unit.queue)
                )
            self.unit.release(req)

    def _check_mounted(self, file: TapeFile) -> TapeVolume:
        volume = self._require_volume()
        if file.volume is not volume:
            raise RuntimeError(
                f"file {file.name!r} is on volume {file.volume.name}, but drive "
                f"{self.name} has {volume.name} loaded"
            )
        return volume
