"""Same-time event order of device operations.

Device operations run as callback chains on the event queue.  Where two
things happen at the same simulated instant, the order they happen in
decides arm hand-off and positioning charges, so it is pinned here:

1. An operation issued to run concurrently (a ``scan_tape`` prefetch)
   starts one scheduler step later.
2. An operation issued inline starts at once, and its waiter resumes
   inside the transfer's completion event.
3. The waiter of a concurrent operation resumes one step after its
   completion; for a striped (multi-disk) operation, two steps after the
   last per-disk completion.

A :class:`Ticker` measures "steps": a chain of same-time events, each
scheduling the next, whose count says how many scheduler steps at that
instant have passed when something else happens.
"""

import types

import numpy as np
import pytest

from repro.core.base import scan_tape
from repro.faults import FaultInjector, RetryExhaustedError
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk, DiskParameters
from repro.storage.disk_array import DiskArray
from repro.storage.tape import TapeDrive, TapeVolume


def chunk_of(n_blocks, tpb=10, start=0):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


class Ticker:
    """Counts scheduler steps taken at simulated time ``when``.

    The first tick is a timeout created now, so it runs before any event
    for ``when`` that is scheduled later; each tick schedules the next.
    """

    def __init__(self, sim, when, ticks=8):
        self.sim = sim
        self.count = 0
        self.left = ticks
        sim.timeout(when - sim.now).callbacks.append(self._tick)

    def _tick(self, _event):
        self.count += 1
        self.left -= 1
        if self.left:
            nxt = self.sim.event()
            nxt.callbacks.append(self._tick)
            nxt.succeed()


class BusyLog:
    """Observer recording the kind of each finished device operation."""

    def __init__(self):
        self.kinds = []

    def queue_depth(self, device, now, depth):
        pass

    def device_busy(self, device, start, end, kind):
        self.kinds.append(kind)


@pytest.fixture
def tape(sim):
    """A drive holding a 20-block source file followed by a scratch file."""
    drive = TapeDrive(sim, "t0", Bus(sim, "scsi"), BlockSpec())
    volume = TapeVolume("v", 1000.0)
    volume.create_file("src")._append(chunk_of(20.0))
    volume.create_file("dst")
    drive.load(volume)
    return drive


def scan(sim, drive, n_blocks, consume):
    env = types.SimpleNamespace(sim=sim, faults=None)
    src = drive.volume.file("src")
    return sim.process(
        scan_tape(env, drive, src, 0.0, n_blocks, 10.0, consume, overlap=True)
    )


class TestRule1ConcurrentStart:
    def test_prefetch_leaves_the_drive_to_a_same_step_append(self, sim, tape):
        """CTT-GH Step I: the scan prefetches chunk k+1 from the drive it
        then appends chunk k's buckets to, in the same step.  The append
        gets the drive first; the prefetch asks one step later."""
        log, ticker = [], []
        request = tape.unit.request

        def logged_request():
            log.append(("request", ticker[0].count if ticker else None))
            return request()

        tape.unit.request = logged_request
        tape.observer = busy = BusyLog()
        dst = tape.volume.file("dst")

        def consume(data):
            if not ticker:
                ticker.append(Ticker(sim, sim.now))
            log.append(("consume", ticker[0].count))
            yield from tape.append(dst, data)

        sim.run(scan(sim, tape, 20.0, consume))
        assert busy.kinds == ["tape-read", "tape-write", "tape-read", "tape-write"]
        # Chunk 0's read; then, in one step, the prefetch of chunk 1 is
        # issued and chunk 0 is consumed (its append asks at once); the
        # prefetch asks in the next step, before the ticker's first tick.
        assert log[:4] == [
            ("request", None), ("consume", 0), ("request", 0), ("request", 0),
        ]


    def test_striped_read_asks_both_arms_one_step_later(self, sim):
        bus = Bus(sim, "scsi")
        disks = [
            Disk(sim, f"d{i}", bus, BlockSpec(), capacity_blocks=100.0)
            for i in range(2)
        ]
        array = DiskArray(sim, disks)
        extent = array.allocate("data")
        array.install(extent, chunk_of(20.0))
        log, ticker = [], []

        def logged(disk, request):
            def logged_request():
                log.append((disk.name, ticker[0].count))
                return request()

            return logged_request

        for disk in disks:
            disk.arm.request = logged(disk, disk.arm.request)

        def reader():
            ticker.append(Ticker(sim, sim.now))
            yield from array.read_range(extent, 0.0, 20.0)

        sim.run(sim.process(reader()))
        # Both arms are asked for, in disk order, right after the first
        # tick of the step that issued the read.
        assert log == [("d0", 1), ("d1", 1)]


class TestRule2Inline:
    def test_inline_read_starts_at_once(self, sim):
        disk = Disk(sim, "d0", Bus(sim, "scsi"), BlockSpec(), capacity_blocks=100.0)
        extent = disk.allocate("data")
        extent._append(chunk_of(10.0))
        seen = []

        def reader():
            # An event of this same step runs after the read was issued:
            # the arm must already be held.
            probe = sim.event()
            probe.callbacks.append(lambda _event: seen.append(disk.arm.count))
            probe.succeed()
            yield from disk.read_range(extent, 0.0, 10.0)

        sim.run(sim.process(reader()))
        assert seen == [1]

    def test_inline_read_resumes_inside_the_transfer_completion(self, sim):
        disk = Disk(sim, "d0", Bus(sim, "scsi"), BlockSpec(), capacity_blocks=100.0)
        extent = disk.allocate("data")
        extent._append(chunk_of(10.0))
        done_at = disk.params.positioning_s + (
            disk.spec.bytes_from_blocks(10.0) / disk.params.rate_bytes_s
        )
        seen = []

        def reader():
            ticker = Ticker(sim, done_at)
            yield from disk.read_range(extent, 0.0, 10.0)
            seen.append((sim.now, ticker.count))

        sim.run(sim.process(reader()))
        # Resumed at the completion instant, in the step of the transfer
        # completion itself: right after the ticker's first tick.
        assert seen == [(done_at, 1)]


class TestRule3ConcurrentResume:
    def test_prefetch_waiter_resumes_one_step_after_completion(self, sim, tape):
        done_at = tape.spec.bytes_from_blocks(10.0) / tape.params.rate_bytes_s
        ticker = Ticker(sim, done_at)
        seen = []

        def consume(data):
            seen.append((sim.now, ticker.count))
            yield from ()

        sim.run(scan(sim, tape, 10.0, consume))
        # tick 1, transfer completion, tick 2, then the waiter.
        assert seen == [(done_at, 2)]

    def test_striped_read_waiter_resumes_two_steps_after_last_disk(self, sim):
        bus = Bus(sim, "scsi")
        disks = [
            Disk(sim, f"d{i}", bus, BlockSpec(), capacity_blocks=100.0)
            for i in range(2)
        ]
        array = DiskArray(sim, disks)
        extent = array.allocate("data")
        array.install(extent, chunk_of(20.0))
        done_at = disks[0].params.positioning_s + (
            disks[0].spec.bytes_from_blocks(10.0) / disks[0].params.rate_bytes_s
        )
        seen = []

        def reader():
            ticker = Ticker(sim, done_at)
            yield from array.read_range(extent, 0.0, 20.0)
            seen.append((sim.now, ticker.count))

        sim.run(sim.process(reader()))
        # tick 1, both disks complete, tick 2, both completions noted,
        # tick 3, then the waiter.
        assert seen == [(done_at, 3)]
        assert [disk.busy_s for disk in disks] == [done_at, done_at]


class TestStripedFaults:
    """A two-disk striped read whose disks run out of retries."""

    @staticmethod
    def striped(sim, params=(None, None)):
        bus = Bus(sim, "scsi")
        disks = [
            Disk(sim, f"d{i}", bus, BlockSpec(), 100.0, params=p)
            for i, p in enumerate(params)
        ]
        array = DiskArray(sim, disks)
        extent = array.allocate("data")
        array.install(extent, chunk_of(20.0))
        return array, disks, extent

    @staticmethod
    def read_catching(sim, array, extent):
        caught = []

        def reader():
            try:
                yield from array.read_range(extent, 0.0, 20.0)
            except RetryExhaustedError as exc:
                caught.append((sim.now, exc))

        sim.process(reader())
        sim.run()  # drains every straggler; a crash would raise here
        return caught

    def test_both_disks_exhausted_raise_once_and_release_both_arms(self, sim):
        array, disks, extent = self.striped(sim)
        injector = FaultInjector(
            sim, FaultPlan(disk_error_rate=1.0, detect_s=0.5), RetryPolicy(max_retries=1)
        )
        for disk in disks:
            disk.faults = injector
        caught = self.read_catching(sim, array, extent)
        assert len(caught) == 1
        assert {exc.device for _now, exc in caught} <= {"d0", "d1"}
        assert injector.stats.errors_by_device == {"d0": 1, "d1": 1}
        assert [disk.arm.count for disk in disks] == [0, 0]
        assert [len(disk.arm.queue) for disk in disks] == [0, 0]

    def test_the_healthy_disk_is_still_charged(self, sim):
        # d1 is slower and fault-free; d0 fails at once.
        slow = DiskParameters(transfer_rate_mb_s=1.0)
        array, disks, extent = self.striped(sim, params=(None, slow))
        disks[0].faults = FaultInjector(
            sim, FaultPlan(disk_error_rate=1.0, detect_s=0.0), RetryPolicy(max_retries=0)
        )
        caught = self.read_catching(sim, array, extent)
        failed_at = disks[0].params.positioning_s + (
            disks[0].spec.bytes_from_blocks(10.0) / disks[0].params.rate_bytes_s
        )
        healthy_s = slow.positioning_s + (
            disks[1].spec.bytes_from_blocks(10.0) / slow.rate_bytes_s
        )
        assert [(now, exc.device) for now, exc in caught] == [(failed_at, "d0")]
        assert healthy_s > failed_at
        assert sim.now == pytest.approx(healthy_s)
        assert disks[1].busy_s == pytest.approx(healthy_s)
        assert [disk.arm.count for disk in disks] == [0, 0]
