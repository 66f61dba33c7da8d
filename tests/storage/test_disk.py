"""Disk drive model: timing, positioning, extents, capacity."""

import numpy as np
import pytest

from repro.simulator.engine import Simulator
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk, DiskFullError, DiskParameters

MBPS = 1024 * 1024


@pytest.fixture
def disk(sim):
    bus = Bus(sim, "scsi")
    return Disk(sim, "d0", bus, BlockSpec(), capacity_blocks=100.0)


def run(sim, gen):
    return sim.run(sim.process(gen))


def chunk_of(n_blocks, tpb=10, start=0):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


def transfer_s(disk, n_blocks):
    return disk.spec.bytes_from_blocks(n_blocks) / disk.params.rate_bytes_s


class TestDiskParameters:
    def test_defaults_are_mid_nineties(self):
        params = DiskParameters()
        assert params.transfer_rate_mb_s == pytest.approx(3.5)
        assert params.positioning_s == pytest.approx(0.0166)
        assert params.near_positioning_s == pytest.approx(0.004)

    def test_validation(self):
        with pytest.raises(ValueError):
            DiskParameters(transfer_rate_mb_s=0.0)
        with pytest.raises(ValueError):
            DiskParameters(avg_seek_ms=-1.0)


class TestSpaceAccounting:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Disk(sim, "d", Bus(sim, "b"), BlockSpec(), capacity_blocks=0.0)

    def test_write_reserves_space(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(30.0)))
        assert disk.used_blocks == pytest.approx(30.0)
        assert disk.free_blocks == pytest.approx(70.0)

    def test_overflow_raises_disk_full(self, sim, disk):
        extent = disk.allocate("data")
        with pytest.raises(Exception) as exc_info:
            run(sim, disk.write(extent, chunk_of(150.0)))
        assert isinstance(exc_info.value.__cause__ or exc_info.value, DiskFullError) or \
            "DiskFullError" in str(exc_info.value)

    def test_full_error_reports_budget_and_requirement(self, sim, disk):
        """The diagnostic must name the disk, the requested vs free
        blocks, the occupancy, and the Table 2 symbol (D) at fault."""
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(30.0)))
        with pytest.raises(Exception) as exc_info:
            run(sim, disk.write(extent, chunk_of(90.0)))
        cause = exc_info.value.__cause__ or exc_info.value
        assert isinstance(cause, DiskFullError)
        message = str(cause)
        assert "disk d0" in message
        assert "90.0 blocks" in message  # requested
        assert "70.0 blocks free" in message
        assert "30.0/100.0 in use" in message
        assert "Table 2 requirement D" in message

    def test_consume_releases_space(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(30.0)))
        data = run(sim, disk.read_all(extent, consume=True))
        assert data.n_tuples == 300
        assert disk.used_blocks == pytest.approx(0.0)

    def test_peak_tracking(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(40.0)))
        run(sim, disk.read_all(extent, consume=True))
        run(sim, disk.write(extent, chunk_of(10.0)))
        assert disk.peak_used_blocks == pytest.approx(40.0)

    def test_duplicate_extent_name_rejected(self, disk):
        disk.allocate("x")
        with pytest.raises(ValueError, match="already exists"):
            disk.allocate("x")

    def test_free_extent_releases_and_forgets(self, sim, disk):
        extent = disk.allocate("x")
        run(sim, disk.write(extent, chunk_of(10.0)))
        disk.free(extent)
        assert disk.used_blocks == pytest.approx(0.0)
        with pytest.raises(ValueError):
            disk.free(extent)


class TestTiming:
    def test_write_charges_position_plus_transfer(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(35.0)))
        expected = disk.params.positioning_s + transfer_s(disk, 35.0)
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_sequential_ops_skip_positioning(self, sim, disk):
        extent = disk.allocate("data")

        def writes():
            yield from disk.write(extent, chunk_of(35.0))
            yield from disk.write(extent, chunk_of(35.0, start=1000))

        run(sim, writes())
        expected = disk.params.positioning_s + 2 * transfer_s(disk, 35.0)
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_alternating_extents_pay_seeks(self, sim, disk):
        a, b = disk.allocate("a"), disk.allocate("b")

        def writes():
            yield from disk.write(a, chunk_of(3.5))
            yield from disk.write(b, chunk_of(3.5))
            yield from disk.write(a, chunk_of(3.5, start=500))

        run(sim, writes())
        expected = 3 * (disk.params.positioning_s + transfer_s(disk, 3.5))
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_burst_io_charges_near_positions(self, sim, disk):
        extent = disk.allocate("data")
        # One operation charging a burst's repositions as its lead-in.
        sim.run(disk._io(extent, 35.0, far_positions=1, near_positions=9))
        expected = (
            disk.params.positioning_s
            + 9 * disk.params.near_positioning_s
            + transfer_s(disk, 35.0)
        )
        assert sim.now == pytest.approx(expected, rel=1e-3)

    def test_busy_time_accumulates(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(35.0)))
        assert disk.busy_s == pytest.approx(sim.now)

    def test_arm_serializes_concurrent_ops(self, sim, disk):
        a, b = disk.allocate("a"), disk.allocate("b")
        p1 = sim.process(disk.write(a, chunk_of(35.0)))
        p2 = sim.process(disk.write(b, chunk_of(35.0)))
        sim.run()
        assert p1.processed and p2.processed
        # Two seeks plus two strictly sequential transfers.
        expected = 2 * (disk.params.positioning_s + transfer_s(disk, 35.0))
        assert sim.now == pytest.approx(expected, rel=1e-3)


class TestReads:
    def test_read_range_returns_slice_without_consuming(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(10.0)))
        piece = run(sim, disk.read_range(extent, 2.0, 3.0))
        np.testing.assert_array_equal(piece.keys, np.arange(20, 50))
        assert extent.n_blocks == pytest.approx(10.0)

    def test_read_next_consumes_fifo(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(2.0)))
        run(sim, disk.write(extent, chunk_of(2.0, start=100)))
        first = run(sim, disk.read_next(extent))
        assert first.keys[0] == 0
        assert extent.n_blocks == pytest.approx(2.0)

    def test_read_next_on_empty_raises(self, sim, disk):
        extent = disk.allocate("data")
        with pytest.raises(Exception):
            run(sim, disk.read_next(extent))

    def test_traffic_counters(self, sim, disk):
        extent = disk.allocate("data")
        run(sim, disk.write(extent, chunk_of(10.0)))
        run(sim, disk.read_all(extent))
        assert disk.write_blocks == pytest.approx(10.0)
        assert disk.read_blocks == pytest.approx(10.0)
