"""Tape–Tape Grace Hash Join methods (Section 5.2).

These methods do not require the smaller relation to fit on disk.  Step I
creates a *hashed copy of R on tape*, using the disk only as an assembly
area: R is scanned repeatedly, each scan completing the fraction of
buckets that fits on disk, and finished buckets are appended to tape
contiguously.

* :class:`ConcurrentTapeTapeGraceHash` (CTT-GH) — hashes R onto the R
  tape, then runs Step II like CDT-GH with the R buckets streamed from
  tape; the whole disk budget ``D`` double-buffers S.  The paper's sole
  candidate for very large joins (Experiment 1 / Table 3).
* :class:`TapeTapeGraceHash` (TT-GH) — hashes R onto the *S* tape and S
  onto the *R* tape (eliminating seeks between source and destination),
  then joins bucket by bucket, alternating drives.  Huge setup cost, but
  disk space demand is "any".
"""

from __future__ import annotations

import math
import typing

import numpy as np

from repro.buffering.interleaved import InterleavedDiskBuffer
from repro.core.base import (
    BucketStager,
    GraceHashLayout,
    TertiaryJoinMethod,
    align_blocks_to_tuples,
    guard_overflow_restart,
    join_buffered_bucket,
    scan_tape,
)
from repro.core.environment import JoinEnvironment
from repro.core.requirements import ResourceRequirements
from repro.core.spec import JoinSpec, ceil_div
from repro.faults.checkpoint import run_unit
from repro.relational.hashing import bucket_ids
from repro.relational.join_core import HashBuild, hash_join
from repro.relational.relation import Relation
from repro.storage.tape import TapeDrive, TapeFile

#: Fraction of D one assembly group may occupy; the margin keeps the
#: (exactly precomputed) group totals clear of the capacity check.
_GROUP_CAPACITY_FRACTION = 0.95

#: Assembly occupancy that triggers a mid-scan dump to tape (only reachable
#: by single buckets larger than the whole assembly area).
_DUMP_THRESHOLD_FRACTION = 0.97


def read_files_range(
    drive: TapeDrive, files: list[TapeFile], offset_blocks: float, n_blocks: float
) -> typing.Generator:
    """Read a logical block range spanning a bucket's tape fragments."""
    from repro.storage.block import DataChunk

    pieces = []
    base = 0.0
    end = offset_blocks + n_blocks
    for tape_file in files:
        lo = max(offset_blocks, base)
        hi = min(end, base + tape_file.n_blocks)
        if hi > lo:
            data = yield from drive.read_range(tape_file, lo - base, hi - lo)
            pieces.append(data)
        base += tape_file.n_blocks
        if base >= end:
            break
    return DataChunk.concat(pieces)


def bucket_sizes_blocks(relation: Relation, n_buckets: int) -> np.ndarray:
    """Exact size of each hash bucket of ``relation``, in blocks."""
    ids = bucket_ids(relation.keys, n_buckets)
    counts = np.bincount(ids, minlength=n_buckets)
    return counts / relation.tuples_per_block


def pack_bucket_groups(sizes: np.ndarray, capacity_blocks: float) -> list[range]:
    """Group consecutive buckets so each group's total fits the assembly area.

    Buckets stay in id order so the bucket files land contiguously on tape
    and Step II can stream them sequentially; each group is a ``range`` of
    bucket ids.  A single bucket larger than the capacity gets its own
    group and is dumped to tape in mid-scan pieces.
    """
    groups: list[range] = []
    first = 0
    total = 0.0
    for bucket, size in enumerate(sizes):
        if bucket > first and total + size > capacity_blocks:
            groups.append(range(first, bucket))
            first, total = bucket, 0.0
        total += size
    if len(sizes) > first:
        groups.append(range(first, len(sizes)))
    return groups


class _TapeTapeBase(TertiaryJoinMethod):
    """Shared hash-to-tape machinery for both tape–tape methods."""

    family = "grace-hash"

    def _hash_to_tape(
        self,
        env: JoinEnvironment,
        layout: GraceHashLayout,
        relation: Relation,
        source_file: TapeFile,
        read_drive: TapeDrive,
        write_drive: TapeDrive,
        prefix: str,
        overlap: bool,
        count_r_scans: bool,
    ) -> typing.Generator:
        """Hash ``relation`` from its tape to bucket files on another tape.

        Returns ``{bucket: [TapeFile, ...]}`` — usually one file per
        bucket; oversized buckets leave multiple fragments.
        """
        spec = env.spec
        tpb = relation.tuples_per_block
        n_buckets = layout.n_buckets
        sizes = bucket_sizes_blocks(relation, n_buckets)
        # A flush burst must always fit beside the assembled buckets, so
        # the staging pool is capped by the disk budget and dumps trigger
        # with one burst of headroom left (a burst may overshoot the pool
        # by up to one scan chunk).
        staging_pool = min(layout.write_staging_blocks, spec.disk_blocks / 4)
        burst_max = staging_pool + layout.scan_chunk_blocks + 2.0 / tpb
        dump_at = min(
            _DUMP_THRESHOLD_FRACTION * spec.disk_blocks,
            spec.disk_blocks - burst_max,
        )
        capacity = min(_GROUP_CAPACITY_FRACTION * spec.disk_blocks, dump_at)
        groups = pack_bucket_groups(sizes, capacity)
        files: dict[int, list[TapeFile]] = {b: [] for b in range(n_buckets)}
        fragment = [0]
        dest_volume = write_drive.volume

        for scan_index, group in enumerate(groups):
            # On drives with READ REVERSE, alternate scan direction so the
            # next scan starts where the previous one ended — no rewinds
            # or repositioning between scans (footnote 2 of the paper).
            reverse = read_drive.params.supports_read_reverse and scan_index % 2 == 1
            assemblies = {b: env.array.allocate(f"{prefix}.asm{b}") for b in group}

            def dump():
                for bucket in group:
                    extent = assemblies[bucket]
                    if extent.n_blocks <= 1e-9:
                        continue
                    fragment[0] += 1
                    tape_file = dest_volume.create_file(
                        f"{prefix}.b{bucket}.f{fragment[0]}"
                    )
                    files[bucket].append(tape_file)
                    while extent.n_blocks > 1e-9:
                        data = yield from env.array.read_coalesced(
                            extent, layout.bucket_memory_blocks
                        )
                        env.memory.take(data.n_blocks, "bucket dump")
                        yield from write_drive.append(tape_file, data)
                        env.memory.give(data.n_blocks)

            def flush(pairs):
                yield from env.array.write_burst(
                    [(assemblies[b], chunk) for b, chunk in pairs]
                )
                if sum(assemblies[b].n_blocks for b in group) >= dump_at:
                    yield from dump()

            stager = BucketStager(
                layout, tpb, flush, buckets=group, threshold_blocks=staging_pool
            )

            def consume(data, stager=stager):
                yield from stager.add_keys(data.keys)

            with env.memory.hold(
                layout.read_staging_blocks + layout.write_staging_blocks,
                "hash-to-tape staging",
            ):
                yield from scan_tape(
                    env, read_drive, source_file, 0.0, relation.n_blocks,
                    layout.scan_chunk_blocks, consume, overlap, reverse=reverse,
                )
                yield from stager.drain()
                yield from dump()
            if count_r_scans:
                env.count_r_scan()
            for extent in assemblies.values():
                env.array.free(extent)
        return files


class ConcurrentTapeTapeGraceHash(_TapeTapeBase):
    """CTT-GH: Concurrent Tape–Tape Grace Hash Join (Section 5.2.1)."""

    symbol = "CTT-GH"
    name = "Concurrent Tape-Tape Grace Hash Join"
    concurrent = True

    def requirements(self, spec: JoinSpec) -> ResourceRequirements:
        """Table 2 row: M = sqrt(|R|), D = |S_i|, T_R = |R|.

        Table 2 lists D = |S_i| (whatever is granted buffers S); the
        assembly area must additionally absorb one staging flush, hence
        the small memory-proportional floor.
        """
        return ResourceRequirements(
            memory_blocks=math.sqrt(spec.size_r_blocks),
            disk_blocks=0.35 * spec.memory_blocks + 1.0,
            tape_scratch_r_blocks=spec.size_r_blocks,
            tape_scratch_s_blocks=0.0,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        # Step I: hashed copy of R appended to the R tape itself.
        r_files = yield from self._hash_to_tape(
            env, layout, spec.relation_r, env.file_r, env.drive_r, env.drive_r,
            "R", overlap=True, count_r_scans=True,
        )
        env.mark_step1_done()

        # Step II: like CDT-GH, with R buckets streamed from tape and the
        # entire disk budget double-buffering S.
        d = align_blocks_to_tuples(spec.disk_blocks, spec.relation_s.tuples_per_block)
        sim = env.sim
        slack = 2.0 / spec.relation_s.tuples_per_block
        sbuf = InterleavedDiskBuffer(
            sim, env.array, "s_buffer", d + slack + 1e-6, env.trace
        )
        n_iters = ceil_div(spec.size_s_blocks, d)

        def hasher():
            with env.memory.hold(
                layout.read_staging_blocks + layout.write_staging_blocks,
                "hash staging",
            ):
                offset = 0.0
                for iteration in range(n_iters):
                    target = min(d, spec.size_s_blocks - offset)
                    stager = BucketStager(
                        layout,
                        spec.relation_s.tuples_per_block,
                        lambda pairs, i=iteration: sbuf.put_many(i, pairs),
                    )

                    def consume(data, stager=stager):
                        yield from stager.add_keys(data.keys)

                    yield from scan_tape(
                        env, env.drive_s, env.file_s, offset, target,
                        layout.scan_chunk_blocks, consume, overlap=True,
                    )
                    yield from stager.drain()
                    sbuf.end_iteration(iteration)
                    offset += target

        def joiner():
            for iteration in range(n_iters):
                yield sbuf.wait_iteration(iteration)
                for bucket in range(layout.n_buckets):
                    if not sbuf.has_pending(iteration, bucket):
                        continue
                    files = r_files[bucket]
                    total_blocks = sum(f.n_blocks for f in files)

                    def join_bucket(i=iteration, b=bucket, fs=files, t=total_blocks):
                        return (yield from join_buffered_bucket(
                            env, layout, sbuf, i, b,
                            lambda off, n, fs=fs: read_files_range(
                                env.drive_r, fs, off, n
                            ),
                            tuple(fs), t,
                        ))

                    key = f"II.{iteration}.b{bucket}"
                    yield from run_unit(
                        env, key, guard_overflow_restart(env, key, join_bucket)
                    )
                env.count_r_scan()
                env.count_iteration()
                sbuf.finish_iteration(iteration)

        yield sim.all_of(
            [sim.process(hasher(), name="hash"), sim.process(joiner(), name="join")]
        )
        sbuf.close()


class TapeTapeGraceHash(_TapeTapeBase):
    """TT-GH: sequential Tape–Tape Grace Hash Join (Section 5.2.2)."""

    symbol = "TT-GH"
    name = "Tape-Tape Grace Hash Join"
    concurrent = False

    def requirements(self, spec: JoinSpec) -> ResourceRequirements:
        """Table 2 row: M = sqrt(|R|), D = any, T_R = |S|, T_S = |R|.

        "Any" disk physically still means the assembly area must absorb
        one staging flush, hence the memory-proportional floor.
        """
        return ResourceRequirements(
            memory_blocks=math.sqrt(spec.size_r_blocks),
            disk_blocks=0.35 * spec.memory_blocks + 1.0,
            tape_scratch_r_blocks=spec.size_s_blocks,
            tape_scratch_s_blocks=spec.size_r_blocks,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        # Step I: R's buckets onto the S tape, S's buckets onto the R tape
        # ("the S tape is used as the target in order to eliminate tape
        # seeks between the source and destination locations").
        r_files = yield from self._hash_to_tape(
            env, layout, spec.relation_r, env.file_r, env.drive_r, env.drive_s,
            "R", overlap=True, count_r_scans=True,
        )
        s_files = yield from self._hash_to_tape(
            env, layout, spec.relation_s, env.file_s, env.drive_s, env.drive_r,
            "S", overlap=True, count_r_scans=False,
        )
        env.mark_step1_done()

        # Step II: bucket by bucket — R bucket (from the S tape) into
        # memory, matching S bucket (from the R tape) scanned past it.
        # The two drives pipeline: while bucket b's S files stream off the
        # R drive, bucket b+1's R files are prefetched from the S drive.
        buckets = [
            b for b in range(layout.n_buckets) if r_files[b] and s_files[b]
        ]

        def fetch_r_bucket(bucket):
            pieces = []
            taken = 0.0
            try:
                for tape_file in r_files[bucket]:
                    data = yield from env.drive_s.read_file(tape_file)
                    env.memory.take(data.n_blocks, "R bucket")
                    taken += data.n_blocks
                    pieces.append(data.keys)
            except BaseException:
                env.memory.give(taken)
                raise
            return np.concatenate(pieces), taken

        pending: dict[int, object] = {}

        def spawn(bucket):
            proc = env.sim.process(fetch_r_bucket(bucket), name="prefetch-R")
            if env.faults is not None:
                # If the bucket's unit restarts before awaiting this
                # prefetch, its failure must not crash the kernel;
                # awaiting still rethrows into the unit.
                proc.defused = True
            pending[bucket] = proc
            return proc

        if buckets:
            spawn(buckets[0])
        for index, bucket in enumerate(buckets):
            # The S-side stream is read non-consumingly from tape, so a
            # restarted unit must not re-accumulate pieces it already
            # joined: progress records, per S fragment, how far the probe
            # stream got; r_keys are identical across attempts.
            progress: dict[int, float] = {}

            def join_bucket(index=index, bucket=bucket, progress=progress):
                proc = pending.pop(bucket, None)
                if proc is None:
                    proc = spawn(bucket)
                    pending.pop(bucket, None)
                r_keys, taken = yield proc
                if index + 1 < len(buckets) and buckets[index + 1] not in pending:
                    spawn(buckets[index + 1])
                build = HashBuild(r_keys)
                try:
                    for file_index, tape_file in enumerate(s_files[bucket]):
                        offset = progress.get(file_index, 0.0)
                        while offset < tape_file.n_blocks - 1e-9:
                            step = min(
                                layout.probe_blocks, tape_file.n_blocks - offset
                            )
                            piece = yield from env.drive_r.read_range(
                                tape_file, offset, step
                            )
                            env.accumulator.add(hash_join(build, piece.keys))
                            offset += step
                            progress[file_index] = offset
                finally:
                    env.memory.give(taken)

            yield from run_unit(env, f"II.b{bucket}", join_bucket)
            env.count_iteration()
        env.count_r_scan()
