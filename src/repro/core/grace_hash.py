"""Disk–Tape Grace Hash Join methods (Sections 5.1.2 and 5.1.4).

Both methods partition R from tape into B hash buckets on disk in Step I,
then consume S in ``d = D - |R|`` block pieces: each piece is hashed into S
buckets on disk and every R bucket is brought back to memory to be joined
with its S counterpart.

* :class:`DiskTapeGraceHash` (DT-GH) — strictly sequential phases.
* :class:`ConcurrentGraceHash` (CDT-GH) — the hash process stages
  iteration *i+1*'s S buckets into an interleaved double-buffered disk
  region while the join process drains iteration *i*, overlapping tape
  and disk I/O throughout Step II.
"""

from __future__ import annotations

import math
import typing

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
from repro.core.spec import InfeasibleJoinError, JoinSpec, ceil_div
from repro.faults.checkpoint import run_unit
from repro.relational.join_core import hash_join


class _GraceHashBase(TertiaryJoinMethod):
    """Shared Step I (partition R onto disk) and memory checks."""

    family = "grace-hash"

    def requirements(self, spec: JoinSpec) -> ResourceRequirements:
        return ResourceRequirements(
            memory_blocks=math.sqrt(spec.size_r_blocks),
            disk_blocks=spec.size_r_blocks + 1.0,
            tape_scratch_r_blocks=0.0,
            tape_scratch_s_blocks=0.0,
        )

    def validate(self, spec: JoinSpec) -> None:
        super().validate(spec)
        if spec.disk_blocks <= spec.size_r_blocks:
            raise InfeasibleJoinError(
                f"{self.symbol}: D={spec.disk_blocks:.1f} leaves no room to "
                f"buffer S beside the R partition of {spec.size_r_blocks:.1f} blocks"
            )

    def _partition_r(
        self, env: JoinEnvironment, layout: GraceHashLayout, overlap: bool
    ) -> list:
        """Step I: read R from tape, hash into B bucket extents on disk.

        With a partition cache attached (``repro.hsm``), a resident
        partition set short-circuits the whole step — no tape read, no
        partition write, no R scan counted — and a miss offers the
        freshly written buckets to the catalog on the way out.
        """
        cached = env.cached_r_partition(layout.n_buckets)
        if cached is not None:
            return cached
        spec = env.spec
        r_buckets = [env.array.allocate(f"R.b{b}") for b in range(layout.n_buckets)]
        stager = BucketStager(
            layout,
            spec.relation_r.tuples_per_block,
            lambda pairs: env.array.write_burst(
                [(r_buckets[b], chunk) for b, chunk in pairs]
            ),
        )

        def consume(data):
            yield from stager.add_keys(data.keys)

        with env.memory.hold(
            layout.read_staging_blocks + layout.write_staging_blocks, "step I staging"
        ):
            yield from scan_tape(
                env, env.drive_r, env.file_r, 0.0, spec.size_r_blocks,
                layout.scan_chunk_blocks, consume, overlap,
            )
            yield from stager.drain()
        env.count_r_scan()
        env.mark_step1_done()
        env.offer_r_partition(layout.n_buckets, r_buckets)
        return r_buckets

    def _s_chunk_blocks(self, spec: JoinSpec) -> float:
        """|S_i| = d = D - |R|: the S piece consumed per iteration."""
        return spec.disk_blocks - spec.size_r_blocks


class DiskTapeGraceHash(_GraceHashBase):
    """DT-GH: sequential Disk–Tape Grace Hash Join (Section 5.1.2)."""

    symbol = "DT-GH"
    name = "Disk-Tape Grace Hash Join"
    concurrent = False

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        r_buckets = yield from self._partition_r(env, layout, overlap=False)
        d = align_blocks_to_tuples(
            self._s_chunk_blocks(spec), spec.relation_s.tuples_per_block
        )
        s_buckets = [env.array.allocate(f"S.b{b}") for b in range(layout.n_buckets)]
        offset = 0.0
        total = spec.size_s_blocks
        with env.memory.hold(
            layout.read_staging_blocks + layout.write_staging_blocks, "step II staging"
        ):
            while offset < total - 1e-9:
                target = min(d, total - offset)
                stager = BucketStager(
                    layout,
                    spec.relation_s.tuples_per_block,
                    lambda pairs: env.array.write_burst(
                        [(s_buckets[b], chunk) for b, chunk in pairs]
                    ),
                )

                def consume(data):
                    yield from stager.add_keys(data.keys)

                yield from scan_tape(
                    env, env.drive_s, env.file_s, offset, target,
                    layout.read_staging_blocks, consume, overlap=False,
                )
                yield from stager.drain()
                offset += target
                # Join phase: each R bucket back to memory, S bucket
                # scanned; oversized (skewed) R buckets spill to
                # piece-wise probing, re-reading the S bucket per piece.
                # Each bucket is a checkpointed unit: a media error
                # restarts only the bucket it hit, not the iteration.
                iteration = env.iterations
                for bucket in range(layout.n_buckets):
                    s_extent = s_buckets[bucket]
                    r_extent = r_buckets[bucket]
                    if s_extent.n_blocks <= 1e-9:
                        env.array.discard_content(s_extent)
                        continue

                    def join_bucket(r_extent=r_extent, s_extent=s_extent):
                        available = env.memory.free_blocks - layout.probe_blocks
                        if r_extent.n_blocks <= available + 1e-9:
                            r_data = yield from env.array.read_all(r_extent)
                            env.memory.take(r_data.n_blocks, "R bucket")
                            build = env.build_side(
                                (r_extent,), 0.0, r_extent.n_blocks, r_data.keys
                            )
                            try:
                                # read_coalesced consumes only after a
                                # successful read, so a restart resumes
                                # with exactly the unjoined S chunks.
                                while s_extent.n_blocks > 1e-9:
                                    piece = yield from env.array.read_coalesced(
                                        s_extent, layout.probe_blocks
                                    )
                                    env.accumulator.add(hash_join(build, piece.keys))
                            finally:
                                env.memory.give(r_data.n_blocks)
                            return
                        env.count_overflow_bucket()
                        piece_blocks = max(available, layout.probe_blocks, 1.0)
                        r_offset = 0.0
                        while r_offset < r_extent.n_blocks - 1e-9:
                            step = min(piece_blocks, r_extent.n_blocks - r_offset)
                            r_piece = yield from env.array.read_range(
                                r_extent, r_offset, step
                            )
                            env.memory.take(r_piece.n_blocks, "R bucket piece")
                            build = env.build_side(
                                (r_extent,), r_offset, step, r_piece.keys
                            )
                            try:
                                s_offset = 0.0
                                while s_offset < s_extent.n_blocks - 1e-9:
                                    s_step = min(
                                        layout.probe_blocks,
                                        s_extent.n_blocks - s_offset,
                                    )
                                    piece = yield from env.array.read_range(
                                        s_extent, s_offset, s_step
                                    )
                                    env.accumulator.add(hash_join(build, piece.keys))
                                    s_offset += s_step
                            finally:
                                env.memory.give(r_piece.n_blocks)
                            r_offset += step
                        env.array.discard_content(s_extent)

                    key = f"II.{iteration}.b{bucket}"
                    yield from run_unit(
                        env, key, guard_overflow_restart(env, key, join_bucket)
                    )
                env.count_r_scan()
                env.count_iteration()
        for extent in r_buckets + s_buckets:
            env.array.free(extent)


class ConcurrentGraceHash(_GraceHashBase):
    """CDT-GH: Concurrent Disk–Tape Grace Hash Join (Section 5.1.4).

    Step II runs a hash process and a join process concurrently: the hash
    process reads S from tape and fills iteration *i+1*'s buckets into the
    interleaved disk buffer while the join process reads R buckets (from
    disk) and the S buckets of iteration *i*.
    """

    symbol = "CDT-GH"
    name = "Concurrent Disk-Tape Grace Hash Join"
    concurrent = True

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        r_buckets = yield from self._partition_r(env, layout, overlap=True)
        d = align_blocks_to_tuples(
            self._s_chunk_blocks(spec), spec.relation_s.tuples_per_block
        )
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
                    r_extent = r_buckets[bucket]

                    def join_bucket(i=iteration, b=bucket, e=r_extent):
                        return (yield from join_buffered_bucket(
                            env, layout, sbuf, i, b,
                            lambda off, n, e=e: env.array.read_range(e, off, n),
                            (e,), e.n_blocks,
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
        for extent in r_buckets:
            env.array.free(extent)
