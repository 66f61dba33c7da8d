"""A join's build sides are reused only while their storage is unchanged.

``JoinEnvironment.build_side`` keeps one :class:`HashBuild` per block
range of an extent (or tape file) for the whole join.  Any write,
consume, discard or HSM install of the extent must make the next
mini-join over that range rebuild from the new content.
"""

import numpy as np
import pytest

from repro.core.environment import JoinEnvironment
from repro.core.registry import method_by_symbol
from repro.core.spec import JoinSpec
from repro.hsm.cache import PartitionCache
from repro.relational.join_core import hash_join, nested_loop_join, reference_join
from repro.storage.block import DataChunk

TUPLES_PER_BLOCK = 4
PROBE = np.arange(-4, 24, dtype=np.int64)


@pytest.fixture
def env(small_r, small_s):
    return JoinEnvironment(
        JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=130.0)
    )


def chunk(keys) -> DataChunk:
    return DataChunk.from_keys(np.array(keys, dtype=np.int64), TUPLES_PER_BLOCK)


def run(env, generator):
    return env.sim.run(env.sim.process(generator))


def mini_join(env, extent, offset=0.0, n_blocks=1.0):
    """Read a range, join it through the environment's memo."""
    data = run(env, env.array.read_range(extent, offset, n_blocks))
    build = env.build_side((extent,), offset, n_blocks, data.keys)
    return build, hash_join(build, PROBE), data.keys


def append(env, extent):
    run(env, env.array.write(extent, chunk([9, 9, 10, 11])))


def consume(env, extent):
    run(env, env.array.read_next(extent))


def discard(env, extent):
    env.array.discard_content(extent)
    run(env, env.array.write(extent, chunk([5, 6, 6, 7])))


def install(env, extent):
    env.array.discard_content(extent)
    env.array.install(extent, chunk([20, 21, 21, 21]))


def test_unchanged_range_reuses_its_build_and_still_reads(env):
    extent = env.array.allocate("R.b0")
    run(env, env.array.write(extent, chunk([1, 2, 2, 3])))
    first, result, _ = mini_join(env, extent)
    read_before = env.array.read_blocks
    again, repeat, _ = mini_join(env, extent)
    assert again is first and repeat == result
    assert env.array.read_blocks == read_before + 1.0


@pytest.mark.parametrize("mutate", [append, consume, discard, install])
def test_mutation_forces_a_rebuild(env, mutate):
    extent = env.array.allocate("R.b0")
    run(env, env.array.write(extent, chunk([1, 2, 2, 3])))
    run(env, env.array.write(extent, chunk([12, 13, 13, 13])))
    before, _, _ = mini_join(env, extent)
    mutate(env, extent)
    after, result, keys = mini_join(env, extent)
    assert after is not before
    assert result == nested_loop_join(keys, PROBE)
    assert result.n_pairs > 0


def test_tape_append_forces_a_rebuild(env):
    tape_file = env.drive_r.volume.create_file("R.b0")
    tape_file._append(chunk([1, 2, 2, 3]))
    first = env.build_side((tape_file,), 0.0, 1.0, tape_file.slice_range(0.0, 1.0).keys)
    tape_file._append(chunk([4, 4, 4, 4]))
    keys = tape_file.slice_range(0.0, 1.0).keys
    second = env.build_side((tape_file,), 0.0, 1.0, keys)
    assert second is not first
    assert hash_join(second, PROBE) == nested_loop_join(keys, PROBE)


def test_finalize_frees_the_builds(env):
    extent = env.array.allocate("R.b0")
    run(env, env.array.write(extent, chunk([1, 2, 2, 3])))
    mini_join(env, extent)
    assert env._builds
    env.finalize("test", "TEST")
    assert not env._builds


def test_warm_partition_cache_join_matches_reference(small_r, small_s):
    """CDT-GH over installed R buckets still joins to the reference."""
    spec_args = dict(memory_blocks=10.0, disk_blocks=130.0)
    cache = PartitionCache(capacity_blocks=200.0)
    method = method_by_symbol("CDT-GH")
    cold = method.run(JoinSpec(small_r, small_s, partition_cache=cache, **spec_args))
    warm = method.run(JoinSpec(small_r, small_s, partition_cache=cache, **spec_args))
    assert (cold.cache_misses, warm.cache_hits) == (1, 1)
    expected = reference_join(small_r, small_s)
    assert cold.output == expected
    assert warm.output == expected
