"""Shared runner: build a spec from experiment knobs and execute a method."""

from __future__ import annotations

from repro import api
from repro.core.spec import JoinSpec, JoinStats
from repro.experiments.config import BASE_TAPE, DISK_1996, ExperimentScale
from repro.relational.relation import Relation
from repro.storage.disk import DiskParameters
from repro.storage.tape import TapeDriveParameters


def run_join(
    symbol: str,
    relation_r: Relation,
    relation_s: Relation,
    memory_blocks: float,
    disk_blocks: float,
    tape: TapeDriveParameters = BASE_TAPE,
    scale: ExperimentScale | None = None,
    disk_params: DiskParameters = DISK_1996,
    trace_buffers: bool = False,
    trace_devices: bool = False,
    verify: bool = False,
    fault_plan=None,
    retry_policy=None,
    partition_cache=None,
) -> JoinStats:
    """Run one method on one configuration through :func:`repro.api.run_join`.

    ``verify`` recomputes the join in memory and raises
    :class:`~repro.core.spec.JoinVerificationError` on a mismatch —
    expensive for large relations, so experiments sample it rather than
    verifying every point (tests verify exhaustively).  Passing a
    ``fault_plan`` (``repro.faults``) runs the join with device fault
    injection and retry/restart recovery; a ``partition_cache``
    (``repro.hsm``) lets Grace-Hash Step I reuse a prior run's R
    partition.
    """
    scale = scale or ExperimentScale()
    spec = JoinSpec(
        relation_r,
        relation_s,
        memory_blocks=memory_blocks,
        disk_blocks=disk_blocks,
        n_disks=scale.n_disks,
        disk_params=disk_params,
        tape_params_r=tape,
        tape_params_s=tape,
        trace_buffers=trace_buffers,
        trace_devices=trace_devices,
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        partition_cache=partition_cache,
    )
    return api.run_join(spec, method=symbol, verify=verify)
