"""The three benchmark workloads: seeded inputs, one unit of work, the gate.

Each workload is a *round* of units that every run completes in full:

* ``gh_boundary`` and ``nb_dense`` — one unit is one ``repro.api.run_join``
  call; a round is a fixed number of joins spread evenly over the
  workload's method set, each with a resource ratio drawn uniformly by
  stratified sampling (one draw per stratum), so every seed covers the
  whole range and seeds differ only within strata.
* ``service_zipf`` — one unit is one batch: a fresh ``JoinService``
  (fresh ``SimulatedEstimator``, cold relation memo) runs a Zipfian
  workload cold, then warm; a round is ``SERVICE_BATCHES`` batches with
  sub-seeds derived from the workload seed.

Simulated results and the digest come from the first round only, so they
do not depend on how many units the host managed in the time window.
Later units repeat the round and must reproduce it exactly.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import random
import time
import typing

from repro import api
from repro.core.spec import JoinSpec, JoinStats
from repro.experiments.config import (
    BASE_TAPE,
    DISK_1996,
    DISK_LIGHTNING,
    EXPERIMENT2_R_MB,
    EXPERIMENT2_S_MB,
    EXPERIMENT3_D_MB,
    EXPERIMENT3_R_MB,
    EXPERIMENT3_S_MB,
    ExperimentScale,
)
from repro.experiments.exp6_hsm import experiment6_config, zipfian_workload
from repro.relational.join_core import JoinResult, reference_join
from repro.service import scheduler
from repro.service.estimators import SimulatedEstimator
from repro.service.metrics import WorkloadReport
from repro.sweep import tasks as sweep_tasks

SCALE = 0.1
GH_METHODS = ("DT-GH", "CDT-GH", "CTT-GH", "TT-GH")
#: 6 strata per method: a round takes about as long as a run measures.
GH_ROUND_JOINS = 24
#: D/|R| range: 1.1 is where CDT-GH reads R hundreds of times.
GH_DISK_RATIO = (1.1, 3.0)
NB_METHODS = ("DT-NB", "CDT-NB/MB", "CDT-NB/DB")
#: M/|R| range. Experiment 3 starts at 0.1, but CDT-NB/MB needs M >= 2
#: blocks (0.109|R| at this scale), so the range starts just above it.
NB_MEMORY_RATIO = (0.12, 0.9)
NB_TUPLE_BYTES = 64
#: 16 strata per method: NB joins are short, and finer strata keep the
#: median join of a round from moving with the seed.
NB_ROUND_JOINS = 48
SERVICE_BATCHES = 6
SERVICE_JOBS = 24
SERVICE_SKEW = 0.8
#: Paper MB: above the three hottest dimensions (240), below all six (416).
SERVICE_CACHE_MB = 250.0
SERVICE_POLICY = "fifo"


@dataclasses.dataclass(frozen=True)
class JoinCase:
    """One join of a round: method, resource ratio and its spec."""

    symbol: str
    ratio: float
    spec: JoinSpec

    @property
    def input_mb(self) -> float:
        return self.spec.relation_r.size_mb + self.spec.relation_s.size_mb


@dataclasses.dataclass
class ServiceBatch:
    """One Zipfian batch, submitted whole to its own service."""

    service: scheduler.JoinService
    input_mb: float


def _stratified(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """One uniform draw in each of ``n`` equal strata of [lo, hi]."""
    width = (hi - lo) / n
    return [lo + (i + rng.random()) * width for i in range(n)]


def _round(rng, methods, n_joins, ratios, make_spec) -> list[JoinCase]:
    per_method = n_joins // len(methods)
    cases = []
    for symbol in methods:
        for ratio in _stratified(rng, per_method, *ratios):
            cases.append(JoinCase(symbol, ratio, make_spec(ratio)))
    rng.shuffle(cases)
    return cases


def gh_boundary_round(seed: int) -> list[JoinCase]:
    """Figure 5's frame: the GH methods with D/|R| near its lower edge."""
    scale = ExperimentScale(scale=SCALE, seed=seed)
    relation_r, relation_s = scale.relations(EXPERIMENT2_R_MB, EXPERIMENT2_S_MB)
    r_blocks = relation_r.n_blocks
    memory = max(0.1 * r_blocks, 1.05 * math.sqrt(r_blocks))

    def make_spec(ratio):
        return JoinSpec(
            relation_r, relation_s, memory_blocks=memory,
            disk_blocks=ratio * r_blocks, n_disks=scale.n_disks,
            disk_params=DISK_1996, tape_params_r=BASE_TAPE, tape_params_s=BASE_TAPE,
        )

    return _round(random.Random(seed), GH_METHODS, GH_ROUND_JOINS, GH_DISK_RATIO, make_spec)


def nb_dense_round(seed: int) -> list[JoinCase]:
    """Experiment 3's frame with 64-byte tuples: NB methods over M/|R|."""
    scale = ExperimentScale(scale=SCALE, seed=seed, tuple_bytes=NB_TUPLE_BYTES)
    relation_r, relation_s = scale.relations(EXPERIMENT3_R_MB, EXPERIMENT3_S_MB)
    disk = scale.blocks(EXPERIMENT3_D_MB)

    def make_spec(ratio):
        return JoinSpec(
            relation_r, relation_s, memory_blocks=ratio * relation_r.n_blocks,
            disk_blocks=disk, n_disks=scale.n_disks, disk_params=DISK_LIGHTNING,
            tape_params_r=BASE_TAPE, tape_params_s=BASE_TAPE,
        )

    return _round(random.Random(seed), NB_METHODS, NB_ROUND_JOINS, NB_MEMORY_RATIO, make_spec)


def service_batch(seed: int, index: int) -> ServiceBatch:
    """Batch ``index`` of a round (repeats wrap around the round)."""
    sub_seed = seed * 1000 + index % SERVICE_BATCHES
    scale = ExperimentScale(scale=SCALE, seed=sub_seed)
    service = scheduler.JoinService(
        experiment6_config(scale, SERVICE_CACHE_MB), estimator=SimulatedEstimator()
    )
    input_mb = 0.0
    for request in zipfian_workload(SERVICE_JOBS, SERVICE_SKEW, sub_seed):
        service.submit(request)
        input_mb += scale.mb(request.r_mb) + scale.mb(request.s_mb)
    return ServiceBatch(service, input_mb)


def build(workload: str, seed: int) -> list:
    """The first round's inputs: join cases, or service batches."""
    if workload == "gh_boundary":
        return gh_boundary_round(seed)
    if workload == "nb_dense":
        return nb_dense_round(seed)
    return [service_batch(seed, index) for index in range(SERVICE_BATCHES)]


def clear_relation_memos() -> None:
    """Empty the program's process-local relation memos (cold start)."""
    scheduler._RELATION_MEMO.clear()
    sweep_tasks._RELATION_MEMO.clear()


def run_batch(batch: ServiceBatch) -> tuple[WorkloadReport, WorkloadReport]:
    """The cold pass, then the warm pass on the same service object."""
    clear_relation_memos()
    cold = batch.service.run(SERVICE_POLICY)
    warm = batch.service.run(SERVICE_POLICY)
    return cold, warm


def run_case(case: JoinCase) -> JoinStats:
    return api.run_join(case.spec, method=case.symbol)


# -- the correctness gate -------------------------------------------------------


def join_failures(case: JoinCase, stats: JoinStats, expected: JoinResult) -> list[str]:
    """Why a finished join is wrong: output or a Table 2 budget.

    The disk allowance is the two-tuple rounding slack that
    ``JoinEnvironment`` itself grants on D.
    """
    spec = case.spec
    reasons = []
    got = (stats.output.n_pairs, stats.output.checksum)
    if got != (expected.n_pairs, expected.checksum):
        reasons.append(
            f"{case.symbol}: output {got} differs from reference_join "
            f"{(expected.n_pairs, expected.checksum)}"
        )
    if stats.peak_memory_blocks > spec.memory_blocks + 1e-6:
        reasons.append(
            f"{case.symbol}: peak memory {stats.peak_memory_blocks:.3f} > M "
            f"{spec.memory_blocks:.3f} blocks"
        )
    slack = 2.0 / spec.relation_r.tuples_per_block + 1e-6
    if stats.peak_disk_blocks > spec.disk_blocks + slack:
        reasons.append(
            f"{case.symbol}: peak disk {stats.peak_disk_blocks:.3f} > D "
            f"{spec.disk_blocks:.3f} blocks"
        )
    return reasons


def service_failures(reports: typing.Iterable[WorkloadReport]) -> list[str]:
    """One reason per job that was rejected or did not complete."""
    return [
        f"{outcome.name}: {outcome.status} ({outcome.reason})"
        for report in reports
        for outcome in report.outcomes
        if outcome.status != "completed"
    ]


def time_profiled_joins(samples: list, after: typing.Callable[[], None] | None = None) -> None:
    """Record ``(start, seconds)`` of each join the service simulates.

    ``SimulatedEstimator.profile`` runs a join only for a job shape it has
    not seen; calls answered from its memo are not joins and are skipped.
    ``after`` runs after each recorded join, outside its timing.
    """
    original = SimulatedEstimator.profile

    def profile(self, job):
        known = len(self._memo)
        start = time.perf_counter()
        result = original(self, job)
        elapsed = time.perf_counter() - start
        if len(self._memo) > known:
            samples.append((start, elapsed))
            if after is not None:
                after()
        return result

    SimulatedEstimator.profile = profile


def batch_result(cold: WorkloadReport, warm: WorkloadReport) -> dict:
    return {"cold": cold.to_dict(), "warm": warm.to_dict()}


def digest(results: typing.Sequence) -> str:
    """sha256 over the canonical JSON of a round's simulated results."""
    blob = json.dumps(list(results), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()
