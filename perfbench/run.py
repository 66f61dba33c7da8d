"""Tertiary-join benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload gh_boundary --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
One process, one thread, one client in a closed loop: joins (or service
batches) run back to back.  The first round of the workload always
completes; after it, units repeat the round until ``--seconds`` have
passed, and every repeat must reproduce the first round exactly.

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the first round under the layer profiler and prints
the per-layer metrics.  Both print a readable report, then, as the last
line, ``{"correct", "attempted", "failed", "metrics"}``, and write the
full record (digest, exact counts, spans) to
``perfbench/out/<workload>-seed<n>-trace<0|1>.json``.  Any failed join or
service job makes the exit code 1.
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import heapq
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("gh_boundary", "nb_dense", "service_zipf")
#: Fresh interpreters timed per run; setup_s is the median of their times,
#: each scaled to the reference speed like the other host times.  They
#: are spread over the measured window, because the host's speed changes
#: within seconds and back-to-back probes would all catch one phase.
SETUP_REPEATS = 7
#: One set-up in a fresh interpreter: import the program, build the inputs;
#: then, outside the timed region, one warm-up and SIDE_SAMPLES timed
#: kernel samples for the speed factor.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {here!r}]
import workloads
workloads.build({workload!r}, {seed})
elapsed = time.perf_counter() - start
import run
probe = run.SpeedProbe()
probe.sample()
del probe.samples[0]
for _ in range(run.SIDE_SAMPLES):
    probe.sample()
print(elapsed, probe.factor(start, start + elapsed))
"""
#: Units run untraced, then again traced, to measure the profiler's cost.
CALIBRATION_UNITS = {"gh_boundary": 4, "nb_dense": 6, "service_zipf": 1}
#: Host times are reported in reference seconds (unit ``ref_s``): each
#: measured interval is scaled by the mean of REFERENCE_KERNEL_S over the
#: time of each reference kernel sample taken inside it or among the
#: SIDE_SAMPLES nearest on either side: the host's speed around it.  A
#: shared host runs in phases, from under a second to several seconds
#: long, in which the joins slow by up to 1.8x.  The kernel does
#: interpreter work and a numpy sort, as the joins do, and slows with
#: them, so scaling each interval by its own neighbourhood removes most
#: of the phase.  Raw seconds are kept in the record file.
REFERENCE_KERNEL_S = 0.01
KERNEL_STEPS = 5_000
KERNEL_KEYS = 50_000
SIDE_SAMPLES = 2
#: Join workloads take a kernel sample per this many seconds of unit time;
#: service_zipf takes one after each join its estimator simulates.
SAMPLE_EVERY_S = 0.25


def bootstrap() -> None:
    """Make ``src/`` importable, or exit 2 when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'repro'}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


@dataclasses.dataclass
class Unit:
    """One unit of work: a join, or a service batch (cold + warm pass)."""

    index: int
    #: perf_counter at the start, and host seconds of the unit itself.
    start: float
    wall_s: float
    #: Simulated outcome, compared against the first round's.
    result: dict
    #: JoinStats, or (cold, warm) WorkloadReports; None when it raised.
    payload: object
    #: Joins (1), or service jobs over both passes, the unit attempted.
    items: int
    input_mb: float
    failures: list = dataclasses.field(default_factory=list)
    #: wall_s in reference seconds; set once the run is over.
    ref_s: float = math.nan

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.items)


def tail(values):
    """(value, percentile, n): the highest rank with >= 10 samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n, n


class JoinRunner:
    """Units are ``run_join`` calls over a fixed round of cases."""

    def __init__(self, workload: str, seed: int):
        import workloads

        self.w = workloads
        self.workload = workload
        self.seed = seed
        self.cases = []
        self.round_size = 0
        #: A round of joins is this workload's batch.
        self.round_batches = 1

    def setup(self) -> None:
        self.cases = self.w.build(self.workload, self.seed)
        self.round_size = len(self.cases)

    def run(self, index: int) -> Unit:
        case = self.cases[index % self.round_size]
        start = time.perf_counter()
        try:
            stats = self.w.run_case(case)
        except Exception as exc:  # a failed join is counted, not fatal
            wall = time.perf_counter() - start
            return Unit(index, start, wall, {"error": repr(exc)}, None, 1, case.input_mb,
                        [f"{case.symbol}: {exc!r}"])
        wall = time.perf_counter() - start
        return Unit(index, start, wall, stats.to_dict(), stats, 1, case.input_mb)

    def gate(self, units) -> None:
        """Check every join's output against reference_join, and its budgets."""
        spec = self.cases[0].spec
        expected = self.w.reference_join(spec.relation_r, spec.relation_s)
        for unit in units:
            if unit.payload is not None:
                case = self.cases[unit.index % self.round_size]
                unit.failures += self.w.join_failures(case, unit.payload, expected)

    def join_sample(self, unit: Unit, probe: "SpeedProbe") -> float:
        """Reference seconds of the unit's join."""
        return unit.ref_s

    def simulated(self, first_round) -> tuple[float, list[float]]:
        """(batch makespan, request latencies): one client runs joins back to back."""
        latencies = [u.payload.response_s for u in first_round if u.payload is not None]
        return sum(latencies), latencies

    def exact(self, first_round) -> dict:
        return join_totals([u.payload for u in first_round if u.payload is not None])


class ServiceRunner:
    """Units are service batches; each runs on a freshly built service.

    A batch's join sample is the mean reference time of the joins its
    estimator simulated.  Single joins would not do: their host times
    cluster by fact-table size, with a gap between the 480 MB and 700 MB
    facts where the median of the pooled joins falls, so it jumped with
    the seed's dimension draw.
    """

    def __init__(self, seed: int, probe: "SpeedProbe | None" = None):
        import workloads

        self.w = workloads
        self.seed = seed
        self.round_size = self.round_batches = workloads.SERVICE_BATCHES
        self.fresh: dict = {}
        self.probe = probe
        #: (start, host seconds) of each join the service simulated for a job profile.
        self.profiled: list[tuple[float, float]] = []
        #: Unit index -> the slice of ``profiled`` its batch recorded.
        self.joins_of: dict[int, slice] = {}
        workloads.time_profiled_joins(self.profiled, probe.sample if probe else None)

    def setup(self) -> None:
        self.fresh = dict(enumerate(self.w.build("service_zipf", self.seed)))

    def run(self, index: int) -> Unit:
        batch = self.fresh.pop(index, None) or self.w.service_batch(self.seed, index)
        jobs = 2 * len(batch.service.requests)
        probed = self.probe.spent_s if self.probe else 0.0
        first = len(self.profiled)
        start = time.perf_counter()
        try:
            cold, warm = self.w.run_batch(batch)
        except Exception as exc:  # a failed batch is counted, not fatal
            wall = self._wall(start, probed)
            return Unit(index, start, wall, {"error": repr(exc)}, None, jobs, 0.0,
                        [repr(exc)] * jobs)
        wall = self._wall(start, probed)
        self.joins_of[index] = slice(first, len(self.profiled))
        return Unit(index, start, wall, self.w.batch_result(cold, warm), (cold, warm), jobs,
                    2 * batch.input_mb)

    def _wall(self, start: float, probed: float) -> float:
        """Host seconds since ``start``, less the kernel samples taken inside."""
        inside = self.probe.spent_s - probed if self.probe else 0.0
        return time.perf_counter() - start - inside

    def gate(self, units) -> None:
        """A job fails when it is rejected or does not complete."""
        for unit in units:
            if unit.payload is not None:
                unit.failures += self.w.service_failures(unit.payload)

    def join_sample(self, unit: Unit, probe: "SpeedProbe") -> float:
        """The mean reference seconds of the joins the unit's batch simulated."""
        return statistics.fmean(wall * probe.factor(start, start + wall)
                                for start, wall in self.profiled[self.joins_of[unit.index]])

    def simulated(self, first_round) -> tuple[float, list[float]]:
        """(median batch makespan, job latencies over both passes)."""
        reports = [u.payload for u in first_round if u.payload is not None]
        makespans = [cold.makespan_s + warm.makespan_s for cold, warm in reports]
        latencies = [o.latency_s for pair in reports for r in pair for o in r.completed]
        return statistics.median(makespans), latencies

    def exact(self, first_round) -> dict:
        reports = [r for u in first_round if u.payload is not None for r in u.payload]
        return {
            "exchanges": sum(r.exchanges for r in reports),
            **{key: sum(getattr(r.cache, key) for r in reports)
               for key in ("hits", "misses", "evictions")},
        }


def make_runner(workload: str, seed: int, probe: "SpeedProbe | None" = None):
    if workload == "service_zipf":
        return ServiceRunner(seed, probe)
    return JoinRunner(workload, seed)


def join_totals(stats) -> dict:
    """Block, scan and iteration totals over some JoinStats."""
    return {
        "disk_blocks": sum(s.disk_traffic_blocks for s in stats),
        "tape_blocks": sum(s.tape_traffic_blocks for s in stats),
        "tape_repositions": sum(s.tape_repositions for s in stats),
        "r_scans": sum(s.r_scans for s in stats),
        "iterations": sum(s.iterations for s in stats),
    }


# -- untraced run: end-to-end metrics ------------------------------------------------


def setup_once(workload: str, seed: int) -> tuple[float, float]:
    """(seconds, speed factor) of a fresh interpreter importing the program and
    building the inputs."""
    code = SETUP_PROBE.format(src=str(SRC), here=str(HERE), workload=workload, seed=seed)
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        cwd=ROOT, timeout=120,
    )
    seconds, factor = done.stdout.split()[-2:]
    return float(seconds), float(factor)


def reference_kernel(keys) -> None:
    """Fixed work unrelated to the program: a bounded event heap, then a sort."""
    import numpy as np

    rng = random.Random(0)
    heap, tally = [], {}
    for step in range(KERNEL_STEPS):
        heapq.heappush(heap, (rng.random(), step))
        if len(heap) > 64:
            at, key = heapq.heappop(heap)
            tally[key & 1023] = tally.get(key & 1023, 0.0) + at
    distinct, counts = np.unique(keys, return_counts=True)
    np.searchsorted(distinct, keys[: len(keys) // 2])


class SpeedProbe:
    """Timed reference-kernel samples, to turn host seconds into ref_s."""

    def __init__(self):
        import numpy as np

        self.keys = np.random.default_rng(0).integers(0, 1 << 20, size=KERNEL_KEYS)
        #: (midpoint, seconds) of each sample, in the order taken.
        self.samples: list[tuple[float, float]] = []
        self.spent_s = 0.0

    def sample(self) -> None:
        start = time.perf_counter()
        reference_kernel(self.keys)
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.spent_s += end - start

    def factor(self, start: float, end: float) -> float:
        """The mean of REFERENCE_KERNEL_S over each kernel time around [start, end]."""
        times = [at for at, _ in self.samples]
        lo = max(0, bisect.bisect_left(times, start) - SIDE_SAMPLES)
        hi = bisect.bisect_right(times, end) + SIDE_SAMPLES
        return statistics.fmean(REFERENCE_KERNEL_S / s for _, s in self.samples[lo:hi])


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict, list]:
    import workloads

    workloads.clear_relation_memos()
    probe = SpeedProbe()
    runner = make_runner(workload, seed, probe)
    runner.setup()
    for _ in range(SIDE_SAMPLES):
        probe.sample()

    units, setup_times = [], []
    start = time.perf_counter()
    while len(units) < runner.round_size or time.perf_counter() - start < seconds:
        # Between units: set-up probes due by now, and kernel samples at
        # one per SAMPLE_EVERY_S of the last unit's time.
        while (len(setup_times) < SETUP_REPEATS
               and time.perf_counter() - start >= len(setup_times) * seconds / SETUP_REPEATS):
            setup_times.append(setup_once(workload, seed))
        units.append(runner.run(len(units)))
        for _ in range(max(1, math.ceil(units[-1].wall_s / SAMPLE_EVERY_S))):
            probe.sample()
    while len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup_once(workload, seed))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    for unit in units:
        unit.ref_s = unit.wall_s * probe.factor(unit.start, unit.start + unit.wall_s)

    runner.gate(units)
    size = runner.round_size
    first_round = units[:size]
    for unit in units[size:]:
        first = first_round[unit.index % size]
        if unit.result != first.result:
            unit.failures.append(f"unit {unit.index} differs from unit {first.index}")

    # Host figures count each unit of the round once, so a partial last
    # round does not change which joins they cover: a join sample is the
    # median over a unit's repeats, the other figures use complete rounds.
    complete = [u for u in units[:len(units) // size * size] if u.payload is not None]
    repeats: dict[int, list[float]] = {}
    for unit in units:
        if unit.payload is not None:
            repeats.setdefault(unit.index % size, []).append(runner.join_sample(unit, probe))
    join_walls = [statistics.median(samples) for samples in repeats.values()]
    # Per complete round, the mean reference seconds of one of its batches.
    batch_walls = [sum(u.ref_s for u in units[at:at + size]) / runner.round_batches
                   for at in range(0, len(units) - size + 1, size)]
    makespan, latencies = runner.simulated(first_round)
    wall_tail, wall_pct, wall_n = tail(join_walls)
    lat_tail, lat_pct, lat_n = tail(latencies)
    factors = [u.ref_s / u.wall_s for u in units]
    metrics = {
        "setup_s": statistics.median(seconds * factor for seconds, factor in setup_times),
        "join_wall_s.p50": statistics.median(join_walls),
        "join_wall_s.tail": wall_tail,
        "input_mb_per_s": sum(u.input_mb for u in complete) / sum(u.ref_s for u in complete),
        "batch_wall_s": statistics.median(batch_walls),
        "sim_makespan_s": makespan,
        "sim_latency_s.p50": statistics.median(latencies),
        "sim_latency_s.tail": lat_tail,
        "peak_rss_mb": peak_rss_mb,
    }
    record = {
        "units": len(units),
        "batches": len(batch_walls),
        "tails": {
            "join_wall_s.tail": {"percentile": wall_pct, "samples": wall_n},
            "sim_latency_s.tail": {"percentile": lat_pct, "samples": lat_n},
        },
        "setup_s.samples": [{"s": seconds, "factor": factor} for seconds, factor in setup_times],
        "speed_factor": {"median": statistics.median(factors),
                         "min": min(factors), "max": max(factors)},
        "kernel_s": [s for _, s in probe.samples],
        "unit_wall_s": [u.wall_s for u in units],
        "unit_ref_s": [u.ref_s for u in units],
        "join_ref_s": join_walls,
        "digest": workloads.digest([u.result for u in first_round]),
        "exact": runner.exact(first_round),
    }
    return metrics, record, units


# -- traced run: per-layer metrics ---------------------------------------------------


def trace(workload: str, seed: int) -> tuple[dict, dict, list]:
    import layers
    import workloads

    workloads.clear_relation_memos()
    runner = make_runner(workload, seed)
    runner.setup()
    calibration = CALIBRATION_UNITS[workload]
    untraced = [runner.run(i) for i in range(calibration)]

    profile = layers.LayerProfile()
    recorder = layers.SpanRecorder()
    joins: list = []
    layers.install_spans(recorder, joins)
    runner.setup()
    units = []
    for index in range(runner.round_size):
        with recorder.span("unit", f"u{index}"), profile.active():
            units.append(runner.run(index))
    runner.gate(untraced + units)
    for done, first in zip(untraced, units):
        if done.result != first.result:
            first.failures.append(f"unit {first.index} differs between traced and untraced runs")

    self_s, counts = profile.reduce()
    totals = join_totals(joins)
    blocks = totals["disk_blocks"] + totals["tape_blocks"]
    metrics = {
        "simulator.events": counts["events"],
        "simulator.processes": counts["processes"],
        "simulator.events_per_block": counts["events"] / blocks if blocks else 0.0,
        "storage.bus_transfers": counts["bus_transfers"],
        "storage.disk_blocks": totals["disk_blocks"],
        "storage.tape_blocks": totals["tape_blocks"],
        "storage.tape_repositions": totals["tape_repositions"],
        "core.r_scans": totals["r_scans"],
        "core.iterations": totals["iterations"],
        "relational.mini_joins": counts["mini_joins"],
        "service.admit_s": recorder.total("service.admit"),
        "trace.overhead": sum(u.wall_s for u in units[:calibration])
        / sum(u.wall_s for u in untraced),
    }
    for layer in layers.LAYERS:
        metrics[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    reports = [u.payload for u in units if workload == "service_zipf" and u.payload]
    metrics.update(service_layer_metrics(reports))

    traced_s = sum(self_s.values())
    shares = dict(sorted(((k, v / traced_s) for k, v in self_s.items()), key=lambda kv: -kv[1]))
    record = {
        "units": len(units),
        "digest": workloads.digest([u.result for u in units]),
        "exact": {**counts, **totals},
        "self_share": shares,
        "stress": stress(workload, shares, reports),
        "spans": recorder.to_json(),
    }
    return metrics, record, untraced + units


def service_layer_metrics(reports) -> dict:
    """Queueing, drive and cache figures from (cold, warm) report pairs."""
    cold = [pair[0] for pair in reports]
    warm = [pair[1] for pair in reports]
    both = cold + warm

    def hit_ratio(passes):
        hits = sum(r.cache.hits for r in passes)
        lookups = hits + sum(r.cache.misses for r in passes)
        return hits / lookups if lookups else 0.0

    def median(values):
        return statistics.median(values) if values else 0.0

    def mean(values):
        return statistics.fmean(values) if values else 0.0

    return {
        "service.exchanges": sum(r.exchanges for r in both),
        "service.wait_s": mean([o.wait_s for r in both for o in r.completed]),
        "service.drive_utilization": mean(
            [v for r in both for v in r.drive_utilization.values()]
        ),
        "service.makespan_s.cold": median([r.makespan_s for r in cold]),
        "service.makespan_s.warm": median([r.makespan_s for r in warm]),
        "hsm.hit_ratio.cold": hit_ratio(cold),
        "hsm.hit_ratio.warm": hit_ratio(warm),
        "hsm.evictions": sum(r.cache.evictions for r in both),
        "hsm.tape_mb_avoided": float(sum(r.cache.tape_mb_avoided for r in both)),
    }


def stress(workload: str, shares: dict, reports) -> dict:
    """Whether the traced round stresses the layers the workload is for."""
    if workload == "gh_boundary":
        pair = shares.get("simulator", 0.0) + shares.get("storage", 0.0)
        rest = [v for k, v in shares.items() if k not in ("simulator", "storage")]
        return {"simulator+storage is the largest share": pair > max(rest, default=0.0)}
    if workload == "nb_dense":
        return {"relational is the largest share": max(shares, key=shares.get) == "relational"}
    checks = {}
    for label, position in (("cold", 0), ("warm", 1)):
        passes = [pair[position].cache for pair in reports]
        checks[f"every {label} pass evicts"] = all(c.evictions > 0 for c in passes)
        checks[f"every {label} hit ratio in (0, 1)"] = all(0 < c.hit_ratio < 1 for c in passes)
    return checks


# -- reporting -------------------------------------------------------------------------


def declared_metrics(kind: str) -> dict[str, str]:
    """name -> unit for ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    bootstrap()

    if args.trace:
        values, record, units = trace(args.workload, args.seed)
        declared = declared_metrics("per_layer")
    else:
        values, record, units = measure(args.workload, args.seed, args.seconds)
        declared = declared_metrics("end_to_end")
    if set(values) != set(declared):
        raise SystemExit(f"perfbench: metrics {sorted(set(values) ^ set(declared))} "
                         "disagree with BENCHMARK.json")

    failures = [reason for unit in units for reason in unit.failures]
    attempted = sum(unit.items for unit in units)
    failed = sum(unit.failed for unit in units)
    record.update(
        workload=args.workload, seed=args.seed, trace=args.trace,
        attempted=attempted, failed=failed, failure_ratio=failed / attempted,
        failures=failures, metrics=values,
        cpu_count=os.cpu_count(), python=sys.version.split()[0],
    )
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True))

    print(f"{args.workload} seed {args.seed} trace {args.trace}: {record['units']} units")
    for name, unit in declared.items():
        print(f"  {name:28s} {values[name]:.6g} {unit}")
    for name, info in record.get("tails", {}).items():
        print(f"  {name} is p{info['percentile']:.0f} of {info['samples']} samples")
    print(f"  failure_ratio {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"  digest {record['digest']}")
    print(f"  exact {json.dumps(record['exact'], sort_keys=True)}")
    for check, held in record.get("stress", {}).items():
        print(f"  stress: {check}: {'yes' if held else 'NO'}")
    for reason in failures[:20]:
        print(f"  FAILED {reason}")
    print(f"  record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
