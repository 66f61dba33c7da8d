"""The benchmark's correctness gate trips on wrong results.

    python3 -m pytest perfbench/test_gate.py -q
"""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.bootstrap()
import workloads  # noqa: E402
from repro.relational.join_core import JoinResult  # noqa: E402
from repro.service.metrics import JobOutcome, WorkloadReport  # noqa: E402


@pytest.fixture(scope="module")
def joined():
    """The cheapest join of a gh_boundary round, its stats and reference."""
    cases = workloads.build("gh_boundary", 0)
    case = max((c for c in cases if c.symbol == "DT-GH"), key=lambda c: c.ratio)
    expected = workloads.reference_join(case.spec.relation_r, case.spec.relation_s)
    return case, workloads.run_case(case), expected


def corrupt(stats):
    output = JoinResult(stats.output.n_pairs, stats.output.checksum ^ 1)
    return dataclasses.replace(stats, output=output)


def test_correct_join_passes(joined):
    case, stats, expected = joined
    assert workloads.join_failures(case, stats, expected) == []


def test_corrupted_checksum_trips(joined):
    case, stats, expected = joined
    reasons = workloads.join_failures(case, corrupt(stats), expected)
    assert len(reasons) == 1 and "reference_join" in reasons[0]


def test_disk_overrun_trips(joined):
    case, stats, expected = joined
    over = dataclasses.replace(stats, peak_disk_blocks=case.spec.disk_blocks + 1.0)
    assert "peak disk" in workloads.join_failures(case, over, expected)[0]


def test_rejected_job_trips():
    outcome = JobOutcome(name="job00", status="rejected", reason="no method fits")
    report = WorkloadReport(
        policy="fifo", estimator="simulated", outcomes=(outcome,), makespan_s=0.0,
        mean_latency_s=0.0, p95_latency_s=0.0, device_utilization={}, exchanges=0,
        deadline_misses=0, fault_events=0, fault_recovery_s=0.0,
    )
    assert workloads.service_failures([report]) == ["job00: rejected (no method fits)"]


def test_run_fails_on_corrupted_output(joined, monkeypatch, capsys):
    case, stats, _ = joined
    monkeypatch.setattr(workloads, "build", lambda workload, seed: [case])
    monkeypatch.setattr(workloads, "run_case", lambda c: corrupt(stats))
    monkeypatch.setattr(run, "setup_once", lambda workload, seed: (0.5, 1.0))
    code = run.main(["--workload", "gh_boundary", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


def test_tail_leaves_ten_samples_beyond():
    value, percentile, n = run.tail(list(range(24)))
    assert (value, n) == (13, 24) and sum(v > value for v in range(24)) == 10
    assert percentile == pytest.approx(100 * 14 / 24)
