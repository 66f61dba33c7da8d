#!/usr/bin/env python
"""Quickstart: join two tape-resident relations end to end.

Builds two synthetic relations, asks the planner (via the
:mod:`repro.api` facade) which of the paper's seven join methods fits
the machine's memory/disk budgets best, runs the chosen method against
the simulated tape/disk hierarchy, and verifies the join output against
an in-memory reference join.

Run with::

    python examples/quickstart.py
"""

import repro
from repro import api


def main() -> None:
    # Two tape-resident relations: R (the smaller) and S.
    r = repro.uniform_relation("R", size_mb=18.0, seed=1)
    s = repro.uniform_relation("S", size_mb=100.0, seed=2, key_space=4 * 9216)
    print(f"R: {r.size_mb:.0f} MB ({r.n_tuples} tuples, {r.n_blocks:.0f} blocks)")
    print(f"S: {s.size_mb:.0f} MB ({s.n_tuples} tuples, {s.n_blocks:.0f} blocks)")

    # The machine: 1.8 MB of memory and 50 MB of disk for the join
    # (blocks are 100 KB by default).
    spec = repro.JoinSpec(r, s, memory_blocks=18.0, disk_blocks=500.0)

    # Ask the planner (feasibility via Table 2, ranking via the cost model).
    plan = api.plan_join(spec)
    print(f"\nPlanner ranking for M={spec.memory_blocks:g}, D={spec.disk_blocks:g} blocks:")
    for ranked in plan.ranked:
        print(f"  {ranked.symbol:10s} estimated {ranked.estimated_s:8.0f} s")
    for symbol, reason in plan.rejected:
        print(f"  {symbol:10s} rejected: {reason}")

    # Run the chosen method for real (simulated time, real data movement);
    # verify=True checks the output against the in-memory reference join.
    stats = api.run_join(spec, verify=True)
    print(f"\nRan {stats.method} ({stats.symbol}):")
    print(f"  response time     {stats.response_s:9.0f} simulated seconds")
    print(f"  step I (setup)    {stats.step1_s:9.0f} s")
    print(f"  step II           {stats.step2_s:9.0f} s")
    print(f"  iterations        {stats.iterations:9d}")
    print(f"  passes over R     {stats.r_scans:9.0f}")
    print(f"  disk traffic      {stats.disk_traffic_blocks:9.0f} blocks")
    print(f"  join overhead     {100 * stats.join_overhead:8.0f} %  (vs just reading S)")

    print(f"\nOutput verified: {stats.output.n_pairs} matching pairs "
          f"(checksum {stats.output.checksum:#018x})")


if __name__ == "__main__":
    main()
