"""TAB-PLACEMENT -- joint placement + routing vs routing-only utility.

The paper assumes the task-to-server assignment is given and optimizes
routing + admission on top.  :class:`repro.placement.JointPlacementLoop`
closes that loop: it alternates LP-scored re-placement proposals with warm
gradient re-optimization on the delta core, accepting a move only when it
raises the LP-optimal total utility.  This bench runs the loop on the
calibrated datacenter/ISP catalog entries and records, per scenario, the
routing-only vs joint utility (LP bound and gradient-achieved).

Everything here is deterministic -- greedy seeding, the local search, and
the gradient iteration contain no randomness -- so the gates are exact
and hold in smoke mode too:

* ``joint_lp >= routing_only_lp`` on every scenario (monotone by
  construction; a violation means the accept rule broke), and
* on the contention-calibrated entries (``fat-tree-16``, ``isp-32``) the
  loop must find at least one improving move, i.e. ``lp_ratio > 1`` --
  placement genuinely beats routing-only there, which is the headline.

PLACEMENT_SMOKE=1 (CI) keeps only the two small scenarios; the committed
``BENCH_PLACEMENT.json`` baseline is generated in smoke mode, so the
regression gate sees identical rungs locally and in CI.
"""

from __future__ import annotations

import os

from conftest import emit, results_dir

from repro.analysis import TableBuilder
from repro.obs import Instrumentation, write_metrics_json
from repro.placement import JointPlacementLoop
from repro.scenarios import scenario

PLACEMENT_SMOKE = os.environ.get("PLACEMENT_SMOKE", "") == "1"

# (scenario, must_improve): calibrated entries must beat routing-only;
# the larger rungs are recorded but only gated on monotonicity
SCENARIOS = [
    ("fat-tree-16", True),
    ("isp-32", True),
    ("fat-tree-128", True),
    ("isp-128", False),
]
if PLACEMENT_SMOKE:
    SCENARIOS = [("fat-tree-16", True), ("isp-32", True)]


def test_joint_placement_vs_routing_only(benchmark):
    def run_experiment():
        rows = []
        for name, must_improve in SCENARIOS:
            report = JointPlacementLoop.from_scenario(name).run()
            rows.append((name, must_improve, report))
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = TableBuilder(
        [
            "scenario", "routing-only LP", "joint LP", "LP ratio",
            "achieved ratio", "moves", "rounds",
        ]
    )
    inst = Instrumentation()
    for name, must_improve, report in rows:
        # monotone by construction, every scenario, every mode
        assert report.joint_lp >= report.routing_only_lp - 1e-9, (
            f"{name}: joint LP {report.joint_lp:.4f} fell below the "
            f"routing-only baseline {report.routing_only_lp:.4f}"
        )
        if must_improve:
            assert report.moves, f"{name}: no improving move found"
            assert report.lp_ratio > 1.0, (
                f"{name}: lp_ratio {report.lp_ratio:.4f} <= 1"
            )
        table.add_row(
            name,
            f"{report.routing_only_lp:.3f}",
            f"{report.joint_lp:.3f}",
            f"{report.lp_ratio:.4f}x",
            f"{report.achieved_ratio:.4f}x",
            len(report.moves),
            report.rounds_run,
        )
        # deterministic invariants for the regression gate
        inst.count(f"placement.{name}.moves", float(len(report.moves)))
        inst.count(f"placement.{name}.rounds", float(report.rounds_run))
        inst.gauge(f"placement.{name}.lp_ratio", report.lp_ratio)
        inst.gauge(f"placement.{name}.achieved_ratio", report.achieved_ratio)
        inst.gauge(f"placement.{name}.routing_only_lp", report.routing_only_lp)
        inst.gauge(f"placement.{name}.joint_lp", report.joint_lp)

    emit(
        "TAB-PLACEMENT: joint placement loop vs routing-only"
        + (" (SMOKE)" if PLACEMENT_SMOKE else ""),
        table.render(),
        smoke=PLACEMENT_SMOKE,
    )

    write_metrics_json(
        inst,
        results_dir(PLACEMENT_SMOKE) / "BENCH_PLACEMENT.json",
        bench="TAB-PLACEMENT",
        scenarios=[name for name, __ in SCENARIOS],
        smoke=PLACEMENT_SMOKE,
    )
