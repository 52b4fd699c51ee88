"""TAB-CHURN -- incremental delta apply vs full rebuild, per event class.

The paper's algorithm is built to "adapt to changes" in demand and capacity
(Sec. V); the delta core (``repro.core.delta``) turns each online event into
an epoch patch instead of recompiling the world.  This bench replays a mixed
churn trace on the largest layered workload and times, for every event, the
incremental path (``compile_event`` + ``apply_delta``, plans spliced) against
the legacy full rebuild (``apply_event`` + ``build_extended_network``, plans
rebuilt) -- asserting bit-identity of the resulting models at every step.

Timing gates (dedicated bench host only, CHURN_SMOKE=1 drops them):

* the scalar event classes -- ``DemandChange``/``CapacityChange``, the
  paper's Section V adaptation case -- must apply >= 5x faster than a full
  rebuild per single event, and
* the whole-trace aggregate (structural events included) must clear 2x.

Structural classes are reported but not individually gated: the bit-identity
contract forces the spliced network onto the same compacted canonical layout
a from-scratch build produces, so a structural splice still pays O(V + E)
object layout (it skips only the per-commodity re-derivation); its win is
real but bounded, and grows with the commodity count.
"""

from __future__ import annotations

import os
import statistics
import time
from collections import defaultdict
from pathlib import Path

from conftest import emit

from repro.analysis import TableBuilder
from repro.core.delta import apply_delta, compile_event, diff_extended_networks
from repro.core.transform import build_extended_network
from repro.obs import Instrumentation, write_metrics_json
from repro.online.rebuild import apply_event
from repro.scenarios import scenario

NUM_NODES = 120
NUM_COMMODITIES = 12
NUM_EVENTS = 60
REPEATS = 3  # timing is min-of-REPEATS; correctness is every-event

MIN_SCALAR_SPEEDUP = 5.0  # DemandChange / CapacityChange, per single event
MIN_AGGREGATE_SPEEDUP = 2.0  # whole trace, structural events included

SCALAR_CLASSES = ("DemandChange", "CapacityChange")

# CI smoke mode, matching ITERCORE_SMOKE / PARALLEL_SMOKE: shared runners
# keep the bit-identity assertions but not the wall-clock bars
CHURN_SMOKE = os.environ.get("CHURN_SMOKE", "") == "1"
if CHURN_SMOKE:
    NUM_NODES, NUM_COMMODITIES, NUM_EVENTS = 20, 4, 12

# the catalog entries pin the historical seeds (network 17, trace 18), so
# the committed BENCH_CHURN.json baselines stay bit-for-bit valid
SCENARIO_NAME = "churn-smoke-20" if CHURN_SMOKE else "churn-120"


def _force_plans(ext) -> None:
    ext.flow_plans
    ext.gamma_plans


def _carried_plans(old_ext, new_ext) -> int:
    """How many of the new epoch's flow plans were remapped, not rebuilt."""
    old_ids = {id(p.gains) for p in (old_ext._flow_plans or [])}
    return sum(1 for p in new_ext._flow_plans or [] if id(p.gains) in old_ids)


def test_churn_delta_vs_full_rebuild(benchmark):
    compiled = scenario(SCENARIO_NAME).compile()
    network = compiled.network
    events = compiled.events
    assert len(events) == NUM_EVENTS

    def run_experiment():
        ext = build_extended_network(network)
        _force_plans(ext)
        inc_times = defaultdict(list)
        full_times = defaultdict(list)
        compile_times = defaultdict(list)
        carried_total = 0
        structural_events = 0
        for event in events:
            kind = type(event).__name__
            base_network = ext.stream_network

            # compile is pure: min-of-REPEATS, then one more for the keeper
            compiles = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                delta = compile_event(ext, event)
                compiles.append(time.perf_counter() - t0)
            t_compile = min(compiles)

            if delta.structural:
                # structural apply leaves the base epoch untouched, so it
                # can repeat too; every repeat re-splices plans
                applies = []
                for _ in range(REPEATS):
                    t0 = time.perf_counter()
                    applied = apply_delta(ext, delta)
                    _force_plans(applied.ext)
                    applies.append(time.perf_counter() - t0)
                t_apply = min(applies)
            else:
                # scalar apply mutates in place (epoch bump): single shot
                t0 = time.perf_counter()
                applied = apply_delta(ext, delta)
                _force_plans(applied.ext)
                t_apply = time.perf_counter() - t0

            fulls = []
            for _ in range(REPEATS):
                t0 = time.perf_counter()
                result = apply_event(base_network, event)
                reference = build_extended_network(
                    result.network, require_connected=False
                )
                _force_plans(reference)
                fulls.append(time.perf_counter() - t0)
            t_full = min(fulls)

            # correctness in every mode: the spliced epoch is bit-identical
            # to the from-scratch rebuild, plans included
            diffs = diff_extended_networks(
                applied.ext, reference, compare_plans=True
            )
            assert diffs == [], f"{kind}: {diffs}"

            if delta.structural:
                structural_events += 1
                carried_total += _carried_plans(ext, applied.ext)

            compile_times[kind].append(t_compile)
            inc_times[kind].append(t_compile + t_apply)
            full_times[kind].append(t_full)
            ext = applied.ext

        assert ext.epoch == len(events)
        return inc_times, full_times, compile_times, carried_total, structural_events

    inc_times, full_times, compile_times, carried, structural_events = (
        benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    )

    # every class the generator can draw showed up in the trace
    assert len(inc_times) == 6, sorted(inc_times)
    # the splice fast path fired: clean commodities' plans were remapped,
    # not rebuilt (a broken index map degrades every splice to O(problem))
    assert structural_events > 0
    assert carried > 0

    speedups = {}
    table = TableBuilder(
        ["event class", "n", "inc ms/event", "full ms/event", "speedup"]
    )
    total_inc = total_full = 0.0
    for kind in sorted(inc_times):
        inc_ms = 1e3 * statistics.median(inc_times[kind])
        full_ms = 1e3 * statistics.median(full_times[kind])
        speedups[kind] = full_ms / inc_ms
        total_inc += sum(inc_times[kind])
        total_full += sum(full_times[kind])
        table.add_row(
            kind,
            len(inc_times[kind]),
            f"{inc_ms:.3f}",
            f"{full_ms:.3f}",
            f"{speedups[kind]:.2f}x",
        )
    aggregate = total_full / total_inc
    table.add_row("aggregate (trace)", len(events), f"{1e3 * total_inc:.1f}",
                  f"{1e3 * total_full:.1f}", f"{aggregate:.2f}x")
    emit(
        "TAB-CHURN: incremental delta apply vs full rebuild "
        f"({NUM_NODES} nodes, {NUM_COMMODITIES} commodities, "
        f"{len(events)} events" + (", SMOKE)" if CHURN_SMOKE else ")"),
        table.render(),
    )

    # machine-readable twin in the repro.metrics/1 schema for CI artifacts
    # and the benchmark regression gate
    inst = Instrumentation()
    inst.count("events.total", len(events))
    for kind in sorted(inc_times):
        inst.count(f"events.{kind}", len(inc_times[kind]))
        for seconds in inc_times[kind]:
            inst.registry.histogram(f"event.{kind}.incremental.seconds").observe(
                seconds
            )
        for seconds in full_times[kind]:
            inst.registry.histogram(f"event.{kind}.full.seconds").observe(seconds)
        inst.gauge(f"speedup_median.{kind}", speedups[kind])
        inst.gauge(
            f"us_per_event.{kind}.incremental",
            1e6 * statistics.median(inc_times[kind]),
        )
        inst.gauge(
            f"us_per_event.{kind}.compile",
            1e6 * statistics.median(compile_times[kind]),
        )
        inst.gauge(
            f"us_per_event.{kind}.full",
            1e6 * statistics.median(full_times[kind]),
        )
    inst.gauge("speedup_aggregate", aggregate)
    inst.count("plans.carried", carried)
    inst.count("events.structural", structural_events)
    results_dir = Path(__file__).resolve().parent / "results"
    results_dir.mkdir(exist_ok=True)
    write_metrics_json(
        inst,
        results_dir / "BENCH_CHURN.json",
        bench="TAB-CHURN",
        num_nodes=NUM_NODES,
        num_commodities=NUM_COMMODITIES,
        num_events=len(events),
        repeats=REPEATS,
        smoke=CHURN_SMOKE,
    )

    if not CHURN_SMOKE:
        for kind in SCALAR_CLASSES:
            assert speedups[kind] >= MIN_SCALAR_SPEEDUP, (
                f"{kind}: {speedups[kind]:.2f}x < {MIN_SCALAR_SPEEDUP}x"
            )
        assert aggregate >= MIN_AGGREGATE_SPEEDUP, (
            f"aggregate {aggregate:.2f}x < {MIN_AGGREGATE_SPEEDUP}x"
        )
