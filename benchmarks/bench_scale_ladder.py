"""TAB-SCALE-LADDER -- the asymptotic slope of the commodity-major core.

The object core's per-iteration work is the dense cross product ``J*(E+V)``
work-cells (every commodity visits every extended node and edge), which is
what held the repo at ~100 physical nodes.  The sparse array core
(:mod:`repro.core.state`) walks only the allowed cells, so per-iteration
time should grow **sub-linearly** in ``J*(E+V)`` once sparsity dominates.

This bench climbs a 250 / 1000 / 4000-node ladder (commodity counts 8 / 16
/ 32) at roughly constant per-commodity density, times the production
iteration pipeline on each rung, and fits the log-log slope of
time-per-iteration against dense work-cells between the bottom and top
rungs.  Gate: ``slope < 1.0`` -- a slope creeping back to 1.0 means the
per-commodity dispatch handicap returned.

Bit-identity with the scalar reference rides along: on the 40-node
Figure-4 workload and a 120-node reference instance every iterate of
``GradientAlgorithm.step`` must match ``step_reference`` (the pure-scalar
flow solve, marginal wave, blocked sets and per-node ``Gamma``) byte for
byte, so the rungs can't be fast by being wrong.

CI smoke mode (``SCALE_SMOKE=1``) keeps the identity oracle and a
slope-sanity check but swaps the ladder for 120/250-node rungs -- shared
runners can neither afford the 4000-node rung nor hold a timing gate.
``BENCH_SCALE.json`` lands next to the other bench metrics and is
regression-gated by ``check_regression.py`` (the ``slope.*`` gauge is
dimensionless, gated like ``speedup.*``; rung cell counts are deterministic
invariants).
"""

from __future__ import annotations

import math
import os
import time

from conftest import emit, results_dir

from repro import build_extended_network
from repro.analysis import TableBuilder
from repro.core.gradient import GradientAlgorithm, GradientConfig
from repro.core.routing import initial_routing
from repro.obs import Instrumentation, write_metrics_json
from repro.validate import calibrated_gradient_config
from repro.scenarios import paper_figure4_network, random_stream_network
from repro.scenarios import RandomNetworkSpec

SMOKE = os.environ.get("SCALE_SMOKE", "") == "1"

# (num_nodes, num_commodities) rungs; smoke keeps two affordable ones
RUNGS = [(120, 4), (250, 8)] if SMOKE else [(250, 8), (1000, 16), (4000, 32)]
ITERATIONS = 15 if SMOKE else 30
LADDER_SEED = 29
MAX_SLOPE = 1.0
ORACLE_ITERATIONS = 120


def _ladder_spec(num_nodes: int, num_commodities: int) -> RandomNetworkSpec:
    """A rung's instance family: layer width scaled so the layer slots
    roughly absorb the node budget, keeping per-commodity density flat
    while the dense cross product grows ~quadratically up the ladder."""
    width = max(3, num_nodes // (num_commodities * 4))
    return RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=num_commodities,
        depth_range=(4, 6),
        layer_width_range=(width, width + 2),
        extra_edge_probability=0.1,
    )


def _reference_120() -> RandomNetworkSpec:
    return RandomNetworkSpec(
        num_nodes=120,
        num_commodities=6,
        depth_range=(4, 6),
        layer_width_range=(4, 6),
    )


def _matches_scalar_reference(network, config: GradientConfig) -> bool:
    """Every iterate of the production step equals ``step_reference``'s,
    byte for byte, over ``ORACLE_ITERATIONS`` iterations."""
    ext = build_extended_network(network)
    algo = GradientAlgorithm(ext, config)
    fast = slow = initial_routing(ext)
    context = algo.compute_context(fast)
    for _ in range(ORACLE_ITERATIONS):
        fast = algo.step(fast, context=context)
        context = algo.compute_context(fast)
        slow = algo.step_reference(slow)
        if fast.phi.tobytes() != slow.phi.tobytes():
            return False
    return True


def _time_rung(num_nodes: int, num_commodities: int):
    """Per-iteration seconds of the production pipeline on one rung."""
    network = random_stream_network(
        _ladder_spec(num_nodes, num_commodities), seed=LADDER_SEED
    )
    ext = build_extended_network(network)
    algo = GradientAlgorithm(ext, GradientConfig(eta=0.02))
    routing = initial_routing(ext)
    context = algo.compute_context(routing)
    # warm the lazy plans (level compilation, ModelState construction)
    for _ in range(2):
        routing = algo.step(routing, context=context)
        context = algo.compute_context(routing)
    start = time.perf_counter()
    for _ in range(ITERATIONS):
        routing = algo.step(routing, context=context)
        context = algo.compute_context(routing)
    elapsed = time.perf_counter() - start
    cells = ext.num_commodities * (ext.num_edges + ext.num_nodes)
    return elapsed / ITERATIONS, cells, ext


def test_scale_ladder(benchmark):
    # identity first: the ladder means nothing if the fast core drifts
    config = calibrated_gradient_config(max_iterations=ORACLE_ITERATIONS)
    fig40 = _matches_scalar_reference(paper_figure4_network(seed=7), config)
    assert fig40, "Figure-4 workload: step diverged from step_reference"
    rand120 = _matches_scalar_reference(
        random_stream_network(_reference_120(), seed=11), config
    )
    assert rand120, "120-node reference: step diverged from step_reference"

    def run_ladder():
        return [_time_rung(n, j) for n, j in RUNGS]

    results = benchmark.pedantic(run_ladder, rounds=1, iterations=1)

    (t_lo, cells_lo, _), (t_hi, cells_hi, _) = results[0], results[-1]
    slope = math.log(t_hi / t_lo) / math.log(cells_hi / cells_lo)

    table = TableBuilder(["rung", "J", "cells J*(E+V)", "us/iteration"])
    for (n, j), (t, cells, ext) in zip(RUNGS, results):
        table.add_row(f"{n} nodes", str(j), f"{cells}", f"{1e6 * t:.0f}")
    table.add_row("slope(t vs cells)", "", "", f"{slope:.3f}")
    emit(
        "TAB-SCALE-LADDER: per-iteration time vs dense work-cells "
        f"({'smoke rungs' if SMOKE else 'full ladder'}, "
        f"{ITERATIONS} timed iterations per rung)",
        table.render(),
        smoke=SMOKE,
    )

    inst = Instrumentation()
    inst.gauge("slope.time_vs_cells", slope)
    for (n, _j), (t, cells, _ext) in zip(RUNGS, results):
        inst.gauge(f"us_per_iteration.rung_{n}", 1e6 * t)
        inst.count(f"cells.rung_{n}", cells)
    inst.gauge("identity.fig40", 1.0 if fig40 else 0.0)
    inst.gauge("identity.rand120", 1.0 if rand120 else 0.0)
    write_metrics_json(
        inst,
        results_dir(SMOKE) / "BENCH_SCALE.json",
        bench="TAB-SCALE-LADDER",
        rungs=[list(r) for r in RUNGS],
        iterations=ITERATIONS,
        smoke=SMOKE,
    )

    # smoke keeps only a sanity band (adjacent rungs on shared runners are
    # too close to hold a sharp slope); the full ladder enforces the gate
    assert math.isfinite(slope) and slope > 0.0
    if not SMOKE:
        assert slope < MAX_SLOPE, (
            f"per-iteration time grew super-linearly in dense work-cells "
            f"(slope={slope:.3f}); the sparse core is doing dense work"
        )
