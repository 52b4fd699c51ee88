"""TAB-SCALE -- behaviour as the network grows (paper's "large scale" claim).

The paper motivates the design with "large scale decentralized stream
processing systems" but only evaluates one 40-node instance.  This bench
quantifies how the approach scales: per-iteration wall time of the
synchronous engine, iterations to reach 95% of optimal, and the per-iteration
message/round cost of the real protocol, for networks from 10 to 80 nodes.

Shape assertions: per-iteration cost grows roughly linearly in the extended
edge count, and convergence (iterations to 95%) stays the same order of
magnitude across sizes -- the step count is governed by eta and the cost
landscape, not directly by N.
"""

from __future__ import annotations

import time

from conftest import emit

from repro import (
    GradientAlgorithm,
    GradientConfig,
    build_extended_network,
    solve_lp,
)
from repro.analysis import TableBuilder, iterations_to_fraction
from repro.core.routing import initial_routing
from repro.simulation import DistributedGradientRun
from repro.scenarios import random_stream_network
from repro.scenarios import RandomNetworkSpec

SIZES = [10, 20, 40, 80]
MAX_ITERATIONS = 3000


def _make_ext(num_nodes: int):
    spec = RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=3 if num_nodes >= 20 else 2,
        depth_range=(3, 5) if num_nodes < 40 else (4, 6),
        layer_width_range=(2, 3) if num_nodes < 40 else (3, 5),
    )
    return build_extended_network(random_stream_network(spec, seed=17))


def test_scaling_with_network_size(benchmark):
    def run_experiment():
        rows = []
        for num_nodes in SIZES:
            ext = _make_ext(num_nodes)
            lp = solve_lp(ext)
            algo = GradientAlgorithm(
                ext,
                GradientConfig(eta=0.04, max_iterations=MAX_ITERATIONS,
                               record_every=10),
            )
            start = time.perf_counter()
            result = algo.run()
            elapsed = time.perf_counter() - start
            per_iteration_us = 1e6 * elapsed / result.iterations

            protocol = DistributedGradientRun(ext, GradientConfig(eta=0.04))
            protocol.load_routing(initial_routing(ext))
            protocol.forecast_phase()
            metrics = protocol.iterate(1)

            rows.append(
                {
                    "nodes": num_nodes,
                    "ext_edges": ext.num_edges,
                    "per_iter_us": per_iteration_us,
                    "hit95": iterations_to_fraction(
                        result.recorded_iterations,
                        result.utilities,
                        lp.utility,
                        0.95,
                    ),
                    "fraction": result.solution.utility / lp.utility,
                    "msgs": metrics.messages,
                    "rounds": metrics.rounds,
                }
            )
        return rows

    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)

    table = TableBuilder(
        [
            "nodes",
            "ext edges",
            "us/iteration",
            "iters to 95%",
            "final of opt",
            "msgs/iter",
            "rounds/iter",
        ]
    )
    for row in rows:
        table.add_row(
            row["nodes"],
            row["ext_edges"],
            f"{row['per_iter_us']:.0f}",
            row["hit95"],
            f"{row['fraction']:.1%}",
            row["msgs"],
            row["rounds"],
        )
    emit("TAB-SCALE: gradient algorithm vs network size", table.render())

    # every size converges close to its optimum
    for row in rows:
        assert row["fraction"] >= 0.90
        assert row["hit95"] is not None

    # per-iteration cost grows sub-quadratically with the edge count
    first, last = rows[0], rows[-1]
    edge_ratio = last["ext_edges"] / first["ext_edges"]
    time_ratio = last["per_iter_us"] / first["per_iter_us"]
    assert time_ratio <= edge_ratio**2

    # iterations-to-95% stays within one order of magnitude across sizes
    hits = [row["hit95"] for row in rows]
    assert max(hits) <= 20 * min(hits)
