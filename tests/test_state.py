"""The commodity-major array core: layout, kernels, blocks, bit-identity.

Every comparison here is against the scalar reference implementations
(``solve_traffic_scalar``, ``marginal_cost_to_destination_scalar``,
``compute_blocked_sets_scalar``, ``GradientAlgorithm.step_reference``)
and is byte for byte: ``a.tobytes() == b.tobytes()`` also tells ``-0.0``
from ``+0.0``, which ``np.array_equal`` does not.
"""

import numpy as np
import pytest
from scipy.sparse._sparsetools import csr_matvec

from repro import GradientConfig, solve
from repro.core.blocking import compute_all_blocked_sets, compute_blocked_sets_scalar
from repro.core.context import build_iteration_context
from repro.core.gradient import GradientAlgorithm
from repro.core.marginals import (
    CostModel,
    edge_marginals,
    evaluate_cost,
    link_cost_derivative,
    marginal_cost_to_destination_scalar,
    optimality_residual,
)
from repro.core.routing import (
    external_inputs,
    external_inputs_rows,
    initial_routing,
    solve_traffic_scalar,
)
from repro.core.state import ModelState, _row_sums


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def converged_routing(ext, iterations=60):
    """A non-trivial routing state: a short gradient run's final iterate."""
    algo = GradientAlgorithm(ext, GradientConfig(max_iterations=iterations))
    return algo.run().solution.routing


def scalar_reference(ext, routing, cost_model=None):
    """Traffic, usage and derivatives from the scalar walks alone.

    Usage is the dense eq. (4)-(5) formula: the per-edge commodity sum in
    ascending ``j`` and the per-node ``np.add.at`` in ascending edge id.
    """
    cost_model = cost_model or CostModel()
    traffic = solve_traffic_scalar(ext, routing)
    flows = traffic[:, ext.edge_tail] * routing.phi
    edge_usage = np.add.reduce(flows * ext.cost, axis=0)
    node_usage = np.zeros(ext.num_nodes)
    np.add.at(node_usage, ext.edge_tail, edge_usage)
    dadf = link_cost_derivative(ext, cost_model, edge_usage, node_usage)
    dadr = np.stack(
        [
            marginal_cost_to_destination_scalar(ext, j, routing, dadf)
            for j in range(ext.num_commodities)
        ]
    )
    return traffic, edge_usage, node_usage, dadf, dadr


def reference_delta_cells(ext, dadf, dadr):
    """Eq. (15) per allowed cell, from the per-commodity dense formula."""
    state = ModelState.of(ext)
    table = np.stack(
        [edge_marginals(ext, j, dadf, dadr[j]) for j in range(ext.num_commodities)]
    )
    return table.reshape(-1)[state.cell_edges]


class TestCoreSelection:
    def test_state_cached_by_identity(self, figure4_ext):
        assert ModelState.of(figure4_ext) is ModelState.of(figure4_ext)


class TestKernelBitIdentity:
    """Array kernels vs the scalar reference walks, byte for byte."""

    @pytest.fixture(params=["figure4_ext", "small_random_ext"])
    def ext(self, request):
        return request.getfixturevalue(request.param)

    def _reference(self, ext):
        routing = converged_routing(ext)
        return (routing,) + scalar_reference(ext, routing)

    def test_forward_wave(self, ext):
        routing, traffic, *_ = self._reference(ext)
        t = external_inputs(ext)
        ModelState.of(ext).solve_traffic_into(t.reshape(-1), routing.phi.reshape(-1))
        assert same_bytes(t, traffic)

    def test_usage(self, ext):
        routing, traffic, edge_usage, node_usage, *_ = self._reference(ext)
        eu, nu = ModelState.of(ext).resource_usage(
            routing.phi.reshape(-1), traffic.reshape(-1)
        )
        assert same_bytes(eu, edge_usage)
        assert same_bytes(nu, node_usage)

    def test_reverse_wave(self, ext):
        routing, *_rest, dadf, dadr = self._reference(ext)
        got = ModelState.of(ext).marginal_costs(routing.phi.reshape(-1), dadf)
        assert same_bytes(got, dadr)

    def test_block_kernels_tile_the_full_sweep(self, ext):
        routing, traffic, edge_usage, _nu, dadf, dadr = self._reference(ext)
        state = ModelState.of(ext)
        J = ext.num_commodities
        phi_flat = routing.phi.reshape(-1)
        # forward, one commodity at a time
        t = external_inputs(ext)
        for j in range(J):
            t[j : j + 1] = external_inputs_rows(ext, j, j + 1)
            state.solve_traffic_block(t.reshape(-1), phi_flat, j, j + 1)
        assert same_bytes(t, traffic)
        # usage partials in ascending shard order
        mid = max(1, J // 2)
        partial = state.usage_partial_block(
            phi_flat, t.reshape(-1), 0, mid
        ) + state.usage_partial_block(phi_flat, t.reshape(-1), mid, J)
        assert same_bytes(partial, edge_usage)
        # reverse, per-commodity rows, each storing its block's delta cells
        got = np.zeros_like(dadr)
        delta = np.full(state.num_cells, np.nan)
        for j in range(J):
            state.marginal_costs_block(
                got.reshape(-1), phi_flat, dadf, j, j + 1, delta
            )
        assert same_bytes(got, dadr)
        assert same_bytes(delta, reference_delta_cells(ext, dadf, dadr))

    def test_context_delta_matches_on_allowed_cells(self, ext):
        """The reverse wave's delta is edge_marginals on every allowed cell."""
        routing = converged_routing(ext)
        *_rest, dadf, dadr = scalar_reference(ext, routing)
        ctx = build_iteration_context(ext, routing, CostModel())
        assert ctx.delta.shape == (ModelState.of(ext).num_cells,)
        assert same_bytes(ctx.dadr, dadr)
        assert same_bytes(ctx.delta, reference_delta_cells(ext, dadf, dadr))
        # the (J, E) view agrees with the dense formula on allowed cells
        table = ModelState.of(ext).edge_marginals_dense(ctx.delta)
        for j in range(ext.num_commodities):
            cells = ext.commodity_edge_arrays[j]
            dense = edge_marginals(ext, j, dadf, dadr[j])
            assert same_bytes(table[j, cells], dense[cells])

    def test_blocked_cells_match_scalar(self, ext):
        # on the Figure-4 workload the blocked sets are non-empty from about
        # iteration 190 on, so the tag flood actually runs there
        routing = converged_routing(ext, iterations=250)
        traffic, *_rest, dadr = scalar_reference(ext, routing)
        ctx = build_iteration_context(ext, routing, CostModel())
        state = ModelState.of(ext)
        for eta in (0.04, 1e-6):
            blocked = compute_all_blocked_sets(
                ext, routing, ctx.traffic, ctx.dadr, ctx.delta, eta
            )
            table = ModelState.of(ext).edge_marginals_dense(ctx.delta)
            want = np.concatenate(
                [
                    compute_blocked_sets_scalar(
                        ext, j, routing, traffic, dadr[j], table[j], eta
                    )[ext.commodity_edge_arrays[j]]
                    for j in range(ext.num_commodities)
                ]
            )
            assert blocked.shape == (state.num_cells,)
            assert same_bytes(blocked, want)

    def test_single_entry_level_shortcut_matches_csr_matvec(self, ext):
        """``0.0 + contrib`` on a one-entry-per-row level is the
        zero-accumulator CSR sum, bitwise, even for ``-0.0``."""
        state = ModelState.of(ext)
        levels = [
            lv
            for lv in state.forward_levels + state.reverse_levels
            if lv.indptr is None
        ]
        assert levels, "expected at least one one-to-one level"
        rng = np.random.default_rng(0)
        for lv in levels:
            n = lv.nodes.size
            contrib = rng.standard_normal(n)
            contrib[:: 2] = -0.0
            want = np.zeros(n)
            csr_matvec(
                n, n, np.arange(n + 1, dtype=np.intp), lv.columns, lv.ones,
                contrib, want,
            )
            got = _row_sums(lv, contrib)
            assert same_bytes(got, want)
            assert not np.signbit(got[::2]).any()

    def test_every_cell_on_exactly_one_reverse_level(self, ext):
        state = ModelState.of(ext)
        positions = state.block(0, ext.num_commodities).reverse.cell_pos
        assert same_bytes(np.sort(positions), np.arange(state.num_cells))

    def test_optimality_residual_same_with_context(self, ext):
        routing = converged_routing(ext)
        cm = CostModel()
        ctx = build_iteration_context(ext, routing, cm)
        with_ctx = optimality_residual(ext, routing, cm, context=ctx)
        without = optimality_residual(ext, routing, cm)
        assert with_ctx.per_commodity_equal == without.per_commodity_equal
        assert with_ctx.per_commodity_sufficient == without.per_commodity_sufficient


class TestEndToEndIdentity:
    def test_solve_is_core_independent(self):
        """``solve`` (array core) ends where ``step_reference`` chains end."""
        from repro.core.transform import build_extended_network
        from repro.scenarios import paper_figure4_network

        net = paper_figure4_network(seed=7)
        cfg = GradientConfig(max_iterations=120, tolerance=0.0)
        result = solve(net, config=cfg, full_result=True)
        algo = GradientAlgorithm(build_extended_network(net), cfg)
        routing = initial_routing(algo.ext)
        for _ in range(120):
            routing = algo.step_reference(routing)
        assert same_bytes(result.solution.routing.phi, routing.phi)

    def test_compare_cores_oracle(self):
        """Every iterate and every recorded utility of the array-core run
        equals the scalar reference's, byte for byte."""
        from repro.core.transform import build_extended_network
        from repro.scenarios import paper_figure4_network

        ext = build_extended_network(paper_figure4_network(seed=7))
        cfg = GradientConfig(max_iterations=120, tolerance=0.0)
        algo = GradientAlgorithm(ext, cfg)
        iterates = []
        result = algo.run(
            callback=lambda i, rec: iterates.append(rec.utility)
        )
        routing = initial_routing(ext)
        for k in range(121):
            traffic, edge_usage, node_usage, *_ = scalar_reference(ext, routing)
            utility = evaluate_cost(
                ext, routing, cfg.cost_model, traffic, usage=(edge_usage, node_usage)
            ).utility
            assert same_bytes(iterates[k], utility), f"utility {k} diverged"
            if k < 120:
                routing = algo.step_reference(routing)
        assert same_bytes(result.solution.routing.phi, routing.phi)


class TestSparseInstanceProperties:
    """Array-core bit-identity fuzzed over the sparse large-J family."""

    def test_cores_bit_identical_across_sparse_instances(self):
        import os

        from hypothesis import given, settings

        from repro.core.transform import build_extended_network
        from repro.validate.strategies import random_routing, sparse_instances

        # the 250/400-node tiers ride only under the dev profile (20
        # examples); ci's 100-example sweep stays on the small tiers
        dev = os.environ.get("HYPOTHESIS_PROFILE", "dev") == "dev"
        strategy = sparse_instances(max_tier=None if dev else 3)

        @given(strategy)
        @settings(deadline=None)
        def check(drawn):
            network, seed, _tier = drawn
            ext = build_extended_network(network)
            routing = random_routing(ext, seed)
            ctx = build_iteration_context(ext, routing, CostModel())
            traffic, edge_usage, node_usage, dadf, dadr = scalar_reference(
                ext, routing
            )
            assert same_bytes(ctx.traffic, traffic)
            assert same_bytes(ctx.edge_usage, edge_usage)
            assert same_bytes(ctx.node_usage, node_usage)
            assert same_bytes(ctx.dadr, dadr)
            assert same_bytes(ctx.delta, reference_delta_cells(ext, dadf, dadr))

        check()


class TestApiModule:
    def test_curated_surface_importable(self):
        import repro.api as api

        for name in api.__all__:
            assert getattr(api, name) is not None

    def test_deprecated_hot_state_warns_and_forwards(self):
        import repro.api as api
        from repro.core.routing import solve_traffic as real

        with pytest.warns(DeprecationWarning, match="solve_traffic"):
            shim = api.solve_traffic
        assert shim is real

    def test_unknown_attribute_raises(self):
        import repro.api as api

        with pytest.raises(AttributeError):
            api.does_not_exist

    def test_dir_lists_deprecated_names(self):
        import repro.api as api

        listing = dir(api)
        assert "ModelState" in listing and "resource_usage" in listing
