"""Tests for the distributed gradient algorithm (synchronous engine)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import build_extended_network
from repro.core.gradient import (
    GradientAlgorithm,
    GradientConfig,
    apply_gamma_at_node,
    apply_gamma_batch,
)
from repro.core.optimal import arc_flows_to_routing, solve_lp
from repro.core.transform import CommodityGammaPlan
from repro.core.routing import (
    initial_routing,
    feasibility_report,
    validate_routing,
)
from repro.core.utility import LogUtility
from repro.scenarios import (
    diamond_network,
    random_stream_network,
)
from repro.scenarios import RandomNetworkSpec


class TestConfig:
    def test_rejects_nonpositive_eta(self):
        with pytest.raises(ValueError):
            GradientConfig(eta=0.0)

    def test_rejects_zero_iterations(self):
        with pytest.raises(ValueError):
            GradientConfig(max_iterations=0)

    def test_defaults_match_paper(self):
        config = GradientConfig()
        assert config.eta == pytest.approx(0.04)
        assert config.cost_model.eps == pytest.approx(0.2)


class TestGammaKernel:
    def test_preserves_simplex(self, rng):
        phi = np.zeros(6)
        out = [0, 1, 2]
        phi[out] = [0.5, 0.3, 0.2]
        delta = np.array([3.0, 1.0, 2.0, 0, 0, 0])
        apply_gamma_at_node(phi, 10.0, out, delta, None, eta=0.1, traffic_tol=1e-12)
        assert phi[out].sum() == pytest.approx(1.0)
        assert np.all(phi >= 0)

    def test_moves_mass_to_cheapest_edge(self):
        phi = np.zeros(3)
        out = [0, 1, 2]
        phi[out] = [1 / 3, 1 / 3, 1 / 3]
        delta = np.array([5.0, 1.0, 3.0])
        apply_gamma_at_node(phi, 1.0, out, delta, None, eta=0.01, traffic_tol=1e-12)
        assert phi[1] > 1 / 3
        assert phi[0] < 1 / 3
        assert phi[2] < 1 / 3
        # more expensive edges shrink more (eq. (16): Delta proportional to a)
        assert (1 / 3 - phi[0]) > (1 / 3 - phi[2])

    def test_reduction_capped_at_current_fraction(self):
        phi = np.zeros(2)
        out = [0, 1]
        phi[out] = [0.1, 0.9]
        delta = np.array([100.0, 1.0])
        apply_gamma_at_node(phi, 0.01, out, delta, None, eta=10.0, traffic_tol=1e-12)
        assert phi[0] == pytest.approx(0.0)
        assert phi[1] == pytest.approx(1.0)

    def test_idle_node_jumps_to_best(self):
        phi = np.zeros(3)
        out = [0, 1, 2]
        phi[out] = [0.6, 0.2, 0.2]
        delta = np.array([5.0, 1.0, 3.0])
        apply_gamma_at_node(phi, 0.0, out, delta, None, eta=0.04, traffic_tol=1e-12)
        np.testing.assert_allclose(phi[out], [0.0, 1.0, 0.0])

    def test_blocked_edges_stay_zero(self):
        phi = np.zeros(3)
        out = [0, 1, 2]
        phi[out] = [0.5, 0.5, 0.0]
        delta = np.array([5.0, 4.0, 0.1])  # blocked edge is 'cheapest'
        blocked = np.array([False, False, True])
        apply_gamma_at_node(phi, 1.0, out, delta, blocked, eta=0.1, traffic_tol=1e-12)
        assert phi[2] == 0.0
        assert phi[1] > 0.5  # mass went to the best *eligible* edge

    def test_small_eta_small_steps(self):
        phi_small = np.zeros(2)
        phi_big = np.zeros(2)
        out = [0, 1]
        for p in (phi_small, phi_big):
            p[out] = [0.5, 0.5]
        delta = np.array([2.0, 1.0])
        apply_gamma_at_node(phi_small, 1.0, out, delta, None, 0.01, 1e-12)
        apply_gamma_at_node(phi_big, 1.0, out, delta, None, 0.2, 1e-12)
        assert (0.5 - phi_small[0]) < (0.5 - phi_big[0])

    def test_renormalization_excludes_blocked_edges(self):
        """Regression: the drift renormalization used to rescale *all*
        out-edges, including blocked ones.  Eq. (14) freezes blocked edges at
        their current value, so a blocked edge carrying residual mass (e.g.
        a fraction just under the zero tolerance) must come out untouched
        and only the eligible fractions may absorb the correction."""
        residual = 4e-3
        phi = np.zeros(3)
        out = [0, 1, 2]
        # deliberately off the simplex so the renormalization fires
        phi[out] = [0.5, 0.49, residual]
        blocked = np.array([False, False, True])
        delta = np.array([5.0, 1.0, 0.5])
        apply_gamma_at_node(phi, 1.0, out, delta, blocked, eta=0.1, traffic_tol=1e-12)
        assert phi[2] == residual  # frozen bit-exactly
        # eligible mass renormalized to exactly the remaining budget
        assert phi[0] + phi[1] == pytest.approx(1.0 - residual, abs=1e-12)
        assert phi[out].sum() == pytest.approx(1.0, abs=1e-12)


class TestConvergence:
    def test_diamond_reaches_penalized_optimum(self, diamond_ext):
        result = GradientAlgorithm(
            diamond_ext, GradientConfig(eta=0.05, max_iterations=4000)
        ).run()
        lp = solve_lp(diamond_ext)
        assert result.converged
        # the barrier keeps headroom: expect >= 93% of the true optimum
        assert result.solution.utility >= 0.93 * lp.utility
        assert result.solution.utility <= lp.utility + 1e-6

    def test_unconstrained_instance_hits_exact_optimum(self, figure1_ext):
        result = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, max_iterations=4000)
        ).run()
        lp = solve_lp(figure1_ext)
        # figure-1 capacities don't bind; full admission is optimal
        assert result.solution.utility == pytest.approx(lp.utility, rel=1e-6)
        np.testing.assert_allclose(result.solution.admitted, figure1_ext.lam, rtol=1e-6)

    def test_cost_decreases_monotonically_for_small_eta(self, diamond_ext):
        config = GradientConfig(eta=0.01, max_iterations=600)
        result = GradientAlgorithm(diamond_ext, config).run()
        costs = result.costs
        assert np.all(np.diff(costs) <= 1e-9 * np.maximum(1.0, np.abs(costs[:-1])))

    def test_final_routing_is_valid_and_feasible(self, figure1_ext):
        result = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, max_iterations=3000)
        ).run()
        validate_routing(figure1_ext, result.solution.routing)
        report = feasibility_report(figure1_ext, result.solution.routing)
        assert report.feasible

    def test_admission_never_exceeds_offered(self, figure1_ext):
        result = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, max_iterations=500)
        ).run()
        for record in result.history:
            assert np.all(record.admitted <= figure1_ext.lam * (1 + 1e-9))
            assert np.all(record.admitted >= -1e-9)

    def test_utility_trajectory_reaches_plateau_monotonically(self, diamond_ext):
        result = GradientAlgorithm(
            diamond_ext, GradientConfig(eta=0.02, max_iterations=3000)
        ).run()
        utilities = result.utilities
        # paper: "the total throughput improves monotonically"
        slack = 1e-6 * max(1.0, float(np.max(utilities)))
        assert np.all(np.diff(utilities) >= -slack)

    def test_concave_utility_instance(self):
        net = diamond_network(utility=LogUtility(weight=10.0))
        ext = build_extended_network(net)
        result = GradientAlgorithm(
            ext, GradientConfig(eta=0.05, max_iterations=4000)
        ).run()
        assert result.solution.utility > 0
        assert result.solution.admitted[0] > 0

    def test_warm_start_from_lp_stays_near_optimal(self, diamond_ext):
        lp = solve_lp(diamond_ext, capacity_scale=0.9)
        routing = arc_flows_to_routing(diamond_ext, lp.extras["arc_flows"])
        validate_routing(diamond_ext, routing)
        config = GradientConfig(eta=0.02, max_iterations=800)
        result = GradientAlgorithm(diamond_ext, config).run(routing=routing)
        assert result.solution.utility >= 0.95 * lp.utility

    def test_without_blocking_still_converges_on_dags(self, diamond_ext):
        """Commodity subgraphs are DAGs, so blocking is a safety net, not a
        correctness requirement here."""
        result = GradientAlgorithm(
            diamond_ext,
            GradientConfig(eta=0.05, max_iterations=4000, use_blocking=False),
        ).run()
        lp = solve_lp(diamond_ext)
        assert result.solution.utility >= 0.93 * lp.utility


class TestRunMechanics:
    def test_history_records_and_callback(self, diamond_ext):
        seen = []
        config = GradientConfig(eta=0.05, max_iterations=50, record_every=10)
        GradientAlgorithm(diamond_ext, config).run(
            callback=lambda it, rec: seen.append(it)
        )
        assert seen[0] == 0
        assert all(it % 10 == 0 or it == 50 for it in seen)

    def test_step_returns_new_object(self, diamond_ext):
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05))
        routing = initial_routing(diamond_ext)
        stepped = algo.step(routing)
        assert stepped is not routing
        assert not np.array_equal(stepped.phi, routing.phi)

    def test_first_step_admits_traffic(self, diamond_ext):
        """From the shed-all start, the first Gamma application must start
        admitting (marginal utility 1 beats idle-network congestion ~0)."""
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05))
        stepped = algo.step(initial_routing(diamond_ext))
        view = diamond_ext.commodities[0]
        assert stepped.phi[0, view.input_edge] > 0

    def test_run_respects_max_iterations(self, diamond_ext):
        config = GradientConfig(eta=1e-6, max_iterations=7, tolerance=0.0, patience=10**9)
        result = GradientAlgorithm(diamond_ext, config).run()
        assert result.iterations == 7
        assert not result.converged

    def test_invalid_start_rejected(self, diamond_ext):
        from repro.core.routing import RoutingState
        from repro.exceptions import RoutingError

        bad = RoutingState(np.zeros_like(initial_routing(diamond_ext).phi))
        with pytest.raises(RoutingError):
            GradientAlgorithm(diamond_ext).run(routing=bad)

    def test_optimality_helper(self, diamond_ext):
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05, max_iterations=3000))
        result = algo.run()
        report = algo.optimality(result.solution.routing)
        assert report.sufficient_residual < 1e-3

    def test_optimality_accepts_cached_context(self, diamond_ext):
        algo = GradientAlgorithm(diamond_ext, GradientConfig(eta=0.05))
        routing = initial_routing(diamond_ext)
        context = algo.compute_context(routing)
        with_cache = algo.optimality(routing, context=context)
        without = algo.optimality(routing)
        assert with_cache.sufficient_residual == without.sufficient_residual
        assert with_cache.equal_residual == without.equal_residual


class TestVectorizedStep:
    """The batched step must be bit-identical to the scalar reference path
    (which is itself what the message-passing agents execute)."""

    @pytest.mark.parametrize("use_blocking", [True, False])
    def test_step_matches_reference_on_figure1(self, figure1_ext, use_blocking):
        algo = GradientAlgorithm(
            figure1_ext, GradientConfig(eta=0.05, use_blocking=use_blocking)
        )
        fast = initial_routing(figure1_ext)
        slow = initial_routing(figure1_ext)
        for _ in range(120):
            fast = algo.step(fast)
            slow = algo.step_reference(slow)
            assert fast.phi.tobytes() == slow.phi.tobytes()

    @pytest.mark.parametrize("net_seed", [2, 7, 11])
    def test_step_matches_reference_on_random_dags(self, net_seed):
        spec = RandomNetworkSpec(
            num_nodes=16,
            num_commodities=2,
            depth_range=(3, 4),
            layer_width_range=(2, 3),
        )
        ext = build_extended_network(random_stream_network(spec, seed=net_seed))
        algo = GradientAlgorithm(ext, GradientConfig(eta=0.04))
        fast = initial_routing(ext)
        slow = initial_routing(ext)
        for _ in range(80):
            fast = algo.step(fast)
            slow = algo.step_reference(slow)
            assert fast.phi.tobytes() == slow.phi.tobytes()

    def test_batch_kernel_matches_scalar_kernel(self, figure4_ext):
        """Drive the two kernels directly on identical random inputs."""
        ext = figure4_ext
        rng = np.random.default_rng(42)
        for j in range(ext.num_commodities):
            plan = ext.gamma_plans[j]
            if plan.nodes.size == 0:
                continue
            phi_batch = np.zeros(ext.num_edges)
            for node in plan.nodes:
                out = ext.commodity_out_edges[j][node]
                w = rng.random(len(out)) + 1e-9
                phi_batch[out] = w / w.sum()
            phi_scalar = phi_batch.copy()
            traffic_row = rng.random(ext.num_nodes) * 10.0
            traffic_row[plan.nodes[::3]] = 0.0  # exercise the idle branch
            delta = rng.random(ext.num_edges) * 5.0
            blocked = rng.random(ext.num_edges) < 0.15
            apply_gamma_batch(
                phi_batch, plan, traffic_row, delta, blocked, 0.08, 1e-12
            )
            for node in plan.nodes:
                apply_gamma_at_node(
                    phi_scalar,
                    traffic_row[node],
                    ext.commodity_out_edges[j][node],
                    delta,
                    blocked,
                    0.08,
                    1e-12,
                )
            assert phi_batch.tobytes() == phi_scalar.tobytes()


@st.composite
def gamma_cases(draw):
    """A synthetic Gamma plan plus kernel inputs that stress its edge cases.

    Rows are nodes with 2..20 out-edges (widths of 15 and up are the
    fan-out rows of the 1000-node ladder rung); deltas come from a small
    pool, so ties are common, and may be ``+inf``; blocked masks may cover
    a whole row; traffic may be zero (idle rows) or tiny.
    """
    widths = draw(st.lists(st.integers(2, 20), min_size=1, max_size=12))
    total = sum(widths)
    pool = draw(
        st.lists(
            st.one_of(
                st.floats(-2.0, 5.0, allow_nan=False, allow_infinity=False),
                st.just(np.inf),
            ),
            min_size=1,
            max_size=4,
        )
    )
    delta = np.array(
        draw(st.lists(st.sampled_from(pool), min_size=total, max_size=total))
    )
    phi = np.empty(total)
    blocked = np.zeros(total, dtype=bool)
    start = 0
    for width in widths:
        weights = np.array(
            draw(
                st.lists(
                    st.one_of(st.just(0.0), st.floats(1e-3, 1.0)),
                    min_size=width,
                    max_size=width,
                )
            )
        )
        if weights.sum() == 0.0:
            weights[draw(st.integers(0, width - 1))] = 1.0
        phi[start : start + width] = weights / weights.sum()
        mode = draw(st.sampled_from(["none", "zeros", "all"]))
        if mode == "zeros":
            # eq. (18) only ever blocks zero-phi edges
            blocked[start : start + width] = phi[start : start + width] == 0.0
        elif mode == "all":
            blocked[start : start + width] = True
        start += width
    traffic = np.array(
        draw(
            st.lists(
                st.sampled_from([0.0, 1e-13, 0.5, 3.0, 40.0]),
                min_size=len(widths),
                max_size=len(widths),
            )
        )
    )
    eta = draw(st.sampled_from([0.01, 0.08, 1.0]))
    use_blocking = draw(st.booleans())
    return widths, phi, delta, blocked if use_blocking else None, traffic, eta


class TestGammaKernelProperties:
    """The unpadded batch kernel vs the per-node kernel, byte for byte."""

    @given(gamma_cases())
    @settings(deadline=None)
    def test_batch_matches_per_node_kernel(self, case):
        widths, phi, delta, blocked, traffic, eta = case
        indptr = np.concatenate(([0], np.cumsum(widths))).astype(np.intp)
        plan = CommodityGammaPlan(
            nodes=np.arange(len(widths), dtype=np.intp),
            targets=np.arange(indptr[-1], dtype=np.intp),
            indptr=indptr,
        )
        phi_batch = phi.copy()
        phi_scalar = phi.copy()
        # an all-inf row forms inf - inf in both kernels
        with np.errstate(invalid="ignore"):
            apply_gamma_batch(
                phi_batch, plan, traffic, delta, blocked, eta, 1e-12
            )
            for node in range(len(widths)):
                out = list(range(indptr[node], indptr[node + 1]))
                apply_gamma_at_node(
                    phi_scalar, traffic[node], out, delta, blocked, eta, 1e-12
                )
        assert phi_batch.tobytes() == phi_scalar.tobytes()


class TestIterationCache:
    def test_flow_balance_solved_once_per_iteration(self, diamond_ext, monkeypatch):
        """The whole point of the IterationContext: an N-iteration run solves
        eq. (3) exactly N + 1 times (once per routing state, including the
        start), no matter how many consumers read the result."""
        import repro.core.context as context_mod
        import repro.core.routing as routing_mod
        import repro.core.solution as solution_mod

        calls = {"n": 0}
        real = routing_mod.solve_traffic

        def counting(ext, routing):
            calls["n"] += 1
            return real(ext, routing)

        monkeypatch.setattr(context_mod, "solve_traffic", counting)
        monkeypatch.setattr(solution_mod, "solve_traffic", counting)
        monkeypatch.setattr(routing_mod, "solve_traffic", counting)

        iterations = 9
        config = GradientConfig(
            eta=1e-6, max_iterations=iterations, tolerance=0.0, patience=10**9
        )
        result = GradientAlgorithm(diamond_ext, config).run()
        assert result.iterations == iterations
        assert calls["n"] == iterations + 1

    def test_record_handles_zero_capacity_node(self):
        """Regression: a zero-capacity node made the trajectory record
        divide by zero (``0/0 -> nan`` silently poisoned
        ``max_utilization``).  Capacities are validated positive at model
        build time but can be zeroed afterwards to model a drained host, so
        mutate a freshly built instance, not a shared fixture."""
        import warnings

        from repro.core.routing import uniform_routing

        ext = build_extended_network(diamond_network())
        algo = GradientAlgorithm(ext, GradientConfig(eta=0.01))
        idle_ctx = algo.compute_context(initial_routing(ext))
        busy_ctx = algo.compute_context(uniform_routing(ext))
        ext.capacity[ext.node_index("top")] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            idle_rec = algo._record(0, idle_ctx)
            busy_rec = algo._record(0, busy_ctx)
        # shed-everything routing leaves the drained node idle: no violation
        assert idle_rec.max_utilization == 0.0
        # uniform routing pushes flow through it: infinite, never nan
        assert busy_rec.max_utilization == np.inf
