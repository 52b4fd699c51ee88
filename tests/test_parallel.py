"""Tests for the process-parallel execution backend (:mod:`repro.parallel`).

The contract under test is strict: a :class:`ParallelBackend` must produce
**bit-identical** iterates to the serial engine -- not "close", equal -- for
any worker count, must not change the flow-solve count (the instrumentation
invariance the serial engine already pins), and must surface worker crashes
as a clean :class:`repro.exceptions.ParallelExecutionError` instead of a
hang or a wedged pool.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import (
    GradientAlgorithm,
    GradientConfig,
    Instrumentation,
    ParallelExecutionError,
    build_extended_network,
    solve,
)
from repro.core.routing import initial_routing, solve_traffic
from repro.parallel import (
    ParallelBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)
from repro.parallel.backend import REPRO_BACKEND_ENV, _split_shards
from repro.scenarios import random_stream_network
from repro.scenarios import RandomNetworkSpec

ITERATIONS = 25


def _random_ext(seed: int, num_nodes: int = 18, num_commodities: int = 3):
    spec = RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=num_commodities,
        depth_range=(3, 4),
        layer_width_range=(2, 3),
    )
    return build_extended_network(random_stream_network(spec, seed=seed))


def _trajectory(ext, config, backend=None, iterations=ITERATIONS):
    """The full phi trajectory of a run (every iterate, not just records)."""
    algo = GradientAlgorithm(ext, config, backend=backend)
    routing = initial_routing(ext)
    states = [routing.phi.copy()]
    context = algo.compute_context(routing)
    for _ in range(iterations):
        routing = algo.step(routing, context=context)
        states.append(routing.phi.copy())
        context = algo.compute_context(routing)
    return states


class TestBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_trajectory_bit_identical_to_serial(self, workers, seed):
        ext = _random_ext(seed)
        config = GradientConfig(eta=0.04)
        serial = _trajectory(ext, config)
        with ParallelBackend(workers=workers) as backend:
            parallel = _trajectory(ext, config, backend=backend)
        assert len(serial) == len(parallel)
        for iteration, (a, b) in enumerate(zip(serial, parallel)):
            assert a.tobytes() == b.tobytes(), f"phi diverged at iteration {iteration}"

    def test_run_loop_bit_identical(self):
        ext = _random_ext(seed=5)
        config = GradientConfig(eta=0.04, max_iterations=40, record_every=5)
        r_serial = GradientAlgorithm(ext, config).run()
        with ParallelBackend(workers=2) as backend:
            r_parallel = GradientAlgorithm(ext, config, backend=backend).run()
        assert r_serial.iterations == r_parallel.iterations
        assert r_serial.converged == r_parallel.converged
        assert [h.cost for h in r_serial.history] == [
            h.cost for h in r_parallel.history
        ]
        assert np.array_equal(
            r_serial.solution.routing.phi, r_parallel.solution.routing.phi
        )
        assert r_serial.solution.utility == r_parallel.solution.utility

    def test_no_blocking_config(self):
        ext = _random_ext(seed=9)
        config = GradientConfig(eta=0.04, use_blocking=False)
        serial = _trajectory(ext, config, iterations=10)
        with ParallelBackend(workers=2) as backend:
            parallel = _trajectory(ext, config, backend=backend, iterations=10)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_single_commodity_more_workers_than_commodities(self):
        ext = _random_ext(seed=2, num_nodes=12, num_commodities=1)
        config = GradientConfig(eta=0.04)
        serial = _trajectory(ext, config, iterations=10)
        with ParallelBackend(workers=4) as backend:
            parallel = _trajectory(ext, config, backend=backend, iterations=10)
        for a, b in zip(serial, parallel):
            assert np.array_equal(a, b)

    def test_parallel_context_matches_serial_flow_solve(self):
        ext = _random_ext(seed=13)
        config = GradientConfig(eta=0.04)
        routing = initial_routing(ext)
        serial_ctx = GradientAlgorithm(ext, config).compute_context(routing)
        with ParallelBackend(workers=2) as backend:
            backend.bind(ext, config)
            parallel_ctx = backend.build_context(routing)
        assert np.array_equal(serial_ctx.traffic, parallel_ctx.traffic)
        assert np.array_equal(serial_ctx.edge_usage, parallel_ctx.edge_usage)
        assert np.array_equal(serial_ctx.node_usage, parallel_ctx.node_usage)
        assert np.array_equal(serial_ctx.dadf, parallel_ctx.dadf)
        assert serial_ctx.cost == parallel_ctx.cost


class TestSolveIntegration:
    def test_solve_workers_bit_identical(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=4
        )
        config = GradientConfig(eta=0.04, max_iterations=30)
        s_serial = solve(net, config=config)
        s_parallel = solve(net, config=config, workers=2)
        assert np.array_equal(s_serial.routing.phi, s_parallel.routing.phi)
        assert s_serial.utility == s_parallel.utility

    def test_solve_distributed_workers(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=14, num_commodities=2), seed=6
        )
        config = GradientConfig(eta=0.04, max_iterations=5)
        r_serial = solve(net, method="distributed", config=config, full_result=True)
        r_parallel = solve(
            net, method="distributed", config=config, full_result=True, workers=2
        )
        assert np.array_equal(
            r_serial.solution.routing.phi, r_parallel.solution.routing.phi
        )
        assert [h.cost for h in r_serial.history] == [
            h.cost for h in r_parallel.history
        ]

    @pytest.mark.parametrize("method", ["optimal", "backpressure"])
    def test_solve_rejects_workers_for_other_methods(self, method):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=14, num_commodities=2), seed=6
        )
        with pytest.raises(TypeError, match="workers"):
            solve(net, method=method, workers=2)

    def test_flow_solve_counter_invariant(self):
        """A parallel run performs exactly as many flow solves as a serial one."""
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        config = GradientConfig(eta=0.04, max_iterations=20)
        inst_serial, inst_parallel = Instrumentation(), Instrumentation()
        solve(net, config=config, instrumentation=inst_serial)
        solve(net, config=config, instrumentation=inst_parallel, workers=2)
        serial_solves = inst_serial.registry.counter("flow_solves").value
        parallel_solves = inst_parallel.registry.counter("flow_solves").value
        assert serial_solves == parallel_solves
        assert serial_solves > 0

    def test_per_worker_phase_timings_recorded(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        inst = Instrumentation()
        solve(
            net,
            config=GradientConfig(eta=0.04, max_iterations=5),
            instrumentation=inst,
            workers=2,
        )
        histograms = inst.registry.as_dict()["histograms"]
        for worker in (0, 1):
            for phase in ("flow_solve", "marginals", "blocking", "gamma"):
                assert f"phase.worker{worker}.{phase}.seconds" in histograms


class TestCrashSafety:
    @pytest.mark.parametrize("phase", ["forecast", "step"])
    def test_worker_fault_surfaces_clean_error(self, phase):
        ext = _random_ext(seed=3)
        config = GradientConfig(eta=0.04, max_iterations=5)
        backend = ParallelBackend(workers=2, inject_fault=phase)
        try:
            with pytest.raises(ParallelExecutionError, match=phase):
                GradientAlgorithm(ext, config, backend=backend).run()
        finally:
            backend.close()

    def test_fault_tears_down_pool_and_shared_memory(self):
        ext = _random_ext(seed=3)
        config = GradientConfig(eta=0.04, max_iterations=5)
        backend = ParallelBackend(workers=2, inject_fault="forecast")
        with pytest.raises(ParallelExecutionError):
            GradientAlgorithm(ext, config, backend=backend).run()
        assert backend._pool is None
        assert backend._shm is None

    def test_unbound_backend_raises(self):
        backend = ParallelBackend(workers=2)
        with pytest.raises(ParallelExecutionError, match="bind"):
            backend.build_context(None)


class TestBackendLifecycle:
    def test_close_is_idempotent_and_reusable(self):
        ext = _random_ext(seed=7)
        config = GradientConfig(eta=0.04)
        backend = ParallelBackend(workers=2)
        backend.bind(ext, config)
        routing = initial_routing(ext)
        first = backend.build_context(routing).traffic
        backend.close()
        backend.close()  # idempotent
        # the pool restarts lazily after close
        again = backend.build_context(routing).traffic
        assert np.array_equal(first, again)
        backend.close()

    def test_rebind_to_new_network(self):
        config = GradientConfig(eta=0.04)
        ext_a, ext_b = _random_ext(seed=1), _random_ext(seed=2, num_nodes=14)
        with ParallelBackend(workers=2) as backend:
            backend.bind(ext_a, config)
            routing_a = initial_routing(ext_a)
            got_a = backend.build_context(routing_a).traffic
            assert np.array_equal(got_a, solve_traffic(ext_a, routing_a))
            backend.bind(ext_b, config)
            routing_b = initial_routing(ext_b)
            got_b = backend.build_context(routing_b).traffic
            assert np.array_equal(got_b, solve_traffic(ext_b, routing_b))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            ParallelBackend(workers=0)

    def test_resolve_backend(self, monkeypatch):
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(), SerialBackend)
        backend = resolve_backend(workers=3)
        assert isinstance(backend, ParallelBackend)
        assert backend.workers == 3
        explicit = SerialBackend()
        assert resolve_backend(backend=explicit) is explicit
        with pytest.raises(ValueError):
            resolve_backend(backend=explicit, workers=2)

    def test_resolve_backend_one_worker_is_serial(self, monkeypatch):
        """A pool of one is pure overhead: workers=1 means the serial engine."""
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(workers=1), SerialBackend)
        assert isinstance(resolve_backend(backend="thread", workers=1), SerialBackend)
        assert isinstance(resolve_backend(backend="process", workers=1), SerialBackend)

    def test_resolve_backend_names(self, monkeypatch):
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        assert isinstance(resolve_backend(backend="serial"), SerialBackend)
        thread = resolve_backend(backend="thread", workers=2)
        assert isinstance(thread, ThreadBackend) and thread.workers == 2
        process = resolve_backend(backend="process", workers=2)
        assert isinstance(process, ParallelBackend) and process.workers == 2
        stale = resolve_backend(workers=4, staleness=3)
        assert isinstance(stale, ParallelBackend) and stale.staleness == 3
        with pytest.raises(ValueError):
            resolve_backend(backend="bogus")
        with pytest.raises(ValueError):
            resolve_backend(backend="serial", workers=4)
        with pytest.raises(ValueError):
            resolve_backend(backend="thread", workers=2, staleness=1)
        with pytest.raises(ValueError):
            resolve_backend(staleness=2)  # needs the process backend
        with pytest.raises(ValueError):
            resolve_backend(workers=2, staleness=-1)

    def test_resolve_backend_auto(self, monkeypatch):
        """Auto picks serial whenever one effective worker is all there is."""
        monkeypatch.delenv(REPRO_BACKEND_ENV, raising=False)
        ext = _random_ext(seed=1)
        resolved = resolve_backend(workers="auto", ext=ext)
        # small instance (or a single-CPU host): must not pay any pool
        from repro.parallel.backend import AUTO_THREAD_MIN_CELLS, available_cpus

        cells = ext.num_commodities * (ext.num_edges + ext.num_nodes)
        if available_cpus() == 1 or cells < AUTO_THREAD_MIN_CELLS:
            assert isinstance(resolved, SerialBackend)
        resolved.close()
        # without size information auto never picks the process pool
        if available_cpus() > 1:
            anonymous = resolve_backend(workers="auto")
            assert not isinstance(anonymous, ParallelBackend)
            anonymous.close()

    def test_resolve_backend_env_default(self, monkeypatch):
        monkeypatch.setenv(REPRO_BACKEND_ENV, "thread")
        resolved = resolve_backend()
        assert isinstance(resolved, ThreadBackend)
        resolved.close()
        # explicit arguments always beat the environment
        assert isinstance(resolve_backend(backend="serial"), SerialBackend)
        monkeypatch.setenv(REPRO_BACKEND_ENV, "bogus")
        with pytest.raises(ValueError):
            resolve_backend()

    def test_pool_clamped_to_commodity_count(self):
        """No worker process is started just to receive empty shards."""
        ext = _random_ext(seed=5, num_commodities=3)
        with ParallelBackend(workers=8) as backend:
            backend.bind(ext, GradientConfig(eta=0.04))
            backend.build_context(initial_routing(ext))
            assert backend._pool_size == 3
            assert len(backend._shards) == 3
            assert backend._pool._max_workers == 3

    def test_split_shards(self):
        assert _split_shards(5, 2) == [(0, 3), (3, 5)]
        assert _split_shards(3, 8) == [(0, 1), (1, 2), (2, 3)]
        assert _split_shards(6, 3) == [(0, 2), (2, 4), (4, 6)]
        shards = _split_shards(7, 3)
        covered = [j for lo, hi in shards for j in range(lo, hi)]
        assert covered == list(range(7))


class TestStaleness:
    """The bounded-staleness batched-dispatch contract of ParallelBackend."""

    def test_staleness_zero_is_bit_identical(self):
        """staleness=0 keeps the synchronous schedule: same bits as serial."""
        ext = _random_ext(seed=5)
        config = GradientConfig(eta=0.04, max_iterations=40, record_every=5)
        r_serial = GradientAlgorithm(ext, config).run()
        with ParallelBackend(workers=2, staleness=0) as backend:
            r_stale = GradientAlgorithm(ext, config, backend=backend).run()
        assert r_serial.iterations == r_stale.iterations
        assert [h.cost for h in r_serial.history] == [
            h.cost for h in r_stale.history
        ]
        assert np.array_equal(
            r_serial.solution.routing.phi, r_stale.solution.routing.phi
        )

    def test_staleness_within_documented_drift_bound(self):
        """staleness>0 relaxes bit-identity but not the drift bound."""
        from repro.validate import (
            STALENESS_DRIFT_RTOL,
            AlgorithmSpec,
            DifferentialOracle,
        )

        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=4
        )
        config = GradientConfig(eta=0.04, max_iterations=60, record_every=10)
        oracle = DifferentialOracle(utility_rtol=STALENESS_DRIFT_RTOL)
        report = oracle.compare(
            net,
            AlgorithmSpec(config=config, label="serial"),
            AlgorithmSpec(config=config, workers=2, staleness=4),
        )
        assert report.passed, report.summary()

    @pytest.mark.parametrize("staleness", [1, 4])
    def test_barrier_knife_edge_stays_within_drift_bound(self, staleness):
        """Regression: near the capacity barrier a batch on frozen dadf can
        overshoot into the penalty wall -- and the accumulated drift can flip
        a discrete blocked-set decision, after which even the exact full-eta
        step ascends.  Unguarded, this instance drifted ~40% from serial.
        The monotonicity guard must reject the blown-up batches (visible in
        parallel.batch_rejected) and the eta-backoff redo must keep the
        final utility inside the documented bound."""
        from repro.validate import STALENESS_DRIFT_RTOL

        net = random_stream_network(
            RandomNetworkSpec(num_nodes=20, num_commodities=3), seed=7
        )
        config = GradientConfig(eta=0.04, max_iterations=120, record_every=10)
        serial = solve(net, config=config, full_result=True)
        inst = Instrumentation()
        stale = solve(
            net, config=config, workers=2, staleness=staleness,
            full_result=True, instrumentation=inst,
        )
        drift = abs(stale.final_utility - serial.final_utility) / abs(
            serial.final_utility
        )
        assert drift <= STALENESS_DRIFT_RTOL, drift
        counters = inst.registry.as_dict()["counters"]
        assert counters.get("parallel.batch_rejected", 0) > 0
        # rejected batches are redone synchronously: one logical flow solve
        # per iteration either way (backtracking trials count separately)
        assert counters["flow_solves"] == config.max_iterations + 1

    def test_staleness_preserves_record_cadence(self):
        """Batches never cross a record boundary: the trajectory keeps its
        exact record_every sampling, relaxed mode or not."""
        ext = _random_ext(seed=7)
        config = GradientConfig(eta=0.04, max_iterations=40, record_every=5)
        r_serial = GradientAlgorithm(ext, config).run()
        with ParallelBackend(workers=2, staleness=3) as backend:
            r_stale = GradientAlgorithm(ext, config, backend=backend).run()
        assert [h.iteration for h in r_stale.history] == [
            h.iteration for h in r_serial.history
        ]

    def test_staleness_flow_solve_count_invariant(self):
        """Batched dispatch still performs one flow solve per iteration."""
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        config = GradientConfig(
            eta=0.04, max_iterations=20, record_every=5, tolerance=0.0
        )
        inst_serial, inst_stale = Instrumentation(), Instrumentation()
        solve(net, config=config, instrumentation=inst_serial)
        solve(net, config=config, instrumentation=inst_stale, workers=2, staleness=4)
        serial_solves = inst_serial.registry.counter("flow_solves").value
        stale_solves = inst_stale.registry.counter("flow_solves").value
        assert serial_solves == stale_solves
        assert inst_stale.registry.counter("parallel.batches").value > 0

    def test_invalid_staleness(self):
        with pytest.raises(ValueError):
            ParallelBackend(workers=2, staleness=-1)
        with pytest.raises(ValueError):
            ParallelBackend(workers=2, staleness="2")

    def test_solve_staleness_requires_gradient_method(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=14, num_commodities=2), seed=6
        )
        with pytest.raises(TypeError, match="staleness"):
            solve(net, method="distributed", workers=2, staleness=2)

    def test_batch_worker_fault_surfaces_clean_error(self):
        ext = _random_ext(seed=3)
        config = GradientConfig(eta=0.04, max_iterations=10, record_every=5)
        backend = ParallelBackend(workers=2, staleness=4, inject_fault="batch")
        try:
            with pytest.raises(ParallelExecutionError, match="batch"):
                GradientAlgorithm(ext, config, backend=backend).run()
        finally:
            backend.close()


class TestResourceHygiene:
    """No leaked pools or shared-memory segments at interpreter exit."""

    def test_no_resource_tracker_leak_warnings(self):
        """A clean run, a crashed run, and an unclosed backend must all exit
        without resource_tracker leak warnings (the shm atexit safety net
        plus solve()'s context-managed backend lifecycle)."""
        script = textwrap.dedent(
            """
            from repro import (
                GradientAlgorithm,
                GradientConfig,
                ParallelExecutionError,
                build_extended_network,
                solve,
            )
            from repro.core.routing import initial_routing
            from repro.parallel import ParallelBackend
            from repro.scenarios import random_stream_network
            from repro.scenarios import RandomNetworkSpec

            net = random_stream_network(
                RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
            )
            config = GradientConfig(eta=0.04, max_iterations=5)
            solve(net, config=config, workers=2)  # clean path

            ext = build_extended_network(net)
            crashing = ParallelBackend(workers=2, inject_fault="step")
            try:
                GradientAlgorithm(ext, config, backend=crashing).run()
            except ParallelExecutionError:
                pass  # the crash path tears pool + segments down

            leaky = ParallelBackend(workers=2)
            leaky.bind(ext, config)
            leaky.build_context(initial_routing(ext))
            # never closed: the atexit safety net must unlink the segments
            print("SUBPROCESS-OK")
            """
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "SUBPROCESS-OK" in proc.stdout
        for marker in ("resource_tracker", "leaked", "KeyError"):
            assert marker not in proc.stderr, proc.stderr
