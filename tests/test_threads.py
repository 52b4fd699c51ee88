"""Tests for the thread-parallel execution backend (:mod:`repro.parallel.threads`).

The contract is the same strict one the process backend carries: iterates
**bit-identical** to the serial engine for any worker count, unchanged
flow-solve counts, clean :class:`ParallelExecutionError` on worker crashes.
Threads add two worries of their own, pinned here: data races on the shared
scratch arrays (a 20-run same-seed stress must hash identically every time)
and pool lifecycle across rebinds/refreshes.
"""

from __future__ import annotations

import hashlib

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
from repro.core.routing import initial_routing
from repro.parallel import SerialBackend, ThreadBackend
from repro.validate import DifferentialOracle
from repro.scenarios import random_stream_network
from repro.scenarios import RandomNetworkSpec


def _random_ext(seed: int, num_nodes: int = 18, num_commodities: int = 3):
    spec = RandomNetworkSpec(
        num_nodes=num_nodes,
        num_commodities=num_commodities,
        depth_range=(3, 4),
        layer_width_range=(2, 3),
    )
    return build_extended_network(random_stream_network(spec, seed=seed))


def _trajectory(ext, config, backend=None, iterations=20):
    algo = GradientAlgorithm(ext, config, backend=backend)
    routing = initial_routing(ext)
    states = [routing.phi.copy()]
    context = algo.compute_context(routing)
    for _ in range(iterations):
        routing = algo.step(routing, context=context)
        states.append(routing.phi.copy())
        context = algo.compute_context(routing)
    return states


def _run_digest(ext, config, backend) -> str:
    """One full run() hashed: every recorded cost + the final phi bytes."""
    result = GradientAlgorithm(ext, config, backend=backend).run()
    digest = hashlib.sha256()
    for record in result.history:
        digest.update(repr(record.cost).encode())
    digest.update(np.ascontiguousarray(result.solution.routing.phi).tobytes())
    return digest.hexdigest()


class TestThreadBitIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("seed", [3, 11])
    def test_trajectory_bit_identical_to_serial(self, workers, seed):
        ext = _random_ext(seed)
        config = GradientConfig(eta=0.04)
        serial = _trajectory(ext, config)
        with ThreadBackend(workers=workers) as backend:
            threaded = _trajectory(ext, config, backend=backend)
        assert len(serial) == len(threaded)
        for iteration, (a, b) in enumerate(zip(serial, threaded)):
            assert a.tobytes() == b.tobytes(), f"phi diverged at iteration {iteration}"

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_oracle_compare_backends(self, workers):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=3), seed=7
        )
        oracle = DifferentialOracle()
        report = oracle.compare_backends(
            net,
            workers=workers,
            backend="thread",
            config=GradientConfig(eta=0.04, max_iterations=30),
        )
        assert report.passed, report.summary()

    def test_run_loop_bit_identical(self):
        ext = _random_ext(seed=5)
        config = GradientConfig(eta=0.04, max_iterations=40, record_every=5)
        r_serial = GradientAlgorithm(ext, config).run()
        with ThreadBackend(workers=2) as backend:
            r_thread = GradientAlgorithm(ext, config, backend=backend).run()
        assert r_serial.iterations == r_thread.iterations
        assert [h.cost for h in r_serial.history] == [
            h.cost for h in r_thread.history
        ]
        assert np.array_equal(
            r_serial.solution.routing.phi, r_thread.solution.routing.phi
        )
        assert r_serial.solution.utility == r_thread.solution.utility

    def test_no_blocking_config(self):
        ext = _random_ext(seed=9)
        config = GradientConfig(eta=0.04, use_blocking=False)
        serial = _trajectory(ext, config, iterations=10)
        with ThreadBackend(workers=2) as backend:
            threaded = _trajectory(ext, config, backend=backend, iterations=10)
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestRaceStress:
    def test_twenty_same_seed_runs_hash_identically(self):
        """Race detector: 20 repeat runs over a live thread pool must be
        byte-for-byte the same run.  Any unsynchronised write to the shared
        scratch (or any order-dependent reduce) shows up as a hash split."""
        ext = _random_ext(seed=13)
        config = GradientConfig(eta=0.04, max_iterations=15, record_every=5)
        reference = _run_digest(ext, config, SerialBackend())
        with ThreadBackend(workers=4) as backend:
            digests = {_run_digest(ext, config, backend) for _ in range(20)}
        assert digests == {reference}


class TestThreadObservability:
    def test_per_worker_phase_timings_recorded(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        inst = Instrumentation()
        solve(
            net,
            config=GradientConfig(eta=0.04, max_iterations=5),
            instrumentation=inst,
            backend="thread",
            workers=2,
        )
        histograms = inst.registry.as_dict()["histograms"]
        for worker in (0, 1):
            # same per-worker phase rows as the process backend, so
            # `profile` output is backend-agnostic
            for phase in ("flow_solve", "marginals", "blocking", "gamma"):
                assert f"phase.worker{worker}.{phase}.seconds" in histograms
        assert inst.registry.gauge("parallel.workers").value == 2.0

    def test_flow_solve_counter_invariant(self):
        net = random_stream_network(
            RandomNetworkSpec(num_nodes=16, num_commodities=2), seed=8
        )
        config = GradientConfig(eta=0.04, max_iterations=20)
        inst_serial, inst_thread = Instrumentation(), Instrumentation()
        solve(net, config=config, instrumentation=inst_serial)
        solve(net, config=config, instrumentation=inst_thread, backend="thread", workers=2)
        assert (
            inst_serial.registry.counter("flow_solves").value
            == inst_thread.registry.counter("flow_solves").value
        )


class TestThreadCrashSafety:
    @pytest.mark.parametrize("phase", ["flow_solve", "step"])
    def test_worker_fault_surfaces_clean_error(self, phase):
        ext = _random_ext(seed=3)
        config = GradientConfig(eta=0.04, max_iterations=5)
        backend = ThreadBackend(workers=2, inject_fault=phase)
        try:
            with pytest.raises(ParallelExecutionError, match=phase):
                GradientAlgorithm(ext, config, backend=backend).run()
        finally:
            backend.close()

    def test_fault_tears_down_pool(self):
        ext = _random_ext(seed=3)
        config = GradientConfig(eta=0.04, max_iterations=5)
        backend = ThreadBackend(workers=2, inject_fault="flow_solve")
        with pytest.raises(ParallelExecutionError):
            GradientAlgorithm(ext, config, backend=backend).run()
        assert backend._pool is None

    def test_unbound_backend_raises(self):
        backend = ThreadBackend(workers=2)
        with pytest.raises(ParallelExecutionError, match="bind"):
            backend.build_context(None)


class TestThreadLifecycle:
    def test_close_is_idempotent_and_reusable(self):
        ext = _random_ext(seed=4)
        config = GradientConfig(eta=0.04)
        backend = ThreadBackend(workers=2)
        a = _trajectory(ext, config, backend=backend, iterations=5)
        backend.close()
        backend.close()  # idempotent
        b = _trajectory(ext, config, backend=backend, iterations=5)  # restarts
        backend.close()
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_rebind_to_new_network(self):
        config = GradientConfig(eta=0.04)
        with ThreadBackend(workers=2) as backend:
            first = _trajectory(_random_ext(seed=4), config, backend=backend, iterations=5)
            ext_b = _random_ext(seed=21, num_nodes=14, num_commodities=2)
            second = _trajectory(ext_b, config, backend=backend, iterations=5)
            serial_b = _trajectory(ext_b, config, iterations=5)
        assert first is not None
        for x, y in zip(second, serial_b):
            assert np.array_equal(x, y)

    def test_pool_clamped_to_commodity_count(self):
        ext = _random_ext(seed=2, num_nodes=16, num_commodities=3)
        config = GradientConfig(eta=0.04)
        with ThreadBackend(workers=8) as backend:
            serial = _trajectory(ext, config, iterations=5)
            threaded = _trajectory(ext, config, backend=backend, iterations=5)
            assert len(backend._shards) == 3
            assert backend._pool._max_workers == 3
        for a, b in zip(serial, threaded):
            assert np.array_equal(a, b)


class TestThreadOrchestrator:
    def test_orchestrator_with_thread_backend_matches_serial(self):
        from repro.online import DemandChange, OnlineOrchestrator
        from repro.scenarios import figure1_network

        net = figure1_network()
        events = [DemandChange(at_iteration=60, commodity="S1", new_rate=25.0)]
        serial = OnlineOrchestrator(
            net, events, GradientConfig(eta=0.05), incremental=True
        ).run(120)
        threaded = OnlineOrchestrator(
            net, events, GradientConfig(eta=0.05), incremental=True,
            backend="thread", workers=2,
        ).run(120)
        assert threaded.final_utility == serial.final_utility
        assert [r.utility for r in threaded.records] == [
            r.utility for r in serial.records
        ]
