"""Thread-parallel execution backend: one address space, zero serialization.

The process backend (:class:`~repro.parallel.backend.ParallelBackend`) pays
for its isolation twice per iteration: every dispatch crosses a pickle
boundary and every array crosses a shared-memory mapping.  For mid-sized
instances that overhead dwarfs the per-commodity compute -- the TAB-PARALLEL
regression this module fixes.  :class:`ThreadBackend` runs the *same*
row-block kernels on a :class:`~concurrent.futures.ThreadPoolExecutor`
instead: the workers share the master's arrays directly, so a dispatch is a
few-microsecond queue hop and nothing is ever copied or pickled.

Threads can parallelise this workload because the hot kernels spend their
time inside NumPy ufuncs and linear solves, which release the GIL on the
array sizes where parallelism is worth having in the first place (see
docs/parallelism.md for the crossover numbers).

The bit-identity contract is inherited unchanged:

* each worker thread runs the serial engine's CSR sweeps restricted to its
  contiguous commodity row-block of the shared
  :class:`~repro.core.state.ModelState`;
* every kernel reads and writes **only its own block's rows and cells**,
  so threads on disjoint shards share arrays without a single racing byte;
* the only cross-commodity coupling -- the usage reduce (eq. (4)) --
  happens on the master, summing per-shard partials in ascending shard
  order, so thread completion order cannot influence an output bit.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.core.context import IterationContext
from repro.core.gradient import GradientConfig
from repro.core.marginals import evaluate_cost, link_cost_derivative
from repro.core.routing import RoutingState, external_inputs
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork
from repro.exceptions import ParallelExecutionError
from repro.obs.instrumentation import NULL_INSTRUMENTATION
from repro.parallel.backend import ExecutionBackend, _split_shards
from repro.parallel.worker import gamma_rows

__all__ = ["ThreadBackend"]


class ThreadBackend(ExecutionBackend):
    """Thread-pool sharded execution of the gradient iteration.

    Parameters
    ----------
    workers:
        Worker thread count (default: ``os.cpu_count()``).  The effective
        pool size is capped at the commodity count -- no thread is started
        just to receive an empty shard.
    inject_fault:
        Test hook: the name of a dispatch phase (``"flow_solve"`` /
        ``"step"``) in which every worker raises, to exercise crash cleanup.
        Never set this outside tests.

    Use as a context manager (or call :meth:`close`) to join the worker
    threads deterministically; unlike the process backend there are no
    kernel resources to leak, so ``close()`` is hygiene, not safety.
    """

    name = "thread"

    def __init__(
        self,
        workers: Optional[int] = None,
        inject_fault: Optional[str] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self._inject_fault = inject_fault
        self._ext: Optional[ExtendedNetwork] = None
        self._config: Optional[GradientConfig] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._shards: List[Tuple[int, int]] = []
        # master-owned scratch the worker threads write their rows into
        self._traffic: Optional[np.ndarray] = None
        self._usage: Optional[np.ndarray] = None
        self._phi_next: Optional[np.ndarray] = None
        self._dadf: Optional[np.ndarray] = None
        self._loaded_for: Optional[RoutingState] = None
        # shards run the row-block CSR kernels of the shared ModelState
        self._state: Optional[ModelState] = None
        self._shard_index: Dict[int, int] = {}
        self._dadr: Optional[np.ndarray] = None
        self._delta: Optional[np.ndarray] = None
        self._blocked: Optional[np.ndarray] = None

    # -- lifecycle -----------------------------------------------------------------
    def bind(self, ext: ExtendedNetwork, config: GradientConfig) -> None:
        if ext is self._ext and config is self._config:
            return
        self._ext = ext
        self._config = config
        self._loaded_for = None
        self._phi_next = None  # shapes may have changed; reallocate lazily

    def refresh(self, applied: Any, instrumentation: Any = None) -> None:
        """Adopt the delta's epoch; the thread pool itself survives.

        Threads read ``self._ext`` on every task, so a refresh is one
        attribute swap -- no pickling, no republished segments.  Structural
        deltas invalidate the scratch shapes, which reallocate lazily.
        """
        ext = applied.ext
        structural = bool(getattr(applied, "structural", True))
        self._ext = ext
        self._loaded_for = None
        if structural:
            self._phi_next = None
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        inst.count("thread.refresh")

    def _ensure_started(self) -> None:
        ext = self._ext
        if ext is None:
            raise ParallelExecutionError(
                "ThreadBackend used before bind(); construct it via "
                "GradientAlgorithm(..., backend=...) or call bind(ext, config)"
            )
        shape_je = (ext.num_commodities, ext.num_edges)
        if self._phi_next is None or self._phi_next.shape != shape_je:
            self._phi_next = np.zeros(shape_je)
            self._traffic = np.zeros((ext.num_commodities, ext.num_nodes))
            self._shards = _split_shards(ext.num_commodities, self.workers)
            self._shard_index = {lo: k for k, (lo, _hi) in enumerate(self._shards)}
            # per-shard usage partials (summed in shard order on the master)
            # plus full-width dadr/delta/blocked scratch written block-wise
            self._state = ModelState.of(ext)
            self._usage = np.zeros((len(self._shards), ext.num_edges))
            self._dadr = np.zeros((ext.num_commodities, ext.num_nodes))
            self._delta = np.zeros(self._state.num_cells)
            self._blocked = np.zeros(self._state.num_cells, dtype=bool)
            for lo, hi in self._shards:
                # prebuild the block plans on the master so worker threads
                # never race the plan cache
                self._state.block(lo, hi)
            if self._pool is not None and self._pool._max_workers != len(self._shards):
                pool, self._pool = self._pool, None
                pool.shutdown(wait=True)
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=len(self._shards), thread_name_prefix="repro-shard"
            )

    def close(self) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)
        self._traffic = self._usage = self._phi_next = None
        self._dadf = None
        self._loaded_for = None
        self._state = None
        self._dadr = self._delta = self._blocked = None

    # -- dispatch ------------------------------------------------------------------
    def _run_shard(
        self,
        phase: str,
        worker_index: int,
        lo: int,
        hi: int,
        fn: Callable[..., None],
        *args: Any,
    ) -> Tuple[int, Dict[str, float]]:
        if self._inject_fault is not None and self._inject_fault == phase:
            raise RuntimeError(
                f"injected worker fault during {phase!r} (test hook)"
            )
        start = time.perf_counter()
        timings = fn(lo, hi, *args)
        if timings is None:
            timings = {phase: time.perf_counter() - start}
        return worker_index, timings

    def _dispatch(
        self, phase: str, fn: Callable[..., None], *args: Any
    ) -> List[Tuple[int, Dict[str, float]]]:
        assert self._pool is not None
        futures: List[Future] = [
            self._pool.submit(self._run_shard, phase, k, lo, hi, fn, *args)
            for k, (lo, hi) in enumerate(self._shards)
        ]
        results: List[Tuple[int, Dict[str, float]]] = []
        first_error: Optional[BaseException] = None
        for future in futures:
            try:
                results.append(future.result())
            except BaseException as exc:
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            # a partially written scratch row set describes no consistent
            # state; drop everything so the caller restarts cleanly
            self.close()
            raise ParallelExecutionError(
                f"thread worker failed during the {phase!r} phase: "
                f"{first_error!r} (the thread pool has been shut down)"
            ) from first_error
        return results

    def _observe_worker_timings(self, inst: Any, results: List[Any]) -> None:
        if not inst.enabled:
            return
        for worker_index, timings in results:
            for name, duration in timings.items():
                inst.phase_observation(
                    f"worker{worker_index}.{name}", duration, worker=worker_index
                )

    # -- shard bodies (run on worker threads; rows [lo, hi) only) --------------------
    def _forecast_shard(self, lo: int, hi: int, phi: np.ndarray) -> None:
        state = self._state
        t_flat = self._traffic.reshape(-1)
        phi_flat = phi.reshape(-1)
        state.solve_traffic_block(t_flat, phi_flat, lo, hi)
        # per-shard (E,) usage partial; the master sums partials in shard
        # order, which reproduces the full CSR row-sum association exactly
        self._usage[self._shard_index[lo]] = state.usage_partial_block(
            phi_flat, t_flat, lo, hi
        )

    def _step_shard(
        self, lo: int, hi: int, routing: RoutingState, eta: float
    ) -> Dict[str, float]:
        cfg = self._config
        self._phi_next[lo:hi] = routing.phi[lo:hi]
        # per-sub-kernel timings, same keys as the process worker's step
        # shard, so `profile` renders identical per-worker rows either way
        return gamma_rows(
            self._state,
            self._phi_next.reshape(-1),
            self._traffic.reshape(-1),
            self._dadf,
            self._dadr,
            self._delta,
            self._blocked,
            eta,
            cfg.use_blocking,
            cfg.traffic_tol,
            lo,
            hi,
        )

    # -- the two iteration halves ----------------------------------------------------
    def build_context(
        self,
        routing: RoutingState,
        instrumentation: Any = None,
        with_derivatives: bool = True,
    ) -> IterationContext:
        """Threaded flow solve + master-side reduce and cost evaluation."""
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self._ensure_started()
        ext = self._ext
        cfg = self._config
        with inst.phase("flow_solve"):
            # seed external inputs once; shards overwrite their rows'
            # interior nodes via the forward CSR sweep
            np.copyto(self._traffic, external_inputs(ext))
            results = self._dispatch("flow_solve", self._forecast_shard, routing.phi)
            # deterministic fixed-order reduce of the per-shard partials in
            # ascending-commodity shard order: the serial resource_usage's
            # association, whatever order the threads completed in
            edge_usage = np.add.reduce(self._usage, axis=0)
            node_usage = ModelState.of(ext).node_usage(edge_usage)
            traffic = self._traffic.copy()
            breakdown = evaluate_cost(
                ext, routing, cfg.cost_model, traffic, usage=(edge_usage, node_usage)
            )
            dadf = link_cost_derivative(ext, cfg.cost_model, edge_usage, node_usage)
        inst.count("flow_solves")
        if inst.enabled:
            inst.gauge("parallel.workers", float(len(self._shards)))
        self._observe_worker_timings(inst, results)
        self._dadf = dadf
        self._loaded_for = routing
        return IterationContext(
            routing=routing,
            traffic=traffic,
            edge_usage=edge_usage,
            node_usage=node_usage,
            breakdown=breakdown,
            dadf=dadf if with_derivatives else None,
            dadr=None,
            delta=None,
        )

    def step(
        self,
        routing: RoutingState,
        eta: Optional[float] = None,
        context: Optional[IterationContext] = None,
        instrumentation: Any = None,
    ) -> RoutingState:
        """One application of ``Gamma``, sharded across the worker threads."""
        inst = instrumentation if instrumentation is not None else NULL_INSTRUMENTATION
        self._ensure_started()
        cfg = self._config
        if eta is None:
            eta = cfg.eta
        if context is None or self._loaded_for is not routing:
            # the scratch traffic/dadf describe some other routing state;
            # refresh them for this one
            self.build_context(routing, instrumentation=instrumentation)
        with inst.phase("thread_step"):
            results = self._dispatch("step", self._step_shard, routing, eta)
            new_phi = self._phi_next.copy()
        self._observe_worker_timings(inst, results)
        return RoutingState(new_phi)
