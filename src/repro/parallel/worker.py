"""Worker-process side of the process-parallel gradient backend.

Each worker owns a contiguous *shard* of commodities.  The pool initializer
receives the pickled :class:`~repro.core.transform.ExtendedNetwork` exactly
once (the static graph arrays never cross the pickle boundary again) and
attaches to the shared-memory arrays published by the master; after that,
per-iteration task descriptors are a few bytes each.

Three task phases exist; the first two mirror the halves of a serial
iteration, the third is the bounded-staleness batch:

``forecast``
    Solve the flow balance (eq. (3)) for the owned commodity block and
    write its traffic rows and its ``(E,)`` resource-usage partial into
    shared memory.  The master then sums the partials in ascending shard
    order -- contiguous sub-sums of the serial CSR row sum, so the same
    bits -- to obtain ``edge_usage``/``node_usage``.

``step``
    Given the master-computed ``dadf`` (eq. (11)), run the marginal-cost
    wave (eq. (9), storing the edge marginals of eq. (15)), the blocked
    sets (eq. (18)) and the update map ``Gamma`` (eqs. (14)-(17)) for the
    owned block, writing the new routing rows into the ``phi_next`` buffer.

``batch``
    Run several full iterations privately over the owned shard with the
    global ``dadf`` frozen at its dispatch value (the bounded-staleness
    relaxed mode of ``ParallelBackend(staleness=K)``); local traffic rows
    are re-solved every inner iteration, so only the *global* coupling is
    stale, exactly as the paper's Section-5 asynchronous protocol allows.

Every phase runs the row-block kernels of the shared
:class:`~repro.core.state.ModelState` -- the serial engine's CSR sweeps
restricted to the shard's contiguous commodity block -- which is what makes
the parallel iterates bit-identical to serial ones.
"""

from __future__ import annotations

import atexit
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.core.delta import ScalarPatch, apply_scalar_patch
from repro.core.gradient import apply_gamma_batch
from repro.core.routing import external_inputs_rows
from repro.core.state import ModelState
from repro.core.transform import ExtendedNetwork
from repro.parallel.shm import ArraySpec, attach_arrays

__all__ = ["init_worker", "run_shard", "gamma_rows"]

# Process-global worker state, set once by the pool initializer.
_EXT: Optional[ExtendedNetwork] = None
_ARRAYS: Dict[str, np.ndarray] = {}
_BLOCKS: List[Any] = []
_FAULT: Optional[str] = None
_BARRIER: Optional[Any] = None
# private per-worker scratch for the step/batch bodies, keyed by shape so
# structural refreshes reallocate lazily
_SCRATCH: Dict[str, np.ndarray] = {}

# A refresh task must reach *every* worker exactly once; workers that
# finished theirs block on the barrier until the stragglers arrive.  The
# timeout only matters when a sibling dies mid-refresh -- it turns a
# would-be deadlock into a BrokenBarrierError the master can report.
_REFRESH_BARRIER_TIMEOUT = 60.0


def _close_shared_memory() -> None:
    global _ARRAYS, _BLOCKS
    _ARRAYS = {}
    for block in _BLOCKS:
        try:
            block.close()
        except Exception:
            pass
    _BLOCKS = []


def init_worker(
    ext: ExtendedNetwork,
    specs: ArraySpec,
    fault: Optional[str],
    barrier: Optional[Any] = None,
) -> None:
    """Pool initializer: receive the graph once, attach the shared arrays."""
    global _EXT, _ARRAYS, _BLOCKS, _FAULT, _BARRIER
    _EXT = ext
    _ARRAYS, _BLOCKS = attach_arrays(specs)
    _FAULT = fault
    _BARRIER = barrier
    # build the shared ModelState eagerly so iteration-time tasks never pay
    # (or re-time) its construction
    ModelState.of(ext)
    atexit.register(_close_shared_memory)


def _refresh_worker(payload: Tuple[str, Any, Optional[ArraySpec], int]) -> None:
    """Apply one epoch advance in this worker, then rendezvous.

    ``payload`` is ``(kind, data, specs, epoch)``: ``kind == "patch"``
    applies a :class:`~repro.core.delta.ScalarPatch` to the worker's own
    network copy; ``kind == "ext"`` replaces it with the freshly pickled
    successor (its plans already built by the master).  When ``specs`` is
    given the shared-memory layout changed: drop every old mapping and
    re-attach -- unchanged segments resolve to the same blocks, replaced
    ones to their successors.  The closing barrier guarantees exactly-once
    delivery: no worker can pick up a second refresh task while a sibling
    still hasn't run its first.
    """
    global _EXT, _ARRAYS, _BLOCKS
    assert _EXT is not None, "worker used before init_worker ran"
    kind, data, specs, epoch = payload
    if kind == "patch":
        patch: ScalarPatch = data
        apply_scalar_patch(_EXT, patch)
    else:
        _EXT = data
    if _EXT.epoch != epoch:
        raise RuntimeError(
            f"worker epoch diverged: have {_EXT.epoch}, master at {epoch}"
        )
    if specs is not None:
        _close_shared_memory()
        _ARRAYS, _BLOCKS = attach_arrays(specs)
    if _BARRIER is not None:
        _BARRIER.wait(timeout=_REFRESH_BARRIER_TIMEOUT)


def _scratch(name: str, shape: Tuple[int, ...], dtype=float) -> np.ndarray:
    """Private per-worker scratch array, reallocated when shapes change."""
    array = _SCRATCH.get(name)
    if array is None or array.shape != shape:
        array = _SCRATCH[name] = np.zeros(shape, dtype=dtype)
    return array


def gamma_rows(
    state: ModelState,
    phi_flat: np.ndarray,
    t_flat: np.ndarray,
    dadf: np.ndarray,
    dadr: np.ndarray,
    delta: np.ndarray,
    blocked: np.ndarray,
    eta: float,
    use_blocking: bool,
    traffic_tol: float,
    lo: int,
    hi: int,
) -> Dict[str, float]:
    """One application of ``Gamma`` to commodities ``[lo, hi)``, in place.

    The serial step's three phases restricted to a row-block: the
    marginal-cost wave (which stores the block's cells of the cell-space
    ``delta``), the blocked sets and ``Gamma`` over the block's plan.
    ``dadr`` (``(J, V)``), ``delta`` and ``blocked`` (``(P,)``) are
    scratch of which only the block's rows and cells are touched, so
    shards may share them.  Returns per-phase wall-clock seconds.
    """
    clock = time.perf_counter
    start = clock()
    dadr[lo:hi] = 0.0
    dadr_flat = dadr.reshape(-1)
    state.marginal_costs_block(dadr_flat, phi_flat, dadf, lo, hi, delta)
    marginals_done = clock()
    blocked_cells: Optional[np.ndarray] = None
    if use_blocking and state.blocked_sets_block(
        blocked, phi_flat, t_flat, dadr_flat, delta, eta, lo, hi
    ):
        blocked_cells = blocked
    blocking_done = clock()
    plan = state.block(lo, hi).gamma_plan
    if plan is not None:
        apply_gamma_batch(
            phi_flat, plan, t_flat, delta, blocked_cells, eta, traffic_tol
        )
    return {
        "marginals": marginals_done - start,
        "blocking": blocking_done - marginals_done if use_blocking else 0.0,
        "gamma": clock() - blocking_done,
    }


def _rows_scratch(state: ModelState) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    return (
        _scratch("dadr", (state.num_commodities, state.num_nodes)),
        _scratch("delta", (state.num_cells,)),
        _scratch("blocked", (state.num_cells,), dtype=bool),
    )


def _forecast_shard(lo: int, hi: int, shard: int) -> Dict[str, float]:
    assert _EXT is not None, "worker used before init_worker ran"
    ext = _EXT
    phi_flat = _ARRAYS["phi"].reshape(-1)
    traffic = _ARRAYS["traffic"]
    start = time.perf_counter()
    state = ModelState.of(ext)
    traffic[lo:hi] = external_inputs_rows(ext, lo, hi)
    state.solve_traffic_block(traffic.reshape(-1), phi_flat, lo, hi)
    # per-shard (E,) usage partial in shm row `shard`; the master sums
    # partials in shard order, which reproduces the serial CSR row-sum
    # association exactly
    _ARRAYS["usage"][shard] = state.usage_partial_block(
        phi_flat, traffic.reshape(-1), lo, hi
    )
    return {"flow_solve": time.perf_counter() - start}


def _step_shard(
    lo: int, hi: int, eta: float, use_blocking: bool, traffic_tol: float
) -> Dict[str, float]:
    """``Gamma`` over the shard: ``phi`` rows copied into ``phi_next`` and
    updated there (the serial engine's updated copy); ``dadr``/``delta``/
    ``blocked`` live in private per-worker scratch."""
    assert _EXT is not None, "worker used before init_worker ran"
    state = ModelState.of(_EXT)
    phi_next = _ARRAYS["phi_next"]
    phi_next[lo:hi] = _ARRAYS["phi"][lo:hi]
    return gamma_rows(
        state,
        phi_next.reshape(-1),
        _ARRAYS["traffic"].reshape(-1),
        _ARRAYS["dadf"],
        *_rows_scratch(state),
        eta,
        use_blocking,
        traffic_tol,
        lo,
        hi,
    )


def _batch_shard(
    lo: int,
    hi: int,
    shard: int,
    iterations: int,
    eta: float,
    use_blocking: bool,
    traffic_tol: float,
) -> Dict[str, float]:
    """Run ``iterations`` private iterations over this shard's commodities.

    The bounded-staleness batch body: ``dadf`` stays frozen at its
    batch-start value for every inner iteration (that is the whole point --
    one round-trip buys ``iterations`` steps), while ``Gamma`` applies in
    place on the shard's shm ``phi`` rows and their traffic is re-solved
    after every application, so local state is always fresh.  Every read
    and write stays inside this shard's rows -- siblings running
    concurrently never observe (or miss) a byte of ours -- and the master
    only reads after all shards have returned.  The usage partial is
    published once, over the batch-final rows.
    """
    assert _EXT is not None, "worker used before init_worker ran"
    ext = _EXT
    state = ModelState.of(ext)
    phi = _ARRAYS["phi"]
    phi_flat = phi.reshape(-1)
    traffic = _ARRAYS["traffic"]
    t_flat = traffic.reshape(-1)
    scratch = _rows_scratch(state)
    start = time.perf_counter()
    for _ in range(iterations):
        gamma_rows(
            state, phi_flat, t_flat, _ARRAYS["dadf"], *scratch, eta,
            use_blocking, traffic_tol, lo, hi,
        )
        traffic[lo:hi] = external_inputs_rows(ext, lo, hi)
        state.solve_traffic_block(t_flat, phi_flat, lo, hi)
    _ARRAYS["usage"][shard] = state.usage_partial_block(phi_flat, t_flat, lo, hi)
    _ARRAYS["phi_next"][lo:hi] = phi[lo:hi]
    return {"batch": time.perf_counter() - start}


def run_shard(phase: str, lo: int, hi: int, *args: Any) -> Tuple[int, Dict[str, float]]:
    """Task entry point: run one phase over commodities ``[lo, hi)``.

    Returns ``(lo, timings)`` so the master can attribute the per-phase
    wall-clock to the shard's logical worker in the instrumentation.
    """
    if _FAULT is not None and _FAULT == phase:
        raise RuntimeError(
            f"injected worker fault during {phase!r} (test hook)"
        )
    if phase == "forecast":
        (shard,) = args
        return lo, _forecast_shard(lo, hi, shard)
    if phase == "step":
        eta, use_blocking, traffic_tol = args
        return lo, _step_shard(lo, hi, eta, use_blocking, traffic_tol)
    if phase == "batch":
        shard, iterations, eta, use_blocking, traffic_tol = args
        return lo, _batch_shard(
            lo, hi, shard, iterations, eta, use_blocking, traffic_tol
        )
    if phase == "refresh":
        start = time.perf_counter()
        _refresh_worker(args[0])
        return lo, {"refresh": time.perf_counter() - start}
    raise ValueError(f"unknown worker phase {phase!r}")
