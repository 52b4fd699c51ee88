"""The repo benchmark: solver time-to-95% and open-loop admission latency.

    python3 perfbench/run.py --workload solve-1000 --seed 29 --seconds 20 --trace 0

Each run starts the system under test in child processes -- the solver
child (``perfbench/solve_child.py``) for the ``solve-*`` workloads, the
serve daemon (``python -m repro serve <network.json>``, CLI defaults) for
the ``serve-*`` ones -- hands them generated inputs only, measures them
from outside, checks their outputs, and prints one JSON line last.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` does the work under the tracing launcher
(``perfbench/traced.py``) and reports the per-layer metrics.  See
``perfbench/NOTES.md`` for why each workload exists and what each layer
metric should move.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Callable, ClassVar, Dict, List, Optional, Sequence, Tuple, TypeVar,
)

import children
import loadgen
import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


@dataclass(frozen=True)
class SolveWorkload:
    """An offline gradient solve of a scale-ladder rung (see NOTES.md)."""

    name: str
    nodes: int
    commodities: int
    iterations: int  # past the 95% crossing for every seed's demands

    default_seed: ClassVar[int] = 29  # the scale ladder's pinned seed


@dataclass(frozen=True)
class ServeWorkload:
    """A request mix offered to the daemon.  Not in ``BENCHMARK.json``
    while the daemon's refine step can overshoot a capacity (NOTES.md)."""

    name: str
    weights: str  # the request mix: an attribute of inputs.py
    mid: float  # requests/s, well below the slowest host's saturation

    default_seed: ClassVar[int] = 21  # serve-mix-120's pinned catalog seed

    @property
    def high(self) -> float:
        return self.mid * 1.5


WORKLOADS: Dict[str, object] = {
    w.name: w
    for w in (
        SolveWorkload("solve-1000", 1000, 16, 1400),
        SolveWorkload("solve-250", 250, 4, 900),
        ServeWorkload("serve-mix", "SCALAR_WEIGHTS", 100.0),
        ServeWorkload("serve-sessions", "SESSION_WEIGHTS", 45.0),
    )
}

# the rate ladder: steps of sqrt(1.5) from two rungs below mid, so that
# high = mid * 1.5 is two rungs above it and the top rung is 5 x high
LADDER_RATIO = 1.5 ** 0.5
LADDER_RUNGS = 13
MID_RUNG, HIGH_RUNG = 2, 4

UTILITY_TARGET = 0.95
UTILITY_SAMPLES = 8  # published epochs per round compared with their LP
MIN_SOLVES = 3  # solver children per run, however short --seconds is

# The mid and high rates are measured in ROUNDS rounds, each a fresh daemon,
# so the metrics pool separate stretches of a host whose speed drifts.
# Shares of --seconds:
ROUNDS = 2
MID_SHARE, HIGH_SHARE, RUNG_SHARE, TRACE_SHARE = 0.40, 0.25, 0.10, 0.25
MIN_SAMPLES = 1000  # per rate and run: p99 keeps ten samples beyond it


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)


class CheckFailed(Exception):
    """An output check failed: the run reports no result."""


def round_seconds(share: float, seconds: float, rate: float) -> float:
    """One round's step at ``rate``: its share of the run, and never fewer
    than its part of ``MIN_SAMPLES`` requests."""
    requests = max(share * seconds * rate, MIN_SAMPLES) / ROUNDS
    return (math.ceil(requests) + 0.5) / rate


# -- the serve side -------------------------------------------------------------


@dataclass
class Session:
    """One daemon's life: the steps it served, in order."""

    steps: list  # loadgen.StepResult, one per (rate, seconds) of the plan
    setup_s: float
    utility_fracs: List[float]  # published utility / LP optimum, sampled
    vm_hwm_mb: float


def serve(
    model: Path, network, stream, plan: Sequence[Tuple[float, float]],
    exact: bool, spans: Optional[Path] = None,
) -> Session:
    """A fresh daemon serves the stream's prefix at each ``(rate, seconds)``
    of ``plan`` in turn, then the output checks run.

    ``exact`` also requires every event to be admitted and the daemon's
    final model to equal the offline replay of the events it was sent.
    """

    daemon = children.start_daemon(model, traced=spans)
    try:
        conn = loadgen.Connection("127.0.0.1", daemon.port)
        try:
            steps, offset = [], 0
            for rate, seconds in plan:
                steps.append(loadgen.run_step(
                    conn, stream.payloads[offset:], rate, seconds
                ))
                offset += steps[-1].sent
            vm_hwm_mb = children.vm_hwm_mb(daemon.proc.pid)
            fracs = _check_daemon(conn, steps, network, stream, exact)
            conn.request("shutdown")
        finally:
            conn.close()
        code = daemon.wait(timeout=60)
    except BaseException:
        daemon.kill()
        raise
    if code != 0:
        raise CheckFailed(f"daemon exited with {code}: {daemon.stderr_text()}")
    return Session(steps, daemon.setup_s, fracs, vm_hwm_mb)


def _check_daemon(conn, steps, network, stream, exact: bool) -> List[float]:
    """Output checks on a live daemon after its steps (never timed).

    With ``exact``, returns published utility ÷ LP optimum for batches
    spread evenly over the steps, each against the model its epoch held.
    """
    import inputs
    from repro.io import network_from_dict

    for step in steps:
        if step.protocol_errors:
            raise CheckFailed(f"protocol errors: {step.protocol_errors[:3]}")
        if step.max_staleness > 1:
            raise CheckFailed(f"max_staleness {step.max_staleness} > 1")
    stats_doc = conn.request("stats")
    if stats_doc.get("stats", {}).get("validation_failures") != 0:
        raise CheckFailed(f"validation failures: {stats_doc['stats']}")
    if not (stats_doc.get("validated") and stats_doc.get("healthy")):
        raise CheckFailed(f"daemon not validated and healthy: {stats_doc}")
    if not exact:
        return []
    # a batch's responses share its publish seq; its epoch holds the model
    # after the batch's last event
    batch_end: Dict[int, Tuple[int, float]] = {}
    offset = 0
    for step in steps:
        if step.failed or step.rejects:
            raise CheckFailed(
                f"{step.failed} failed / {step.rejects} rejected at "
                f"{step.rate:g}/s; every event of the stream is valid"
            )
        for index, seq, _read_at, utility in step.reads:
            batch_end[seq] = (offset + index, utility)
        offset += step.sent
    ends = sorted(batch_end.values())
    picked = ends[:: max(1, len(ends) // UTILITY_SAMPLES)]
    expected, models = inputs.replay(
        network, stream.events[:offset], [i for i, _u in picked]
    )
    served = network_from_dict(conn.request("hello")["model"])
    if not inputs.same_model(served, expected):
        raise CheckFailed("daemon model differs from the offline replay")
    return [u / inputs.lp_optimum(models[i]) for i, u in picked]


def judge(step):
    """The ladder rule for one step (see ``stats.judge_step``)."""

    verdict = stats.judge_step(
        step.rate, step.latencies_ms, step.failed, step.late_ms_max,
        step.depth_samples, step.sent / step.rate,
    )
    print(
        f"  {step.rate:7.1f}/s: {len(step.latencies_ms)} ok, {step.failed} "
        f"failed, p99 {verdict.p99_ms:.1f} ms, late {step.late_ms_max:.1f} "
        f"ms, backlog max {step.backlog_max} slope {verdict.slope:+.1f}/s "
        f"-> {verdict.reason}",
        file=sys.stderr,
    )
    return verdict


def ladder(workload: ServeWorkload) -> List[float]:
    return [workload.mid * LADDER_RATIO ** (k - MID_RUNG)
            for k in range(LADDER_RUNGS)]


def climb(workload: ServeWorkload, model: Path, network, stream, seconds: float,
          mid_passed: bool, high_passed: bool) -> Tuple[float, List[float]]:
    """Bisect the ladder around the measured mid and high rates.

    Returns the answered rate of the highest probe that sustained the
    limits -- 0.0 if none did, so mid or high is the best rung -- and the
    set-up times of the probe daemons.  A probe whose generator fell
    behind twice counts as not sustained.
    """

    rates = ladder(workload)
    answered: Dict[int, float] = {}
    setups: List[float] = []

    def passes(rung: int) -> bool:
        for _attempt in range(2):
            session = serve(model, network, stream,
                            [(rates[rung], RUNG_SHARE * seconds)], exact=False)
            setups.append(session.setup_s)
            step = session.steps[0]
            verdict = judge(step)
            if verdict.valid:
                break
        answered[rung] = step.throughput
        return verdict.passed

    if high_passed:
        best = stats.highest_passing(HIGH_RUNG, LADDER_RUNGS, passes)
    elif mid_passed:
        best = stats.highest_passing(MID_RUNG, HIGH_RUNG, passes)
    else:
        best = stats.highest_passing(-1, MID_RUNG, passes)
        if best < 0:
            raise CheckFailed("no rung of the ladder sustained its limits")
    return answered.get(best, 0.0), setups


# -- the solver side ------------------------------------------------------------


@dataclass
class SolveRun:
    setup_s: float
    time_to_95_s: float
    iters_to_95: int
    iter_ms: float  # wall time per iteration over the whole budget
    final_utility: float
    vm_hwm_mb: float


def _crossing(trajectory, optimum: float) -> Tuple[int, float]:
    for iteration, seconds, utility in trajectory:
        if utility >= UTILITY_TARGET * optimum:
            return iteration, seconds
    raise CheckFailed(
        f"solve never reached {UTILITY_TARGET:.0%} of the LP optimum"
    )


def _audit_solve(ext, phi_out: Path, reported: float, optimum: float) -> None:
    """Rebuild the child's final solution and audit it."""
    import numpy as np

    from repro.core.gradient import GradientConfig
    from repro.core.routing import RoutingState
    from repro.core.solution import build_solution
    from repro.validate import InvariantChecker

    solution = build_solution(
        ext, RoutingState(np.load(phi_out)), GradientConfig().cost_model,
        method="gradient",
    )
    checks = ("routing", "conservation", "capacity", "admission", "dummy")
    report = InvariantChecker(ext, checks=checks).check_solution(solution)
    if not report.passed:
        raise CheckFailed(f"solve result failed {report.failed_names}")
    if abs(solution.utility - reported) > 1e-6 * max(1.0, abs(reported)):
        raise CheckFailed("solver's reported utility does not match its routing")
    if solution.utility < UTILITY_TARGET * optimum:
        raise CheckFailed(
            f"solve utility {solution.utility:.4f} < {UTILITY_TARGET} × LP"
        )


T = TypeVar("T")


def for_seconds(seconds: float, at_least: int, once: Callable[[], T]) -> List[T]:
    """Call ``once`` at least ``at_least`` times, and again while one more
    call, as long as the median one so far, still ends within ``seconds``
    of the first call's start."""
    results: List[T] = []
    took: List[float] = []
    started = time.monotonic()
    while True:
        began = time.monotonic()
        results.append(once())
        took.append(time.monotonic() - began)
        if (len(results) >= at_least
                and time.monotonic() - started + stats.median(took) > seconds):
            return results


@dataclass
class SolveInputs:
    ext: object  # the extended network the audit rebuilds solutions on
    model: Path
    optimum: float  # LP utility, never timed


def solve_inputs(workload: SolveWorkload, seed: int, tmp: Path) -> SolveInputs:
    import inputs
    from repro.core.transform import build_extended_network

    network = inputs.solve_network(workload.nodes, workload.commodities, seed)
    return SolveInputs(
        ext=build_extended_network(network),
        model=inputs.write_network(network, tmp / "solve.json"),
        optimum=inputs.lp_optimum(network),
    )


def solve_once(workload: SolveWorkload, ins: SolveInputs, phi_out: Path,
               spans: Optional[Path] = None) -> SolveRun:
    """One solver child: set-up, the timed solve, then the audit."""

    child = children.start_solver(ins.model, workload.iterations, phi_out,
                                  traced=spans)
    try:
        line = child.read_line(timeout=150)
        code = child.wait(timeout=60)
    except BaseException:
        child.kill()
        raise
    if code != 0:
        raise CheckFailed(f"solver exited with {code}")
    doc = json.loads(line)
    iteration, seconds = _crossing(doc["trajectory"], ins.optimum)
    _audit_solve(ins.ext, phi_out, doc["final_utility"], ins.optimum)
    # the mean over the budget: single iterations' times are bimodal on a
    # shared host, so their median flips between the modes from run to run
    (first, start, _u), (last, end, _v) = doc["trajectory"][0], doc["trajectory"][-1]
    iter_ms = 1e3 * (end - start) / (last - first)
    return SolveRun(child.setup_s, seconds, iteration, iter_ms,
                    doc["final_utility"], doc["vm_hwm_mb"])


def solve_end_to_end(workload: SolveWorkload, seed: int, seconds: float,
                     tmp: Path):
    """Solver children one after another for ``seconds`` (at least
    ``MIN_SOLVES``); every timing is the median over the children."""

    ins = solve_inputs(workload, seed, tmp)

    def once() -> SolveRun:
        run = solve_once(workload, ins, tmp / "phi.npy")
        print(f"  solve: set-up {run.setup_s:.3f} s, 95% at iteration "
              f"{run.iters_to_95} after {run.time_to_95_s:.3f} s, "
              f"{run.iter_ms:.3f} ms/iteration", file=sys.stderr)
        return run

    runs = for_seconds(seconds, MIN_SOLVES, once)
    # the solver is deterministic: every child must end at the same point
    if len({(r.iters_to_95, r.final_utility) for r in runs}) != 1:
        raise CheckFailed("solver children of one input disagree")
    metrics = {
        "setup_s": (stats.median([r.setup_s for r in runs]), "s"),
        "time_to_95_s": (stats.median([r.time_to_95_s for r in runs]), "s"),
        "iters_to_95": (runs[0].iters_to_95, "count"),
        "iter_ms": (stats.median([r.iter_ms for r in runs]), "ms"),
        "utility_frac": (runs[0].final_utility / ins.optimum, "ratio"),
        "peak_rss_mb": (max(r.vm_hwm_mb for r in runs), "MB"),
    }
    return metrics, len(runs), 0


# -- the serve side: runs ----------------------------------------------------------


@dataclass
class Inputs:
    network: object  # the served StreamNetwork
    serve_model: Path
    stream: object  # inputs.RequestStream


def make_inputs(workload: ServeWorkload, seed: int, seconds: float,
                tmp: Path) -> Inputs:
    import inputs

    network = inputs.serve_network()
    top = ladder(workload)[-1]
    count = int(max(
        workload.mid * round_seconds(MID_SHARE, seconds, workload.mid)
        + workload.high * round_seconds(HIGH_SHARE, seconds, workload.high),
        top * RUNG_SHARE * seconds,
        workload.mid * TRACE_SHARE * seconds,
    )) + 1
    return Inputs(
        network=network,
        serve_model=inputs.write_network(network, tmp / "serve.json"),
        stream=inputs.churn_stream(
            network, getattr(inputs, workload.weights), count, seed
        ),
    )


def serve_end_to_end(workload: ServeWorkload, seed: int, seconds: float,
                     tmp: Path):
    """Every serve metric, from untraced daemons only."""

    ins = make_inputs(workload, seed, seconds, tmp)
    plan = [(rate, round_seconds(share, seconds, rate))
            for rate, share in ((workload.mid, MID_SHARE),
                                (workload.high, HIGH_SHARE))]
    sessions: List[Session] = []
    verdicts: List[list] = []  # per round: [mid, high]
    for _round in range(ROUNDS):
        for _attempt in range(2):  # a round the generator fell behind in
            session = serve(ins.serve_model, ins.network, ins.stream, plan,
                            exact=True)
            judged = [judge(step) for step in session.steps]
            if all(v.valid for v in judged):
                break
        else:
            raise CheckFailed("the generator fell behind its schedule twice")
        sessions.append(session)
        verdicts.append(judged)

    metrics: Dict[str, Tuple[float, str]] = {}
    for index, tag in enumerate(("mid", "high")):
        latencies = [x for s in sessions for x in s.steps[index].latencies_ms]
        for q in (0.5, 0.99):
            quant = stats.quantile(latencies, q)
            name = f"p{round(q * 100)}_ms.{tag}"
            print(f"  {name} = {quant.value:.2f} ms from {quant.samples} "
                  f"samples, {quant.beyond} beyond", file=sys.stderr)
            if quant.beyond < 10:
                raise CheckFailed(f"{name} has only {quant.beyond} beyond")
            metrics[name] = (quant.value, "ms")
    # a rate passes when at least half of its rounds do
    mid_passed, high_passed = (
        2 * sum(v[i].passed for v in verdicts) >= ROUNDS for i in (0, 1)
    )
    sustained, probe_setups = climb(
        workload, ins.serve_model, ins.network, ins.stream, seconds,
        mid_passed, high_passed,
    )
    if not sustained:  # the best rung was mid or high: its slowest round
        index = 1 if high_passed else 0
        sustained = min(s.steps[index].throughput for s in sessions)

    attempted = sum(st.sent for s in sessions for st in s.steps)
    failed = sum(st.failed for s in sessions for st in s.steps)
    metrics.update({
        "setup_s": (stats.median([s.setup_s for s in sessions] + probe_setups),
                    "s"),
        "sustained_ev_s": (sustained, "ev/s"),
        "ok_frac": (1.0 - failed / attempted, "ratio"),
        "utility_frac": (
            stats.median([u for s in sessions for u in s.utility_fracs]),
            "ratio"),
        "peak_rss_mb": (max(s.vm_hwm_mb for s in sessions), "MB"),
    })
    return metrics, attempted, failed


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the catalog pin, "
                        "29 for solve-*, 21 for serve-*)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # SIGTERM unwinds like an error, so every child is killed on the way out
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (SRC / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {SRC / 'repro'} is missing")
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    workdir = ROOT / ".perfbench_tmp"
    workdir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=workdir))
    try:
        if args.trace:
            import layers

            run = (layers.traced_solve if isinstance(workload, SolveWorkload)
                   else layers.traced_serve)
        else:
            run = (solve_end_to_end if isinstance(workload, SolveWorkload)
                   else serve_end_to_end)
        metrics, attempted, failed = run(workload, seed, args.seconds, tmp)
    except CheckFailed as exc:
        _fail(f"output check failed: {exc}")
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            workdir.rmdir()
        except OSError:
            pass
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
