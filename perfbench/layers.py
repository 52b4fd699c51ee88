"""The traced run: per-layer metrics from spans, plus tracing overhead.

Traced children -- solver children or a daemon -- do the same work as
untraced twins run right beside them; the per-layer table comes from the
traced children's spans, the overhead from comparing the two (traced ÷
untraced, so it stays positive when noise outweighs it).  End-to-end
numbers never come from here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, List, Tuple

import stats
from stats import Span

SERVE_LAYERS = {
    "batching.merge_ms": "batching.merge",
    "rebuild.overrides_ms": "rebuild.overrides",
    "delta.compile_ms": "delta.compile",
    "delta.apply_scalar_ms": "delta.apply_scalar",
    "delta.apply_structural_ms": "delta.apply_structural",
    "delta.carry_ms": "delta.carry",
    "gradient.refresh_ms": "gradient.refresh",
    "rebuild.shed_ms": "rebuild.shed",
    "backend.refine_ms": "backend.refine",
    "solution.build_ms": "solution.build",
    "validate.audit_ms": "validate.audit",
    "routing.feasibility_ms": "routing.feasibility",
}

# the layers of the solver's iteration (eqs. 3-5, 9-11/15, 18, 14-17)
SOLVE_LAYERS = {
    "routing.flow_ms": "routing.flow",
    "marginals.cost_ms": "marginals.cost",
    "marginals.deriv_ms": "marginals.deriv",
    "blocking.ms": "blocking",
    "gradient.gamma_ms": "gradient.gamma",
}

SETUP_LAYERS = {
    "transform.build_ms": "transform.build",
    "state.compile_ms": "state.compile",
    "session.warmup_ms": "session.warmup",
}


def load_spans(path: Path):
    doc = json.loads(path.read_text())
    spans = [
        Span(e["args"]["id"], e["args"]["parent"], e["name"],
             e["ts"] / 1e6, (e["ts"] + e["dur"]) / 1e6, e["args"]["batch"])
        for e in doc["traceEvents"]
    ]
    return spans, doc["perfbench"]


def _q(values: List[float], q: float) -> float:
    return stats.quantile(values, q).value if values else 0.0


def _print(metrics: Dict[str, tuple]) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:32s} {value:12.4f} {unit}", file=sys.stderr)


def traced_solve(workload, seed: int, seconds: float, tmp: Path):
    """Traced and untraced solver children in turn, for ``seconds`` (at
    least one pair); every metric is the median over its children."""
    import run

    ins = run.solve_inputs(workload, seed, tmp)
    spans_out = tmp / "solve-spans.json"

    def pair() -> Tuple[Dict[str, float], float, float]:
        traced_ms = run.solve_once(
            workload, ins, tmp / "phi.npy", spans=spans_out).iter_ms
        plain_ms = run.solve_once(workload, ins, tmp / "phi.npy").iter_ms
        spans, extra = load_spans(spans_out)
        own = stats.self_time_by_name(spans)
        child = {metric: 1e3 * own.get(name, 0.0)
                 for metric, name in {**SOLVE_LAYERS, **SETUP_LAYERS}.items()
                 if metric != "session.warmup_ms"}
        child["routing.flow.calls_per_iter"] = (
            extra["counts"].get("routing.flow.calls", 0) / workload.iterations)
        child["attribution.coverage.solve"] = stats.coverage(spans, "gradient.run")
        return child, traced_ms, plain_ms

    pairs = run.for_seconds(seconds, 1, pair)
    per_child = [child for child, _t, _p in pairs]
    traced_ms = [t for _c, t, _p in pairs]
    plain_ms = [p for _c, _t, p in pairs]
    m: Dict[str, tuple] = {}
    for metric in per_child[0]:
        unit = "ms" if metric.endswith("ms") else "ratio"
        m[metric] = (stats.median([c[metric] for c in per_child]), unit)
    m["trace.overhead.solve_iter"] = (
        stats.median(traced_ms) / stats.median(plain_ms), "ratio")
    _print(m)
    return m, 2 * len(per_child), 0


def traced_serve(workload, seed: int, seconds: float, tmp: Path):
    """One traced daemon and its untraced twin at the mid rate."""
    import run

    ins = run.make_inputs(workload, seed, seconds, tmp)
    plan = [(workload.mid, run.TRACE_SHARE * seconds)]
    serve_spans = tmp / "serve-spans.json"
    traced_serve = run.serve(ins.serve_model, ins.network, ins.stream, plan,
                             exact=True, spans=serve_spans)
    plain_serve = run.serve(ins.serve_model, ins.network, ins.stream, plan,
                            exact=True)
    traced_step, plain_step = traced_serve.steps[0], plain_serve.steps[0]

    sspans, sextra = load_spans(serve_spans)
    serve_self = stats.self_time_by_name(sspans)
    counts = sextra["counts"]
    batches = [s.duration * 1e3 for s in sspans if s.name == "session.batch"]
    returns = {int(k): v for k, v in sextra["batch_returns"].items()}
    respond = [
        (read_at - returns[seq]) * 1e3
        for _i, seq, read_at, _u in traced_step.reads if seq in returns
    ]
    deltas = counts.get("delta.scalar.count", 0) + counts.get(
        "delta.structural.count", 0)

    m: Dict[str, tuple] = {
        "server.queue_wait_ms.p50": (_q(sextra["queue_wait_ms"], 0.5), "ms"),
        "server.queue_wait_ms.p99": (_q(sextra["queue_wait_ms"], 0.99), "ms"),
        "session.batch_ms.p50": (_q(batches, 0.5), "ms"),
        "session.batch_ms.p99": (_q(batches, 0.99), "ms"),
        "session.batch_size.mean": (
            sum(sextra["batch_sizes"]) / max(1, len(sextra["batch_sizes"])),
            "count"),
        "session.batches": (len(batches), "count"),
        "session.respond_ms.p50": (_q(respond, 0.5), "ms"),
        "session.accept_ratio": (
            counts.get("session.accepted", 0)
            / max(1.0, counts.get("session.events", 0)), "ratio"),
    }
    for metric, name in SERVE_LAYERS.items():
        m[metric] = (1e3 * serve_self.get(name, 0.0), "ms")
    m["backend.refine.kernels_ms"] = (
        1e3 * sum(serve_self.get(n, 0.0) for n in SOLVE_LAYERS.values()), "ms")
    m["rebuild.overrides.calls"] = (
        counts.get("rebuild.overrides.calls", 0), "count")
    m["delta.scalar.count"] = (counts.get("delta.scalar.count", 0), "count")
    m["delta.structural.count"] = (
        counts.get("delta.structural.count", 0), "count")
    m["delta.events_per_delta"] = (
        counts.get("delta.events", 0) / max(1.0, deltas), "ratio")
    m["backend.refine.iterations"] = (
        counts.get("backend.refine.iterations", 0), "count")
    for metric, name in SETUP_LAYERS.items():
        m[metric] = (1e3 * serve_self.get(name, 0.0), "ms")
    m["attribution.coverage.serve"] = (
        stats.coverage(sspans, "session.batch"), "ratio")
    m["loadgen.late_ms.max"] = (
        max(traced_step.late_ms_max, plain_step.late_ms_max), "ms")
    m["loadgen.backlog.max"] = (
        max(traced_step.backlog_max, plain_step.backlog_max), "count")
    m["trace.overhead.serve_p50"] = (
        _q(traced_step.latencies_ms, 0.5)
        / _q(plain_step.latencies_ms, 0.5), "ratio")
    _print(m)
    attempted = traced_step.sent + plain_step.sent
    failed = traced_step.failed + plain_step.failed
    return m, attempted, failed
