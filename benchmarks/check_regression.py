#!/usr/bin/env python
"""Benchmark regression gate: compare fresh BENCH_*.json against baselines.

CI's smoke runs produce fresh ``benchmarks/results/smoke/BENCH_*.json``
documents (the ``repro.metrics/1`` schema); this script compares them against
the committed ``benchmarks/baselines/`` copies and fails only on structural
regressions a shared runner can reliably detect:

* a fresh document or a baseline counter/gauge/histogram going missing,
* an *invariant* (iteration counts, solve-call counters, histogram sample
  counts -- anything that is a deterministic property of the algorithm, not
  of the clock) drifting by more than ``--tolerance`` in either direction.

Wall-clock quantities are deliberately **not** gated: shared CI runners are
noisy-neighbour machines, so every metric whose name mentions ``seconds`` or
``us_per`` is reported but never failed on.  Dedicated-host timing
enforcement lives in the benches themselves (their smoke-mode env vars
disable it in CI, see ITERCORE_SMOKE / CHURN_SMOKE).

*Speedup ratios are the exception.*  A ``speedup.*`` gauge is dimensionless
-- both sides of the ratio ran on the same machine seconds apart, so
noisy-neighbour drift largely cancels -- and a fast path that silently
went 10x slower than its reference is exactly the regression this suite
exists to catch.  Speedup gauges are therefore gated with their own
generous ``--speedup-tolerance`` (default 3x either way) instead of being
exempt.

Usage::

    python benchmarks/check_regression.py \
        --results benchmarks/results/smoke --baselines benchmarks/baselines
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List

GATED_DOCUMENTS = [
    "BENCH_ITERCORE.json",
    "BENCH_CHURN.json",
    "BENCH_SCALE.json",
    "BENCH_SERVE.json",
    "BENCH_ASYNC.json",
    "BENCH_PLACEMENT.json",
]

# substrings marking wall-clock metrics: reported, never gated
TIMING_MARKERS = ("seconds", "us_per")


def _is_timing(name: str) -> bool:
    return any(marker in name for marker in TIMING_MARKERS)


def _is_speedup(name: str) -> bool:
    """Dimensionless ratio gauges: gated, generously.

    ``speedup.*`` (fast-path/reference ratios) and ``slope.*`` (the scale
    ladder's log-log time-vs-work-cells exponent) are both ratios of
    same-machine timings, so noisy-neighbour drift cancels; neither may
    hide behind the wall-clock exemption -- a slope creeping back to 1.0
    is the per-commodity dispatch handicap returning.  ``serve.*`` gauges
    (the serving bench's events/sec, latency quantiles, batch shape) join
    them: each is a whole-run aggregate of one machine's clock, so the
    generous gate catches a daemon going 10x slower without flaking on
    runner noise.
    """
    return (
        name.startswith("speedup")
        or name.startswith("slope")
        or name.startswith("serve.")
    )


def _ratio_ok(fresh: float, base: float, tolerance: float) -> bool:
    """Two invariants agree if neither exceeds the other by > tolerance x."""
    if base == 0.0 or fresh == 0.0:
        return base == fresh
    ratio = fresh / base
    return 1.0 / tolerance <= ratio <= tolerance


def _load(path: Path) -> Dict[str, Any]:
    with path.open() as handle:
        return json.load(handle)


def compare_document(
    name: str,
    fresh: Dict[str, Any],
    base: Dict[str, Any],
    tolerance: float,
    speedup_tolerance: float = 3.0,
) -> List[str]:
    """All regressions of one fresh document vs its baseline."""
    problems: List[str] = []

    if fresh.get("schema") != base.get("schema"):
        problems.append(
            f"{name}: schema changed "
            f"({base.get('schema')!r} -> {fresh.get('schema')!r})"
        )
        return problems

    fresh_smoke = bool(fresh.get("context", {}).get("smoke", False))
    base_smoke = bool(base.get("context", {}).get("smoke", False))
    if fresh_smoke != base_smoke:
        problems.append(
            f"{name}: smoke-mode mismatch (baseline smoke={base_smoke}, "
            f"fresh smoke={fresh_smoke}); regenerate the baseline with the "
            f"same *_SMOKE environment the CI job uses"
        )
        return problems

    for counter, base_value in base.get("counters", {}).items():
        if _is_timing(counter):
            continue
        fresh_value = fresh.get("counters", {}).get(counter)
        if fresh_value is None:
            problems.append(f"{name}: counter {counter!r} disappeared")
        elif not _ratio_ok(float(fresh_value), float(base_value), tolerance):
            problems.append(
                f"{name}: counter {counter!r} moved {base_value:g} -> "
                f"{fresh_value:g} (beyond {tolerance:g}x tolerance)"
            )

    for gauge, base_value in base.get("gauges", {}).items():
        gate = speedup_tolerance if _is_speedup(gauge) else tolerance
        if _is_timing(gauge) and not _is_speedup(gauge):
            continue
        fresh_value = fresh.get("gauges", {}).get(gauge)
        if fresh_value is None:
            problems.append(f"{name}: gauge {gauge!r} disappeared")
        elif not _ratio_ok(float(fresh_value), float(base_value), gate):
            problems.append(
                f"{name}: gauge {gauge!r} moved {base_value:g} -> "
                f"{fresh_value:g} (beyond {gate:g}x tolerance)"
            )

    # histograms: the sample *count* is an algorithmic invariant (how many
    # chunks ran); the observed values are wall-clock and stay ungated
    for hist, base_summary in base.get("histograms", {}).items():
        fresh_summary = fresh.get("histograms", {}).get(hist)
        if fresh_summary is None:
            problems.append(f"{name}: histogram {hist!r} disappeared")
            continue
        base_count = float(base_summary.get("count", 0))
        fresh_count = float(fresh_summary.get("count", 0))
        if not _ratio_ok(fresh_count, base_count, tolerance):
            problems.append(
                f"{name}: histogram {hist!r} sample count moved "
                f"{base_count:g} -> {fresh_count:g} "
                f"(beyond {tolerance:g}x tolerance)"
            )

    return problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results",
        type=Path,
        default=Path(__file__).resolve().parent / "results" / "smoke",
        help="directory holding the freshly produced BENCH_*.json "
        "(the smoke runs' output directory by default)",
    )
    parser.add_argument(
        "--baselines",
        type=Path,
        default=Path(__file__).resolve().parent / "baselines",
        help="directory holding the committed baseline BENCH_*.json",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=2.0,
        help="max allowed ratio (either direction) for gated invariants",
    )
    parser.add_argument(
        "--speedup-tolerance",
        type=float,
        default=3.0,
        help="max allowed ratio (either direction) for dimensionless "
        "speedup.* gauges; generous because chunk medians still wobble "
        "on shared runners, strict enough to catch a fast path going 10x "
        "slower than its reference",
    )
    parser.add_argument(
        "--documents",
        nargs="+",
        choices=GATED_DOCUMENTS,
        default=GATED_DOCUMENTS,
        help="gate only these documents (CI jobs that run a subset of the "
        "benches pass the subset they produced; default: all)",
    )
    args = parser.parse_args(argv)

    if args.tolerance < 1.0:
        parser.error("--tolerance must be >= 1.0")
    if args.speedup_tolerance < 1.0:
        parser.error("--speedup-tolerance must be >= 1.0")

    problems: List[str] = []
    checked = 0
    for document in args.documents:
        baseline_path = args.baselines / document
        results_path = args.results / document
        if not baseline_path.exists():
            print(f"note: no baseline for {document}; skipping")
            continue
        if not results_path.exists():
            problems.append(
                f"{document}: baseline exists but the fresh result is missing "
                f"(expected {results_path}) -- did the bench fail to run?"
            )
            continue
        checked += 1
        problems.extend(
            compare_document(
                document,
                _load(results_path),
                _load(baseline_path),
                args.tolerance,
                args.speedup_tolerance,
            )
        )

    if problems:
        print(f"benchmark regression gate: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  FAIL {problem}")
        return 1
    print(
        f"benchmark regression gate: OK "
        f"({checked} document(s) within {args.tolerance:g}x tolerance)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
