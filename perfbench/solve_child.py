"""The solver child: one offline gradient solve of a network file.

    python perfbench/solve_child.py <network.json> <iterations> <phi_out.npy>

Set-up (imports, load, ``build_extended_network``, ``ModelState``
compile, one warm-up iteration context) ends with a ``ready`` line on
stdout.  Then the solve runs from the shed-everything start for exactly
``iterations`` iterations (eta = 0.04, no early stop), recording every
iterate through ``GradientAlgorithm.run``'s callback.  The last stdout
line is a JSON document with the trajectory ``[iteration, seconds since
the run started, utility]`` and the final utility; the final routing is
saved to ``phi_out`` so the harness can audit it.
"""

from __future__ import annotations

import json
import sys
import time


def vm_hwm_mb() -> float:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv) -> int:
    model, iterations, phi_out = argv[0], int(argv[1]), argv[2]

    import numpy as np

    from repro.core import transform
    from repro.core.gradient import GradientAlgorithm, GradientConfig
    from repro.core.routing import initial_routing
    from repro.io import load_network

    ext = transform.build_extended_network(load_network(model))
    # tolerance 0: run the whole budget so every run times the same work
    config = GradientConfig(
        eta=0.04, max_iterations=iterations, record_every=1, tolerance=0.0
    )
    algo = GradientAlgorithm(ext, config)
    algo.compute_context(initial_routing(ext))
    print("ready", flush=True)

    trajectory = []
    started = time.perf_counter()

    def record(iteration, rec) -> None:
        trajectory.append(
            (iteration, time.perf_counter() - started, float(rec.utility))
        )

    result = algo.run(callback=record)
    np.save(phi_out, result.solution.routing.phi)
    print(json.dumps({
        "trajectory": trajectory,
        "final_utility": float(result.final_utility),
        "iterations": int(result.iterations),
        "vm_hwm_mb": vm_hwm_mb(),
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
