"""The import floor of the solve path, and the lazy public packages.

The solver's cold start loads only what a solve uses: the gradient core
never imports networkx (scenarios and exports only) or any of scipy (the
LP reference and the validators), nor any pool or the delta layer, and a
run imports nothing at all.  Each floor check runs in a
fresh interpreter, since this test process has long since imported
everything.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.api
import repro.core
import repro.parallel
from repro.io import network_to_dict
from repro.scenarios import diamond_network

SRC = str(Path(__file__).resolve().parent.parent / "src")
HEAVY = ("networkx", "scipy")
# process and thread pools, and the online delta layer: no solve uses them
POOL = ("multiprocessing", "concurrent.futures", "repro.core.delta")


def _run(code: str, stdin: str = "") -> dict:
    """Run ``code`` in a fresh interpreter; it prints one JSON document."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", code], input=stdin, env=env,
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_core_modules_load_no_heavy_dependency():
    loaded = _run(
        "import json, sys\n"
        "import repro.core.gradient, repro.core.transform, repro.core.routing\n"
        "import repro.io\n"
        f"print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))\n"
    )
    assert loaded == []


def test_solve_path_loads_no_scipy_and_no_pool():
    """Neither list loads at import, at ``GradientAlgorithm(...)`` or in
    ``run()``."""
    model = json.dumps(network_to_dict(diamond_network()))
    loaded = _run(
        "import json, sys\n"
        f"watch = {HEAVY + POOL!r}\n"
        "seen = {}\n"
        "def mark(stage):\n"
        "    seen[stage] = [m for m in watch if m in sys.modules]\n"
        "from repro.core.gradient import GradientAlgorithm, GradientConfig\n"
        "from repro.core.transform import build_extended_network\n"
        "from repro.io import network_from_dict\n"
        "mark('import')\n"
        "ext = build_extended_network(network_from_dict(json.load(sys.stdin)))\n"
        "algo = GradientAlgorithm(ext, GradientConfig(max_iterations=20))\n"
        "mark('construct')\n"
        "algo.run()\n"
        "mark('run')\n"
        "print(json.dumps(seen))\n",
        stdin=model,
    )
    assert loaded == {"import": [], "construct": [], "run": []}


def test_serve_start_loads_no_scipy_networkx_or_analysis():
    loaded = _run(
        "import json, sys\n"
        "import repro.cli, repro.serve.session, repro.serve.server\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        f"    if m.split('.')[0] in {HEAVY!r} or m.startswith('repro.analysis'))))\n"
    )
    assert loaded == []


def test_gradient_run_imports_nothing():
    model = json.dumps(network_to_dict(diamond_network()))
    added = _run(
        "import json, sys\n"
        "from repro.core.gradient import GradientAlgorithm, GradientConfig\n"
        "from repro.core.transform import build_extended_network\n"
        "from repro.io import network_from_dict\n"
        "ext = build_extended_network(network_from_dict(json.load(sys.stdin)))\n"
        "algo = GradientAlgorithm(ext, GradientConfig(max_iterations=20))\n"
        "before = set(sys.modules)\n"
        "algo.run()\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n",
        stdin=model,
    )
    assert added == []


@pytest.mark.parametrize("package", [repro, repro.core, repro.api, repro.parallel])
def test_every_public_name_resolves_and_is_listed(package):
    listed = dir(package)
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in listed


def test_star_import():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


@pytest.mark.parametrize("package", [repro, repro.core, repro.api, repro.parallel])
def test_unknown_name_raises_attribute_error(package):
    with pytest.raises(AttributeError, match=re.escape(repr(package.__name__))):
        getattr(package, "no_such_name")
