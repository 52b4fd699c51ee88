"""Child processes under test: the serve daemon and the solver child.

Every child runs with ``PYTHONPATH`` pointing at the checkout's ``src/``
and is handed only generated input files.  Set-up time is measured here,
from just before the process is spawned until its readiness line is read.
"""

from __future__ import annotations

import os
import re
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
READY_TIMEOUT = 120.0

_LISTENING = re.compile(rb"listening on ([0-9.]+):(\d+)")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Child:
    """A started child process whose first stdout line marks readiness."""

    def __init__(self, argv: List[str], ready: "re.Pattern[bytes]") -> None:
        self.spawned_at = time.monotonic()
        self.proc = subprocess.Popen(
            argv, cwd=str(ROOT), env=child_env(),
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        try:
            self.ready_line = self._read_line_matching(ready, READY_TIMEOUT)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.monotonic() - self.spawned_at

    def _read_line_matching(self, pattern, timeout: float) -> "re.Match":
        deadline = time.monotonic() + timeout
        out = self.proc.stdout
        assert out is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise RuntimeError(f"child not ready within {timeout}s")
            readable, _w, _x = select.select([out], [], [], remaining)
            if not readable:
                continue
            line = out.readline()
            if not line:
                err = self.stderr_text()
                raise RuntimeError(f"child exited before ready:\n{err}")
            match = pattern.search(line)
            if match:
                return match

    def read_line(self, timeout: float) -> bytes:
        out = self.proc.stdout
        assert out is not None
        readable, _w, _x = select.select([out], [], [], timeout)
        if not readable:
            self.kill()
            raise RuntimeError(f"child silent for {timeout}s")
        line = out.readline()
        if not line:
            raise RuntimeError(f"child exited early:\n{self.stderr_text()}")
        return line

    def stderr_text(self) -> str:
        self.proc.wait(timeout=30)
        assert self.proc.stderr is not None
        return self.proc.stderr.read().decode(errors="replace")[-4000:]

    def wait(self, timeout: float = 60.0) -> int:
        try:
            code = self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
            raise
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()
        return code

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)
        for stream in (self.proc.stdout, self.proc.stderr):
            if stream is not None:
                stream.close()


def start_daemon(model: Path, traced: Optional[Path] = None) -> "Child":
    """``python -m repro serve <model>`` with CLI defaults.

    With ``traced`` the same command runs under the tracing launcher,
    which writes its spans to that path when the daemon exits.
    """
    if traced is None:
        argv = [sys.executable, "-m", "repro", "serve", str(model)]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(traced),
                "serve", str(model)]
    child = Child(argv, _LISTENING)
    child.port = int(child.ready_line.group(2))
    return child


_SOLVER_READY = re.compile(rb"^ready\b")


def start_solver(
    model: Path, iterations: int, phi_out: Path, traced: Optional[Path] = None
) -> "Child":
    """The solver child: load, build, compile, warm up, print ``ready``."""
    args = ["solve", str(model), str(iterations), str(phi_out)]
    if traced is None:
        argv = [sys.executable, str(HERE / "solve_child.py"), *args[1:]]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(traced), *args]
    return Child(argv, _SOLVER_READY)
