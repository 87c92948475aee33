"""Server processes of one workload run: spawn, wait ready, measure, stop.

Servers are started through the ``thetis`` CLI only (``serve``,
``cluster serve``, ``cluster worker``) on ephemeral ports, with stdout
and stderr captured to files in the run's temp dir, and are always
SIGTERM-then-killed.  A traced fleet runs the same CLI through
``host.py``.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

from benchmarks.perf.loadgen import get_json

ROOT = Path(__file__).resolve().parents[2]
HOST_PY = Path(__file__).with_name("host.py")
CLUSTER_WORKERS = 2
READY_TIMEOUT = 120.0
STOP_TIMEOUT = 20.0
POLL = 0.01


class FleetError(RuntimeError):
    """A server died, never became ready, or printed no address."""


def cli_environment() -> Dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def run_cli(arguments: Sequence[str], log: Path) -> float:
    """Run one ``thetis`` command to completion; returns its seconds."""
    started = time.perf_counter()
    with open(log, "w", encoding="utf-8") as handle:
        code = subprocess.call(
            [sys.executable, "-m", "repro.cli", *arguments],
            env=cli_environment(), stdout=handle, stderr=subprocess.STDOUT,
        )
    if code != 0:
        raise FleetError(
            f"thetis {arguments[0]} exited {code}:\n{log.read_text()}"
        )
    return time.perf_counter() - started


class Fleet:
    """One ``thetis serve``, or a coordinator plus two workers."""

    def __init__(self, topology: str, lake_dir: Path, workdir: Path,
                 label: str, traced: bool = False) -> None:
        self.topology = topology
        self.label = label
        self.port = 0
        self.setup_s = 0.0
        self._files = [
            f"--{part}={lake_dir / (part + '.json')}"
            for part in ("graph", "lake", "mapping")
        ]
        self._workdir = workdir
        self._traced = traced
        self._processes: List[subprocess.Popen] = []
        self._logs: List[Path] = []
        self.span_files: List[Path] = []

    # -- lifecycle -----------------------------------------------------
    def __enter__(self) -> "Fleet":
        try:
            self._start()
        except BaseException:
            self.stop()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def _spawn(self, role: str, arguments: Sequence[str]) -> Path:
        stem = self._workdir / f"{self.label}-{role}"
        command = [sys.executable, "-u"]
        if self._traced:
            spans = stem.with_suffix(".spans.jsonl")
            self.span_files.append(spans)
            command += [str(HOST_PY), "--trace", str(spans), "--"]
        else:
            command += ["-m", "repro.cli"]
        out, err = stem.with_suffix(".out"), stem.with_suffix(".err")
        with open(out, "w") as stdout, open(err, "w") as stderr:
            self._processes.append(subprocess.Popen(
                command + list(arguments), env=cli_environment(),
                stdout=stdout, stderr=stderr, stdin=subprocess.DEVNULL,
            ))
        self._logs.append(err)
        return out

    def _banner(self, out: Path, pattern: str) -> List[int]:
        """Ports from a process's start-up line, once it has printed it."""
        deadline = time.perf_counter() + READY_TIMEOUT
        while time.perf_counter() < deadline:
            match = re.search(pattern, out.read_text())
            if match:
                return [int(group) for group in match.groups()]
            self.check_alive()
            time.sleep(POLL)
        raise FleetError(f"{out.name}: no address printed")

    def _start(self) -> None:
        started = time.perf_counter()
        if self.topology == "serve":
            out = self._spawn("serve", [
                "serve", *self._files, "--port=0", "--engine=vectorized",
            ])
            (self.port,) = self._banner(out, r"http://[\d.]+:(\d+)")
        else:
            out = self._spawn("coordinator", [
                "cluster", "serve", "--port=0", "--control-port=0",
                f"--min-workers={CLUSTER_WORKERS}",
            ])
            self.port, control = self._banner(
                out, r"http://[\d.]+:(\d+) \(control (\d+)"
            )
            for n in range(CLUSTER_WORKERS):
                self._spawn(f"worker{n}", [
                    "cluster", "worker", *self._files, f"--worker-id=w{n}",
                    "--coordinator-host=127.0.0.1",
                    f"--coordinator-port={control}", "--engine=vectorized",
                ])
        deadline = started + READY_TIMEOUT
        while get_json(self.port, "/readyz")[0] != 200:
            self.check_alive()
            if time.perf_counter() > deadline:
                raise FleetError(f"{self.label}: not ready in time")
            time.sleep(POLL)
        self.setup_s = time.perf_counter() - started

    def stop(self) -> None:
        """SIGTERM every process, wait, kill what is left."""
        for process in self._processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + STOP_TIMEOUT
        for process in self._processes:
            try:
                process.wait(max(0.1, deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()

    # -- observation ---------------------------------------------------
    def check_alive(self) -> None:
        for process in self._processes:
            if process.poll() is not None:
                raise FleetError(
                    f"{self.label}: server process {process.pid} exited "
                    f"with {process.returncode}"
                )

    def peak_rss_mb(self) -> float:
        """Sum of ``VmHWM`` over the fleet's processes."""
        total_kb = 0
        for process in self._processes:
            status = Path(f"/proc/{process.pid}/status").read_text()
            total_kb += int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1))
        return total_kb / 1024.0

    def metrics(self) -> dict:
        status, payload = get_json(self.port, "/metrics")
        if status != 200 or not isinstance(payload, dict):
            raise FleetError(f"{self.label}: GET /metrics gave {status}")
        return payload

    def stderr_tail(self, lines: int = 50) -> str:
        tails = []
        for log in self._logs:
            text = log.read_text(errors="replace").splitlines()[-lines:]
            tails.append(f"--- {log.name} ---\n" + "\n".join(text))
        return "\n".join(tails)
