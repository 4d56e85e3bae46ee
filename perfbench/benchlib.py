"""Shared pieces of the benchmark: paths, statistics, clients, child servers.

Nothing here imports ``repro`` at module level, so the self-tests and the
"no program present" check run without the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import socket
import sqlite3
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Per-run scratch space and written reports; both are git-ignored.
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"

#: Pool workers of the served workloads (the default is capped at nproc).
#: One worker keeps cache hits and misses in schedule order, so they repeat
#: from pass to pass and run to run; with several, which worker's result
#: cache a request meets depends on thread scheduling.
SERVED_WORKERS = 1


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` package to measure."""


def require_program() -> None:
    """Put ``src`` on the import path, or fail when there is no program."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------- #
# Statistics
# ---------------------------------------------------------------------- #
def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile: the smallest value with ``pct``% at or below.

    The nearest-rank definition always returns an observed sample, so the
    number of samples strictly beyond the reported rank is
    :func:`samples_beyond`.
    """
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie beyond the nearest-rank ``pct``."""
    return count - max(1, math.ceil(pct / 100.0 * count))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def digest(text: str) -> str:
    """Short sha256 of one generated input, recorded with every run."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def peak_rss_kb() -> int:
    """This process's peak resident memory since it started, in KiB.

    ``VmHWM`` starts afresh when a process image is loaded; ``ru_maxrss``
    does not, and would include the parent's memory at fork time.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


# ---------------------------------------------------------------------- #
# Environment
# ---------------------------------------------------------------------- #
def _filesystem_of(path: Path) -> str:
    """Filesystem type of the mount holding ``path``, or ``unknown``."""
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) >= 3 and str(path).startswith(fields[1]) \
                        and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


def environment() -> Dict[str, object]:
    """The facts a reader needs to compare two runs' numbers."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "platform": platform.platform(),
        "work_dir_filesystem": _filesystem_of(WORK),
    }


def flush_policy(db_path: Path) -> Dict[str, object]:
    """``journal_mode`` and ``synchronous`` as a fresh connection sees them.

    Rollback-journal modes are per connection, so this is the file's
    default policy, not a reading of the serving store's own connections.
    """
    connection = sqlite3.connect(str(db_path))
    try:
        return {
            "journal_mode": connection.execute(
                "PRAGMA journal_mode").fetchone()[0],
            "synchronous": connection.execute(
                "PRAGMA synchronous").fetchone()[0],
            "seen_by": "a fresh sqlite3 connection",
        }
    finally:
        connection.close()


def page_stats(db_path: Path) -> Dict[str, int]:
    """Page size, page count and free-list length of a sqlite file."""
    connection = sqlite3.connect(str(db_path))
    try:
        return {name: connection.execute(f"PRAGMA {name}").fetchone()[0]
                for name in ("page_size", "page_count", "freelist_count")}
    finally:
        connection.close()


def fresh_work_dir(label: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(prefix=f"{label}-", dir=WORK))


def remove_work_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)


# ---------------------------------------------------------------------- #
# Wire access
# ---------------------------------------------------------------------- #
class LineClient:
    """A blocking newline-delimited JSON connection that keeps raw bytes."""

    def __init__(self, port: int, timeout: float = 30.0) -> None:
        self.socket = socket.create_connection(("127.0.0.1", port),
                                               timeout=timeout)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.socket.makefile("rb")

    def send(self, message: Dict[str, object]) -> None:
        self.socket.sendall(json.dumps(message).encode("utf-8") + b"\n")

    def receive(self) -> bytes:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("the server closed the connection")
        return line

    def call(self, message: Dict[str, object]) -> bytes:
        self.send(message)
        return self.receive()

    def close(self) -> None:
        self.reader.close()
        self.socket.close()


def _child_command(script: str, arguments: Sequence[str]):
    """Command line and environment of ``perfbench/<script>`` in a fresh
    interpreter that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return ([sys.executable, str(Path(__file__).with_name(script)),
             *arguments], env)


def run_worker(script: str, arguments: Sequence[str],
               timeout: float = 120.0) -> Dict[str, object]:
    """Run ``perfbench/<script>`` to its end; return its last output line,
    a JSON object."""
    command, env = _child_command(script, arguments)
    done = subprocess.run(command, capture_output=True, text=True,
                          cwd=str(ROOT), env=env, timeout=timeout)
    if done.returncode != 0:
        raise RuntimeError(f"{script} exited with {done.returncode}: "
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


class ServerProcess:
    """``perfbench/serve.py`` in a child process, stopped by closing stdin."""

    def __init__(self, arguments: Sequence[str]) -> None:
        command, env = _child_command("serve.py", arguments)
        self.process = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=str(ROOT), env=env)
        line = self.process.stdout.readline()
        if not line:
            self.kill()
            raise RuntimeError("the server process exited before binding")
        self.port: int = json.loads(line)["port"]
        self.peak_rss_mb: Optional[float] = None

    def stop(self, timeout: float = 60.0) -> None:
        """Close stdin, read the peak-memory line, wait for the exit."""
        if self.process.poll() is None:
            self.process.stdin.close()
            line = self.process.stdout.readline()
            if line:
                self.peak_rss_mb = json.loads(line)["peak_rss_kb"] / 1024.0
        try:
            self.process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.kill()
        self.process.stdout.close()
        if self.process.returncode != 0:
            raise RuntimeError(f"the server process exited with "
                               f"{self.process.returncode}")

    def kill(self) -> None:
        self.process.kill()
        self.process.wait(timeout=30)


# ---------------------------------------------------------------------- #
# Result assembly
# ---------------------------------------------------------------------- #
class Outcome:
    """What one workload run hands back to ``run.py``."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: Every metric measured, ``name -> (value, unit)``.
        self.metrics: Dict[str, Tuple[float, str]] = {}
        self.report: Dict[str, object] = {}
        self.invalid_reason: Optional[str] = None

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def mismatch(self, detail: str) -> None:
        """One operation whose answer differs from its oracle."""
        self.failed += 1
        if len(self.mismatches) < 20:
            self.mismatches.append(detail)


def latency_metrics(outcome: Outcome, prefix: str,
                    latencies_ms: Sequence[float],
                    percentiles: Iterable[float]) -> None:
    """Latency percentiles, with the samples behind each recorded."""
    if not latencies_ms:
        return
    tails = outcome.report.setdefault("tail_samples", {})
    for pct in percentiles:
        name = f"{prefix}_p{pct:g}_ms"
        outcome.metric(name, percentile(latencies_ms, pct), "ms")
        tails[name] = {"samples": len(latencies_ms),
                       "beyond": samples_beyond(len(latencies_ms), pct)}


def elapsed_ms(start: float) -> float:
    return (time.perf_counter() - start) * 1000.0
