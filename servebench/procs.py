"""Server processes under test: launch, set-up timing, /proc readings, stop."""

from __future__ import annotations

import os
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from spans import TRACE_DIR_ENV

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for logs, chunk stores, caches and trace dumps; everything
#: the benchmark writes lives here (listed in the root ``.gitignore``).
WORK = ROOT / ".servebench_work"

_PORT_LINE = re.compile(rb"http://[0-9.]+:([0-9]+)")
_BOOT_TIMEOUT_S = 120.0
_STOP_TIMEOUT_S = 30.0


def server_env(trace_dir: Path | None) -> dict[str, str]:
    """The environment a server runs in: ``src`` importable, no fault specs."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("SEEDB_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONUNBUFFERED"] = "1"
    env["TMPDIR"] = str(WORK / "tmp")
    if trace_dir is not None:
        env[TRACE_DIR_ENV] = str(trace_dir)
    return env


def cpu_seconds(pid: int) -> float:
    """User+system CPU seconds of ``pid`` (0.0 once it is gone)."""
    from repro.service.monitor import cpu_seconds as read

    return read(pid) or 0.0


def peak_rss_bytes(pid: int) -> int:
    """``VmHWM`` of ``pid``: the most memory it has held resident."""
    try:
        with open(f"/proc/{pid}/status", "rb") as handle:
            for line in handle:
                if line.startswith(b"VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat", "rb") as handle:
            state = handle.read().rsplit(b")", 1)[-1].split()[0]
    except (OSError, IndexError):
        return False
    return state not in (b"Z", b"X")


class ServerProcess:
    """One launched server command (a single service or a front-end).

    ``roles`` maps a role name to the pids playing it: ``server`` for a
    single-process service, ``frontend`` and ``workers`` for the sharded
    one (worker pids are read from its ``/v1/stats``).
    """

    def __init__(self, argv: list[str], name: str, trace_dir: Path | None = None) -> None:
        self.argv = [sys.executable, *argv]
        self.name = name
        self.trace_dir = trace_dir
        self.roles: dict[str, list[int]] = {}
        self.proc: subprocess.Popen | None = None
        self.bound_port: int | None = None

    def start(self) -> float:
        """Launch the command; returns the launch instant (perf_counter)."""
        self.stdout_path = WORK / f"{self.name}.out"
        self.stderr_path = WORK / f"{self.name}.err"
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            launched = time.perf_counter()
            self.proc = subprocess.Popen(
                self.argv,
                stdout=out,
                stderr=err,
                stdin=subprocess.DEVNULL,
                env=server_env(self.trace_dir),
                cwd=ROOT,
            )
        return launched

    def port(self) -> int:
        """Wait for the listening line on stdout; return the bound port."""
        if self.bound_port is not None:
            return self.bound_port
        deadline = time.monotonic() + _BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            match = _PORT_LINE.search(self.stdout_path.read_bytes())
            if match:
                self.bound_port = int(match.group(1))
                return self.bound_port
            if self.proc.poll() is not None:
                break
            time.sleep(0.005)
        raise RuntimeError(
            f"{self.name} did not start: {self.stderr_path.read_text()[-2000:]}"
        )

    def find_roles(self, stats: dict) -> None:
        """Record which pids serve; ``stats`` is the server's ``/v1/stats``."""
        workers = [int(w["pid"]) for w in stats.get("workers", [])]
        if workers:
            self.roles = {"frontend": [self.proc.pid], "workers": workers}
        else:
            self.roles = {"server": [self.proc.pid]}

    @property
    def pids(self) -> list[int]:
        return [pid for pids in self.roles.values() for pid in pids]

    def cpu_by_role(self) -> dict[str, float]:
        return {role: sum(cpu_seconds(p) for p in pids) for role, pids in self.roles.items()}

    def peak_rss_by_role(self) -> dict[str, int]:
        return {role: sum(peak_rss_bytes(p) for p in pids) for role, pids in self.roles.items()}

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            os.kill(pid, signum)

    def stop(self) -> None:
        """SIGTERM (the service drains), wait, and make sure no pid is left."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        deadline = time.monotonic() + _STOP_TIMEOUT_S
        for pid in self.roles.get("workers", []):
            while _alive(pid) and time.monotonic() < deadline:
                time.sleep(0.01)
            if _alive(pid):
                os.kill(pid, signal.SIGKILL)
        self.proc = None


def fresh_dir(path: Path) -> Path:
    """Empty directory at ``path`` (removed first if present)."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
