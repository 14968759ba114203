"""Child processes running the program: start, read, stop, reap.

Every program process the benchmark starts goes through
:class:`Child`, which timestamps the launch, reads its standard output
line by line on a helper thread (so a wait can time out), and reaps
it.  A program process's peak RSS is its ``VmHWM`` (:func:`peak_rss_mb`),
read while it runs: the ``ru_maxrss`` a reaped child reports also
counts the harness's own peak, which the child inherits at fork and
keeps across exec.
"""

from __future__ import annotations

import os
import queue
import signal
import subprocess
import sys
import threading
from time import monotonic, perf_counter, sleep


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set of the running process ``pid``, in MB: the
    ``VmHWM`` of its own address space, since its last exec."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise ChildError(f"no VmHWM in /proc/{pid}/status")


class ChildError(RuntimeError):
    """A program process failed, exited early or timed out."""


def program_env(root) -> dict:
    """Environment for program processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONUNBUFFERED"] = "1"
    env.pop("PYTHONSTARTUP", None)
    return env


class Child:
    """One program process."""

    def __init__(self, args, root, log_path):
        self.args = [sys.executable, *args]
        self.log_path = log_path
        self._lines: queue.Queue = queue.Queue()
        self.started = perf_counter()
        with open(log_path, "ab") as log:
            self.proc = subprocess.Popen(
                self.args,
                cwd=root,
                env=program_env(root),
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
                text=True,
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.exit_code: int | None = None

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    def expect(self, predicate, timeout: float) -> str:
        """The first stdout line satisfying ``predicate``."""
        deadline = monotonic() + timeout
        while True:
            left = deadline - monotonic()
            if left <= 0:
                self.wait(0.0)
                raise ChildError(f"{self.describe()}: timed out after {timeout}s")
            try:
                line = self._lines.get(timeout=left)
            except queue.Empty:
                continue
            if line is None:
                self.wait(5.0)
                raise ChildError(
                    f"{self.describe()}: exited with {self.exit_code} "
                    f"before the expected output; {self.log_tail()}"
                )
            if predicate(line):
                return line

    def signal(self, signum) -> None:
        if self.exit_code is None:
            self.proc.send_signal(signum)

    def wait(self, timeout: float) -> int:
        """Reap the process (killing it past ``timeout``); exit code."""
        if self.exit_code is not None:
            return self.exit_code
        deadline = monotonic() + timeout
        while True:
            pid, status = os.waitpid(self.proc.pid, os.WNOHANG)
            if pid:
                break
            if monotonic() > deadline:
                self.proc.kill()
                pid, status = os.waitpid(self.proc.pid, 0)
                break
            sleep(0.01)
        self.exit_code = os.waitstatus_to_exitcode(status)
        self.proc.returncode = self.exit_code
        self._reader.join(timeout=5.0)
        self.proc.stdout.close()
        return self.exit_code

    def stop(self, timeout: float = 20.0) -> int:
        """Interrupt (Ctrl-C) and reap."""
        self.signal(signal.SIGINT)
        return self.wait(timeout)

    def describe(self) -> str:
        return " ".join(os.path.basename(a) for a in self.args[1:4])

    def log_tail(self, lines: int = 15) -> str:
        try:
            with open(self.log_path, encoding="utf-8", errors="replace") as f:
                tail = f.read().splitlines()[-lines:]
        except OSError:
            return "(no log)"
        return "stderr tail:\n" + "\n".join(tail)
