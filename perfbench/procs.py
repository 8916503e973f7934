"""Child processes of the benchmark: spawn pinned, read lines with a deadline, reap.

Peak memory comes from the kernel's accounting of the reaped child
(``wait4``'s ``ru_maxrss``), so it covers the child's whole life and
nothing of the benchmark's own.
"""

from __future__ import annotations

import os
import select
import subprocess
import time
from pathlib import Path

__all__ = ["LineReader", "reap", "spawn"]


def spawn(argv: list[str], env: dict, root: Path, cpu: int) -> subprocess.Popen:
    """Start ``argv`` in ``root`` pinned to ``cpu``, its stdout on a pipe (stderr passes through)."""
    return subprocess.Popen(
        argv, cwd=root, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
        preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
    )  # fmt: skip


class LineReader:
    """Reads a child's stdout line by line, giving up at a deadline."""

    def __init__(self, process: subprocess.Popen) -> None:
        self._fd = process.stdout.fileno()
        self._buffer = b""
        self._eof = False

    def readline(self, deadline: float) -> str | None:
        """The next line without its newline, or ``None`` at end of output."""
        while b"\n" not in self._buffer:
            if self._eof:
                return None
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise TimeoutError("the child process printed nothing before its deadline")
            readable, _, _ = select.select([self._fd], [], [], remaining)
            if readable:
                chunk = os.read(self._fd, 65536)
                if chunk:
                    self._buffer += chunk
                else:
                    self._eof = True
                    if self._buffer:
                        self._buffer += b"\n"
        line, self._buffer = self._buffer.split(b"\n", 1)
        return line.decode("utf-8", "replace")


def reap(process: subprocess.Popen) -> float:
    """Wait for ``process`` to exit; return its peak resident set in MB."""
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    if process.stdout is not None:
        process.stdout.close()
    return usage.ru_maxrss / 1024.0
