"""In-memory spans, Ray Data execution counts and process-tree memory.

Spans are recorded around calls into the program from the benchmark's own
code; nothing inside the program is instrumented. The Ray Data execution
counter wraps `StreamingExecutor.execute` in this process, which every
`materialize()`, `count()`, `take_all()` or iteration goes through.
"""

from __future__ import annotations

import json
import os
import signal
import time
from contextlib import contextmanager

_EXECS = [0]


def install_exec_counter() -> None:
    """Count Ray Data executions started by this process (idempotent)."""
    from ray.data._internal.execution import streaming_executor as se

    cls = se.StreamingExecutor
    if getattr(cls.execute, "_perfbench_counted", False):
        return
    original = cls.execute

    def execute(self, *args, **kwargs):
        _EXECS[0] += 1
        return original(self, *args, **kwargs)

    execute._perfbench_counted = True
    cls.execute = execute


def ray_execs() -> int:
    return _EXECS[0]


class Tracer:
    """Spans (name, start, end, parent) with per-span attributes (row
    counts, Ray Data executions), in memory until `dump`. Times are
    `perf_counter` seconds from the tracer's creation."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter() - self.t0,
            "end": None,
            "attrs": dict(attrs),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        execs0 = ray_execs()
        try:
            yield rec["attrs"]
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self.t0
            rec["attrs"].setdefault("ray_execs", ray_execs() - execs0)

    def duration(self, rec: dict) -> float:
        return rec["end"] - rec["start"]

    def dump(self, path: str) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(self.spans, fh, indent=1)


# ---------------------------------------------------------------------------
# Process tree: memory and cleanup (read from /proc; psutil is not assumed)
# ---------------------------------------------------------------------------


def _children_map() -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces; fields resume after the last ')'
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        kids.setdefault(ppid, []).append(int(entry))
    return kids


def descendants(pid: int) -> list[int]:
    kids = _children_map()
    out, todo = [], [pid]
    while todo:
        for c in kids.get(todo.pop(), []):
            out.append(c)
            todo.append(c)
    return out


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def _tree() -> list[int]:
    """This process and all of its descendants (the Ray processes)."""
    return [os.getpid(), *descendants(os.getpid())]


def tree_rss_mb() -> float:
    """Summed resident set size of the process tree, in MiB."""
    return sum(_status_kb(p, "VmRSS:") for p in _tree()) / 1024.0


def reset_peak_rss() -> None:
    """Reset every tree process's peak RSS (VmHWM) to its current RSS."""
    for p in _tree():
        try:
            with open(f"/proc/{p}/clear_refs", "w") as fh:
                fh.write("5")
        except OSError:
            pass


def tree_peak_rss_mb() -> float:
    """Summed peak RSS (VmHWM) of the process tree since `reset_peak_rss`,
    in MiB: each process's own peak, so the sum bounds the tree's peak from
    above and no short spike between two samples is missed."""
    return sum(_status_kb(p, "VmHWM:") for p in _tree()) / 1024.0


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def kill_tree(pid: int, include_self: bool = True) -> None:
    """SIGKILL every descendant of `pid` (and `pid` itself) and wait until
    each has ended, reaping those that are this process's children."""
    victims = descendants(pid) + ([pid] if include_self else [])
    for p in victims:
        try:
            os.kill(p, signal.SIGKILL)
        except OSError:
            pass
    deadline = time.monotonic() + 10
    for p in victims:
        while time.monotonic() < deadline:
            try:
                if os.waitpid(p, os.WNOHANG)[0]:
                    break
            except ChildProcessError:
                if not _alive(p):
                    break
            time.sleep(0.05)
