"""Shared benchmark plumbing: tracing, statistics, host stamp, HTTP.

Nothing here is part of the system under test.  The tracer records
spans from the benchmark's own wrappers around public calls; it keeps
them in memory and writes them out once, when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import http.client
import json
import math
import os
import platform
import resource
import threading
import time
from pathlib import Path
from typing import Any, Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Scratch space for runs (temp dirs, trace dumps, the serve model
#: cache); listed in the repo's .gitignore.
WORK_DIR = ROOT / ".perfbench"


class GateError(RuntimeError):
    """A correctness gate failed: the run reports no numbers."""


# -- statistics -----------------------------------------------------------


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``ceil(q * n)``-th smallest value)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(q * len(ordered))
    return float(ordered[min(len(ordered) - 1, max(0, rank - 1))])


def median(values) -> float:
    return float(np.median(np.asarray(list(values), dtype=np.float64)))


# -- host ---------------------------------------------------------------------


def n_cpus() -> int:
    return len(os.sched_getaffinity(0))


def host_stamp(threads: int, connections: int) -> dict[str, Any]:
    return {
        "n_cpus": n_cpus(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "generator_threads": threads,
        "generator_connections": connections,
    }


def self_peak_rss_mib() -> float:
    """Peak RSS of this process (Linux reports ru_maxrss in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def process_peak_rss_mib(pid: int) -> float:
    """Peak RSS (VmHWM) of a live process."""
    with open(f"/proc/{pid}/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_pids(pid: int) -> list[int]:
    """Direct children of *pid*, from /proc."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                stat = fh.read()
        except OSError:
            continue
        # Field 4 (ppid) follows the parenthesised command name.
        fields = stat[stat.rfind(")") + 2 :].split()
        if int(fields[1]) == pid:
            children.append(int(entry))
    return sorted(children)


# -- tracing ------------------------------------------------------------------


class Tracer:
    """In-memory span recorder.

    A span is ``(name, start, end, parent, request_id)``; ``parent`` is
    the index of the enclosing span on the same thread (``-1`` for a
    root).
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, Any]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn: Callable, *args, request_id=None, **kwargs):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*."""
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, stack[-1] if stack else -1, request_id))
        stack.append(index)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            _, _, _, parent, rid = self.spans[index]
            self.spans[index] = (name, start, end, parent, rid)

    def record(self, name: str, start: float, end: float, request_id=None) -> None:
        """Add a finished root span measured by the caller."""
        with self._lock:
            self.spans.append((name, start, end, -1, request_id))

    def wrap(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a spanned wrapper (undone by
        :meth:`unwrap_all`).  Class- and static methods keep their kind."""
        raw = inspect.getattr_static(owner, attr)
        tracer = self
        if isinstance(raw, (classmethod, staticmethod)):
            inner = raw.__func__

            @functools.wraps(inner)
            def spanned(*args, **kwargs):
                return tracer.call(name, inner, *args, **kwargs)

            replacement: Any = type(raw)(spanned)
        else:

            @functools.wraps(raw)
            def spanned(*args, **kwargs):
                return tracer.call(name, raw, *args, **kwargs)

            replacement = spanned
        own = attr in vars(owner)
        self._patches.append((owner, attr, raw if own else None))
        setattr(owner, attr, replacement)

    def unwrap_all(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            if raw is None:
                delattr(owner, attr)  # the attribute was inherited
            else:
                setattr(owner, attr, raw)
        self._patches.clear()

    def mark(self) -> int:
        return len(self.spans)

    def totals(self, since: int = 0) -> dict[str, float]:
        """Inclusive seconds per span name over ``spans[since:]``."""
        out: dict[str, float] = {}
        for name, start, end, _, _ in self.spans[since:]:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name: duration minus direct children.

        Children run on the parent's thread and nest inside it, so the
        covered part of a parent is the sum of its direct children.
        """
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, float] = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child_time[index]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines to *path*, and the self seconds
        per span name beside it (``<stem>.self.json``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.with_name(path.stem + ".self.json").write_text(
            json.dumps(self.self_times(), indent=1), encoding="utf-8"
        )
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, rid in self.spans:
                fh.write(
                    json.dumps(
                        {
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request_id": rid,
                        }
                    )
                    + "\n"
                )


# -- HTTP -----------------------------------------------------------------------

#: Client-side socket timeout; a request that exceeds it is a failure.
REQUEST_TIMEOUT_S = 20.0


class Client:
    """One keep-alive HTTP/1.1 connection with failure accounting.

    ``request`` never raises on transport errors: a timeout, reset or
    refused connection returns status ``0`` and reconnects, so callers
    count it as a failed operation.
    """

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self.host = host
        self.port = port
        self._conn: http.client.HTTPConnection | None = None

    def request(self, method: str, path: str, body: Any = None) -> tuple[int, Any]:
        payload = json.dumps(body) if body is not None else None
        headers = {"Content-Type": "application/json"} if payload else {}
        try:
            if self._conn is None:
                self._conn = http.client.HTTPConnection(
                    self.host, self.port, timeout=REQUEST_TIMEOUT_S
                )
            self._conn.request(method, path, body=payload, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
            return response.status, json.loads(data) if data else None
        except (OSError, http.client.HTTPException, ValueError):
            self.close()
            return 0, None

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None
