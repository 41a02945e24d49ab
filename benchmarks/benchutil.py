"""Shared helpers for the benchmark harness.

Keep this dependency-free (stdlib only): it is imported both by
standalone ``python benchmarks/bench_*.py`` runs and by the pytest
benchmark entries.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

#: Where every bench writes its artifacts; the checked-in
#: ``BENCH_*.json`` files live here and nowhere else.
RESULTS_DIR = Path(__file__).parent / "results"


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB.

    ``ru_maxrss`` is kilobytes on Linux, bytes on macOS; every
    benchmark must report the platform-corrected number the same way,
    so this is the one place the correction lives.
    """
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    scale = 1024.0 if sys.platform == "darwin" else 1.0
    return peak * scale / 1024.0


def write_result(name: str, result: dict) -> Path:
    """Write one bench's JSON artifact as ``benchmarks/results/<name>``
    and return its path."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(json.dumps(result, indent=2) + "\n", encoding="utf-8")
    return path
