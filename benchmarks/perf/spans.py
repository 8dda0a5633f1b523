"""Phase spans kept in memory and written out as Chrome-trace JSON.

The harness records one span around each phase of a run (``setup``,
``warmup``, ``run``, ``verify``; for the fabric ``spawn``, ``traffic``,
``quiesce``, ``verify``, ``shutdown``) from its own files, around the calls
into the program. Spans inside the program are a later issue (repro.obs).
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional


class SpanLog:
    """Spans of one benchmark run; all share ``run_id``."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Dict[str, Any]] = []

    def add(self, name: str, start: float, end: float, parent: Optional[int] = None) -> int:
        """Record a span observed between two ``time.perf_counter`` readings,
        caused by span ``parent`` (None = the run itself); returns its id."""
        self.spans.append(
            {"id": len(self.spans), "name": name, "start": start, "end": end, "parent": parent}
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    def write_chrome_trace(self, path: str) -> None:
        """Complete ("X") events, microseconds, loadable in chrome://tracing
        and Perfetto; ``args`` carries the id/parent/run linkage."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        events = [
            {
                "name": s["name"],
                "ph": "X",
                "ts": s["start"] * 1e6,
                "dur": (s["end"] - s["start"]) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": s["id"], "parent": s["parent"], "run": self.run_id},
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)
