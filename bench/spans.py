"""In-memory span recorder for the traced benchmark run.

A span has a name, start and end (perf_counter seconds), the id of its
parent span and the id of the op it belongs to. Spans are appended to a list
as they close and written out once, when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    span_id: int
    name: str
    op_id: int
    parent: int | None
    start: float
    end: float = 0.0
    error: str | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records nested spans; `enabled=False` makes every span a no-op."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str, op_id: int, **attrs):
        if not self.enabled:
            yield None
            return
        parent = self._stack[-1].span_id if self._stack else None
        sp = Span(self._next_id, name, op_id, parent, time.perf_counter(), attrs=attrs)
        self._next_id += 1
        self._stack.append(sp)
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(sp)

    def self_times(self) -> dict[int, float]:
        """span_id -> duration minus the time covered by its direct children
        (children of one parent never overlap: the recorder is single-threaded)."""
        own = {sp.span_id: sp.duration for sp in self.spans}
        for sp in self.spans:
            if sp.parent is not None:
                own[sp.parent] -= sp.duration
        return own

    def self_time_by_name(self) -> dict[str, float]:
        own = self.self_times()
        totals: dict[str, float] = {}
        for sp in self.spans:
            totals[sp.name] = totals.get(sp.name, 0.0) + own[sp.span_id]
        return totals

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "spans": [asdict(sp) for sp in sorted(self.spans, key=lambda s: s.span_id)],
                    "self_time_by_name": self.self_time_by_name(),
                },
                fh,
            )
            fh.write("\n")
