"""In-memory tracing of calls into the `nckp` modules, from outside them.

A `Tracer` replaces a function where its caller looks it up (a module
global, or a class attribute for methods) with a wrapper that times the
call.  Every call updates per-name totals: calls, total time and self time,
where self time leaves out the time of traced calls nested inside it.
Calls to names listed as spans are also kept as span records (name, start,
end, parent span) so a whole session can be written out after the run.
`restore` puts every replaced name back.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import wraps


class Tracer:
    def __init__(self, session: int = 0):
        self.session = session
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[dict] = []
        self.durations: dict[str, list[float]] = {}
        self.notes: Counter = Counter()  # tallied by `after` hooks
        self._stack: list[list] = []  # open calls: [child_s, span_id]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, span: bool, after=None):
        stack = self._stack
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        durations = self.durations.setdefault(name, []) if span else None
        clock = time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, 0]
            if span:
                frame[1] = self._next_id
                self._next_id += 1
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stat[0] += 1
                stat[1] += dur
                stat[2] += dur - frame[0]
                if span:
                    durations.append(dur)
                    self.spans.append({
                        "session": self.session,
                        "id": frame[1],
                        "parent": next((f[1] for f in reversed(stack) if f[1]), 0),
                        "name": name,
                        "start": start,
                        "end": start + dur,
                    })
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, *, span: bool = False,
              after=None) -> None:
        """Replace `owner.attr` by a traced wrapper recorded under `name`.
        Class methods stay class methods.  `after(args, result)` runs
        outside the timed interval."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, classmethod):
            replacement = classmethod(self._wrap(name, original.__func__, span, after))
        else:
            replacement = self._wrap(name, original, span, after)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def calls(self, *names: str) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def total(self, *names: str) -> float:
        return sum(self.stats[n][1] for n in names if n in self.stats)

    def self_time(self, *names: str) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)
