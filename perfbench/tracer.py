"""In-memory span tracer for the benchmark's traced run.

The tracer wraps named specmap functions from outside the library. Each
wrapper replaces the original wherever a loaded specmap module, or the
package namespace, binds it, so library code that calls the function through
its own module globals reaches the wrapper too. `specmap.stft` is the
function, not the module, so modules are always found through
`sys.modules["specmap.<module>"]`.

A span records its name, the trace it belongs to (a timed pass, or the
set-up), its parent span, start and end. Self time is a span's duration
minus the durations of its direct children, computed after the run.
"""

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    span_id: int
    parent_id: int  # -1 for a root span
    name: str
    trace_id: object
    start: float
    end: float
    work: Optional[dict]  # counts a hook read from the call's arguments and result

    @property
    def duration(self) -> float:
        return self.end - self.start


def _specmap_namespaces():
    return [
        module for name, module in sorted(sys.modules.items())
        if module is not None and (name == "specmap" or name.startswith("specmap."))
    ]


class Tracer:
    """Wraps `<module>.<function>` names; install() patches, uninstall() restores.

    hooks maps a name to `hook(args, kwargs, result) -> dict`, whose result is
    stored on the span as its work counts.
    """

    def __init__(self, names, hooks: Optional[dict] = None):
        hooks = hooks or {}
        self.spans: list[Span] = []
        self.trace_id: object = None
        self._open: list[int] = []
        self._next_id = 0
        self._patches = []
        for name in names:
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"specmap.{module_name}"], func_name)
            wrapper = self._wrap(name, original, hooks.get(name))
            for namespace in _specmap_namespaces():
                for attr, value in vars(namespace).items():
                    if value is original:
                        self._patches.append((namespace, attr, original, wrapper))

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent_id = self._open[-1] if self._open else -1
            self._open.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # A failed call still occupied its parent's time; record it, then re-raise.
                self._close(span_id, parent_id, name, start, None)
                raise
            end = time.perf_counter()
            work = hook(args, kwargs, result) if hook else None
            self._close(span_id, parent_id, name, start, work, end)
            return result

        return traced

    def _close(self, span_id, parent_id, name, start, work, end=None) -> None:
        end = time.perf_counter() if end is None else end
        self._open.pop()
        self.spans.append(Span(span_id, parent_id, name, self.trace_id, start, end, work))

    def install(self) -> None:
        for namespace, attr, _, wrapper in self._patches:
            setattr(namespace, attr, wrapper)

    def uninstall(self) -> None:
        for namespace, attr, original, _ in self._patches:
            setattr(namespace, attr, original)

    def self_times(self) -> dict:
        """span_id -> duration minus the durations of its direct children."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent_id >= 0:
                child_time[span.parent_id] += span.duration
        return {span.span_id: span.duration - child_time[span.span_id] for span in self.spans}
