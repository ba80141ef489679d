"""In-memory span recorder that wraps the library's public functions.

The library has no tracing of its own, so the traced benchmark run replaces
each public function at a layer boundary with a wrapper that records one
span per call: name, start, end, parent span and op id.  Modules bind names
with ``from ... import``, so a module-level function is replaced in every
``repro.*`` module that holds it, not only where it is defined; methods are
replaced on their class.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from collections import defaultdict
from time import perf_counter


class Tracer:
    """Spans of the current process; one instance per traced run."""

    def __init__(self) -> None:
        #: ``(name, op, parent, start, end, nested)``; ``nested`` marks a
        #: span opened inside another span of the same name.
        self.spans: list[tuple | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op = -1
        self._current = -1
        self._open: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def span(self, name: str, fn, args, kwargs, observe=None):
        """Call ``fn`` inside a span called ``name``."""
        spans = self.spans
        index = len(spans)
        parent = self._current
        nested = name in self._open
        spans.append(None)
        self._current = index
        self._open.append(name)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._open.pop()
            self._current = parent
            spans[index] = (name, self.op, parent, start, end, nested)
        if observe is not None:
            observe(self.counts, args, result)
        return result

    # -- wrapping ----------------------------------------------------------

    def wrap_method(self, cls, attr: str, name: str, observe=None) -> None:
        """Replace ``cls.attr`` by a spanning wrapper (classmethods included)."""
        raw = inspect.getattr_static(cls, attr)
        if isinstance(raw, classmethod):
            fn = raw.__func__

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, args, kwargs, observe)

            setattr(cls, attr, classmethod(wrapper))
        else:

            @functools.wraps(raw)
            def wrapper(*args, **kwargs):
                return self.span(name, raw, args, kwargs, observe)

            setattr(cls, attr, wrapper)
        self._restore.append((cls, attr, raw))

    def wrap_function(self, fn, name: str, observe=None) -> int:
        """Replace ``fn`` in every loaded ``repro`` module that binds it.

        Returns the number of bindings replaced.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.span(name, fn, args, kwargs, observe)

        replaced = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
                    self._restore.append((module, attr, fn))
                    replaced += 1
        return replaced

    def unwrap(self) -> None:
        """Put every replaced binding back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # -- output --------------------------------------------------------------

    def dump(self, path) -> None:
        """Write the spans as JSON lines (start/end relative to the first span)."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w") as handle:
            for index, (name, op, parent, start, end, _nested) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "op": op,
                            "parent": parent,
                            "start": round(start - origin, 9),
                            "end": round(end - origin, 9),
                        }
                    )
                    + "\n"
                )


def span_totals(spans) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
    """Per-name inclusive seconds, call counts and self seconds.

    Inclusive time counts only outermost spans of a name, so a recursive
    call is not counted twice.  Self time is a span's duration minus the
    durations of its direct children.
    """
    child_time = [0.0] * len(spans)
    for name, _op, parent, start, end, _nested in spans:
        if parent >= 0:
            child_time[parent] += end - start
    inclusive: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, _op, _parent, start, end, nested) in enumerate(spans):
        calls[name] += 1
        if not nested:
            inclusive[name] += end - start
        self_time[name] += end - start - child_time[index]
    return inclusive, calls, self_time
