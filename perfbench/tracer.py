"""In-memory span recorder wrapped around the program's public calls.

The benchmark measures the unmodified program, so per-layer timing comes
from outside: :meth:`Tracer.wrap` replaces a public function or method
with a wrapper that records ``(name, start, end, parent)`` and calls the
original.  The current span lives in a :class:`contextvars.ContextVar`,
which gives each thread (the server's device thread, the event loop) and
each asyncio task (the cluster router's replica fan-out) its own parent
chain.  Spans stay in memory until :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import json
import time


class Tracer:
    """Collects spans; a span is ``[name, start, end, parent, attrs, ok]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _open(self, name: str, attrs) -> tuple[list, contextvars.Token]:
        record = [name, time.monotonic(), 0.0, self._current.get(), attrs, True]
        self.spans.append(record)
        return record, self._current.set(record)

    def _close(self, record: list, token: contextvars.Token, ok: bool) -> None:
        record[2] = time.monotonic()
        record[5] = ok
        self._current.reset(token)

    def traced(self, fn, name: str, attrs=None, on_result=None):
        """``fn`` wrapped in a span; ``attrs(*args, **kwargs)`` and
        ``on_result(record, result)`` may annotate it."""
        if inspect.iscoroutinefunction(fn):
            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                record, token = self._open(
                    name, attrs(*args, **kwargs) if attrs else None
                )
                ok = False
                try:
                    result = await fn(*args, **kwargs)
                    ok = True
                finally:
                    self._close(record, token, ok)
                if on_result is not None:
                    on_result(record, result)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record, token = self._open(
                name, attrs(*args, **kwargs) if attrs else None
            )
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                self._close(record, token, ok)
            if on_result is not None:
                on_result(record, result)
            return result

        return wrapper

    def wrap(self, owner, attr: str, name: str, attrs=None, on_result=None) -> None:
        """Replace ``owner.attr`` (a module function or a method defined on
        the class itself) with its traced form; :meth:`uninstall` undoes it."""
        self.replace(owner, attr, self.traced(
            getattr(owner, attr), name, attrs, on_result))

    def replace(self, owner, attr: str, value) -> None:
        """Set ``owner.attr`` to ``value`` until :meth:`uninstall`."""
        if attr not in vars(owner):
            raise AttributeError(f"{owner!r} does not define {attr}")
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def clear(self) -> None:
        self.spans.clear()

    # -- persistence ---------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span as one JSON line ``[name, start, end, parent
        index, attrs, ok]``; parents always precede their children."""
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.as_rows():
                fh.write(json.dumps(row) + "\n")

    def as_rows(self) -> list[list]:
        """The in-memory spans in the same shape :func:`load` returns."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        return [
            [name, start, end,
             index[id(parent)] if parent is not None else -1, attrs, ok]
            for name, start, end, parent, attrs, ok in self.spans
        ]


def load(path: str) -> list[list]:
    """Spans written by :meth:`Tracer.dump`."""
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


# -- installation ------------------------------------------------------------


def install(tracer: Tracer, targets) -> None:
    """Wrap each ``(module, class or None, attribute, span name, attrs,
    on_result)`` target."""
    for module_name, class_name, attr, name, attrs, on_result in targets:
        owner = importlib.import_module(module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        tracer.wrap(owner, attr, name, attrs, on_result)
