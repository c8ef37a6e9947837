"""Spans around varidb's public functions, recorded from outside the program.

`Tracer.install` replaces each listed function with a timing wrapper and
rebinds the name in every ``varidb`` module that holds the original.  The
rebinding is what makes the trace complete: modules import with
``from .featexpr import sat``, so patching ``varidb.featexpr.sat`` alone
would miss every caller outside featexpr.  Recursive functions call
themselves through their module's global name, so each operator of an
evaluation gets its own span.

Spans live in memory as ``(request, span, parent, name, start, end)`` tuples
and are written out by `write_spans` when the run ends.  Self time is a
span's duration minus the time its child spans cover; it is summed per
function while the spans close.  Functions marked hot (called tens of
thousands of times per request) are timed and counted the same way but
leave no span record of their own, which keeps the span list small.
Functions marked count-only are counted and not timed.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class _Frame:
    __slots__ = ("span", "name", "child_time", "child_rows")

    def __init__(self, span: int, name: str):
        self.span = span
        self.name = name
        self.child_time = 0.0
        self.child_rows: list[int] = []


class Tracer:
    def __init__(self) -> None:
        self.request = -1
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[_Frame] = []
        self._ids = itertools.count(1)
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self, package: str, spec: dict[str, dict]) -> None:
        """Wrap every `module.function` in `spec` and rebind its name.

        `spec` maps ``"module.function"`` to options: ``hot`` (no span
        record), ``count_only`` (no timing) and ``after`` (a callback
        ``after(tracer, frame, parent, args, result)`` that adds counters).
        """
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == package or name.startswith(package + "."))
        }
        for qualified, opts in spec.items():
            mod_name, fn_name = qualified.rsplit(".", 1)
            original = getattr(modules[f"{package}.{mod_name}"], fn_name)
            if opts.get("count_only"):
                wrapper = self._counter(qualified, original)
            else:
                wrapper = self._timer(qualified, original, opts.get("hot", False), opts.get("after"))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patched.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- wrappers ---------------------------------------------------------

    def _counter(self, name: str, fn):
        calls = self.calls

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _timer(self, name: str, fn, hot: bool, after):
        stack = self._stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            frame = _Frame(0 if hot else next(self._ids), name)
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                if parent is not None:
                    parent.child_time += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - frame.child_time
                if not hot:
                    self.spans.append(
                        (self.request, frame.span, parent.span if parent else 0, name, start, end)
                    )
            if after is not None:
                after(self, frame, parent, args, result)
                if parent is not None:  # bookkeeping is nobody's self time
                    parent.child_time += clock() - end
            return result

        return timed

    # -- output -----------------------------------------------------------

    def write_spans(self, path: Path) -> None:
        """One JSON array per line: request, span, parent, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
