"""Self-time spans recorded by wrapping the program's public functions.

A :class:`SpanRecorder` replaces each listed function with a thin
timing wrapper for the duration of a ``with recorder.installed():``
block.  The wrappers share one stack, so a span's *self* time is its
duration minus the time covered by the spans it encloses.  Totals are
aggregated per name in memory and read out after the block ends.

Functions imported by value (``from x import f``) are bound in several
modules; :meth:`SpanRecorder.patch_function` replaces every binding of
the same function object in every loaded ``repro`` module.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable


class SpanRecorder:
    """Aggregates call counts, total time and self time per span name."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Free-form counts bumped by ``on_result`` hooks.
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(
        self,
        fn: Callable,
        name: str,
        label: Callable[[tuple], str] | None = None,
        on_result: Callable[["SpanRecorder", object], None] | None = None,
    ) -> Callable:
        """Return ``fn`` wrapped in a span called ``name``.

        ``label(args)`` names a second bucket that also receives the
        span's self time (per-operator-class attribution);
        ``on_result(recorder, result)`` inspects the return value.
        """
        stack = self._stack
        clock = time.perf_counter
        calls, total_s, self_s = self.calls, self.total_s, self.self_s

        def spanned(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                own = elapsed - stack.pop()
                if stack:
                    stack[-1] += elapsed
                calls[name] += 1
                total_s[name] += elapsed
                self_s[name] += own
                if label is not None:
                    self_s[label(args)] += own
            if on_result is not None:
                on_result(self, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    def patch_method(self, cls: type, attr: str, name: str, **options) -> None:
        """Wrap the method ``cls.attr`` (defined on ``cls`` itself)."""
        original = vars(cls)[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, **options))

    def patch_function(self, module, attr: str, name: str, **options) -> None:
        """Wrap a module-level function at every module that binds it."""
        original = getattr(module, attr)
        wrapped = self.wrap(original, name, **options)
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith("repro") or mod is None:
                continue
            for binding, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, binding, original))
                    setattr(mod, binding, wrapped)

    @contextmanager
    def installed(self, install: Callable[["SpanRecorder"], None]):
        """Apply ``install(self)``'s patches for the ``with`` body."""
        install(self)
        try:
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)
