"""Span tracer that instruments the ``repro`` package from outside.

The benchmark never edits the program under test.  Instead it replaces the
public functions and methods of each layer with thin wrappers for the
duration of a traced pass, and puts the originals back afterwards.  Every
wrapper opens a span on entry and closes it on exit; a span's *self time* is
its duration minus the time covered by wrapped calls nested inside it, so the
per-layer numbers add up to the traced wall time without double counting.

Calls are counted per span name at the outermost entry only: a method that
re-enters its own layer (``step`` calling ``begin_step``, a cluster session
advancing its member engines) counts once.

Optional ``after`` hooks see the call's arguments and result and may bump
named counters, which is how work counts such as transitions, observed gain
pairs or control-plane verdicts are recorded at the layer boundary.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = ["Tracer", "SpanStats"]


class SpanStats:
    """Aggregate of every closed span with one name."""

    __slots__ = ("self_s", "total_s", "calls")

    def __init__(self) -> None:
        self.self_s = 0.0
        self.total_s = 0.0
        self.calls = 0


class Tracer:
    """Wraps layer entry points, records self time and counters, restores.

    Use :meth:`wrap_method` / :meth:`wrap_function` to install wrappers,
    :meth:`restore` (or the context-manager protocol) to remove every one of
    them again.  ``clock`` is injectable so the self-time arithmetic can be
    tested with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.stats: dict[str, SpanStats] = defaultdict(SpanStats)
        self.counters: dict[str, int] = defaultdict(int)
        # Open spans, innermost last: [name, start, child_time].
        self._stack: list[list[Any]] = []
        self._open: dict[str, int] = defaultdict(int)
        # (owner, attribute, original) in install order; restored in reverse.
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    # Span bookkeeping
    # ------------------------------------------------------------------ #
    def enter(self, name: str) -> None:
        self._open[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child_time = self._stack.pop()
        duration = self.clock() - start
        stats = self.stats[name]
        stats.self_s += duration - child_time
        self._open[name] -= 1
        if self._open[name] == 0:
            stats.total_s += duration
            stats.calls += 1
        if self._stack:
            self._stack[-1][2] += duration

    def inside(self, name: str) -> bool:
        """Whether a span called ``name`` is open right now."""
        return self._open[name] > 0

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += int(amount)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Open one span around a block (for phases the benchmark drives)."""
        self.enter(name)
        try:
            yield
        finally:
            self.exit()

    # ------------------------------------------------------------------ #
    # Installing and removing wrappers
    # ------------------------------------------------------------------ #
    def _wrapper(self, func: Callable, name: str, after: Callable | None) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            tracer.enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer.exit()
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def patch(self, owner: type, attr: str, decorate: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` (defined on ``owner`` itself) by ``decorate(original)``.

        Plain functions, classmethods and staticmethods are supported; a
        subclass override must be patched on the subclass separately.  The
        original goes back on :meth:`restore`.
        """
        original = owner.__dict__.get(attr)
        if original is None:
            raise AttributeError(f"{owner.__name__} does not define {attr!r} itself")
        if isinstance(original, (classmethod, staticmethod)):
            replacement: Any = type(original)(decorate(original.__func__))
        elif callable(original):
            replacement = decorate(original)
        else:
            raise TypeError(f"{owner.__name__}.{attr} is not a function")
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def wrap_method(self, owner: type, attr: str, name: str, after: Callable | None = None) -> None:
        """Open span ``name`` around every call of ``owner.attr``."""
        self.patch(owner, attr, lambda func: self._wrapper(func, name, after))

    def wrap_function(self, func: Callable, name: str, after: Callable | None = None) -> None:
        """Wrap a module-level function of ``repro`` under every name that binds it.

        ``from x import f`` copies the reference into the importing module,
        so every ``repro`` module holding the same object is rebound.
        """
        wrapper = self._wrapper(func, name, after)
        bound = False
        for module_name, module in list(sys.modules.items()):
            if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._patches.append((module, attr, func))
                    setattr(module, attr, wrapper)
                    bound = True
        if not bound:
            raise LookupError(f"{func.__qualname__} is not bound in any repro module")

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> int:
        return len(self._patches)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # ------------------------------------------------------------------ #
    # Reading results
    # ------------------------------------------------------------------ #
    def self_s(self, name: str) -> float:
        return self.stats[name].self_s if name in self.stats else 0.0

    def total_s(self, name: str) -> float:
        return self.stats[name].total_s if name in self.stats else 0.0

    def calls(self, name: str) -> int:
        return self.stats[name].calls if name in self.stats else 0

