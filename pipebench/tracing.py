"""Per-layer self-time tracing from outside the program.

The traced run wraps public functions of each pipeline layer with a
timer for the duration of one ``with Tracer.installed():`` block and
restores the originals afterwards, so the untraced run executes the
program unmodified.  A span's *self time* is its duration minus the
time covered by spans nested inside it (``bfv.encrypt_s`` does not
include the captures the encryption runs), so the self times of all
layers plus ``other_s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Span stack with per-layer self-time and count accumulators."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        # one entry per open span: time covered by its children so far
        self._children: List[float] = []

    # ------------------------------------------------------------------
    def count(self, name: str, amount: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(amount)

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        """Time the enclosed block as one span of ``layer``."""
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - children
            if self._children:
                self._children[-1] += duration

    def wrap(
        self,
        layer: str,
        fn: Callable,
        on_result: Optional[Callable[["Tracer", object], None]] = None,
    ) -> Callable:
        """``fn`` timed as a span of ``layer``; ``on_result`` records
        counts from what the call returned."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # ------------------------------------------------------------------
    @contextmanager
    def installed(self, hooks: "List[Hook]") -> Iterator["Tracer"]:
        """Patch every hook's target for the duration of the block."""
        undo: List[Tuple[object, str, object, bool]] = []
        try:
            for hook in hooks:
                undo.append(_patch(self, hook))
            yield self
        finally:
            for owner, name, original, owned in reversed(undo):
                if isinstance(owner, dict):
                    owner[name] = original
                elif owned:
                    setattr(owner, name, original)
                else:
                    delattr(owner, name)


@dataclass
class Hook:
    """One public function to time: ``owner.name`` (a class attribute,
    module attribute or dict entry) accounted to ``layer``."""

    layer: str
    owner: object
    name: str
    on_result: Optional[Callable[[Tracer, object], None]] = None


def _patch(tracer: Tracer, hook: Hook) -> Tuple[object, str, object, bool]:
    owner, name = hook.owner, hook.name
    if isinstance(owner, dict):
        original = owner[name]
        owner[name] = tracer.wrap(hook.layer, original, hook.on_result)
        return owner, name, original, True
    original = inspect.getattr_static(owner, name)
    owned = name in vars(owner)
    if isinstance(original, (classmethod, staticmethod)):
        wrapped = type(original)(
            tracer.wrap(hook.layer, original.__func__, hook.on_result))
    else:
        wrapped = tracer.wrap(hook.layer, original, hook.on_result)
    setattr(owner, name, wrapped)
    return owner, name, original, owned
