"""In-memory spans around calls into the karmabid modules.

A span is (name, start, end, parent): `parent` is the index of the
enclosing span in the same list, or None at the top. Spans are recorded
by wrapping module attributes from outside the library, so nothing under
src/karmabid changes. A wrapper replaces the function in every loaded
karmabid module that holds it (both the defining module and every
`from .x import f` copy), because Python looks a global up in the
calling module at call time. A function that no longer exists is
reported as absent, never as an error.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Optional

clock = time.perf_counter


class Tracer:
    """Records nested spans in memory; `spans` is written out by the caller."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), None, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def wrap(
        self,
        fn: Callable,
        name: str,
        label: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """Wrap fn in a span called name (plus '.<label(args)>' if given).

        after(result, *args, **kwargs) runs once fn returns, inside a
        'bench.check' span, so its cost counts as nobody's self time
        but the benchmark's.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name if label is None else f"{name}.{label(*args, **kwargs)}"
            index = self.open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                check = self.open("bench.check")
                try:
                    after(result, *args, **kwargs)
                finally:
                    self.close(check)
            return result

        return wrapper


def instrument(
    tracer: Tracer,
    module_name: str,
    attr: str,
    span_name: str,
    label: Optional[Callable] = None,
    after: Optional[Callable] = None,
    package: str = "karmabid",
) -> bool:
    """Wrap module_name.attr wherever a loaded `package` module holds it.

    Returns False (absent) when the module or the attribute is gone.
    """
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return False
    original = getattr(module, attr, None)
    if not callable(original):
        return False
    wrapper = tracer.wrap(original, span_name, label=label, after=after)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == package or mod_name.startswith(package + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, wrapper)
    return True


def self_times(spans: list) -> list[float]:
    """Per span: its duration minus the part of it that child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, [])):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out
