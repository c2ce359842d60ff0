"""Spans around the program's public functions, from outside the program.

A :class:`Tracer` wraps functions so that each call records a span
``(name, start, end, parent, item)``: ``parent`` is the index of the
enclosing span and ``item`` the workload input being processed.  A
span's self time is its duration minus the durations of its direct
children, which in one thread never overlap.

:func:`patched` installs one wrapper per function in *every* place the
package binds it: module globals (``from .predicates import
is_k_sum_free`` copies the binding into each importing module) and
class attributes (``IntervalSet.__or__ = union`` is a second binding of
the same function).  Patching only the defining module would leave
those calls uncounted.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

#: modules of this package are searched for bindings
PACKAGE = "sumfree"


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = None
        self.notes = {}
        self._stack = []

    def wrap(self, name, fn, observe=None):
        """``fn`` recording a span per call; ``observe(tracer, span, args,
        result)`` runs after each call that returned."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.item)
            if observe is not None:
                observe(self, spans[idx], args, result)
            return result

        return traced

    def note(self, key, value=1):
        self.notes[key] = self.notes.get(key, 0) + value

    def self_times(self, duration=None) -> dict:
        """name -> (calls, total self seconds); ``duration(start, end)``
        gives a span's seconds, by default its wall-clock time."""
        if duration is None:
            duration = lambda start, end: end - start  # noqa: E731
        total = [duration(start, end) for _, start, end, _, _ in self.spans]
        child = [0.0] * len(self.spans)
        for i, (_, _, _, parent, _) in enumerate(self.spans):
            if parent is not None:
                child[parent] += total[i]
        out = {}
        for i, (name, _, _, _, _) in enumerate(self.spans):
            calls, self_s = out.get(name, (0, 0.0))
            out[name] = (calls + 1, self_s + total[i] - child[i])
        return out

    def count_within(self, name, ancestor) -> int:
        """Spans called ``name`` that run inside a span called ``ancestor``."""
        n = 0
        for span in self.spans:
            if span[0] != name:
                continue
            parent = span[3]
            while parent is not None:
                if self.spans[parent][0] == ancestor:
                    n += 1
                    break
                parent = self.spans[parent][3]
        return n


def _bindings(classes, originals):
    """Every (owner, attribute, value) that binds one of ``originals``."""
    wanted = {id(fn) for fn in originals}
    owners = [
        mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
    ]
    owners.extend(classes)
    found = []
    for owner in owners:
        for attr, value in list(vars(owner).items()):
            target = value.__func__ if isinstance(value, classmethod) else value
            if id(target) in wanted:
                found.append((owner, attr, value))
    return found


@contextmanager
def patched(tracer: Tracer, targets, classes=()):
    """Replace every binding of each target with a traced wrapper.

    ``targets`` lists ``(span name, function, observe or None)``.  All
    bindings are restored on exit.
    """
    wrappers = {id(fn): tracer.wrap(name, fn, observe) for name, fn, observe in targets}
    saved = _bindings(classes, [fn for _, fn, _ in targets])
    try:
        for owner, attr, value in saved:
            if isinstance(value, classmethod):
                setattr(owner, attr, classmethod(wrappers[id(value.__func__)]))
            else:
                setattr(owner, attr, wrappers[id(value)])
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def unpatched_bindings(targets, classes=()):
    """Bindings of the targets' original functions still in place."""
    return _bindings(classes, [fn for _, fn, _ in targets])
