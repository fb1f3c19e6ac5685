"""Spans around the public functions of each cfirs layer.

A ``Tracer`` replaces module (or class) attributes with timing wrappers and
puts the originals back on ``restore``. Every wrapped call becomes one span:
a name, a start, an end, the span that caused it (the innermost open span)
and the solve it belongs to. Spans are kept in compact in-memory arrays and
written out once, when the benchmark ends.

Nothing in the package is edited: only names that the package itself looks
up at call time (``module.function`` or a method on a class) are replaced.
A name that no longer exists, or whose hook can no longer read its
arguments or result, is listed in ``missing`` and its metrics are reported
as missing; the run goes on without it.
"""

from __future__ import annotations

import functools
from array import array
from time import perf_counter

import numpy as np

NO_SPAN = -1


class Tracer:
    """In-memory span recorder with attribute patching.

    ``solve`` is the id stamped on new spans; the caller sets it around each
    solve and resets it to ``NO_SPAN`` outside solves.
    """

    def __init__(self):
        self.names = []
        self._codes = {}
        self.span_id = array("q")
        self.parent = array("q")
        self.name = array("h")
        self.solve_of = array("q")
        self.start = array("d")
        self.end = array("d")
        self.values = {}         # span id -> dict of counts a hook derived from the call
        self.solve = NO_SPAN
        self.missing = []
        self._stack = [NO_SPAN]
        self._next = 0
        self._patches = []

    def _code(self, name: str) -> int:
        if name not in self._codes:
            self._codes[name] = len(self.names)
            self.names.append(name)
        return self._codes[name]

    def wrap(self, fn, name: str, hook=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``hook(args, kwargs, result)`` runs after the span has closed and may
        return a dict of counts to attach to the span.
        """
        code = self._code(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1]
            solve = self.solve
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self._append(sid, parent, code, solve, t0, t1)
            if hook is not None:
                try:
                    values = hook(args, kwargs, out)
                except (TypeError, IndexError, KeyError, AttributeError):
                    # The function's signature or result changed: report
                    # its metrics as missing rather than fail the solve.
                    if name not in self.missing:
                        self.missing.append(name)
                    values = None
                if values:
                    self.values[sid] = values
            return out

        return traced

    def _append(self, sid, parent, code, solve, t0, t1):
        self.span_id.append(sid)
        self.parent.append(parent)
        self.name.append(code)
        self.solve_of.append(solve)
        self.start.append(t0)
        self.end.append(t1)

    def patch(self, owner, attr: str, name: str, hook=None) -> bool:
        """Wrap ``owner.attr`` (a module function or a plain method)."""
        original = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            self.missing.append(name)
            return False
        setattr(owner, attr, self.wrap(original, name, hook))
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        """Put every patched attribute back, innermost patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def table(self) -> dict:
        """Spans as numpy columns ordered by span id, with self times.

        A span's self time is its duration minus the durations of its direct
        children; spans of one thread nest, so this is the part of its
        interval that no child covers.
        """
        order = np.argsort(np.frombuffer(self.span_id, dtype=np.int64), kind="stable")
        sid = np.frombuffer(self.span_id, dtype=np.int64)[order]
        parent = np.frombuffer(self.parent, dtype=np.int64)[order]
        start = np.frombuffer(self.start, dtype=np.float64)[order]
        end = np.frombuffer(self.end, dtype=np.float64)[order]
        dur = end - start
        row_of = np.full(self._next, -1, dtype=np.int64)
        row_of[sid] = np.arange(sid.size)
        has_parent = parent >= 0
        child = np.zeros(sid.size)
        np.add.at(child, row_of[parent[has_parent]], dur[has_parent])
        return {
            "id": sid,
            "parent": parent,
            "name": np.frombuffer(self.name, dtype=np.int16)[order],
            "solve": np.frombuffer(self.solve_of, dtype=np.int64)[order],
            "start": start,
            "end": end,
            "dur": dur,
            "self": dur - child,
        }

    def save(self, path) -> None:
        """Write every span to an ``.npz`` file (names as a string table)."""
        cols = self.table()
        np.savez_compressed(
            path,
            names=np.asarray(self.names),
            **{k: cols[k] for k in ("id", "parent", "name", "solve", "start", "end")},
        )
