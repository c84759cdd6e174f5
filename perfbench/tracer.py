"""Layer tracing installed from outside the program.

The benchmark never edits ``src/``.  Instead it replaces the public
callables of each ``repro`` module with timing wrappers *at their use
sites*: many of them (``to_html``, ``extract_price_from_document``,
``build_world`` ...) are imported by value, so patching only the defining
module would miss the calls that matter.  :func:`patch_everywhere` walks
every loaded ``repro.*`` module and rebinds each name that refers to the
original object.

Every wrapped call records one span (name, start_ns, end_ns, parent, op)
in per-thread columns.  ``parent`` is the index of the enclosing
span in the same thread (``-1`` for a root), and ``op`` is the check or
request id the span works for (the fan-out's ``check_id``, or a served
request's sequence number), inherited by every child.  Spans stay in
memory, in typed arrays rather than one object per span so that the
collector's full passes do not grow with the trace; :meth:`Tracer.dump`
writes them out when the run ends.

A layer's self time is its spans' durations minus the parts covered by
their child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Callable, Optional


def patch_everywhere(original, replacement) -> int:
    """Rebind every ``repro.*`` module attribute that *is* ``original``.

    Returns how many bindings changed; 0 means the callable was renamed or
    moved and the layer would silently read zero, so callers fail loudly.
    """
    count = 0
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                count += 1
    return count


class _Thread:
    """One thread's spans, column by column."""

    __slots__ = ("names", "starts", "ends", "parents", "ops", "stack")

    def __init__(self) -> None:
        self.names = array("H")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.ops: list = []
        self.stack: list[int] = []


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._register = threading.Lock()
        self.names: list[str] = []
        self.counters: dict[str, float] = {}
        self._counter_lock = threading.Lock()
        self._op_ids = itertools.count(1)
        self.objects: dict[str, set] = {}

    # -- recording ------------------------------------------------------
    def _thread(self) -> _Thread:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _Thread()
            with self._register:
                self._threads.append(state)
        return state

    def count(self, key: str, amount: float = 1) -> None:
        with self._counter_lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def remember(self, kind: str, obj) -> None:
        """Keep a program object whose counters are read after the run."""
        with self._counter_lock:
            self.objects.setdefault(kind, set()).add(obj)

    def new_op(self) -> str:
        return f"req{next(self._op_ids)}"

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        op_of: Optional[Callable] = None,
        after: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` recording a span named ``name`` per call.

        ``op_of(args)`` names the operation the span starts (else the
        parent's is inherited); ``after(args, result)`` updates counters
        from the call's outcome.  An exception is counted as
        ``<name>_failures`` and re-raised.
        """
        tracer = self
        clock = time.perf_counter_ns
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            state = tracer._thread()
            stack = state.stack
            parent = stack[-1] if stack else -1
            if op_of is not None:
                op = op_of(args)
            else:
                op = state.ops[parent] if parent >= 0 else None
            index = len(state.starts)
            state.names.append(name_id)
            state.parents.append(parent)
            state.ops.append(op)
            state.ends.append(0)
            stack.append(index)
            state.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.count(f"{name}_failures")
                raise
            finally:
                state.ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- results --------------------------------------------------------
    def threads(self) -> list[_Thread]:
        with self._register:
            return list(self._threads)

    def layer_totals(self) -> dict[str, dict[str, float]]:
        """Per span name: ``calls``, total ``self_s`` and ``root_s``.

        ``root_s`` sums root spans only; on one thread it equals the sum
        of every layer's self time when spans nest properly, which the
        self-test checks.
        """
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        root_ns = [0] * len(self.names)
        for state in self.threads():
            n = len(state.starts)
            child_ns = [0] * n
            starts, ends, parents, names = (
                state.starts, state.ends, state.parents, state.names
            )
            for i in range(n):
                if parents[i] >= 0:
                    child_ns[parents[i]] += ends[i] - starts[i]
            for i in range(n):
                duration = ends[i] - starts[i]
                calls[names[i]] += 1
                self_ns[names[i]] += duration - child_ns[i]
                if parents[i] < 0:
                    root_ns[names[i]] += duration
        return {
            name: {"calls": calls[i], "self_s": self_ns[i] / 1e9,
                   "root_s": root_ns[i] / 1e9}
            for i, name in enumerate(self.names) if calls[i]
        }

    def nesting_errors(self) -> int:
        """Spans that are unfinished or stick out of their parent."""
        bad = 0
        for state in self.threads():
            starts, ends, parents = state.starts, state.ends, state.parents
            for i in range(len(starts)):
                parent = parents[i]
                if ends[i] < starts[i]:
                    bad += 1
                elif parent >= 0 and (
                    starts[i] < starts[parent] or ends[i] > ends[parent]
                ):
                    bad += 1
        return bad

    def dump(self, path: Path) -> None:
        """Write every span as one JSON line: name, start, end, parent, op."""
        with open(path, "w", encoding="utf-8") as fh:
            for thread, state in enumerate(self.threads()):
                for i in range(len(state.starts)):
                    fh.write(json.dumps({
                        "thread": thread, "index": i,
                        "name": self.names[state.names[i]],
                        "start_ns": state.starts[i], "end_ns": state.ends[i],
                        "parent": state.parents[i], "op": state.ops[i],
                    }) + "\n")
