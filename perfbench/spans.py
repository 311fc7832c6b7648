"""Outside-in tracing of a ``dnabwt build`` process.

:class:`Tracer` replaces the public entry points of each module with
wrappers that record one span per call: name, start, end, parent span,
thread, and up to two work counts taken from the call's arguments. No file
of the program changes; the wrappers are installed at run time by
``cli_child.py`` before the CLI module executes.

Each thread keeps its own span stack, so a span's parent is the innermost
open span of the same thread. A span opened on a pool thread with an empty
stack takes the main thread's innermost open span as its parent (the
dispatching ``merge_many``). Self time subtracts only same-thread children,
which keeps it non-negative when merges run on a thread pool.

Spans stay in memory and are written out once, when the process ends.
"""
from __future__ import annotations

import functools
import itertools
import threading
import time
from typing import Callable

import numpy as np

# work counts per span: (a, b) from the wrapped call's positional arguments
_Work = Callable[[tuple], tuple[int, int]]


def _none(args: tuple) -> tuple[int, int]:
    return 0, 0


def _entry_points() -> list[tuple[object, str, str, _Work]]:
    """(owner, attribute, span name, work counter) for every traced call."""
    from dnabwt import buckets, collection, counttree, engine

    points: list[tuple[object, str, str, _Work]] = [
        # cli imports this name, so it is replaced before cli executes
        (collection, "parse_sequences", "collection.parse", _none),
        (collection.WordCollection, "fetch_codes", "collection.fetch", _none),
        (engine.BwtBuilder, "__init__", "engine.init", _none),
        (engine.BwtBuilder, "run", "engine.run", _none),
        (engine.BwtBuilder, "activate_new_words", "engine.activate", _none),
        # a = active words this round
        (engine, "plan_iteration", "engine.plan", lambda a: (len(a[0]), 0)),
        (engine, "stable_radix_step", "engine.resort", _none),
        (counttree.TreeArray, "update_prefix_totals", "counttree.prefix_totals", _none),
        (counttree.TreeArray, "apply_left_increments", "counttree.left_increments", _none),
        (counttree.TreeArray, "accumulators_for", "counttree.accumulators", _none),
        # a = symbols copied from the old bucket, b = symbols inserted
        (buckets, "_splice", "buckets.splice", lambda a: (len(a[0]), len(a[1]))),
    ]
    for store in (buckets.MemoryBucketStore, buckets.ExternalBucketStore):
        points += [
            (store, "merge_many", "buckets.merge_many", _none),
            # a = symbols inserted, terminators included
            (store, "merge_insert", "buckets.merge_insert", lambda a: (len(a[3]), 0)),
            (store, "assemble", "buckets.assemble", _none),
        ]
    return points


class Tracer:
    """Span recorder; :meth:`install` wraps the entry points, :meth:`dump` saves."""

    def __init__(self) -> None:
        self.names: list[str] = []
        # (span id, name id, start, end, parent id, thread, a, b)
        self.rows: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def _wrap(self, fn: Callable, name: str, work: _Work) -> Callable:
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        rows, ids, stack_of, main = self.rows, self._ids, self._stack, self._main_stack
        clock, ident = time.perf_counter, threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            parent = stack[-1] if stack else (main[-1] if main else -1)
            sid = next(ids)
            a, b = work(args)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.append((sid, nid, start, end, parent, ident(), a, b))

        return traced

    def install(self) -> None:
        for owner, attr, name, work in _entry_points():
            setattr(owner, attr, self._wrap(getattr(owner, attr), name, work))

    def dump(self, path: str) -> None:
        rows = sorted(self.rows)
        ints = np.array([(r[0], r[1], r[4], r[5], r[6], r[7]) for r in rows], dtype=np.int64)
        times = np.array([(r[2], r[3]) for r in rows], dtype=np.float64)
        np.savez(path, names=np.array(self.names), ints=ints.reshape(-1, 6),
                 times=times.reshape(-1, 2))


def memcpy_ns_per_sym(chunk: int) -> float:
    """ns per byte of a numpy copy of ``chunk`` bytes, the mean splice size.

    Repeated over up to 64 MiB, so per-call overhead weighs as it does in
    a splice of that size.
    """
    chunk = max(1, int(chunk))
    src = np.ones(chunk, dtype=np.uint8)
    dst = np.empty_like(src)
    reps = max(1, min((1 << 26) // chunk, 20_000))
    t0 = time.perf_counter()
    for _ in range(reps):
        dst[:] = src
    return (time.perf_counter() - t0) * 1e9 / (reps * chunk)


def summarize(path: str, sparse_below: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive and self seconds, and summed work counts.

    ``sparse`` counts calls whose first work count is below ``sparse_below``
    (for ``engine.plan``, rounds with few active words).
    """
    with np.load(path) as z:
        names = [str(n) for n in z["names"]]
        sid, nid, parent, thread, a, b = z["ints"].T
        start, end = z["times"].T
    dur = end - start
    # span ids are dense and sorted, so a parent id is its row index;
    # children on the same thread as their parent count against its self time
    same = parent >= 0
    same[same] = thread[parent[same]] == thread[same]
    child = np.bincount(parent[same], weights=dur[same], minlength=len(sid))
    self_time = dur - child
    out = {}
    for i, name in enumerate(names):
        sel = nid == i
        out[name] = {
            "calls": int(sel.sum()),
            "total_s": float(dur[sel].sum()),
            "self_s": float(self_time[sel].sum()),
            "a": int(a[sel].sum()),
            "b": int(b[sel].sum()),
            "sparse": int((a[sel] < sparse_below).sum()),
        }
    return out
