"""Iterative construction of the multi-word transform.

Words are processed right-aligned: word j starts contributing symbols at
iteration ``M - |S_j|`` (M = longest word), so every word submits its first
character in iteration M-1 and its terminator in iteration M. Per
iteration, each active word's symbol is routed through the count trees to
its context bucket and spliced into the bucket stream; the bucket-level
rank counted on the spliced content, the tree accumulators and the cumulative
prefix totals together yield the word's next insert position without ever
materialising a global position.

The active list is kept sorted by (context, tree-relative position). After
an iteration it is re-sorted for the next one by a single stable partition
on the symbol just inserted, and newly started words are prepended with
positions taken from a rank over the activation bitvector.

Rounds before the final one run on plain Python ints while at most
``SPARSE_MAX`` words are active, which avoids per-round numpy arrays in the
long runs of rounds where only the longest words are active. Words join
but never leave before the final round, so these sparse rounds are a
prefix, and one loop runs them all (``BwtBuilder._sparse_rounds``): each
symbol is read as a Python int from the packed words, each bucket's batch
goes to the store as lists, and the store splices it in place, so such a
round costs about its words' Python steps. The rounds after it run on
per-round numpy arrays, which go to the store whole.
"""
from __future__ import annotations

import functools
import math
import os
import tempfile
import warnings
from dataclasses import dataclass
from io import BytesIO
from typing import BinaryIO, Callable, Optional

import numpy as np

from .buckets import (
    ConsistencyError,
    ExternalBucketStore,
    MemoryBucketStore,
    context_symbols,
)
from .collection import DOLLAR, WordCollection
from .counttree import TreeArray

BACKENDS = ("external", "memory")

# the words and positions of a round in which no word starts
_NONE = np.empty(0, dtype=np.int64)

# a round before the final one with at most this many active words runs on
# Python ints (BwtBuilder._sparse_rounds); the measured crossover, see README
SPARSE_MAX = 32

# largest accepted kappa. Every dense round works over all 2**kappa leaves:
# the count trees hold 56 bytes a leaf (59 MB at 20, under tracemalloc), and
# a 40-word build peaks at about four times that (236 MB traced at 20)
MAX_KAPPA = 19


class ConfigError(ValueError):
    pass


@dataclass
class Config:
    """Build parameters.

    ``kappa`` is the navigation-bit count (two per context symbol; odd
    values use only the first bit of the last symbol). ``threads`` is
    accepted and ignored: every build merges its buckets one at a time on
    the calling thread. ``tmp_dir``, if given, must be a directory, in
    which the external backend makes its own.
    """

    kappa: int = 5
    threads: Optional[int] = None
    tmp_dir: Optional[str] = None
    backend: str = "external"

    def __post_init__(self) -> None:
        if not isinstance(self.kappa, int) or not 3 <= self.kappa <= MAX_KAPPA:
            msg = f"kappa must be an integer in [3, {MAX_KAPPA}], got {self.kappa}"
            if isinstance(self.kappa, int) and self.kappa > MAX_KAPPA:
                k = self.kappa
                msg += (f": the count trees alone would hold 2**{k} leaves x 56 bytes ({(56 << k) / 1e6:,.0f} MB), "
                        "and a small build peaks at about four times that")
            raise ConfigError(msg)
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend must be one of {BACKENDS}, got {self.backend!r}")
        if self.tmp_dir is not None and not os.path.isdir(self.tmp_dir):
            raise ConfigError(f"tmp_dir {self.tmp_dir} is not a directory")
        self.threads = max(1, int(self.threads or 1))


class StartBitvector:
    """Activation bits with rank support: bit j is set when word j starts."""

    def __init__(self, m: int):
        self.bits = np.zeros(m, dtype=np.uint8)

    def set_many(self, js: np.ndarray) -> None:
        self.bits[js] = 1

    def ranks(self, js: np.ndarray) -> np.ndarray:
        """Per position in ``js``, the number of set bits strictly below it."""
        csum = np.cumsum(self.bits, dtype=np.int64)
        return csum[js] - self.bits[js]


def next_positions(counters, tree_sym, sym, acc, rank, alpha_next):
    """Tree-relative insert positions of the words' next symbols.

    Elementwise over arrays (dense rounds) or on Python ints (sparse rounds).
    A word whose symbol ``sym`` went into tree ``tree_sym`` next inserts at
    the count of ``sym`` stored before that tree, plus the bucket
    accumulator for ``sym``, plus the rank of ``sym`` captured during the
    splice, plus ``alpha_next`` when ``sym`` is A: the A tree also fronts the
    rows of the ``alpha_next`` words started by the next round. ``counters``
    is the tree's counter table or its memoryview ``view``; its last row is the
    all-zero pad, so row ``tree_sym - 1`` gives the A tree base 0.
    """
    return counters[tree_sym - 1, sym] + acc + rank + (sym == 0) * alpha_next


def plan_iteration(ordinals):
    """Group a sorted ordinal sequence into contiguous bucket slices.

    Returns (unique ordinals, boundary indices); slice i of the active list
    is ``bounds[i]:bounds[i+1]``. Arrays give arrays; a list (sparse
    rounds) is grouped in plain Python and gives lists.
    """
    n = len(ordinals)
    if isinstance(ordinals, list):
        uniq, bounds = ordinals[:1], [0]
        for i in range(1, n):
            if ordinals[i] != ordinals[i - 1]:
                uniq.append(ordinals[i])
                bounds.append(i)
        if n:
            bounds.append(n)
        return uniq, bounds
    if n == 0:
        return np.empty(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
    cuts = np.flatnonzero(np.diff(ordinals)) + 1
    bounds = np.concatenate([[0], cuts, [n]])
    return ordinals[bounds[:-1]], bounds


def stable_radix_step(
    syms: np.ndarray, *arrays: np.ndarray
) -> tuple[np.ndarray, ...]:
    """Re-sort the active list for the next iteration.

    One stable partition of the entries into A, C, G, T groups keyed by the
    symbol each word just inserted.
    """
    order = np.argsort(syms, kind="stable")
    return tuple(a[order] for a in arrays)


class BwtBuilder:
    """One construction run; keeps its tree and bucket store inspectable."""

    def __init__(self, collection: WordCollection, config: Config | None = None):
        self.collection = collection
        self.config = config or Config()
        kappa = self.config.kappa
        # kappa 3 is the least allowed, so it is always within the range
        suggested = max(3, int(2 * math.log(max(collection.total_length, 2), 4)))
        if kappa > suggested:
            warnings.warn(
                f"kappa={kappa} is outside the well-tested range for this input "
                f"(suggested <= {suggested})",
                RuntimeWarning,
                stacklevel=3,
            )
        self.tree = TreeArray(kappa)
        self.store = None  # made by run(), from the bucket sizes it counts
        self.t = -1
        self._active: tuple = ([], [], [])
        self.alpha = 0

    # -- activation -----------------------------------------------------------

    def _prepare_starts(self) -> None:
        c = self.collection
        starts = (c.max_length - c.lengths).astype(np.int64)
        order = np.argsort(starts, kind="stable")  # ties resolved by word index
        # the rounds where some word starts, each with its words, and no
        # other: one word of millions of symbols spans as many rounds
        rounds, first = np.unique(starts[order], return_index=True)
        self._starting = dict(zip(rounds.tolist(), np.split(order, first[1:])))

    def activate_new_words(self, sb: StartBitvector, t: int) -> tuple[np.ndarray, np.ndarray]:
        """Set activation bits for words starting at t; return (indices, positions)."""
        new_js = self._starting.get(t)
        if new_js is None:
            return _NONE, _NONE
        sb.set_many(new_js)
        self.alpha += len(new_js)
        return new_js, sb.ranks(new_js)

    # -- main loop --------------------------------------------------------------

    @property
    def active_state(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(word indices, tree-relative positions, contexts) of the current round."""
        return tuple(np.asarray(a, dtype=np.int64) for a in self._active)

    def run(self, inspect: Callable[["BwtBuilder"], None] | None = None,
            out: BinaryIO | None = None) -> bytes | int:
        """Build the transform. Given a binary stream ``out``, write it there
        one bucket at a time and return its length; else return it."""
        if self.store is not None:
            raise RuntimeError("BwtBuilder.run() builds once: make a new BwtBuilder for another build")
        c = self.collection
        M = c.max_length
        final = c.context_counts(context_symbols(self.config.kappa), self._shifts[0])
        if self.config.backend == "memory":
            self.store = MemoryBucketStore(final)
        else:
            self.store = ExternalBucketStore(final, tempfile.mkdtemp(prefix="dnabwt_", dir=self.config.tmp_dir))
        self._prepare_starts()
        sb = StartBitvector(c.m)
        first, state = self._sparse_rounds(sb, inspect)
        for t in range(first, M + 1):
            self.t = t
            new_js, new_pos = self.activate_new_words(sb, t)
            alpha_next = self.alpha + len(self._starting.get(t + 1, _NONE))
            state = self._dense_round(t, state, new_js, new_pos, alpha_next, inspect)

        if not np.array_equal(self.store.sizes, final):
            raise ConsistencyError("final bucket sizes differ from the counted ones")
        if out is not None:
            return self.store.assemble(out)
        out = BytesIO()
        self.store.assemble(out)
        return out.getvalue()

    @functools.cached_property
    def _shifts(self) -> tuple[int, int, int]:
        """(context-to-ordinal, context-to-tree, ordinal-to-tree) right shifts."""
        kappa = self.config.kappa
        n_sym = context_symbols(kappa)
        return 2 * n_sym - kappa, 2 * (n_sym - 1), kappa - 2

    def _dense_round(self, t: int, state: tuple, new_js: np.ndarray, new_pos: np.ndarray,
                     alpha_next: int, inspect: Callable | None) -> tuple | None:
        """One round on per-round numpy arrays; returns the next round's state."""
        c = self.collection
        M = c.max_length
        drop, top_shift, per_tree_shift = self._shifts
        j_arr, pos, ctx = (np.asarray(a, dtype=np.int64) for a in state)
        if new_js.size:
            j_arr = np.concatenate([new_js, j_arr])
            pos = np.concatenate([new_pos, pos])
            ctx = np.concatenate([np.zeros(len(new_js), dtype=np.int64), ctx])
        self._active = (j_arr, pos, ctx)

        if t < M:
            syms = c.fetch_codes(j_arr, t)
        else:
            syms = np.full(len(j_arr), DOLLAR, dtype=np.uint8)

        ordinals = ctx >> drop
        uniq, bounds = plan_iteration(ordinals)
        htree = np.bincount(
            (ordinals >> per_tree_shift) * 5 + syms, minlength=20
        ).reshape(4, 5)
        self.tree.update_prefix_totals(htree)
        self.tree.apply_left_increments(ordinals, syms)
        racc = self.tree.accumulators_for(uniq)
        captured = self.store.merge_many(uniq, bounds, pos, syms, racc.sum(axis=1))

        if inspect is not None:
            inspect(self)
        if t == M:
            return None

        # each word's accumulator for its own symbol, one flat gather from the
        # touched buckets' rows of five
        owner = np.repeat(np.arange(len(uniq)), np.diff(bounds))
        acc = racc.ravel()[owner * 5 + syms]
        nxt = next_positions(self.tree.counters, ctx >> top_shift, syms, acc, captured, alpha_next)
        ctx = (syms.astype(np.int64) << top_shift) | (ctx >> 2)
        return stable_radix_step(syms, j_arr, nxt, ctx)

    def _sparse_rounds(self, sb: StartBitvector, inspect: Callable | None) -> tuple[int, tuple]:
        """Run the sparse prefix: every round from 0 on, before the final
        one, that has at most ``SPARSE_MAX`` active words. Returns the first
        round it did not run and that round's state.

        Same steps, same store and tree state and same ``inspect`` calls as
        :meth:`_dense_round`, without its fixed per-round numpy cost: the
        state, the symbols and each bucket's batch stay Python int lists
        from the fetch to the merge, and words are activated only in the
        rounds where some start.
        """
        c, tree, store = self.collection, self.tree, self.store
        drop, top_shift, _ = self._shifts
        starting = self._starting
        fetch, add, accumulator, merge = c.fetch_code, tree.add_insertions, tree.accumulator, store.merge_insert
        cv = tree.view
        j: list[int] = []
        pos: list[int] = []
        ctx: list[int] = []
        for t in range(c.max_length):
            fresh = len(starting.get(t, _NONE))
            if fresh:
                if len(j) + fresh > SPARSE_MAX:
                    return t, (j, pos, ctx)
                new_js, new_pos = self.activate_new_words(sb, t)
                j = new_js.tolist() + j
                pos = new_pos.tolist() + pos
                ctx = [0] * fresh + ctx
            alpha_next = self.alpha + len(starting.get(t + 1, _NONE))

            syms, ordinals = [], []
            for w, x in zip(j, ctx):
                syms.append(fetch(w, t))
                ordinals.append(x >> drop)
            uniq, bounds = plan_iteration(ordinals)
            add(ordinals, syms)
            nxt = []
            for o, lo, hi in zip(uniq, bounds, bounds[1:]):
                acc = accumulator(o)
                for i, r in enumerate(merge(o, pos[lo:hi], syms[lo:hi], sum(acc)), lo):
                    s = syms[i]
                    nxt.append(next_positions(cv, ctx[i] >> top_shift, s, acc[s], r, alpha_next))
            if inspect is not None:  # the round and its state, which only inspect reads
                self.t, self._active = t, (j, pos, ctx)
                inspect(self)

            ctx = [(s << top_shift) | (x >> 2) for s, x in zip(syms, ctx)]
            if len(j) == 1:
                pos = nxt
            else:
                order = sorted(range(len(j)), key=syms.__getitem__)  # stable
                j, pos, ctx = [j[i] for i in order], [nxt[i] for i in order], [ctx[i] for i in order]
        return c.max_length, (j, pos, ctx)

    def bucket_sizes(self) -> np.ndarray:
        return self.store.sizes.copy()

    def close(self) -> None:
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "BwtBuilder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def build(
    collection: WordCollection,
    config: Config | None = None,
    inspect: Callable[[BwtBuilder], None] | None = None,
) -> bytes:
    """Construct the transform of a collection; terminators emitted as '$'."""
    with BwtBuilder(collection, config) as builder:
        return builder.run(inspect=inspect)
