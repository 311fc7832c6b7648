"""Scalar references of engine rules, used only by tests.

The build runs each of these rules in one bulk form: the count-tree
updates and accumulators, ``next_positions``, ``StartBitvector.ranks`` and
the packed symbol fetch. The forms here state the same rules one symbol,
one context or one word at a time, so that tests can check the bulk forms
against them and pin worked examples to them. The bucket stores here give
every bucket the same slot, so that a test can merge into any bucket
without counting a collection first, and ``fill`` a slot without a merge,
since the library's stores take only the merges a build makes.
``naive_splice`` states the splice one list insert at a time.
"""
from __future__ import annotations

import os

import numpy as np

from dnabwt import buckets, counttree
from dnabwt.buckets import context_symbols
from dnabwt.collection import DOLLAR, SYMBOL_BYTES, WordCollection, _pack
from dnabwt.engine import StartBitvector

# -- count-tree navigation ----------------------------------------------------

_STEPS = {0: ("left", "left"), 1: ("left", "right"), 2: ("right", "left"), 3: ("right", "right")}
_SYM_CODE = {"A": 0, "C": 1, "G": 2, "T": 3}


def nav_directions(sym: str) -> tuple[str, str]:
    """The (first, second) child steps taken for one context symbol."""
    code = _SYM_CODE.get(sym)
    if code is None:
        raise ValueError(f"{sym!r} is not a navigable context symbol")
    return _STEPS[code]


class TreeArray(counttree.TreeArray):
    """The library's count trees plus a sequential descent and a level-1 query."""

    # -- sequential reference descent ----------------------------------------

    def descend(
        self,
        node: int,
        ordinals: np.ndarray,
        syms: np.ndarray,
        r: np.ndarray,
        lo_ord: int,
        hi_ord: int,
        base_idx: int = 0,
        out: list | None = None,
    ) -> list[tuple[int, int, int, np.ndarray]]:
        """Route one sorted group of insertions to its leaf buckets.

        Splits the group at each node by the next navigation bit, increments
        the node's counters for every left-bound entry *before* the
        right-bound branch reads them, and augments the right branch's
        accumulator by the node's counters. Returns
        ``(leaf_ordinal, start, end, accumulator)`` per reached leaf, where
        ``start:end`` index the original group. Equivalent to the bulk pair
        :meth:`apply_left_increments` + :meth:`accumulators_for`.
        """
        if out is None:
            out = []
        if hi_ord - lo_ord == 1:
            out.append((lo_ord, base_idx, base_idx + len(ordinals), r))
            return out
        mid = (lo_ord + hi_ord) // 2
        split = int(np.searchsorted(ordinals, mid))
        n = len(ordinals)
        if split:
            np.add.at(self.counters, (node, syms[:split]), 1)
        if split < n:
            r_right = r + self.counters[node]
            self.descend(2 * node + 1, ordinals[split:], syms[split:], r_right, mid, hi_ord, base_idx + split, out)
        if split:
            self.descend(2 * node, ordinals[:split], syms[:split], r, lo_ord, mid, base_idx, out)
        return out

    def descend_iteration(self, ordinals: np.ndarray, syms: np.ndarray) -> list[tuple[int, int, int, np.ndarray]]:
        """Reference descent of a whole iteration (all four trees)."""
        out: list[tuple[int, int, int, np.ndarray]] = []
        bounds = np.searchsorted(ordinals, np.arange(5) * self.leaves_per_tree)
        for x in range(4):
            s, e = int(bounds[x]), int(bounds[x + 1])
            if s < e:
                self.descend(
                    4 + x,
                    ordinals[s:e],
                    syms[s:e],
                    np.zeros(5, dtype=np.int64),
                    x * self.leaves_per_tree,
                    (x + 1) * self.leaves_per_tree,
                    s,
                    out,
                )
        return sorted(out, key=lambda item: item[0])

    # -- queries ---------------------------------------------------------------

    def level1_base(self, tree_sym: int, c: int) -> int:
        """Count of symbol ``c`` stored before the given tree's first bucket."""
        if not 0 <= tree_sym <= 3:
            raise ValueError(f"invalid tree symbol code {tree_sym}")
        if tree_sym == 0:
            return 0
        return int(self.counters[tree_sym - 1, c])


# -- contexts and buckets -----------------------------------------------------


def n_buckets(kappa: int) -> int:
    return 1 << kappa


def bucket_id(context: str, kappa: int) -> int:
    """Leaf index of a context: start at the root row of its first symbol and
    take one child step (left -> 2i, right -> 2i+1) per navigation bit."""
    n_sym = context_symbols(kappa)
    if len(context) < n_sym:
        raise ValueError(f"context {context!r} too short for kappa={kappa}")
    codes = [b"ACGT".index(ch.encode()) for ch in context[:n_sym]]
    node = 4 + codes[0]
    bits = []
    for c in codes[1:]:
        bits.extend(((c >> 1) & 1, c & 1))
    for b in bits[: kappa - 2]:
        node = 2 * node + b
    return node


def leaf_ordinal(context: str, kappa: int) -> int:
    return bucket_id(context, kappa) - n_buckets(kappa)


def ordinal_context(ordinal: int, kappa: int) -> str:
    """Smallest context string mapping to the given leaf ordinal."""
    n_sym = context_symbols(kappa)
    bits = ordinal << (2 * n_sym - kappa)
    return "".join("ACGT"[(bits >> (2 * (n_sym - 1 - i))) & 3] for i in range(n_sym))


def bucket_offsets(collection: WordCollection, kappa: int) -> np.ndarray:
    """Cumulative start offset of every context bucket in the final transform.

    Enumerates, straight from the words, the k-symbol context following each
    character (A-padded past the word end, and the word's first symbols for
    its terminator) and counts how many contexts fall in each bucket.
    """
    n_sym = (kappa + 1) // 2
    drop = 2 * n_sym - kappa
    weights = 4 ** np.arange(n_sym - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(1 << kappa, dtype=np.int64)
    for j in range(collection.m):
        codes = collection.word_codes(j).astype(np.int64)
        padded = np.concatenate([codes, np.zeros(n_sym, dtype=np.int64)])
        # window starting at q is the context of the character inserted at
        # iteration M - q; q runs over 0..len (len = terminator's context).
        windows = np.lib.stride_tricks.sliding_window_view(padded, n_sym)[: len(codes) + 1]
        ordinals = (windows * weights).sum(axis=1) >> drop
        counts += np.bincount(ordinals, minlength=1 << kappa)
    offsets = np.zeros(1 << kappa, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return offsets


# -- bucket stores with one slot size for every bucket -------------------------


def naive_splice(old, positions, syms) -> tuple[list[int], list[int]]:
    """Insert ``syms`` one at a time at post-insertion ``positions`` into a
    copy of ``old``; each entry's rank is the count of its symbol before it
    when it is inserted. Returns (content, ranks) as lists."""
    out = list(old)
    ranks = []
    for p, s in zip(positions, syms):
        ranks.append(out[:p].count(s))
        out.insert(p, s)
    return out, ranks


# symbols per bucket slot: more than any store test merges into one bucket
SLOT = 256


class _Fill:
    def fill(self, ordinal: int, codes) -> None:
        """Make ``codes`` the content of bucket ``ordinal``'s slot without a
        merge, its checks or its I/O counts."""
        codes = np.asarray(codes, dtype=np.uint8)
        start = self._start[ordinal]
        if self.tmp_dir is None:
            self._codes[start : start + len(codes)] = codes
        else:
            os.pwrite(self._fd, _pack(codes).tobytes(), start)
        self.sizes[ordinal] = len(codes)


class MemoryBucketStore(_Fill, buckets.MemoryBucketStore):
    """The library's memory store, its merges and rank capture unchanged.
    ``slot`` is every bucket's slot, or an array of one per bucket."""

    def __init__(self, kappa: int, slot=SLOT):
        super().__init__(np.full(n_buckets(kappa), slot))


class ExternalBucketStore(_Fill, buckets.ExternalBucketStore):
    """The library's external store, its merges and rank capture unchanged.
    ``slot`` is every bucket's slot, or an array of one per bucket."""

    def __init__(self, kappa: int, tmp_dir: str, slot=SLOT):
        super().__init__(np.full(n_buckets(kappa), slot), tmp_dir)


# -- positions and activation -------------------------------------------------


def sb_rank(sb: StartBitvector, j: int) -> int:
    """Number of set bits strictly below position j, by the build's rank rule."""
    return int(sb.ranks(np.array([j]))[0])


def next_insert_position(
    first_context_symbol: int,
    insert_symbol: int,
    tree: TreeArray,
    r_c: int,
    rankk: int,
    alpha_next: int,
) -> int:
    """Tree-relative insert position of a word's next symbol.

    ``first_context_symbol`` selects the tree the current symbol went into
    (fixing the prefix-total base for the rank of ``insert_symbol``); the
    ``alpha_next`` term is owed whenever the *inserted* symbol is A, because
    the A tree also fronts the rows of the ``alpha_next`` word starts that
    the next round's coordinates must account for.
    """
    if insert_symbol == DOLLAR:
        raise ValueError("terminator has no next insert position; the word is finished")
    if not 0 <= insert_symbol <= 3 or not 0 <= first_context_symbol <= 3:
        raise ValueError("symbol codes must be in 0..3")
    base = tree.level1_base(first_context_symbol, insert_symbol)
    alpha_term = alpha_next if insert_symbol == 0 else 0
    return base + r_c + rankk + alpha_term


# -- the right-aligned view of a collection -----------------------------------


def start_iteration(collection: WordCollection, j: int) -> int:
    """First iteration in which word ``j`` contributes a symbol."""
    return collection.max_length - collection.length(j)


def symbol_at(collection: WordCollection, j: int, t: int) -> str:
    """Symbol of word ``j`` at iteration ``t`` (terminator at ``t == M``)."""
    collection._check_word(j)
    start = collection.max_length - collection.length(j)
    if not start <= t <= collection.max_length:
        raise IndexError(f"word {j} is not active at iteration {t}")
    if t == collection.max_length:
        return "$"
    return chr(SYMBOL_BYTES[collection.fetch_code(j, t)])


def to_raw_lines(collection: WordCollection) -> bytes:
    return b"\n".join(collection.words()) + b"\n"
