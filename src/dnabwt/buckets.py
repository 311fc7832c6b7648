"""Storage of context buckets and the merge insertion.

Each of the 2**kappa buckets holds one contiguous segment of the partial
transform, at the start of a slot sized for its final content. A merge
splices the new symbols into the bucket's content. A batch of at most
``SPLICE_FEW_MAX`` entries is spliced in place, in RAM inside the slot
itself and on disk in a bytearray of the unpacked bucket
(:func:`_splice_in_place`); a larger one is spliced into a new array
(:func:`_splice`) and copied back. Every check of a merge runs before any
of its bytes is read or moved. The ranks that the next round's insert
positions need are counted on the spliced content, a chunk of consecutive
merges at a time in a dense round. Terminators are only ever inserted in
the final round; on both backends their positions go into a per-bucket
side list and are spliced in when the bucket is read.
"""
from __future__ import annotations

import operator
import os
from typing import BinaryIO

import numpy as np

from .collection import DOLLAR, SYMBOL_BYTES, _unpack, _pack

# batches of at most this many entries are spliced in place; measured
# crossover against the copying splice, see README
SPLICE_FEW_MAX = 16

# an in-place rank counts a range of fewer symbols than this with
# bytearray.count, a longer one with numpy, whose fixed cost then pays;
# measured, see README
COUNT_NUMPY_MIN = 1 << 12

# merge_many ranks the spliced contents of consecutive merges once they hold
# this many symbols; measured, see README
RANK_CHUNK = 1 << 18


class ConsistencyError(RuntimeError):
    pass


class BucketIOError(RuntimeError):
    pass


def context_symbols(kappa: int) -> int:
    """Context symbols tracked per word (last one half-used when kappa is odd)."""
    return (kappa + 1) // 2


def _splice(old: np.ndarray, local: np.ndarray, syms: np.ndarray,
            want_ranks: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Splice ``syms`` into ``old`` at post-insertion positions ``local``, into
    a new array: one scatter of the batch and one masked copy of ``old``.

    When ``want_ranks`` is set, also captures, per entry, the number of
    equal symbols written before it (stream copies plus earlier batch
    entries), which is the bucket-level rank the next insert position
    needs, from :func:`_counts_before`.
    """
    n0, k = len(old), len(local)
    new = np.empty(n0 + k, dtype=old.dtype)
    new[local] = syms
    mask = np.ones(n0 + k, dtype=bool)
    mask[local] = False
    new[mask] = old
    if not want_ranks:
        return new, None
    return new, _counts_before(new, local)[syms, np.arange(k)]


# rank capture reads 64 symbols per little-endian uint64 word of packed bits
_WORD = np.dtype("<u8")
_ONE = np.uint64(1)


def _counts_before(content: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Per point p, the counts of A, C, G and T in ``content[:p]``, as rows
    0 to 3 of an int64 array.

    ``points`` is not empty and lies in ``0..len(content)``. A, C and G are
    counted on packed bits: a comparison gives one bit per symbol, read as
    uint64 words of 64 symbols, and one cumsum of the words' popcounts
    gives the count before each word. A point adds the popcount of its own
    word below its bit. T is what remains of the position, so the content
    read, up to the largest point, must hold only A, C, G and T.
    """
    seen = content[: int(points.max()) + 1]
    if seen.size and seen.max() > 3:
        raise ConsistencyError("rank capture over a symbol code above T")
    n_words = len(seen) // 64 + 1
    bits = np.zeros(8 * n_words, dtype=np.uint8)
    words = bits.view(_WORD)
    word_of = points >> 6
    below = (_ONE << (points & 63).astype(np.uint64)) - _ONE
    before = np.zeros(n_words + 1, dtype=np.int64)
    counts = np.empty((4, len(points)), dtype=np.int64)
    for c in range(3):
        bits[: (len(seen) + 7) // 8] = np.packbits(seen == c, bitorder="little")
        np.cumsum(np.bitwise_count(words), out=before[1:])
        counts[c] = before[word_of] + np.bitwise_count(words[word_of] & below)
    counts[3] = points - counts[:3].sum(axis=0)
    return counts


def _chunk_ranks(held: list[np.ndarray], local: np.ndarray, syms: np.ndarray,
                 ks: list[int]) -> np.ndarray:
    """Ranks of the entries of consecutive merges from one pass over their
    spliced contents ``held``: ``ks[b]`` entries, at ``local`` positions, went
    into ``held[b]``. An entry's rank is the count of its symbol before it
    in the concatenation minus the count before its bucket's start."""
    sizes = [len(h) for h in held]
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(held)), ks)
    k = len(local)
    counts = _counts_before(np.concatenate(held), np.concatenate([local + starts[owner], starts]))
    return counts[syms, np.arange(k)] - counts[syms, k + owner]


def _splice_in_place(buf: bytearray, at: int, n0: int, ps: list[int], ss: list[int],
                     want_ranks: bool) -> list[int] | None:
    """Small-batch form of :func:`_splice`, in place: ``buf[at : at + n0]``
    holds the content, and ``buf`` has room for ``len(ps)`` more symbols
    after it. Positions and symbols are Python int lists; ranks come back
    as one.

    Right to left, each run of old content between two entries moves to its
    new place in one bytearray slice assignment, and the entry is written
    before it. Each rank is then a count of the entry's symbol over the
    prefix it is written after, resumed from that symbol's previous entry,
    so a batch reads the new content at most once per symbol.
    """
    end, src = at + n0 + len(ps), at + n0
    for i in range(len(ps) - 1, -1, -1):
        p = at + ps[i]
        buf[p + 1 : end] = buf[p - i : src]
        buf[p] = ss[i]
        end, src = p, p - i
    if not want_ranks:
        return None
    seen, upto, ranks, view = [0] * 4, [at] * 4, [], None
    for p, s in zip(ps, ss):
        p += at
        if p - upto[s] < COUNT_NUMPY_MIN:
            seen[s] += buf.count(s, upto[s], p)
        else:
            if view is None:
                view = np.frombuffer(buf, dtype=np.uint8)
            seen[s] += int(np.count_nonzero(view[upto[s] : p] == s))
        upto[s] = p
        ranks.append(seen[s])
    return ranks


def _check_merge(ordinal: int, local, syms, n0: int, want_ranks: bool) -> bool:
    """Refuse a merge of ``syms`` at post-insertion positions ``local`` into
    ``n0`` symbols, both Python int lists or both arrays, before any byte of
    the bucket is read; True for a pure terminator batch, unranked."""
    k = len(local)
    if k and (local[0] < 0 or local[-1] - (k - 1) > n0 or k > 1 and not (
            all(map(operator.lt, local, local[1:])) if isinstance(local, list)
            else (local[1:] > local[:-1]).all())):
        raise ConsistencyError(f"bucket {ordinal}: insert positions inconsistent with content")
    if not k:
        return False
    if want_ranks:
        if (max(syms) if isinstance(syms, list) else int(syms.max())) > 3:
            raise ConsistencyError("rank capture over a symbol code above T")
        return False
    dollars = syms.count(DOLLAR) if isinstance(syms, list) else int(np.count_nonzero(syms == DOLLAR))
    if 0 < dollars < k:
        raise ConsistencyError(f"bucket {ordinal}: mixed terminator batch")
    return dollars == k


class BucketStore:
    """The buckets in fixed slots, in RAM or, given ``tmp_dir``, in one file.

    Bucket o's slot holds ``final[o]`` symbols, its size at the end of the
    build, and its content sits at the start of the slot while it grows.
    In RAM the slots are one array of plain (A, C, G, T) codes; on disk, one
    file, ``tmp_dir/buckets.bin``, of ``ceil(final / 4)``-byte slots of
    2-bit packed symbols (high bits first), allocated in full here, so that
    a disk too small fails before any merge. ``bytes_read`` and
    ``bytes_written`` count code bytes in RAM and packed bytes on disk.
    """

    def __init__(self, final: np.ndarray, tmp_dir: str | None = None):
        self.final = np.asarray(final, dtype=np.int64)
        self.sizes = np.zeros(len(self.final), dtype=np.int64)
        self.tmp_dir = tmp_dir
        self._dollars: dict[int, np.ndarray] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        self._fd = None
        # slot offsets, in symbols in RAM and in packed bytes on disk
        extents = self.final if tmp_dir is None else (self.final + 3) // 4
        self._start = (np.cumsum(extents) - extents).tolist()
        if tmp_dir is None:
            # one bytearray, which small merges splice in place, and a numpy
            # view of it for the rest
            self._buf = bytearray(int(extents.sum()))
            self._codes = np.frombuffer(self._buf, dtype=np.uint8)
            return
        self._path = os.path.join(tmp_dir, "buckets.bin")
        try:
            os.makedirs(tmp_dir, exist_ok=True)
            self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o600)
            os.posix_fallocate(self._fd, 0, int(extents.sum()))
        except OSError as exc:
            self.close()
            raise BucketIOError(f"{self._path}: {exc}") from exc

    def merge_many(self, batches, want_ranks=True):
        """Merge (ordinal, positions, symbols, base) batches one at a time, in
        order, on the calling thread; ranks in batch order.

        Each batch is spliced unranked by :meth:`merge_insert`. With
        ``want_ranks``, a batch holding a terminator, or a list naming one
        bucket twice, is refused before any bucket changes: in RAM a spliced
        content is a view of its slot, which a second merge would overwrite
        before it is ranked. The spliced contents are held until they reach
        ``RANK_CHUNK`` symbols, then ranked in one pass over their
        concatenation (:func:`_chunk_ranks`).
        """
        if not want_ranks:
            for b in batches:
                self.merge_insert(*b, False)
            return None
        if not batches:
            return np.empty(0, dtype=np.int64)
        if len({b[0] for b in batches}) < len(batches):
            raise ConsistencyError("ranked merges name one bucket twice")
        syms = np.concatenate([b[2] for b in batches])
        if syms.size and syms.max() > 3:
            raise ConsistencyError("rank capture over a symbol code above T")
        ks = [len(b[2]) for b in batches]
        local = np.concatenate([b[1] for b in batches]) - np.repeat([b[3] for b in batches], ks)
        ranks = np.empty(len(syms), dtype=np.int64)
        held, first, lo, n_held = [], 0, 0, 0
        for i, b in enumerate(batches):
            held.append(self.merge_insert(*b, False))
            n_held += len(held[-1])
            if n_held >= RANK_CHUNK or i == len(batches) - 1:
                hi = lo + sum(ks[first : i + 1])
                ranks[lo:hi] = _chunk_ranks(held, local[lo:hi], syms[lo:hi], ks[first : i + 1])
                held, first, lo, n_held = [], i + 1, hi, 0
        return ranks

    def merge_insert(self, ordinal, tree_positions, syms, base, want_ranks=True):
        """Insert ``syms`` at ``tree_positions - base``, given as Python int
        lists, as sparse rounds pass them, or as arrays.

        With ``want_ranks``, return each entry's rank (see :func:`_splice`,
        whose rank capture refuses a terminator), a list for lists and an
        array for arrays; without, the bucket's spliced content, in RAM a
        view of its slot after a small merge. A pure unranked terminator
        batch goes to the side list and returns None; it must be the
        bucket's last merge, since the side list holds final positions that
        a later merge would shift. Every check runs before any byte of the
        bucket is read.
        """
        if ordinal in self._dollars:
            raise ConsistencyError(
                f"bucket {ordinal}: merge after its terminator batch, such as a second one")
        k, n0, start = len(syms), int(self.sizes[ordinal]), self._start[ordinal]
        if n0 + k > self.final[ordinal]:
            raise ConsistencyError(
                f"bucket {ordinal}: {n0} + {k} symbols overflow its slot of {self.final[ordinal]}")
        as_list, few = isinstance(syms, list), k <= SPLICE_FEW_MAX
        if few:
            local = [p - base for p in tree_positions] if as_list else (tree_positions - base).tolist()
            syms = syms if as_list else syms.tolist()
        else:
            local = np.asarray(tree_positions, dtype=np.int64) - base
            syms = np.asarray(syms, dtype=np.uint8)
        if _check_merge(ordinal, local, syms, n0, want_ranks):
            self._dollars[ordinal] = np.asarray(local, dtype=np.int64)
            self.sizes[ordinal] = n0 + k
            return None
        if self.tmp_dir is None:
            if few:
                captured = _splice_in_place(self._buf, start, n0, local, syms, want_ranks)
                new = None if want_ranks else self._codes[start : start + n0 + k]
            else:
                new, captured = _splice(self._codes[start : start + n0], local, syms, want_ranks)
                p0 = int(local[0])  # the slot before the first entry is unchanged
                self._codes[start + p0 : start + n0 + k] = new[p0:]
            self.bytes_read += n0
            self.bytes_written += n0 + k
        else:
            try:
                old = self._pread_codes(ordinal, n0)
                if few:
                    buf = bytearray(n0 + k)
                    memoryview(buf)[:n0] = old
                    captured = _splice_in_place(buf, 0, n0, local, syms, want_ranks)
                    new = np.frombuffer(buf, dtype=np.uint8)
                else:
                    new, captured = _splice(old, local, syms, want_ranks)
                packed = _pack(new)
                if os.pwrite(self._fd, packed, start) != len(packed):
                    raise BucketIOError(f"bucket {ordinal}: short write")
            except OSError as exc:
                raise BucketIOError(f"bucket {ordinal}: {exc}") from exc
            self.bytes_written += len(packed)
        self.sizes[ordinal] = n0 + k
        if not want_ranks:
            return new
        if as_list != few:
            return captured.tolist() if as_list else np.array(captured, dtype=np.int64)
        return captured

    def read(self, ordinal: int) -> np.ndarray:
        """Bucket ``ordinal``'s symbols, terminators spliced back in."""
        n_plain = int(self.sizes[ordinal]) - len(self._dollars.get(ordinal, ()))
        if self.tmp_dir is None:
            codes = self._codes[self._start[ordinal] : self._start[ordinal] + n_plain]
        else:
            try:
                codes = self._pread_codes(ordinal, n_plain)
            except OSError as exc:
                raise BucketIOError(f"bucket {ordinal}: {exc}") from exc
        dollars = self._dollars.get(ordinal)
        if dollars is None:
            return codes.copy()  # never hand out a view of the RAM array
        return _splice(codes, dollars, np.full(len(dollars), DOLLAR, dtype=np.uint8), False)[0]

    def assemble(self, out: BinaryIO) -> int:
        lut = np.frombuffer(SYMBOL_BYTES, dtype=np.uint8)
        written = 0
        for o in np.flatnonzero(self.sizes):
            data = lut[self.read(int(o))].tobytes()
            out.write(data)
            written += len(data)
        return written

    @property
    def io_stats(self) -> dict:
        return {"read": self.bytes_read, "written": self.bytes_written}

    def close(self) -> None:
        """Drop the RAM codes, or remove the bucket file and ``tmp_dir``."""
        self._codes = self._buf = None
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
            os.unlink(self._path)
        if self.tmp_dir is not None:
            try:
                os.rmdir(self.tmp_dir)
            except OSError:
                pass

    def _pread_codes(self, ordinal: int, n_plain: int) -> np.ndarray:
        want = (n_plain + 3) // 4
        raw = os.pread(self._fd, want, self._start[ordinal])
        if len(raw) != want:
            raise BucketIOError(f"bucket {ordinal}: read {len(raw)} of {want} bytes")
        self.bytes_read += want
        return _unpack(np.frombuffer(raw, dtype=np.uint8), n_plain)


# one class per backend, each defining only its constructor, so that
# perfbench's tracer wraps each backend's merges once
class MemoryBucketStore(BucketStore):
    def __init__(self, final: np.ndarray):
        super().__init__(final)


class ExternalBucketStore(BucketStore):
    def __init__(self, final: np.ndarray, tmp_dir: str):
        super().__init__(final, tmp_dir)
