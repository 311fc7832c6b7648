"""Storage of context buckets and the merge insertion.

Each of the 2**kappa buckets holds one contiguous segment of the partial
transform, at the start of a slot sized for its final content. A merge
splices the new symbols into the bucket's content, in RAM inside the slot
itself and on disk inside a bytearray of the unpacked bucket, which is
then packed and written back. A ranked merge, as a sparse round makes it,
gives its entries as Python int lists, at most ``SPARSE_MAX`` of them, and
is spliced in place (:func:`_splice_in_place`), which counts each entry's
rank as it goes. An unranked merge, as a dense round makes it, gives
arrays: at most ``SPLICE_FEW_MAX`` entries are spliced in place, more by
one scatter and one masked copy (:func:`_splice`), and the dense round's
ranks are counted on the spliced contents, a chunk of consecutive merges
at a time. Every check of a merge runs before any of its bytes is read or
moved. Terminators are only ever inserted in the final round; on both
backends their positions go into a per-bucket side list and are spliced
in when the bucket is read.
"""
from __future__ import annotations

import operator
import os
from typing import BinaryIO

import numpy as np

from .collection import DOLLAR, SYMBOL_BYTES, _unpack, _pack

# unranked batches of at most this many entries are spliced in place;
# measured crossover against the copying splice, see README
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


def _splice(old: np.ndarray, local: np.ndarray, syms: np.ndarray) -> np.ndarray:
    """Splice ``syms`` into ``old`` at post-insertion positions ``local``, into
    a new array: one scatter of the batch and one masked copy of ``old``."""
    n0, k = len(old), len(local)
    new = np.empty(n0 + k, dtype=old.dtype)
    new[local] = syms
    mask = np.ones(n0 + k, dtype=bool)
    mask[local] = False
    new[mask] = old
    return new


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
                 bounds: np.ndarray) -> np.ndarray:
    """Ranks of the entries of consecutive merges from one pass over their
    spliced contents ``held``: entries ``bounds[b] : bounds[b + 1]``, at
    ``local`` positions, went into ``held[b]``. An entry's rank is the count
    of its symbol before it in the concatenation minus the count before its
    bucket's start."""
    sizes = [len(h) for h in held]
    starts = np.cumsum(sizes) - sizes
    owner = np.repeat(np.arange(len(held)), np.diff(bounds))
    k = len(local)
    counts = _counts_before(np.concatenate(held), np.concatenate([local + starts[owner], starts]))
    return counts[syms, np.arange(k)] - counts[syms, k + owner]


def _splice_in_place(buf: bytearray, at: int, n0: int, ps: list[int], ss: list[int],
                     want_ranks: bool) -> list[int] | None:
    """:func:`_splice` in place: ``buf[at : at + n0]`` holds the content, and
    ``buf`` has room for ``len(ps)`` more symbols after it. Positions and
    symbols are Python int lists; with ``want_ranks``, each entry's rank,
    the count of its symbol before it in the spliced content, comes back
    in one.

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


def _check_merge(ordinal: int, local, syms, n0: int, want_ranks: bool, in_place: bool) -> bool:
    """Refuse a merge of ``syms`` at post-insertion positions ``local`` into
    ``n0`` symbols, in the form its splice takes (Python int lists in place,
    arrays otherwise), before any byte of the bucket is read; True for a
    pure terminator batch."""
    k = len(local)
    if not k:
        return False
    increasing = (all(map(operator.lt, local, local[1:])) if in_place
                  else (local[1:] > local[:-1]).all())
    if local[0] < 0 or local[-1] - (k - 1) > n0 or not increasing:
        raise ConsistencyError(f"bucket {ordinal}: insert positions inconsistent with content")
    if want_ranks:
        if max(syms) > 3:
            raise ConsistencyError("rank capture over a symbol code above T")
        return False
    dollars = syms.count(DOLLAR) if in_place else int(np.count_nonzero(syms == DOLLAR))
    if 0 < dollars < k:
        raise ConsistencyError(f"bucket {ordinal}: mixed terminator batch")
    return dollars == k


class BucketStore:
    """The buckets in fixed slots, in RAM or, given ``tmp_dir``, in one file.

    Bucket o's slot holds ``final[o]`` symbols, its size at the end of the
    build, and its content sits at the start of the slot while it grows.
    In RAM the slots are one bytearray of plain (A, C, G, T) codes; on disk,
    one file, ``tmp_dir/buckets.bin``, of ``ceil(final / 4)``-byte slots of
    2-bit packed symbols (high bits first). Both are allocated in full
    here, so that too little memory or disk fails before any merge, with
    the bytes that were asked for. ``bytes_read`` and ``bytes_written``
    count code bytes in RAM and packed bytes on disk.
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
        total = int(extents.sum())
        if tmp_dir is None:
            # one bytearray, which merges splice in place, and a numpy view of it
            try:
                self._buf = bytearray(total)
            except MemoryError:
                raise BucketIOError(f"cannot allocate {total:,} bytes of bucket slots in RAM") from None
            self._codes = np.frombuffer(self._buf, dtype=np.uint8)
            return
        self._path = os.path.join(tmp_dir, "buckets.bin")
        try:
            os.makedirs(tmp_dir, exist_ok=True)
            self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o600)
            os.posix_fallocate(self._fd, 0, total)
        except OSError as exc:
            failed = "" if self._fd is None else f"cannot allocate {total:,} bytes of bucket slots: "
            self.close()
            raise BucketIOError(f"{self._path}: {failed}{exc}") from exc

    def merge_many(self, ordinals, bounds, positions, syms, bases, want_ranks=True):
        """Merge a dense round's entries, given as arrays: bucket
        ``ordinals[i]`` takes entries ``bounds[i] : bounds[i + 1]`` of
        ``positions`` and ``syms``, with base ``bases[i]``. Each bucket is
        spliced unranked by :meth:`merge_insert`, one at a time, in order, on
        the calling thread; ranks come back in entry order.

        With ``want_ranks``, a round holding a terminator, or whose ordinals
        do not strictly increase, is refused before any bucket changes: in
        RAM a spliced content is a view of its slot, which a second merge
        into that bucket would overwrite before it is ranked. The spliced
        contents are held until they reach ``RANK_CHUNK`` symbols, then
        ranked in one pass over their concatenation (:func:`_chunk_ranks`).
        """
        if want_ranks:
            if not (ordinals[1:] > ordinals[:-1]).all():
                raise ConsistencyError("ranked merges must name each bucket once, in increasing order")
            if syms.size and syms.max() > 3:
                raise ConsistencyError("rank capture over a symbol code above T")
            local = positions - np.repeat(bases, np.diff(bounds))
            ranks = np.empty(len(syms), dtype=np.int64)
        b, last = bounds.tolist(), len(ordinals) - 1
        held, first, n_held = [], 0, 0
        for i, (o, base) in enumerate(zip(ordinals.tolist(), bases.tolist())):
            new = self.merge_insert(o, positions[b[i] : b[i + 1]], syms[b[i] : b[i + 1]], base, False)
            if not want_ranks:
                continue
            held.append(new)
            n_held += len(new)
            if n_held >= RANK_CHUNK or i == last:
                lo, hi = b[first], b[i + 1]
                ranks[lo:hi] = _chunk_ranks(held, local[lo:hi], syms[lo:hi], bounds[first : i + 2] - lo)
                held, first, n_held = [], i + 1, 0
        return ranks if want_ranks else None

    def merge_insert(self, ordinal, tree_positions, syms, base, want_ranks=True):
        """Insert ``syms`` at ``tree_positions - base``.

        Ranked, positions and symbols are Python int lists, as sparse rounds
        pass them; the batch is spliced in place and each entry's rank (see
        :func:`_splice_in_place`) comes back in a list. Unranked, they are
        arrays, as :meth:`merge_many` passes them, and the bucket's spliced
        content comes back, in RAM a view of its slot. A pure unranked
        terminator batch goes to the side list and returns None; it must be
        the bucket's last merge, since the side list holds final positions
        that a later merge would shift. Every check runs before any byte of
        the bucket is read.
        """
        if ordinal in self._dollars:
            raise ConsistencyError(
                f"bucket {ordinal}: merge after its terminator batch, such as a second one")
        k, n0 = len(syms), int(self.sizes[ordinal])
        if n0 + k > self.final[ordinal]:
            raise ConsistencyError(
                f"bucket {ordinal}: {n0} + {k} symbols overflow its slot of {self.final[ordinal]}")
        # ranked merges and small unranked ones are spliced in place, as lists
        in_place = want_ranks or k <= SPLICE_FEW_MAX
        if in_place and not want_ranks:
            tree_positions, syms = tree_positions.tolist(), syms.tolist()
        local = [p - base for p in tree_positions] if in_place else tree_positions - base
        if _check_merge(ordinal, local, syms, n0, want_ranks, in_place):
            self._dollars[ordinal] = np.asarray(local, dtype=np.int64)
            self.sizes[ordinal] = n0 + k
            return None
        # the content goes to buf[at : at + n0], with room for k more after it
        if self.tmp_dir is None:
            buf, codes, at = self._buf, self._codes, self._start[ordinal]
            self.bytes_read += n0
        else:
            buf, at = bytearray(n0 + k), 0
            codes = np.frombuffer(buf, dtype=np.uint8)
            codes[:n0] = self._pread_codes(ordinal, n0)
        if in_place:
            ranks = _splice_in_place(buf, at, n0, local, syms, want_ranks)
        else:
            p0 = int(local[0])  # the content before the first entry is unchanged
            codes[at + p0 : at + n0 + k] = _splice(codes[at : at + n0], local, syms)[p0:]
        if self.tmp_dir is None:
            self.bytes_written += n0 + k
        else:
            packed = _pack(codes)
            try:
                short = os.pwrite(self._fd, packed, self._start[ordinal]) != len(packed)
            except OSError as exc:
                raise BucketIOError(f"bucket {ordinal}: {exc}") from exc
            if short:
                raise BucketIOError(f"bucket {ordinal}: short write")
            self.bytes_written += len(packed)
        self.sizes[ordinal] = n0 + k
        return ranks if want_ranks else codes[at : at + n0 + k]

    def read(self, ordinal: int) -> np.ndarray:
        """Bucket ``ordinal``'s symbols, terminators spliced back in."""
        n_plain = int(self.sizes[ordinal]) - len(self._dollars.get(ordinal, ()))
        if self.tmp_dir is None:
            codes = self._codes[self._start[ordinal] : self._start[ordinal] + n_plain]
        else:
            codes = self._pread_codes(ordinal, n_plain)
        dollars = self._dollars.get(ordinal)
        if dollars is None:
            return codes.copy()  # never hand out a view of the RAM array
        return _splice(codes, dollars, np.full(len(dollars), DOLLAR, dtype=np.uint8))

    def assemble(self, out: BinaryIO) -> int:
        """Write the transform to ``out`` one bucket at a time; return its length."""
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
        try:
            raw = os.pread(self._fd, want, self._start[ordinal])
        except OSError as exc:
            raise BucketIOError(f"bucket {ordinal}: {exc}") from exc
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
