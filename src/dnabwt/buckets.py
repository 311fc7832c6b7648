"""Storage of context buckets and the merge insertion.

Each of the 2**kappa buckets holds one contiguous segment of the partial
transform, at the start of a slot sized for its final content. A merge
splices the new symbols into the bucket's content: in RAM inside the slot
itself, on disk inside a bytearray of unpacked codes, which is then packed
and written back. A ranked merge, as a sparse round makes it, gives its
entries as Python int lists, at most ``SPARSE_MAX`` of them, and is
spliced in place (:func:`_splice_in_place`), which counts each entry's
rank as it goes. An unranked merge, as a dense round makes it, gives
arrays: at most ``SPLICE_FEW_MAX`` entries are spliced in place, more by
one scatter and one masked copy into the bucket's region (:func:`_splice`).
A dense round's merges go a chunk of consecutive buckets at a time, and
their ranks are counted on the chunk's spliced contents in one pass
(:func:`_chunk_ranks`); on disk the chunk is also the unit of I/O, loaded
into one bytearray before its merges and stored after them. Every check of
a merge runs before any of its bytes is read or moved. Terminators are
only ever inserted in the final round; on both backends their positions
go into a per-bucket side list and are spliced in when the bucket is read.
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

# merge_many merges and ranks a dense round's buckets a chunk at a time: those
# whose regions start in one window of this many symbols; measured, see README
RANK_CHUNK = 1 << 18


class ConsistencyError(RuntimeError):
    pass


class BucketIOError(RuntimeError):
    pass


def context_symbols(kappa: int) -> int:
    """Context symbols tracked per word (last one half-used when kappa is odd)."""
    return (kappa + 1) // 2


def _splice(old: np.ndarray, local: np.ndarray, syms: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """Splice ``syms`` into ``old`` at post-insertion positions ``local``, into
    ``out``, which holds ``len(old) + len(local)`` symbols and does not
    overlap ``old``, or into a new array: one scatter of the batch and one
    masked copy of ``old``. Returns the spliced array."""
    n = len(old) + len(local)
    if out is None:
        out = np.empty(n, dtype=old.dtype)
    out[local] = syms
    mask = np.ones(n, dtype=bool)
    mask[local] = False
    out[mask] = old
    return out


# rank capture reads 64 symbols per little-endian uint64 word of bit planes
_WORD = np.dtype("<u8")
_ALL = np.uint64(0xFFFF_FFFF_FFFF_FFFF)

# per count of codes in a partly filled packed byte, the mask of their bits
_KEEP = np.array([0xFF, 0xC0, 0xF0, 0xFC], dtype=np.uint8)


def _chunk_ranks(content: np.ndarray, starts: np.ndarray, local: np.ndarray, syms: np.ndarray,
                 owner: np.ndarray) -> np.ndarray:
    """Ranks of the entries of consecutive merges from one pass over their
    spliced contents: bucket b's content starts at ``content[starts[b]]``,
    and entry i, symbol ``syms[i]``, sits ``local[i]`` symbols into bucket
    ``owner[i]``. An entry's rank is the count of its symbol before it minus
    the count before its bucket's start, so whatever lies between the
    buckets' contents cancels out.

    Counts come from four bit planes, one per symbol, in uint64 words of 64
    symbols: the codes' low and high bits are packed (``np.packbits``) and
    combined word by word, and one cumsum of the words' popcounts, the four
    planes interleaved, gives each plane's count through every word. An
    entry looks up only its own symbol's plane and each bucket start all
    four: the count through the word, less the popcount of the word's bits
    from the point on. The content read, up to the last entry, must hold
    only A, C, G and T.
    """
    points = starts[owner] + local
    seen = content[: int(points.max()) + 1]
    if seen.max() > 3:
        raise ConsistencyError("rank capture over a symbol code above T")
    n_words = len(seen) // 64 + 1
    bits = np.zeros((2, 8 * n_words), dtype=np.uint8)
    n_bytes = (len(seen) + 7) // 8
    bits[0, :n_bytes] = np.packbits((seen & 1).view(bool), bitorder="little")
    bits[1, :n_bytes] = np.packbits((seen >> 1).view(bool), bitorder="little")
    low, high = bits.view(_WORD)
    planes = np.empty((n_words, 4), dtype=_WORD)
    np.bitwise_and(low, high, out=planes[:, 3])
    np.bitwise_xor(low, planes[:, 3], out=planes[:, 1])
    np.bitwise_xor(high, planes[:, 3], out=planes[:, 2])
    np.bitwise_or(low, high, out=planes[:, 0])
    np.invert(planes[:, 0], out=planes[:, 0])
    through = np.cumsum(np.bitwise_count(planes), axis=0, dtype=np.int64).ravel()
    # the entries, each in its own plane, then every plane at each bucket start
    at = np.concatenate([points, np.repeat(starts, 4)])
    flat = (at >> 6 << 2) + np.concatenate([syms, np.tile(np.arange(4), len(starts))])
    counts = through[flat] - np.bitwise_count(planes.ravel()[flat] & (_ALL << (at & 63).astype(np.uint64)))
    k = len(points)
    return counts[:k] - counts[k + 4 * owner + syms]


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
        # (bytearray, its uint8 view, {ordinal: region offset}) of the chunk
        # that merge_many has staged on disk, else None
        self._staged = None
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
        into that bucket would overwrite before it is ranked. The buckets
        then go a chunk at a time: each bucket's region holds its content
        after the merge, rounded up to whole packed bytes on disk, and a
        chunk is the buckets whose regions start in one window of
        ``RANK_CHUNK`` symbols. In RAM a chunk's spliced contents are joined
        and ranked in one pass (:func:`_chunk_ranks`); on disk the chunk is
        loaded into one bytearray, merged there, ranked, and stored
        (:meth:`_merge_staged`). Unranked, as the terminator round merges,
        each bucket is merged alone.
        """
        b = bounds.tolist()
        merges = [(o, positions[lo:hi], syms[lo:hi], base)
                  for o, base, lo, hi in zip(ordinals.tolist(), bases.tolist(), b, b[1:])]
        if not want_ranks:
            for merge in merges:
                self.merge_insert(*merge, False)
            return None
        if not (ordinals[1:] > ordinals[:-1]).all():
            raise ConsistencyError("ranked merges must name each bucket once, in increasing order")
        if syms.size and syms.max() > 3:
            raise ConsistencyError("rank capture over a symbol code above T")
        counts = np.diff(bounds)
        owner = np.repeat(np.arange(len(ordinals)), counts)
        local = positions - bases[owner]
        n0 = self.sizes[ordinals]
        ends = n0 + counts
        rooms = ends if self.tmp_dir is None else (ends + 3) & -4
        at = np.cumsum(rooms) - rooms
        cuts = [*np.flatnonzero(np.diff(at // RANK_CHUNK, prepend=-1)).tolist(), len(ordinals)]
        ranks = np.empty(len(syms), dtype=np.int64)
        for first, stop in zip(cuts, cuts[1:]):
            starts = at[first:stop] - at[first]
            if self.tmp_dir is None:
                content = np.concatenate([self.merge_insert(*m, False) for m in merges[first:stop]])
            else:
                content = self._merge_staged(merges[first:stop], starts, n0[first:stop], ends[first:stop])
            lo, hi = b[first], b[stop]
            ranks[lo:hi] = _chunk_ranks(content[: starts[-1] + ends[stop - 1]], starts,
                                        local[lo:hi], syms[lo:hi], owner[lo:hi] - first)
        return ranks

    def _merge_staged(self, merges: list, at: np.ndarray, n0: np.ndarray, n1: np.ndarray) -> np.ndarray:
        """Merge a chunk of buckets on disk and return its unpacked codes.

        Bucket ``merges[i][0]`` grows from ``n0[i]`` to ``n1[i]`` symbols in
        the region at ``at[i]`` (a multiple of 4) of one bytearray: its
        packed bytes are read there with one ``os.preadv`` each, and the
        whole is unpacked once. Each bucket's :meth:`merge_insert` splices
        inside its region; then the chunk is packed once and each bucket
        written back with one ``os.pwrite``. If a merge is refused, the
        buckets merged before it are stored first, so that every bucket's
        file content matches ``sizes``.
        """
        ordinals = [m[0] for m in merges]
        at4, old4 = at >> 2, (n0 + 3) >> 2
        packed = np.zeros(int(at4[-1] + ((n1[-1] + 3) >> 2)), dtype=np.uint8)
        view, fd, start, preadv = memoryview(packed), self._fd, self._start, os.preadv
        for o, a, w in zip(ordinals, at4.tolist(), old4.tolist()):
            if not w:
                continue
            try:
                got = preadv(fd, [view[a : a + w]], start[o])
            except OSError as exc:
                raise BucketIOError(f"bucket {o}: {exc}") from exc
            if got != w:
                raise BucketIOError(f"bucket {o}: read {got} of {w} bytes")
            self.bytes_read += w
        # the bits past a content in its last byte, which a splice may leave
        # in place, are packed with the chunk: they must be zero
        part = (n0 & 3) > 0
        packed[(at4 + old4 - 1)[part]] &= _KEEP[n0[part] & 3]
        buf = bytearray(4 * len(packed))
        codes = np.frombuffer(buf, dtype=np.uint8)
        _unpack(packed, len(buf), out=codes)
        self._staged = buf, codes, dict(zip(ordinals, at.tolist()))
        done = 0
        try:
            for merge in merges:
                self.merge_insert(*merge, False)
                done += 1
        finally:
            self._staged = None
            if done:
                self._store(_pack(codes), ordinals[:done], ((n1 + 3) >> 2).tolist(), at4.tolist())
        return codes

    def _store(self, packed: np.ndarray, ordinals: list[int], nbytes: list[int], at: list[int]) -> None:
        """Write bucket ``ordinals[i]``'s ``nbytes[i]`` packed bytes, from byte
        ``at[i]`` of ``packed``, to its slot."""
        view, fd, start, pwrite = memoryview(packed), self._fd, self._start, os.pwrite
        for o, w, a in zip(ordinals, nbytes, at):
            try:
                short = pwrite(fd, view[a : a + w], start[o]) != w
            except OSError as exc:
                raise BucketIOError(f"bucket {o}: {exc}") from exc
            if short:
                raise BucketIOError(f"bucket {o}: short write")
            self.bytes_written += w

    def merge_insert(self, ordinal, tree_positions, syms, base, want_ranks=True):
        """Insert ``syms`` at ``tree_positions - base``.

        Ranked, positions and symbols are Python int lists, as sparse rounds
        pass them; the batch is spliced in place and each entry's rank (see
        :func:`_splice_in_place`) comes back in a list. Unranked, they are
        arrays, as :meth:`merge_many` passes them, and the bucket's spliced
        content comes back, a view of where it was spliced. A pure unranked
        terminator batch goes to the side list and returns None; it must be
        the bucket's last merge, since the side list holds final positions
        that a later merge would shift. Every check runs before any byte of
        the bucket is read.

        The content is spliced in RAM inside the bucket's slot, or, on disk,
        inside the region of the chunk that :meth:`merge_many` staged, which
        then stores it, or else inside a bytearray of the bucket alone, read
        before the splice and written back after it.
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
        if self._staged is not None:
            buf, codes, regions = self._staged
            at = regions[ordinal]
        elif self.tmp_dir is None:
            buf, codes, at = self._buf, self._codes, self._start[ordinal]
            self.bytes_read += n0
        else:
            buf, at = bytearray(n0 + k), 0
            codes = np.frombuffer(buf, dtype=np.uint8)
            codes[:n0] = self._pread_codes(ordinal, n0)
        if in_place:
            ranks = _splice_in_place(buf, at, n0, local, syms, want_ranks)
        else:
            p0 = int(local[0])  # the content before the first entry stays in place
            _splice(codes[at + p0 : at + n0].copy(), local - p0, syms, codes[at + p0 : at + n0 + k])
        if self._staged is None:
            if self.tmp_dir is None:
                self.bytes_written += n0 + k
            else:
                self._store(_pack(codes), [ordinal], [(n0 + k + 3) // 4], [0])
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
