"""Storage of context buckets and the merge insertion.

Each of the 2**kappa buckets holds one contiguous segment of the partial
transform, in one bytearray of codes in RAM or in one file of 2-bit packed
codes on disk. A build merges in three forms, one per round kind, and the
store takes no other:

- a sparse round merges one bucket at a time, ranked, its entries as
  Python int lists, at most ``SPARSE_MAX`` of them. Until the first ranked
  dense round a bucket's content sits at the start of a slot sized for its
  final content, and the merge splices its entries into the content in
  place (:func:`_splice_in_place`), in RAM inside the slot itself, on disk
  inside a bytearray of the bucket's unpacked codes, which is then packed
  and written back; the splice counts each entry's rank as it goes.
- a ranked dense round merges all its entries in one call. The first one
  moves the contents left into one gapless run in bucket order
  (``BucketStore._compact``), and each is one pass over that run
  (``BucketStore._pass``): a window of old symbols at a time, right to
  left and in place, each window read, spliced, counted and written once.
  The two backends differ only in how a window is read and written: in RAM
  a slice of the bytearray, on disk one ``pread`` and unpack, and one pack
  and ``pwrite``.
- the terminator round merges all its terminators in one unranked call,
  the build's last merge. Their positions go into a per-bucket side list,
  with no bucket byte read or written, and are spliced in when a bucket is
  read: the 2-bit file cannot hold them, and ranks refuse them.

Every check of a merge runs before any of its bytes is read or moved.
Slots stay for the sparse rounds. A sparse merge into a gapless run would
first move the whole run right of its bucket, about L**2 / 4 bytes over
the sparse rounds of one word of L symbols alone, against about
L**2 / 2**(kappa + 2) bytes inside slots of 2**kappa buckets: fine buckets
make the paper's long-word prefix cheap.
"""
from __future__ import annotations

import operator
import os
from typing import BinaryIO

import numpy as np

from .collection import DOLLAR, SYMBOL_BYTES, _unpack, _pack

# an in-place rank counts a range of fewer symbols than this with
# bytearray.count, a longer one with numpy, whose fixed cost then pays;
# measured, see README
COUNT_NUMPY_MIN = 1 << 12

# a dense round's pass reads, splices, counts and writes one window of this
# many old symbols at a time; measured, see README
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

# the side list of a bucket without terminators, and an empty run of codes
_NO_DOLLARS = np.empty(0, dtype=np.int64)
_NO_CODES = np.empty(0, dtype=np.uint8)


def _counts_before(content: np.ndarray, at: np.ndarray, syms: np.ndarray) -> np.ndarray:
    """Per point, the count of symbol ``syms[i]`` in ``content[: at[i]]``.

    Counts come from four bit planes, one per symbol, in uint64 words of 64
    symbols: the codes' low and high bits are packed (``np.packbits``) and
    combined word by word, and one cumsum of the words' popcounts, the four
    planes interleaved, gives each plane's count through every word. A
    point's count is the count through its word, less the popcount of the
    word's bits from the point on. The content read, up to the last point,
    must hold only A, C, G and T.
    """
    seen = content[: int(at.max()) + 1]
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
    flat = (at >> 6 << 2) + syms
    return through[flat] - np.bitwise_count(planes.ravel()[flat] & (_ALL << (at & 63).astype(np.uint64)))


def _windows(lo: int, hi: int, step: int, before: np.ndarray) -> tuple[list[int], list[int]]:
    """Cut old symbols ``lo`` to ``hi`` into windows of ``step``, at least
    one, and give each the sorted entries that go with it: those inserted
    before one of its old symbols, and in the last window those at ``hi``.
    ``before[i]`` is the old symbol entry i goes before. Returns the cuts
    and the entry bounds, one more of each than windows."""
    cuts = [*range(lo, hi, step), hi] if hi > lo else [lo, lo]
    return cuts, [0, *np.searchsorted(before, cuts[1:-1]).tolist(), len(before)]


def _splice_in_place(buf: bytearray, at: int, n0: int, ps: list[int], ss: list[int]) -> list[int]:
    """:func:`_splice` in place: ``buf[at : at + n0]`` holds the content, and
    ``buf`` has room for ``len(ps)`` more symbols after it. Positions and
    symbols are Python int lists; each entry's rank, the count of its symbol
    before it in the spliced content, comes back in one.

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


def _check_merge(ordinal: int, local: list[int], syms: list[int], n0: int) -> None:
    """Refuse a ranked merge of ``syms`` at post-insertion positions
    ``local`` into ``n0`` symbols, both Python int lists, before any byte of
    the bucket is read."""
    k = len(local)
    if not k:
        return
    if local[0] < 0 or local[-1] - (k - 1) > n0 or not all(map(operator.lt, local, local[1:])):
        raise ConsistencyError(f"bucket {ordinal}: insert positions inconsistent with content")
    if max(syms) > 3:
        raise ConsistencyError("rank capture over a symbol code above T")


class BucketStore:
    """The buckets in RAM or, given ``tmp_dir``, in one file.

    In RAM the content is one bytearray of plain (A, C, G, T) codes. On disk
    it is one file, ``tmp_dir/buckets.bin``, of 2-bit packed symbols (high
    bits first). Until the first ranked dense round, bucket o's content sits
    at the start of a fixed slot of ``final[o]`` symbols, its size at the
    end of the build (on disk ``ceil(final / 4)`` bytes); that round
    compacts the contents into one gapless run in bucket order from the
    start (:meth:`_compact`). Both are allocated in full here, so that too
    little memory or disk fails before any merge, with the bytes that were
    asked for. ``bytes_read`` and ``bytes_written`` count code bytes in RAM
    and packed bytes on disk.
    """

    def __init__(self, final: np.ndarray, tmp_dir: str | None = None):
        self.final = np.asarray(final, dtype=np.int64)
        self.sizes = np.zeros(len(self.final), dtype=np.int64)
        self.tmp_dir = tmp_dir
        self._dollars: dict[int, np.ndarray] = {}
        # once the content is gapless, each bucket's first symbol in it
        self._begin = None
        self.bytes_read = 0
        self.bytes_written = 0
        self._fd = None
        # slot offsets, in symbols in RAM and in packed bytes on disk
        extents = self.final if tmp_dir is None else (self.final + 3) // 4
        self._start = (np.cumsum(extents) - extents).tolist()
        total = int(extents.sum())
        if tmp_dir is None:
            # one bytearray, which sparse merges splice in place, and a numpy view of it
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
        ``ordinals[i]``, in increasing order, takes entries
        ``bounds[i] : bounds[i + 1]`` of ``positions`` and ``syms``, with base
        ``bases[i]``. They go to :meth:`merge_insert` in one call, with one
        ordinal and base per entry: ranked, ranks come back in entry order;
        unranked, as the terminator round merges, None does."""
        owner = np.repeat(np.arange(len(ordinals)), np.diff(bounds))
        return self.merge_insert(ordinals[owner], positions, syms, bases[owner], want_ranks)

    def merge_insert(self, ordinal, tree_positions, syms, base, want_ranks=True):
        """Insert ``syms`` at ``tree_positions - base``, in one of the three
        forms a build makes (module docstring); every other is refused with
        :class:`ConsistencyError`, and so is any merge after the terminator
        round, whose side lists hold final positions. Every check runs
        before any byte of the content is read.

        With ``ordinal`` and ``base`` arrays, one per entry, as
        :meth:`merge_many` passes a dense round, the entries are merged by
        one :meth:`_pass`: ranked, their ranks come back in an array.

        With one ``ordinal``, a sparse round's merge, the merge is ranked,
        positions and symbols are Python int lists, and the content is in
        slots. The batch is spliced in place: in RAM inside the bucket's
        slot, on disk inside a bytearray of the bucket alone, read before the
        splice and written back after it. Each entry's rank (see
        :func:`_splice_in_place`) comes back in a list.
        """
        if self._dollars:
            raise ConsistencyError("a merge after the terminator round")
        if isinstance(ordinal, np.ndarray):
            return self._pass(ordinal, tree_positions - base, syms, want_ranks)
        if not want_ranks or self._begin is not None:
            raise ConsistencyError(f"bucket {ordinal}: a one-bucket merge is a sparse round's, "
                                   "ranked and before the first ranked dense round")
        k, n0 = len(syms), self.sizes.item(ordinal)
        if n0 + k > self.final.item(ordinal):
            raise ConsistencyError(
                f"bucket {ordinal}: {n0} + {k} symbols overflow its slot of {self.final[ordinal]}")
        if k == 1 and self.tmp_dir is None:
            # a one-entry merge in RAM: the same checks and splice as below,
            # without their lists
            p, s = tree_positions[0] - base, syms[0]
            if not 0 <= p <= n0:
                raise ConsistencyError(f"bucket {ordinal}: insert positions inconsistent with content")
            if s > 3:
                raise ConsistencyError("rank capture over a symbol code above T")
            buf, at = self._buf, self._start[ordinal]
            p += at
            buf[p + 1 : at + n0 + 1] = buf[p : at + n0]
            buf[p] = s
            self.bytes_read += n0
            self.bytes_written += n0 + 1
            self.sizes[ordinal] = n0 + 1
            if p - at < COUNT_NUMPY_MIN:
                return [buf.count(s, at, p)]
            return [int(np.count_nonzero(self._codes[at:p] == s))]
        local = [p - base for p in tree_positions]
        _check_merge(ordinal, local, syms, n0)
        # the content goes to buf[at : at + n0], with room for k more after it
        if self.tmp_dir is None:
            buf, at = self._buf, self._start[ordinal]
            self.bytes_read += n0
        else:
            buf, at = bytearray(n0 + k), 0
            codes = np.frombuffer(buf, dtype=np.uint8)
            slot = 4 * self._start[ordinal]
            codes[:n0] = self._read(slot, slot + n0, f"bucket {ordinal}")
        ranks = _splice_in_place(buf, at, n0, local, syms)
        if self.tmp_dir is None:
            self.bytes_written += n0 + k
        else:
            self._write(codes, slot, f"bucket {ordinal}")
        self.sizes[ordinal] = n0 + k
        return ranks

    def _pass(self, ordinal: np.ndarray, local: np.ndarray, syms: np.ndarray,
              want_ranks: bool) -> np.ndarray | None:
        """Merge entries into many buckets at once; entry i goes ``local[i]``
        symbols into bucket ``ordinal[i]``, and ``ordinal`` does not
        decrease. Ranked, the merge is one pass over the content, and the
        ranks come back; unranked, the terminator round, every symbol must
        be a terminator, and the positions go to the side lists, with no
        byte read or written.

        Every check runs first, vectorised, so that a refused merge changes
        no byte, no size and no I/O count. The first ranked pass compacts
        the slots (:meth:`_compact`). Each entry's place in
        the new content is its bucket's new start, from the cumulative
        sizes, plus ``local``. The pass goes right to left over the content
        from the first touched bucket on, a window of ``RANK_CHUNK`` old
        symbols at a time: one read, one splice of the window's entries, one
        count of the four symbols at its entries and bucket starts
        (:func:`_counts_before`) and one write. Content only grows, so a
        window is written at or right of where it was read, never over a
        symbol not yet read; the codes before its first multiple of four go
        out with the window on its left, so that on disk every write starts
        on a byte. Counts are kept as minus the count from the point to the
        content's end, which the windows passed so far give, so that a
        bucket start in another window needs no second pass: an entry's
        rank is its count less its bucket start's.
        """
        k = len(syms)
        if not k:
            return np.empty(0, dtype=np.int64) if want_ranks else None
        head = np.ones(k, dtype=bool)
        np.not_equal(ordinal[1:], ordinal[:-1], out=head[1:])
        heads = np.flatnonzero(head)
        touched = ordinal[heads]
        if not (touched[1:] > touched[:-1]).all():
            raise ConsistencyError("a round's merges must name each bucket once, in increasing order")
        if want_ranks and syms.max() > 3:
            raise ConsistencyError("rank capture over a symbol code above T")
        if not want_ranks and (syms != DOLLAR).any():
            raise ConsistencyError("an unranked merge is the terminator round's, and holds only terminators")
        added = np.diff(np.append(heads, k))
        n0 = self.sizes[touched]
        over = n0 + added > self.final[touched]
        if over.any():
            i = int(over.argmax())
            raise ConsistencyError(f"bucket {touched[i]}: {n0[i]} + {added[i]} symbols overflow its slot "
                                   f"of {self.final[touched[i]]}")
        owner = np.cumsum(head) - 1
        rising = np.diff(local) > 0
        rising |= head[1:]
        first, last = local[heads], local[heads + added - 1] - (added - 1)
        if not (rising.all() and first.min() >= 0 and (last <= n0).all()):
            bad = (first < 0) | (last > n0)
            bad[owner[1:][~rising]] = True
            raise ConsistencyError(f"bucket {touched[bad.argmax()]}: insert positions inconsistent with content")
        if not want_ranks:
            self._dollars = dict(zip(touched.tolist(), np.split(local, heads[1:])))
            self.sizes[touched] = n0 + added
            return None
        if self._begin is None:
            self._compact()
        begin = self._begin
        n_old = int(begin[-1] + self.sizes[-1])
        start = begin[touched] + heads  # each touched bucket's start after the merge
        points = start[owner] + local
        # windows of old symbols from the first touched bucket's start, on a byte on disk
        cuts, edges = _windows(int(start[0]) & -4, n_old, RANK_CHUNK, points - np.arange(k))
        news = [a + e for a, e in zip(cuts, edges)]  # each window's start after the merge
        firsts = [*np.searchsorted(start, news[:-1]).tolist(), len(start)]
        at_entry = np.empty(k, dtype=np.int64)
        at_start = np.empty((len(start), 4), dtype=np.int64)
        after = np.zeros(4, dtype=np.int64)  # the count from the window's start to the end
        carry = _NO_CODES
        for i in range(len(cuts) - 2, -1, -1):
            a, b, lo, hi, s, f0, f1 = cuts[i], cuts[i + 1], edges[i], edges[i + 1], news[i], firsts[i], firsts[i + 1]
            n, put = b - a + hi - lo, points[lo:hi] - s
            new = np.empty(n + len(carry), dtype=np.uint8)
            _splice(self._read(a, b), put, syms[lo:hi], new[:n])
            new[n:] = carry
            counts = _counts_before(new[:n], np.concatenate([put, np.repeat(start[f0:f1] - s, 4), [n] * 4]),
                                    np.concatenate([syms[lo:hi], np.arange(4 * (f1 - f0 + 1)) & 3]))
            after += counts[-4:]
            at_entry[lo:hi] = counts[: hi - lo] - after[syms[lo:hi]]
            at_start[f0:f1] = counts[hi - lo : -4].reshape(-1, 4) - after
            skip = -s & 3
            self._write(new[skip:], s + skip)
            carry = new[:skip].copy()  # not a view, which would hold the whole window
        self.sizes[touched] = n0 + added
        self._begin = np.cumsum(self.sizes) - self.sizes
        return at_entry - at_start.ravel()[4 * owner + syms]

    def _compact(self) -> None:
        """Move the slots' contents into one gapless run from the start,
        bucket by bucket, in increasing bucket order, on disk a piece of at
        most ``RANK_CHUNK`` symbols at a time. A content's gapless start is
        at most its slot's, so a piece is written at or left of where it was
        read, never over a symbol not yet read; the codes after its last
        multiple of four go out with the next piece."""
        carry, at = _NO_CODES, 0
        for o in np.flatnonzero(self.sizes).tolist():
            for piece in self._pieces(o):
                codes = np.concatenate([carry, piece])
                full = len(codes) & -4
                self._write(codes[:full], at)
                at, carry = at + full, codes[full:].copy()
        self._write(carry, at)
        self._begin = np.cumsum(self.sizes) - self.sizes

    def _read(self, lo: int, hi: int, what: str | None = None) -> np.ndarray:
        """Symbols ``lo`` to ``hi`` of the content: in RAM a view of them, on
        disk unpacked from one ``os.pread``, where an error names ``what``,
        or else the file and the bytes read."""
        if self.tmp_dir is None:
            self.bytes_read += hi - lo
            return self._codes[lo:hi]
        first = lo >> 2
        want = ((hi + 3) >> 2) - first if hi > lo else 0
        what = what or f"bucket file {self._path}, bytes {first}-{first + want}"
        try:
            raw = os.pread(self._fd, want, first)
        except OSError as exc:
            raise BucketIOError(f"{what}: {exc}") from exc
        if len(raw) != want:
            raise BucketIOError(f"{what}: read {len(raw)} of {want} bytes")
        self.bytes_read += want
        return _unpack(np.frombuffer(raw, dtype=np.uint8), 4 * want)[lo & 3 : (lo & 3) + hi - lo]

    def _write(self, codes: np.ndarray, at: int, what: str | None = None) -> None:
        """Write ``codes`` from symbol ``at`` of the content, a multiple of 4:
        in RAM by one slice assignment, on disk packed, with one
        ``os.pwrite``, where an error names ``what``, or else the file and
        the bytes written."""
        if self.tmp_dir is None:
            self._codes[at : at + len(codes)] = codes
            self.bytes_written += len(codes)
            return
        packed, at = _pack(codes), at >> 2
        what = what or f"bucket file {self._path}, bytes {at}-{at + len(packed)}"
        try:
            short = os.pwrite(self._fd, packed, at) != len(packed)
        except OSError as exc:
            raise BucketIOError(f"{what}: {exc}") from exc
        if short:
            raise BucketIOError(f"{what}: short write")
        self.bytes_written += len(packed)

    def _pieces(self, ordinal: int):
        """Bucket ``ordinal``'s symbols, terminators spliced back in: in RAM
        in one piece, which may be a view of its content, and on disk in
        pieces of at most ``RANK_CHUNK`` symbols before the terminators."""
        dollars = self._dollars.get(ordinal, _NO_DOLLARS)
        n = int(self.sizes[ordinal]) - len(dollars)
        if self._begin is not None:
            at = int(self._begin[ordinal])
        else:
            at = self._start[ordinal] * (1 if self.tmp_dir is None else 4)
        step = max(n, 1) if self.tmp_dir is None else RANK_CHUNK
        cuts, edges = _windows(0, n, step, dollars - np.arange(len(dollars)))
        for u, v, lo, hi in zip(cuts, cuts[1:], edges, edges[1:]):
            codes = self._read(at + u, at + v, f"bucket {ordinal}")
            yield codes if lo == hi else _splice(codes, dollars[lo:hi] - (u + lo),
                                                 np.full(hi - lo, DOLLAR, dtype=np.uint8))

    def read(self, ordinal: int) -> np.ndarray:
        """Bucket ``ordinal``'s symbols, terminators spliced back in; a copy."""
        return np.concatenate(list(self._pieces(ordinal)))

    def assemble(self, out: BinaryIO) -> int:
        """Write the transform to ``out`` a bucket at a time, on disk a piece
        of at most ``RANK_CHUNK`` symbols at a time; return its length."""
        lut = np.frombuffer(SYMBOL_BYTES, dtype=np.uint8)
        written = 0
        for o in np.flatnonzero(self.sizes).tolist():
            for piece in self._pieces(o):
                data = lut[piece].tobytes()
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


# one class per backend, each defining only its constructor, so that
# perfbench's tracer wraps each backend's merges once
class MemoryBucketStore(BucketStore):
    def __init__(self, final: np.ndarray):
        super().__init__(final)


class ExternalBucketStore(BucketStore):
    def __init__(self, final: np.ndarray, tmp_dir: str):
        super().__init__(final, tmp_dir)
