"""Storage of context buckets and the merge insertion.

Each of the 2**kappa buckets holds one contiguous segment of the partial
transform. A build merges in three forms, one per round kind, and the
store takes no other:

- a sparse round merges one bucket at a time, ranked, its entries as
  Python int lists, at most ``SPARSE_MAX`` of them. On both backends the
  content of these rounds is in RAM, one bytearray of codes per touched
  bucket, and the merge inserts its entries into the bucket's bytearray
  one at a time, left to right (``bytearray.insert``), counting each
  entry's rank right after its insert (:func:`_count`).
- a ranked dense round merges all its entries in one call, as the engine
  grouped them (an ordinal and a base per touched bucket, and the bounds
  of its entries), as one pass over the content, which is then one
  gapless run in bucket order (``BucketStore._pass``): a window of old symbols at a time, right to
  left and in place, each window read, spliced, counted and written once.
  The run is one bytearray in RAM or one file of 2-bit packed codes on
  disk, and the backends differ only in how a window is read and written:
  in RAM a slice of the bytearray, on disk one ``pread`` and unpack, and
  one pack and ``pwrite``.
- the terminator round, the build's last merge, is one call of the same
  form, told by its symbols: terminators only. Their positions go into a
  per-bucket side list, with no bucket byte read or written, and are
  spliced in when a bucket is read: the 2-bit file cannot hold them, and
  ranks refuse them.

The first dense round, ranked or the terminator round, first writes the
sparse rounds' bytearrays, in bucket order, as the run's start
(``BucketStore._compact``). Every check of a merge runs before any of its
bytes is read or moved. A sparse merge moves only its own bucket's bytes:
into a gapless run it would first move the whole run right of its bucket,
about L**2 / 4 bytes over the sparse rounds of one word of L symbols
alone, against about L**2 / 2**(kappa + 2) bytes within 2**kappa buckets:
fine buckets make the paper's long-word prefix cheap.
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


def _count(buf: bytearray, s: int, p: int) -> int:
    """The count of symbol ``s`` in ``buf[:p]``: by ``bytearray.count``
    below ``COUNT_NUMPY_MIN`` symbols, by numpy above. The numpy view is
    dropped on return: while a view lives, ``buf`` cannot grow."""
    if p < COUNT_NUMPY_MIN:
        return buf.count(s, 0, p)
    return int(np.count_nonzero(np.frombuffer(buf, dtype=np.uint8, count=p) == s))


class BucketStore:
    """The buckets in RAM or, given ``tmp_dir``, in RAM and then in one file.

    Until the first dense round, bucket o's content is ``_slots[o]``, one
    bytearray of codes per touched bucket, on both backends. That round
    compacts them into one gapless run in bucket order from the start
    (:meth:`_compact`): in RAM one bytearray of plain (A, C, G, T) codes, on
    disk one file, ``tmp_dir/buckets.bin``, of 2-bit packed symbols (high
    bits first). The run is allocated in full here, ``sum(final)`` bytes in
    RAM or ``ceil(sum(final) / 4)`` on disk, ``final[o]`` being bucket o's
    size at the end of the build, so that too little memory or disk fails
    before any merge, with the bytes that were asked for. Where ``os`` has
    no ``posix_fallocate`` the file is only sized, and a full disk fails at
    a pass's write instead. ``bytes_read``
    and ``bytes_written`` count code bytes in RAM and packed bytes on disk:
    a sparse merge of k entries into n0 symbols counts n0 and n0 + k on
    both backends, and the compaction the content it copies.
    """

    def __init__(self, final: np.ndarray, tmp_dir: str | None = None):
        self.final = np.asarray(final, dtype=np.int64)
        self.sizes = np.zeros(len(self.final), dtype=np.int64)
        self.tmp_dir = tmp_dir
        self._slots: dict[int, bytearray] = {}
        self._dollars: dict[int, np.ndarray] = {}
        # once the content is gapless, each bucket's first symbol in it
        self._begin = None
        self.bytes_read = 0
        self.bytes_written = 0
        self._fd = None
        total = int(self.final.sum())
        if tmp_dir is None:
            try:
                self._codes = np.frombuffer(bytearray(total), dtype=np.uint8)
            except MemoryError:
                raise BucketIOError(f"cannot allocate {total:,} bytes for the buckets in RAM") from None
            return
        total = (total + 3) // 4
        self._path = os.path.join(tmp_dir, "buckets.bin")
        try:
            os.makedirs(tmp_dir, exist_ok=True)
            self._fd = os.open(self._path, os.O_RDWR | os.O_CREAT, 0o600)
            if hasattr(os, "posix_fallocate"):
                os.posix_fallocate(self._fd, 0, total)
            else:  # where the C library lacks the call, as on macOS
                os.ftruncate(self._fd, total)
        except BaseException as exc:
            failed = "" if self._fd is None else f"cannot allocate {total:,} bytes for the buckets: "
            self.close()
            if not isinstance(exc, OSError):
                raise
            raise BucketIOError(f"{self._path}: {failed}{exc}") from exc

    def merge_many(self, ordinals, bounds, positions, syms, bases):
        """Merge a dense round's entries, given as arrays: bucket
        ``ordinals[i]``, in increasing order, takes entries
        ``bounds[i] : bounds[i + 1]`` of ``positions`` and ``syms``, with base
        ``bases[i]``. They go to :meth:`merge_insert` in one call, as the
        engine grouped them: ranked, ranks come back in entry order; a round
        of terminators only, the terminator round, gives None."""
        return self.merge_insert(ordinals, positions, syms, bases, bounds=bounds)

    def merge_insert(self, ordinal, tree_positions, syms, base, *, bounds=None):
        """Insert ``syms`` at ``tree_positions`` less their bucket's
        ``base``, in one of the three forms a build makes (module
        docstring); every other is refused with :class:`ConsistencyError`,
        and so is any merge after the terminator round, whose side lists
        hold final positions. Every check runs before any byte of the
        content is read.

        Given ``bounds``, as :meth:`merge_many` passes a dense round,
        ``ordinal`` and ``base`` are arrays of one per touched bucket, and
        the entries are merged by one :meth:`_pass`.

        Else, a sparse round's merge into bucket ``ordinal``, positions and
        symbols are Python int lists of bases, and the entries are inserted
        into the bucket's bytearray left to right. Each entry's rank, the
        count of its symbol before it in the merged content, is counted
        right after its insert, and the ranks come back in a list: an
        entry's position is its place in the merged content, and the
        entries right of it are not in yet.
        """
        if self._dollars:
            raise ConsistencyError("a merge after the terminator round")
        if bounds is not None:
            return self._pass(ordinal, bounds, tree_positions, syms, base)
        if self._begin is not None:
            raise ConsistencyError(f"bucket {ordinal}: a one-bucket merge is a sparse round's, "
                                   "before the first dense round")
        k, n0 = len(syms), self.sizes.item(ordinal)
        if n0 + k > self.final.item(ordinal):
            raise ConsistencyError(
                f"bucket {ordinal}: {n0} + {k} symbols overflow its counted final size of {self.final[ordinal]}")
        if k == 1:
            # a one-entry merge, most sparse merges: the same checks, insert
            # and count as below, without their lists
            p, s = tree_positions[0] - base, syms[0]
            if not 0 <= p <= n0:
                raise ConsistencyError(f"bucket {ordinal}: insert positions inconsistent with content")
            if s > 3:
                raise ConsistencyError("rank capture over a symbol code above T")
            buf = self._slots.setdefault(ordinal, bytearray())
            buf.insert(p, s)
            ranks = [_count(buf, s, p)]
        else:
            local = [p - base for p in tree_positions]
            if not k or local[0] < 0 or local[-1] - (k - 1) > n0 or not all(map(operator.lt, local, local[1:])):
                raise ConsistencyError(f"bucket {ordinal}: insert positions inconsistent with content")
            if max(syms) > 3:
                raise ConsistencyError("rank capture over a symbol code above T")
            buf = self._slots.setdefault(ordinal, bytearray())
            ranks = []
            for p, s in zip(local, syms):
                buf.insert(p, s)
                ranks.append(_count(buf, s, p))
        self.bytes_read += n0
        self.bytes_written += n0 + k
        self.sizes[ordinal] = n0 + k
        return ranks

    def _pass(self, touched: np.ndarray, bounds: np.ndarray, positions: np.ndarray,
              syms: np.ndarray, bases: np.ndarray) -> np.ndarray | None:
        """Merge a round's entries into many buckets at once: bucket
        ``touched[i]``, in increasing order, takes entries ``bounds[i] :
        bounds[i + 1]``, at their ``positions`` less ``bases[i]``. A round of
        bases is one pass over the content, and the ranks come back; a
        round of terminators only, the terminator round, goes to the side
        lists, with no byte of the gapless run read or written.

        Every check runs first, vectorised, so that a refused merge changes
        no byte, no size and no I/O count. The first dense round, ranked or
        not, then compacts the sparse rounds' content (:meth:`_compact`).
        Each entry's place in the new content is its bucket's new start,
        from the cumulative sizes, plus its position less its base. The pass
        goes right to left over the content from the first touched bucket
        on, a window of ``RANK_CHUNK`` old symbols at a time: one read, one
        splice of the window's entries, one count of the four symbols at its
        entries and bucket starts (:func:`_counts_before`) and one write.
        Content only grows, so a window is written at or right of where it
        was read, never over a symbol not yet read; the codes before its
        first multiple of four go out with the window on its left, so that
        on disk every write starts on a byte. Counts are kept as minus the
        count from the point to the content's end, which the windows passed
        so far give, so that a bucket start in another window needs no
        second pass: an entry's rank is its count less its bucket start's.
        """
        k, heads, added = len(syms), bounds[:-1], np.diff(bounds)
        if not (len(touched) == len(added) > 0 and bounds[0] == 0 and bounds[-1] == k
                and added.min() > 0 and (touched[1:] > touched[:-1]).all()):
            raise ConsistencyError("a round's merges must name each bucket once, in increasing order, "
                                   "with bounds rising from 0 to its entry count")
        ranked = syms.max() <= 3
        if not ranked and (syms != DOLLAR).any():
            raise ConsistencyError("rank capture over a symbol code above T")
        n0 = self.sizes[touched]
        over = n0 + added > self.final[touched]
        if over.any():
            i = int(over.argmax())
            raise ConsistencyError(f"bucket {touched[i]}: {n0[i]} + {added[i]} symbols overflow its counted "
                                   f"final size of {self.final[touched[i]]}")
        owner = np.repeat(np.arange(len(touched)), added)
        rising = np.diff(positions) > 0
        rising[heads[1:] - 1] = True
        first, last = positions[heads] - bases, positions[bounds[1:] - 1] - bases - (added - 1)
        if not (rising.all() and first.min() >= 0 and (last <= n0).all()):
            bad = (first < 0) | (last > n0)
            bad[owner[1:][~rising]] = True
            raise ConsistencyError(f"bucket {touched[bad.argmax()]}: insert positions inconsistent with content")
        if self._begin is None:
            self._compact()
        if not ranked:
            self._dollars = dict(zip(touched.tolist(), np.split(positions - bases[owner], heads[1:])))
            self.sizes[touched] = n0 + added
            return None
        begin = self._begin
        n_old = int(begin[-1] + self.sizes[-1])
        start = begin[touched] + heads  # each touched bucket's start after the merge
        points = (start - bases)[owner] + positions
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
        """Write the sparse rounds' bytearrays, in bucket order, as one
        gapless run from the content's start, in one write, and drop them."""
        run = b"".join([self._slots[o] for o in sorted(self._slots)])
        self._write(np.frombuffer(run, dtype=np.uint8), 0)
        self.bytes_read += len(run)
        self._slots = {}
        self._begin = np.cumsum(self.sizes) - self.sizes

    def _read(self, lo: int, hi: int, what: str | None = None) -> np.ndarray:
        """Symbols ``lo`` to ``hi`` of the gapless run: in RAM a view of
        them, on disk unpacked from one ``os.pread``, where an error names
        ``what``, or else the file and the bytes read."""
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

    def _write(self, codes: np.ndarray, at: int) -> None:
        """Write ``codes`` from symbol ``at`` of the gapless run, a multiple
        of 4: in RAM by one slice assignment, on disk packed, with one
        ``os.pwrite``, where an error names the file and the bytes written."""
        if self.tmp_dir is None:
            self._codes[at : at + len(codes)] = codes
            self.bytes_written += len(codes)
            return
        packed, at = _pack(codes), at >> 2
        what = f"bucket file {self._path}, bytes {at}-{at + len(packed)}"
        try:
            short = os.pwrite(self._fd, packed, at) != len(packed)
        except OSError as exc:
            raise BucketIOError(f"{what}: {exc}") from exc
        if short:
            raise BucketIOError(f"{what}: short write")
        self.bytes_written += len(packed)

    def _pieces(self, ordinal: int):
        """Bucket ``ordinal``'s symbols, terminators spliced back in: before
        the first dense round a copy of its bytearray, since a view would
        stop the bytearray from growing, and after it pieces of at most
        ``RANK_CHUNK`` symbols of the run before the terminators, which may
        be views of it."""
        if self._begin is None:
            yield np.array(self._slots.get(ordinal, bytearray()), dtype=np.uint8)
            return
        dollars = self._dollars.get(ordinal, _NO_DOLLARS)
        n = int(self.sizes[ordinal]) - len(dollars)
        at = int(self._begin[ordinal])
        cuts, edges = _windows(0, n, RANK_CHUNK, dollars - np.arange(len(dollars)))
        for u, v, lo, hi in zip(cuts, cuts[1:], edges, edges[1:]):
            codes = self._read(at + u, at + v, f"bucket {ordinal}")
            yield codes if lo == hi else _splice(codes, dollars[lo:hi] - (u + lo),
                                                 np.full(hi - lo, DOLLAR, dtype=np.uint8))

    def read(self, ordinal: int) -> np.ndarray:
        """Bucket ``ordinal``'s symbols, terminators spliced back in; a copy."""
        return np.concatenate(list(self._pieces(ordinal)))

    def assemble(self, out: BinaryIO) -> int:
        """Write the transform to ``out`` a bucket at a time, a piece of at
        most ``RANK_CHUNK`` symbols at a time; return its length."""
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
        self._codes = self._slots = None
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
