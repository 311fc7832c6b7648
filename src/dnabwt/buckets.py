"""Storage of context buckets and the merge insertion.

Each of the 2**kappa buckets holds one contiguous segment of the partial
transform. :class:`BucketStore` keeps a bucket's plain (A, C, G, T) codes
in a RAM array or in one file of 2-bit packed symbols (four per byte, high
bits first) under ``tmp_dir``, rewritten in place: an insertion reads the
file, splices the new symbols in and writes the result back from offset 0.
A bucket only grows, so the file is never truncated (on ext4, truncating
a file and writing it again makes ``close`` start write-back, which cost
more than the splice). Terminators are only ever inserted in the final
round; on both backends their positions go into a per-bucket side list
and are spliced in when the bucket is read.
"""
from __future__ import annotations

import os
from typing import BinaryIO

import numpy as np

from .collection import DOLLAR, SYMBOL_BYTES, _unpack, _pack

# batches of at most this many entries take _splice_few; measured crossover
# against _splice_numpy, see README
SPLICE_FEW_MAX = 16


class ConsistencyError(RuntimeError):
    pass


class BucketIOError(RuntimeError):
    pass


def n_buckets(kappa: int) -> int:
    return 1 << kappa


def context_symbols(kappa: int) -> int:
    """Context symbols tracked per word (last one half-used when kappa is odd)."""
    return (kappa + 1) // 2


def _splice_numpy(old: np.ndarray, local: np.ndarray, syms: np.ndarray,
                  want_ranks: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Large-batch splice: one scatter of the batch and one masked copy of
    ``old``, then the ranks from :func:`_ranks_before`."""
    n0, k = len(old), len(local)
    new = np.empty(n0 + k, dtype=old.dtype)
    new[local] = syms
    mask = np.ones(n0 + k, dtype=bool)
    mask[local] = False
    new[mask] = old
    if not want_ranks:
        return new, None
    return new, _ranks_before(new, local, syms)


# rank capture reads eight symbols per little-endian uint64 lane: byte r of
# a lane is its bits 8r..8r+7, so _LOW_BYTES[r] keeps the lane's first r
# symbols, and a lane of 0/1 bytes times _BYTE_SUM holds their sum in the
# top byte
_LANE = np.dtype("<u8")
_BYTE_SUM = np.uint64(0x0101010101010101)
_TOP_BYTE = np.uint64(56)
_LOW_BYTES = np.array([(1 << (8 * r)) - 1 for r in range(8)], dtype=np.uint64)


def _ranks_before(new: np.ndarray, local: np.ndarray, syms: np.ndarray) -> np.ndarray:
    """Per entry, the count of its symbol in ``new`` before its position.

    ``local`` is ascending and not empty. ``new`` is the spliced content,
    so the count covers the stream copies and the earlier entries of the
    batch alike. A, C and G are counted
    eight symbols at a time: a comparison gives one 0/1 byte per symbol,
    read as uint64 lanes, each lane's count comes from one multiply, and a
    cumsum over the lanes gives the count before each lane. An entry adds
    the bytes of its own lane that precede it. The three symbols share one
    cumsum, each in its own bit field wide enough for any count, unless
    the content is too long for three such fields in 64 bits. T is what
    remains of the position, so the content read must hold only A, C, G, T.
    """
    k, end = len(local), int(local[-1])
    if new[: end + 1].max() > 3:
        raise ConsistencyError("rank capture over a symbol code above T")
    n_lanes = end // 8 + 1
    hits = np.zeros(8 * n_lanes, dtype=bool)
    lanes = hits.view(_LANE)
    lane_of, lane_mask = local >> 3, _LOW_BYTES[local & 7]
    width = max(end.bit_length(), 1)
    per_cumsum = min(3, 64 // width)
    counts = np.empty((4, k), dtype=np.uint64)
    lane_counts = np.empty(n_lanes, dtype=np.uint64)
    cum = np.empty(n_lanes + 1, dtype=np.uint64)
    for first in range(0, 3, per_cumsum):
        group = range(first, min(first + per_cumsum, 3))
        cum[0] = 0
        for j, c in enumerate(group):
            np.equal(new[:end], c, out=hits[:end])
            counts[c] = ((lanes[lane_of] & lane_mask) * _BYTE_SUM) >> _TOP_BYTE
            out = cum[1:] if j == 0 else lane_counts
            np.multiply(lanes, _BYTE_SUM, out=out)
            np.right_shift(out, _TOP_BYTE, out=out)
            if j:
                np.left_shift(out, np.uint64(j * width), out=out)
                np.bitwise_or(cum[1:], out, out=cum[1:])
        np.cumsum(cum, out=cum)
        shifts = np.arange(0, len(group) * width, width, dtype=np.uint64)[:, None]
        counts[group.start : group.stop] += (cum[lane_of] >> shifts) & np.uint64((1 << width) - 1)
    counts[3] = local
    counts[3] -= counts[:3].sum(axis=0)
    return counts[syms, np.arange(k)].view(np.int64)


def _splice_few(old: np.ndarray, local: np.ndarray, syms: np.ndarray,
                want_ranks: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """Small-batch form of :func:`_splice_numpy`, one Python step per entry.

    The old content is copied around each entry in slices; each rank is then
    a C-level count of the entry's symbol over the prefix it is written
    after, resumed from that symbol's previous entry, so a batch reads the
    new content at most once per symbol.
    """
    ps, ss = local.tolist(), syms.tolist()
    new = np.empty(len(old) + len(ps), dtype=old.dtype)
    src = 0
    for i, (p, s) in enumerate(zip(ps, ss)):
        new[src + i : p] = old[src : p - i]
        new[p] = s
        src = p - i
    new[src + len(ps) :] = old[src:]
    if not want_ranks:
        return new, None
    seen, upto = [0] * 4, [0] * 4  # A, C, G and T only: a terminator fails the index
    captured = []
    try:
        for p, s in zip(ps, ss):
            seen[s] += int(np.count_nonzero(new[upto[s] : p] == s))
            upto[s] = p
            captured.append(seen[s])
    except IndexError:
        raise ConsistencyError("rank capture over a symbol code above T") from None
    return new, np.array(captured, dtype=np.int64)


def _validate_positions(local: np.ndarray, n0: int, ordinal: int) -> None:
    k = len(local)
    if k and (local[0] < 0 or int(local[-1]) - (k - 1) > n0 or (k > 1 and (local[1:] <= local[:-1]).any())):
        raise ConsistencyError(f"bucket {ordinal}: insert positions inconsistent with content")


def _splice(old: np.ndarray, local: np.ndarray, syms: np.ndarray, want_ranks: bool,
            ordinal: int) -> tuple[np.ndarray, np.ndarray | None]:
    """Splice ``syms`` into ``old`` at post-insertion positions ``local``.

    When ``want_ranks`` is set, also captures, per entry, the number of equal
    symbols written before it (stream copies plus earlier batch entries),
    which is the bucket-level rank the next insert position needs.
    """
    _validate_positions(local, len(old), ordinal)
    if len(local) <= SPLICE_FEW_MAX:
        return _splice_few(old, local, syms, want_ranks)
    return _splice_numpy(old, local, syms, want_ranks)


class BucketStore:
    """The 2**kappa buckets, in RAM or, given ``tmp_dir``, in files.

    Bucket o's file is ``tmp_dir/bucket_<o>.bin``, the ``ceil(plain / 4)``
    packed bytes of its plain symbols; its first plain merge creates it and
    :meth:`close` removes it. Untouched buckets do no I/O at all.
    ``bytes_read`` and ``bytes_written`` count the code arrays' bytes in RAM
    and the packed file bytes on disk.
    """

    def __init__(self, kappa: int, tmp_dir: str | None = None):
        self.kappa = kappa
        self.n = n_buckets(kappa)
        self.sizes = np.zeros(self.n, dtype=np.int64)
        self.merge_counts = np.zeros(self.n, dtype=np.int64)
        self.tmp_dir = tmp_dir
        self._dollars: dict[int, np.ndarray] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        if tmp_dir is None:
            self._content = [np.empty(0, dtype=np.uint8)] * self.n
        else:
            os.makedirs(tmp_dir, exist_ok=True)

    def merge_many(self, batches, want_ranks=True):
        """Merge (ordinal, positions, symbols, base) batches one at a time, in
        order, on the calling thread; ranks in batch order."""
        chunks = [self.merge_insert(*b, want_ranks) for b in batches]
        if not want_ranks:
            return None
        return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)

    def merge_insert(self, ordinal, tree_positions, syms, base, want_ranks=True):
        """Insert ``syms`` at ``tree_positions - base``; with ``want_ranks``,
        return each entry's rank (see :func:`_splice`, whose rank capture
        refuses a terminator). A pure unranked terminator batch goes to the
        side list; it must be the bucket's last merge."""
        local = tree_positions - base
        captured = None
        if not want_ranks and syms.size and (syms == DOLLAR).any():
            if (syms != DOLLAR).any() or ordinal in self._dollars:
                raise ConsistencyError(f"bucket {ordinal}: mixed terminator batch, or a second one")
            _validate_positions(local, int(self.sizes[ordinal]), ordinal)
            self._dollars[ordinal] = local.astype(np.int64)
            self.sizes[ordinal] += len(local)
        elif self.tmp_dir is None:
            old = self._content[ordinal]
            new, captured = _splice(old, local, syms, want_ranks, ordinal)
            self._content[ordinal] = new
            self.bytes_read += len(old)
            self.bytes_written += len(new)
            self.sizes[ordinal] = len(new)
        else:
            path, n_plain = self._path(ordinal), int(self.sizes[ordinal])
            try:
                fd = os.open(path, os.O_RDWR | os.O_CREAT, 0o600)
                try:
                    old = self._pread_codes(fd, ordinal, n_plain)
                    new, captured = _splice(old, local, syms, want_ranks, ordinal)
                    packed = _pack(new)
                    if os.pwrite(fd, packed, 0) != len(packed):
                        raise BucketIOError(f"bucket {ordinal}: short write")
                except BaseException:
                    if not n_plain:  # a file this merge created: close() only knows merged buckets
                        os.unlink(path)
                    raise
                finally:
                    os.close(fd)
            except OSError as exc:
                raise BucketIOError(f"bucket {ordinal}: {exc}") from exc
            self.bytes_written += len(packed)
            self.sizes[ordinal] = len(new)
        self.merge_counts[ordinal] += 1
        return captured

    def read(self, ordinal: int) -> np.ndarray:
        """Bucket ``ordinal``'s symbols, terminators spliced back in."""
        codes = self._content[ordinal] if self.tmp_dir is None else self._read_file(ordinal)
        dollars = self._dollars.get(ordinal)
        if dollars is None:
            return codes.copy()  # never hand out the RAM array itself
        return _splice_numpy(codes, dollars, np.full(len(dollars), DOLLAR, dtype=np.uint8), False)[0]

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
        """Drop the RAM codes, or remove the bucket files and ``tmp_dir``."""
        self._content = []
        if self.tmp_dir is None:
            return
        for o in np.flatnonzero(self.merge_counts):
            try:
                os.unlink(self._path(int(o)))
            except FileNotFoundError:  # a terminator-only bucket has no file
                pass
        try:
            os.rmdir(self.tmp_dir)
        except OSError:
            pass

    def _path(self, ordinal: int) -> str:
        return os.path.join(self.tmp_dir, f"bucket_{ordinal}.bin")

    def _pread_codes(self, fd: int, ordinal: int, n_plain: int) -> np.ndarray:
        want = (n_plain + 3) // 4
        raw = os.pread(fd, want, 0)
        if len(raw) != want:
            raise BucketIOError(f"bucket {ordinal}: read {len(raw)} of {want} bytes")
        self.bytes_read += want
        return _unpack(np.frombuffer(raw, dtype=np.uint8), n_plain)

    def _read_file(self, ordinal: int) -> np.ndarray:
        n_plain = int(self.sizes[ordinal]) - len(self._dollars.get(ordinal, ()))
        if not n_plain:
            return np.empty(0, dtype=np.uint8)
        try:
            fd = os.open(self._path(ordinal), os.O_RDONLY)
            try:
                return self._pread_codes(fd, ordinal, n_plain)
            finally:
                os.close(fd)
        except OSError as exc:
            raise BucketIOError(f"bucket {ordinal}: {exc}") from exc


# one class per backend, each defining only its constructor, so that
# perfbench's tracer wraps each backend's merges once
class MemoryBucketStore(BucketStore):
    def __init__(self, kappa: int):
        super().__init__(kappa)


class ExternalBucketStore(BucketStore):
    def __init__(self, kappa: int, tmp_dir: str):
        super().__init__(kappa, tmp_dir)
