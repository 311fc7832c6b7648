"""Parsing and in-memory representation of DNA string collections.

A collection is an ordered list of words over {A, C, G, T}. Word order is
significant: it fixes the relative order of the per-word terminator symbols
and therefore the transform itself. Words are kept 2-bit packed; the
reversed, right-aligned view used by the construction is computed
arithmetically instead of materialising padded strings.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Union

import numpy as np

# Symbol codes are indices into SYMBOL_BYTES: A, C, G, T are 0..3 and the
# terminator is 4. The terminator sorts below 'A' everywhere a lexicographic
# comparison happens; its code is a storage code, not a sort key.
DOLLAR = 4
SYMBOL_BYTES = b"ACGT$"

# symbols per chunk of WordCollection.context_counts: its temporaries, about
# 17 bytes a symbol, stay below what one window of a dense round's pass
# holds, so that the count does not set a build's peak; see README
_COUNT_CHUNK = 1 << 15

# bytes per read of parse_sequences: the parse's temporaries, about five
# times this, stay far below the input, and the per-chunk calls cost little
# past it; see README
_PARSE_CHUNK = 1 << 18
# vectorised strip passes, one blank byte per line end each, before the
# lines still blank-edged are stripped one by one
_STRIP_PASSES = 4

_AMBIG = 254
_BAD = 255

AMBIGUOUS_POLICIES = ("drop-char", "drop-record", "fail")
FORMATS = ("fasta", "fastq", "raw-lines")


class ParseError(ValueError):
    pass


def _build_lut() -> np.ndarray:
    lut = np.full(256, _BAD, dtype=np.uint8)
    for code, ch in enumerate(b"ACGT"):
        lut[ch] = code
        lut[ch + 32] = code
    # IUPAC ambiguity codes (and U) are valid input but carry no 2-bit code.
    for ch in b"NRYSWKMBDHVU":
        lut[ch] = _AMBIG
        lut[ch + 32] = _AMBIG
    return lut


_LUT = _build_lut()
_TRANSLATE = _LUT.tobytes()  # _LUT as a bytes.translate table
_BLANK = np.zeros(256, dtype=bool)  # what bytes.strip strips
_BLANK[list(b" \t\n\r\x0b\x0c")] = True


@dataclass(frozen=True)
class IngestPolicy:
    """How to parse input: record format and ambiguous-base handling.

    The policy is fixed before parsing starts. ``drop-char`` deletes
    ambiguous bases in place; ``drop-record`` discards the whole record;
    ``fail`` aborts with the offending line number.
    """

    ambiguous_handling: str = "drop-char"
    format: str = "raw-lines"

    def __post_init__(self) -> None:
        if self.ambiguous_handling not in AMBIGUOUS_POLICIES:
            raise ValueError(f"unknown ambiguous_handling {self.ambiguous_handling!r}")
        if self.format not in FORMATS:
            raise ValueError(f"unknown format {self.format!r}")


# a little-endian uint32 of four codes times _SPREAD holds them packed, high
# bits first, in its top byte; a uint32 of one packed byte times _SPREAD,
# shifted right 6, holds them in its four bytes' low bits
_SPREAD = np.uint32(2**30 + 2**20 + 2**10 + 1)
_QUAD = np.dtype("<u4")
# quads per step of _pack: its one temporary stays at 32 KB
_PACK_PIECE = 1 << 13


def _pack(codes: np.ndarray) -> np.ndarray:
    """Four codes a byte, high bits first, one multiply per quad of codes;
    the partial tail quad is packed on its own, so nothing is copied for it."""
    codes = np.ascontiguousarray(codes)
    full = len(codes) // 4
    packed = np.empty((len(codes) + 3) // 4, dtype=np.uint8)
    quads = codes[: 4 * full].view(_QUAD)
    piece = np.empty(min(full, _PACK_PIECE), dtype=np.uint32)
    for a in range(0, full, _PACK_PIECE):
        part = quads[a : a + _PACK_PIECE]
        q = piece[: len(part)]
        np.multiply(part, _SPREAD, out=q)
        np.right_shift(q, 24, out=q)
        packed[a : a + len(q)] = q
    if full < len(packed):
        packed[full] = sum(c << (6 - 2 * i) for i, c in enumerate(codes[4 * full :].tolist()))
    return packed


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    """The first ``n`` codes of ``packed``, in place in one uint32 copy."""
    quads = packed.astype(_QUAD)
    quads *= _SPREAD
    quads >>= 6
    quads &= 0x03030303
    return quads.view(np.uint8)[:n]


class WordCollection:
    """Immutable ordered collection of words over {A, C, G, T}.

    Exposes the reversed, right-aligned indexing used by the iterative
    construction: at iteration ``t`` word ``j`` contributes the symbol
    ``S_j[max_length - 1 - t]``, and the terminator at ``t == max_length``.
    """

    __slots__ = ("_bytes", "_packed", "_offsets", "m", "max_length", "total_length")

    def __init__(self, codes: np.ndarray, offsets: np.ndarray):
        """``codes``: the words' uint8 codes (0-3, A to T), one after another;
        word j is ``codes[offsets[j] : offsets[j + 1]]``, and the offsets
        run from 0 to ``len(codes)``."""
        if len(offsets) < 2:
            raise ParseError("collection is empty")
        if offsets[0] != 0 or offsets[-1] != len(codes):
            raise ParseError(f"offsets must run from 0 to the {len(codes)} codes, "
                             f"got {offsets[0]} to {offsets[-1]}")
        lengths = np.diff(offsets)
        if np.any(lengths < 1):
            raise ParseError("collection contains an empty word")
        if codes.dtype != np.uint8:
            raise ParseError(f"codes must be uint8, got {codes.dtype}")
        top = int(codes.argmax())
        if codes[top] > 3:
            raise ParseError(f"code {codes[top]} at index {top} is not a base code (0-3)")
        self._set(_pack(codes).tobytes(), offsets.astype(np.int64))

    @classmethod
    def _from_packed(cls, packed: bytearray, offsets: np.ndarray) -> "WordCollection":
        """A collection over ``packed``, 2-bit codes four a byte as
        :func:`_pack` writes them, taken without a copy; ``offsets`` are
        int64 and every word is non-empty, as :func:`parse_sequences` makes
        them."""
        self = cls.__new__(cls)
        self._set(packed, offsets)
        return self

    def _set(self, packed: Union[bytes, bytearray], offsets: np.ndarray) -> None:
        # the packed words, which fetch_code reads as Python ints, and a
        # read-only numpy view of them
        self._bytes = packed
        self._packed = np.frombuffer(packed, dtype=np.uint8)
        self._packed.flags.writeable = False
        self._offsets = offsets
        self.m = len(offsets) - 1
        self.max_length = int(np.diff(offsets).max())
        self.total_length = int(offsets[-1]) + self.m

    @classmethod
    def from_words(cls, words: Iterable[Union[str, bytes]]) -> "WordCollection":
        chunks = []
        lengths = [0]
        for w in words:
            if isinstance(w, str):
                w = w.encode()
            codes = _LUT[np.frombuffer(w, dtype=np.uint8)]
            if codes.size == 0:
                raise ParseError("collection contains an empty word")
            if np.any(codes > 3):
                raise ParseError(f"word {w!r} contains non-ACGT characters")
            chunks.append(codes)
            lengths.append(len(codes))
        if not chunks:
            raise ParseError("collection is empty")
        return cls(np.concatenate(chunks), np.cumsum(lengths))

    # -- per-word accessors -------------------------------------------------

    def length(self, j: int) -> int:
        self._check_word(j)
        return int(self._offsets[j + 1] - self._offsets[j])

    @property
    def lengths(self) -> np.ndarray:
        return np.diff(self._offsets)

    def word_codes(self, j: int) -> np.ndarray:
        self._check_word(j)
        idx = np.arange(self._offsets[j], self._offsets[j + 1])
        return (self._packed[idx >> 2] >> (2 * (3 - (idx & 3)))) & 3

    def word(self, j: int) -> bytes:
        return np.frombuffer(SYMBOL_BYTES, dtype=np.uint8)[self.word_codes(j)].tobytes()

    def words(self) -> list[bytes]:
        return [self.word(j) for j in range(self.m)]

    # -- right-aligned view ---------------------------------------------------

    def fetch_codes(self, j_arr: np.ndarray, t: int) -> np.ndarray:
        """Vectorised symbol fetch for active words; callers guarantee activity."""
        idx = self._offsets[j_arr] + (self.max_length - 1 - t)
        return (self._packed[idx >> 2] >> (2 * (3 - (idx & 3)))).astype(np.uint8) & 3

    def fetch_code(self, j: int, t: int) -> int:
        """Scalar :meth:`fetch_codes` for one active word."""
        idx = self._offsets.item(j) + (self.max_length - 1 - t)
        return self._bytes[idx >> 2] >> (6 - 2 * (idx & 3)) & 3

    def context_counts(self, n_sym: int, drop: int) -> np.ndarray:
        """Per ordinal, the number of suffixes, empty ones too, whose first
        ``n_sym`` symbols (A past a word's end) in base 4 ``>> drop`` equal it."""
        n, starts, ends = int(self._offsets[-1]), self._offsets[:-1], self._offsets[1:]
        counts = np.zeros(1 << (2 * n_sym - drop), dtype=np.int64)
        counts[0] = self.m  # the empty suffixes
        for a in range(0, n, _COUNT_CHUNK):
            b, hi = min(a + _COUNT_CHUNK, n), min(a + _COUNT_CHUNK + n_sym - 1, n)
            window = np.zeros(b - a + n_sym - 1, dtype=np.uint8)
            window[: hi - a] = _unpack(self._packed[a // 4 : (hi + 3) // 4], hi - a)
            ctx = np.zeros(b - a, dtype=np.int32)
            for k in range(n_sym):  # read across word ends, then cut back
                ctx = ctx << 2 | window[k : k + b - a]
            # the last n_sym - 1 suffixes of the words ending near the chunk
            near = slice(*np.searchsorted(ends, [a, b + n_sym - 2], side="right"))
            for d in range(1, n_sym):
                p = ends[near] - d
                p = p[(p >= np.maximum(starts[near], a)) & (p < b)] - a
                ctx[p] = ctx[p] >> 2 * (n_sym - d) << 2 * (n_sym - d)
            counts += np.bincount(ctx >> drop, minlength=len(counts))
        return counts

    def _check_word(self, j: int) -> None:
        if not 0 <= j < self.m:
            raise IndexError(f"word index {j} out of range (m={self.m})")

    def __len__(self) -> int:
        return self.m

    def __repr__(self) -> str:
        return (
            f"WordCollection(m={self.m}, max_length={self.max_length},"
            f" total_length={self.total_length})"
        )


def detect_format(data: Union[bytes, BinaryIO]) -> str:
    """Guess the input format from the first non-blank byte. A stream is
    read a chunk at a time up to that byte, then rewound to where it was."""
    stream = io.BytesIO(data) if isinstance(data, bytes) else data
    at, first = stream.tell(), b""
    while not first and (chunk := stream.read(_PARSE_CHUNK)):
        first = chunk.lstrip()[:1]  # blank as for bytes.strip
    stream.seek(at)
    return {b">": "fasta", b"@": "fastq"}.get(first, "raw-lines")


def _chunks(stream: Union[bytes, BinaryIO]) -> Iterator[bytes]:
    """The input in pieces of about ``_PARSE_CHUNK`` bytes, each cut after
    its last newline; a line longer than that is one piece, and a last
    line with no newline gets one."""
    read = (io.BytesIO(stream) if isinstance(stream, bytes) else stream).read
    held: list[bytes] = []  # the start of a line no chunk has ended yet
    while chunk := read(_PARSE_CHUNK):
        cut = chunk.rfind(b"\n") + 1
        if not cut:
            held.append(chunk)
            continue
        lines = b"".join([*held, memoryview(chunk)[:cut]]) if any(held) else chunk[:cut]
        held = [chunk[cut:]]
        del chunk  # the lines are its copy
        yield lines
    if any(held):
        yield b"".join([*held, b"\n"])


def _strip(buf: bytes, a: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> None:
    """Narrow each line ``a[lo:hi]`` in place as ``bytes.strip`` would: a
    few vectorised passes over the lines with a blank first or last byte,
    then ``bytes`` calls for any still blank-edged after them."""
    for front in (True, False):
        sel = np.flatnonzero(lo < hi)
        for _ in range(_STRIP_PASSES):
            sel = sel[_BLANK[a[lo[sel] if front else hi[sel] - 1]]]
            if front:
                lo[sel] += 1
            else:
                hi[sel] -= 1
            sel = sel[lo[sel] < hi[sel]]
            if not sel.size:
                break
        else:
            for i in sel.tolist():
                line = buf[lo[i] : hi[i]]
                left = line.lstrip()
                lo[i] += len(line) - len(left)
                hi[i] = lo[i] + len(left.rstrip())


class _Parse:
    """What :func:`parse_sequences` carries from one chunk to the next: the
    line count, the open record, the FASTQ phase, the first error of each
    rank, and the packed output with its carry of up to three codes."""

    def __init__(self, policy: IngestPolicy):
        self.fmt, self.ambiguous = policy.format, policy.ambiguous_handling
        self.lines = 0  # lines read
        # lines worked: through the last non-blank one read, so that blank
        # lines count in FASTQ only if a non-blank one follows
        self.done = 0
        self.prev = np.zeros(2, dtype=np.int64)  # sizes of lines done-2, done-1
        # the open record: its header line (-1 before the first), sequence
        # bytes so far, codes kept so far, whether it holds an ambiguous
        # base, and its first code's index in the output
        self.head, self.raw, self.kept, self.amb, self.start = -1, 0, 0, False, 0
        # rank -> message of its first error; the lowest rank is raised
        # once the input has been read, as a whole-input parse ranks them
        self.errors: dict[int, str] = {}
        self.out, self.carry = bytearray(), np.zeros(0, dtype=np.uint8)
        # the offsets as int64 bytes, 0 and each closed record's end, and
        # the codes kept in closed records
        self.ends, self.closed = bytearray(8), 0

    def _fail(self, rank: int, message: str) -> None:
        self.errors.setdefault(rank, message)

    def _emit(self, codes: np.ndarray) -> None:
        if self.carry.size:  # fill the carry's quad, then pack from the next one
            head = np.concatenate((self.carry, codes[: 4 - len(self.carry)]))
            if len(head) < 4:
                self.carry = head
                return
            self.out += _pack(head).data
            codes = codes[4 - len(self.carry) :]
        full = len(codes) & ~3
        self.out += _pack(codes[:full]).data
        self.carry = codes[full:].copy()

    def _retract(self, to: int) -> None:
        """Drop every code from index ``to`` of the output on."""
        k, r = divmod(to, 4)
        if k < len(self.out):
            last = self.out[k]
            del self.out[k:]
            self.carry = np.array([last >> 6 - 2 * i & 3 for i in range(r)], dtype=np.uint8)
        else:
            self.carry = self.carry[: to - 4 * k]

    def feed(self, buf: bytes) -> None:
        """Work one chunk of whole lines."""
        a = np.frombuffer(buf, dtype=np.uint8)
        hi = np.flatnonzero(a == 10)
        lo = np.empty_like(hi)
        lo[0], lo[1:] = 0, hi[:-1] + 1
        _strip(buf, a, lo, hi)
        nonblank = np.flatnonzero(hi > lo)
        read, self.lines = self.lines, self.lines + len(hi)
        if not nonblank.size:
            return
        last = int(nonblank[-1]) + 1
        lo, hi = lo[:last], hi[:last]
        base, pending, self.done = self.done, read - self.done, read + last
        if 0 in self.errors:  # only the FASTQ line count can still outrank it
            return
        if self.fmt == "fastq":
            # blank lines before a non-blank one are lines of its records;
            # four of them hold a header or separator line, which fails, so
            # no more are needed
            virtual = min(pending, 4)
            lo, hi = (np.concatenate((np.zeros(virtual, dtype=np.int64), x)) for x in (lo, hi))
        else:
            base = read  # blank lines are no part of a FASTA or raw-lines record
        size = hi - lo
        first = a[lo]
        first[size == 0] = 0
        if self.fmt == "fasta":
            is_head = first == ord(">")
            heads = np.flatnonzero(is_head)
            seq = np.flatnonzero((size > 0) & ~is_head)
            if self.head < 0 and seq.size and (not heads.size or seq[0] < heads[0]):
                self._fail(0, f"line {base + seq[0] + 1}: sequence data before first '>' header")
                return
        elif self.fmt == "fastq":
            # four lines a record: a line's role is its index mod 4
            role = (base + np.arange(len(size))) % 4
            ext = np.concatenate((self.prev, size))
            self.prev = ext[-2:]
            bad = ((role == 0) & (first != ord("@"))) | ((role == 2) & (first != ord("+")))
            bad |= (role == 3) & (size != ext[: len(size)])
            if bad.any():
                i = int(bad.argmax())
                self._fail(0, f"line {base + i + 1}: " + {
                    0: "expected '@' FASTQ header", 2: "expected '+' separator",
                    3: "quality length differs from sequence"}[int(role[i])])
                return
            heads, seq = np.flatnonzero(role == 0), np.flatnonzero(role == 1)
        else:
            heads = seq = nonblank
        self._records(buf, base, lo, hi, heads, seq)

    def _records(self, buf: bytes, base: int, lo: np.ndarray, hi: np.ndarray,
                 heads: np.ndarray, seq: np.ndarray) -> None:
        """Codes and record lengths of one chunk: lines ``heads`` open
        records, lines ``seq`` hold their sequence. Slot 0 is the record open
        before the chunk, slot k the one opened at ``heads[k - 1]``; every
        slot but the last closes in the chunk."""
        n = len(heads)
        seq = seq[hi[seq] > lo[seq]]
        size = hi[seq] - lo[seq]
        raw = np.bincount(np.searchsorted(heads, seq, side="right"), weights=size,
                          minlength=n + 1).astype(np.int64)  # sequence bytes per slot
        kept, keep = raw.copy(), None
        flag = np.zeros(n + 1, dtype=bool)  # slots holding an ambiguous base
        codes = np.zeros(0, dtype=np.uint8)
        if seq.size:
            # the sequence bytes by one repeat over runs of other bytes and
            # of sequence bytes, a pair per line
            runs = np.empty(2 * len(seq), dtype=np.int64)
            runs[0::2] = lo[seq]
            runs[2::2] -= hi[seq[:-1]]
            runs[1::2] = size
            picked = np.repeat(np.tile([False, True], len(seq)), runs)
            codes = np.frombuffer(buf.translate(_TRANSLATE), dtype=np.uint8)[: len(picked)][picked]
            del picked
            if codes.max() >= _AMBIG:
                line_ends = np.cumsum(size)

                def line_of(at: int) -> int:
                    return base + int(seq[np.searchsorted(line_ends, at, side="right")]) + 1

                bad = np.flatnonzero(codes == _BAD)
                if bad.size:
                    self._fail(3, f"line {line_of(bad[0])}: invalid sequence character")
                amb = np.flatnonzero(codes == _AMBIG)
                if amb.size:
                    if self.ambiguous == "fail":
                        self._fail(4, f"line {line_of(amb[0])}: ambiguous base with policy 'fail'")
                    # drop-char drops the bases, then the records they
                    # emptied; drop-record drops a record with any of them
                    dropped = np.bincount(np.searchsorted(np.cumsum(raw), amb, side="right"),
                                          minlength=n + 1)
                    if self.ambiguous == "drop-record":
                        flag = dropped > 0
                    else:
                        keep, kept = codes != _AMBIG, raw - dropped
        if self.ambiguous == "drop-record" and self.head >= 0:
            if flag[0] and not self.amb and not self.errors:
                self._retract(self.start)  # the open record's codes from earlier chunks
                self.kept = 0
            flag[0] |= self.amb
        if flag.any():
            keep, kept = np.repeat(~flag, raw), np.where(flag, 0, raw)
        if not self.errors:
            self._emit(codes if keep is None else codes[keep])
        raw[0] += self.raw
        kept[0] += self.kept
        if n:
            closed = slice(0 if self.head >= 0 else 1, n)
            empty = np.flatnonzero(raw[closed] == 0)
            if empty.size:
                head = ([self.head] + (base + heads).tolist())[closed.start + int(empty[0])]
                self._fail(2, f"line {head + 1}: record has an empty sequence")
            lengths = kept[closed]
            ends = np.cumsum(lengths[lengths > 0]) + self.closed
            if ends.size:
                self.ends += ends.data
                self.closed = int(ends[-1])
            self.head, self.amb = base + int(heads[-1]), bool(flag[n])
            self.start = 4 * len(self.out) + len(self.carry) - int(kept[n])
        else:
            self.amb = bool(flag[0])
        self.raw, self.kept = int(raw[n]), int(kept[n])

    def close(self) -> WordCollection:
        """The collection, or the first error of the lowest rank."""
        if self.fmt == "fastq" and self.done % 4:
            raise ParseError(f"line {self.done}: truncated FASTQ record")
        if 0 in self.errors:
            raise ParseError(self.errors[0])
        if self.head < 0:
            raise ParseError("input contains no sequence records")
        if not self.raw:
            self._fail(2, f"line {self.head + 1}: record has an empty sequence")
        if self.errors:
            raise ParseError(self.errors[min(self.errors)])
        if self.kept:
            self.ends += np.int64(self.closed + self.kept).tobytes()
        if len(self.ends) == 8:
            raise ParseError("no sequence records survived the ambiguity policy")
        if self.carry.size:
            self.out += _pack(self.carry).data
        return WordCollection._from_packed(self.out, np.frombuffer(self.ends, dtype=np.int64))


def parse_sequences(
    stream: Union[bytes, BinaryIO], policy: IngestPolicy | None = None
) -> WordCollection:
    """Parse a byte stream into a :class:`WordCollection` under ``policy``,
    a chunk of ``_PARSE_CHUNK`` bytes at a time, packing as it goes: no
    more than a chunk of the input, its lines or its codes is held at once."""
    parse = _Parse(policy or IngestPolicy())
    for buf in _chunks(stream):
        parse.feed(buf)
    return parse.close()
