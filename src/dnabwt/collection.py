"""Parsing and in-memory representation of DNA string collections.

A collection is an ordered list of words over {A, C, G, T}. Word order is
significant: it fixes the relative order of the per-word terminator symbols
and therefore the transform itself. Words are kept 2-bit packed; the
reversed, right-aligned view used by the construction is computed
arithmetically instead of materialising padded strings.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Union

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
        # the packed words as bytes, which fetch_code reads as Python ints,
        # and a numpy view of them
        self._bytes = _pack(codes).tobytes()
        self._packed = np.frombuffer(self._bytes, dtype=np.uint8)
        self._offsets = offsets.astype(np.int64)
        self.m = len(offsets) - 1
        self.max_length = int(lengths.max())
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


def detect_format(data: bytes) -> str:
    """Guess the input format from the first non-blank byte."""
    first = re.search(rb"\S", data)  # blank as for bytes.strip
    return {b">": "fasta", b"@": "fastq"}.get(first and first.group(), "raw-lines")


def _record_layout(lines: list[bytes], sizes: np.ndarray,
                   fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each record's first-line index, the sequence lines' indices and each
    sequence line's record, over stripped ``lines`` of byte lengths
    ``sizes``; raises the first structural error."""
    if fmt == "fasta":
        is_header = np.array([ln[:1] == b">" for ln in lines], dtype=bool)
        heads = np.flatnonzero(is_header)
        seq = np.flatnonzero((sizes > 0) & ~is_header)
        if seq.size and (not heads.size or seq[0] < heads[0]):
            raise ParseError(f"line {seq[0] + 1}: sequence data before first '>' header")
        return heads, seq, np.searchsorted(heads, seq) - 1
    if fmt == "fastq":
        # four lines a record, blank ones included; trailing blank lines end the input
        nonblank = np.flatnonzero(sizes)
        n = int(nonblank[-1]) + 1 if nonblank.size else 0
        if n % 4:
            raise ParseError(f"line {n}: truncated FASTQ record")
        for h in range(0, n, 4):
            if not lines[h].startswith(b"@"):
                raise ParseError(f"line {h + 1}: expected '@' FASTQ header")
            if not lines[h + 2].startswith(b"+"):
                raise ParseError(f"line {h + 3}: expected '+' separator")
            if len(lines[h + 3]) != len(lines[h + 1]):
                raise ParseError(f"line {h + 4}: quality length differs from sequence")
        heads = np.arange(0, n, 4)
        return heads, heads + 1, np.arange(len(heads))
    seq = np.flatnonzero(sizes)
    return seq, seq, np.arange(len(seq))


def parse_sequences(
    stream: Union[bytes, BinaryIO], policy: IngestPolicy | None = None
) -> WordCollection:
    """Parse a byte stream into a :class:`WordCollection` under ``policy``."""
    policy = policy or IngestPolicy()
    data = stream if isinstance(stream, bytes) else stream.read()
    lines = [ln.strip() for ln in data.split(b"\n")]  # line number = index + 1
    sizes = np.fromiter(map(len, lines), dtype=np.int64, count=len(lines))
    heads, seq, record_of = _record_layout(lines, sizes, policy.format)
    if not heads.size:
        raise ParseError("input contains no sequence records")
    seq_sizes = sizes[seq]
    lengths = np.bincount(record_of, weights=seq_sizes, minlength=len(heads)).astype(np.int64)
    if not lengths.all():
        raise ParseError(f"line {heads[lengths.argmin()] + 1}: record has an empty sequence")

    codes = _LUT[np.frombuffer(b"".join([lines[i] for i in seq.tolist()]), dtype=np.uint8)]
    del lines  # the largest object left: free it before the mask arrays
    seq_ends = np.cumsum(seq_sizes)

    def _line_of(offset: int) -> int:
        return int(seq[np.searchsorted(seq_ends, offset, side="right")]) + 1

    bad = np.flatnonzero(codes == _BAD)
    if bad.size:
        raise ParseError(f"line {_line_of(bad[0])}: invalid sequence character")
    amb = codes == _AMBIG
    if amb.any():
        if policy.ambiguous_handling == "fail":
            raise ParseError(f"line {_line_of(amb.argmax())}: ambiguous base with policy 'fail'")
        # drop-record drops a record with any ambiguous base; drop-char drops
        # the bases, then the records they emptied
        keep = ~amb
        starts = np.cumsum(lengths) - lengths
        if policy.ambiguous_handling == "drop-record":
            keep = np.repeat(np.logical_and.reduceat(keep, starts), lengths)
        codes = codes[keep]
        lengths = np.add.reduceat(keep, starts)
        lengths = lengths[lengths > 0]
        if not lengths.size:
            raise ParseError("no sequence records survived the ambiguity policy")
    return WordCollection(codes, np.concatenate([[0], np.cumsum(lengths)]))
