"""Parsing and in-memory representation of DNA string collections.

A collection is an ordered list of words over {A, C, G, T}. Word order is
significant: it fixes the relative order of the per-word terminator symbols
and therefore the transform itself. Words are kept 2-bit packed; the
reversed, right-aligned view used by the construction is computed
arithmetically instead of materialising padded strings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import BinaryIO, Iterable, Union

import numpy as np

# Symbol codes are indices into SYMBOL_BYTES: A, C, G, T are 0..3 and the
# terminator is 4. The terminator sorts below 'A' everywhere a lexicographic
# comparison happens; its code is a storage code, not a sort key.
DOLLAR = 4
SYMBOL_BYTES = b"ACGT$"

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


def _pack(codes: np.ndarray) -> np.ndarray:
    pad = (-len(codes)) % 4
    if pad:
        codes = np.concatenate([codes, np.zeros(pad, dtype=np.uint8)])
    c = codes.reshape(-1, 4)
    return (c[:, 0] << 6) | (c[:, 1] << 4) | (c[:, 2] << 2) | c[:, 3]


def _unpack(packed: np.ndarray, n: int) -> np.ndarray:
    out = np.empty(4 * len(packed), dtype=np.uint8)
    out[0::4] = packed >> 6
    out[1::4] = (packed >> 4) & 3
    out[2::4] = (packed >> 2) & 3
    out[3::4] = packed & 3
    return out[:n]


class WordCollection:
    """Immutable ordered collection of words over {A, C, G, T}.

    Exposes the reversed, right-aligned indexing used by the iterative
    construction: at iteration ``t`` word ``j`` contributes the symbol
    ``S_j[max_length - 1 - t]``, and the terminator at ``t == max_length``.
    """

    __slots__ = ("_packed", "_offsets", "m", "max_length", "total_length")

    def __init__(self, codes: np.ndarray, offsets: np.ndarray):
        if len(offsets) < 2:
            raise ParseError("collection is empty")
        lengths = np.diff(offsets)
        if np.any(lengths < 1):
            raise ParseError("collection contains an empty word")
        self._packed = _pack(codes)
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
        idx = int(self._offsets[j]) + (self.max_length - 1 - t)
        return (int(self._packed[idx >> 2]) >> (2 * (3 - (idx & 3)))) & 3

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
    for ch in data[:4096]:
        if ch in b" \t\r\n":
            continue
        if ch == ord(">"):
            return "fasta"
        if ch == ord("@"):
            return "fastq"
        return "raw-lines"
    return "raw-lines"


def _extract_records(data: bytes, fmt: str) -> list[tuple[int, list[tuple[int, bytes]]]]:
    """Split input into records of (record_line_no, [(line_no, payload), ...])."""
    lines = data.split(b"\n")
    records: list[tuple[int, list[tuple[int, bytes]]]] = []
    if fmt == "fasta":
        current: list[tuple[int, bytes]] | None = None
        for ln, raw in enumerate(lines, 1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(b">"):
                current = []
                records.append((ln, current))
            elif current is None:
                raise ParseError(f"line {ln}: sequence data before first '>' header")
            else:
                current.append((ln, line))
    elif fmt == "fastq":
        stripped = [(ln, raw.strip()) for ln, raw in enumerate(lines, 1)]
        while stripped and not stripped[-1][1]:
            stripped.pop()
        if len(stripped) % 4 != 0:
            raise ParseError(
                f"line {stripped[-1][0] if stripped else 1}: truncated FASTQ record"
            )
        for i in range(0, len(stripped), 4):
            (ln_h, header), (ln_s, seq), (ln_p, plus), (ln_q, qual) = stripped[i : i + 4]
            if not header.startswith(b"@"):
                raise ParseError(f"line {ln_h}: expected '@' FASTQ header")
            if not plus.startswith(b"+"):
                raise ParseError(f"line {ln_p}: expected '+' separator")
            if len(qual) != len(seq):
                raise ParseError(f"line {ln_q}: quality length differs from sequence")
            records.append((ln_h, [(ln_s, seq)]))
    else:  # raw-lines
        for ln, raw in enumerate(lines, 1):
            line = raw.strip()
            if line:
                records.append((ln, [(ln, line)]))
    return records


def parse_sequences(
    stream: Union[bytes, BinaryIO], policy: IngestPolicy | None = None
) -> WordCollection:
    """Parse a byte stream into a :class:`WordCollection` under ``policy``."""
    policy = policy or IngestPolicy()
    data = stream if isinstance(stream, bytes) else stream.read()
    records = _extract_records(data, policy.format)
    if not records:
        raise ParseError("input contains no sequence records")

    chunk_lines: list[int] = []
    chunk_offsets = [0]
    payloads = []
    record_lengths = []
    for header_ln, chunks in records:
        total = 0
        for ln, payload in chunks:
            payloads.append(payload)
            chunk_lines.append(ln)
            chunk_offsets.append(chunk_offsets[-1] + len(payload))
            total += len(payload)
        if total == 0:
            raise ParseError(f"line {header_ln}: record has an empty sequence")
        record_lengths.append(total)

    codes = _LUT[np.frombuffer(b"".join(payloads), dtype=np.uint8)]
    offsets_by_chunk = np.asarray(chunk_offsets)

    def _line_of(global_offset: int) -> int:
        chunk = int(np.searchsorted(offsets_by_chunk, global_offset, side="right")) - 1
        return chunk_lines[chunk]

    bad = np.flatnonzero(codes == _BAD)
    if bad.size:
        raise ParseError(f"line {_line_of(int(bad[0]))}: invalid sequence character")

    amb = codes == _AMBIG
    record_starts = np.cumsum([0] + record_lengths[:-1])
    if amb.any():
        if policy.ambiguous_handling == "fail":
            first = int(np.flatnonzero(amb)[0])
            raise ParseError(f"line {_line_of(first)}: ambiguous base with policy 'fail'")
        if policy.ambiguous_handling == "drop-record":
            dirty = np.maximum.reduceat(amb, record_starts)
            keep_codes = np.repeat(~dirty, record_lengths)
            codes = codes[keep_codes]
            record_lengths = list(np.asarray(record_lengths)[~dirty])
            record_starts = np.cumsum([0] + record_lengths[:-1])
        else:  # drop-char; records emptied by the drop are discarded
            keep = ~amb
            new_lengths = np.add.reduceat(keep, record_starts)
            codes = codes[keep]
            record_lengths = list(new_lengths[new_lengths > 0])
            record_starts = np.cumsum([0] + record_lengths[:-1])

    if not record_lengths:
        raise ParseError("no sequence records survived the ambiguity policy")
    offsets = np.concatenate([[0], np.cumsum(record_lengths)])
    return WordCollection(codes.astype(np.uint8), offsets)
