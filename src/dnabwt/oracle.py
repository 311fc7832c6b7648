"""Brute-force reference implementations of the transform's definitions.

Everything here favours being obviously correct over being fast: rotation
sorting via explicit keys, literal rank/count scans, step-by-step
inversion. These functions are the ground truth the construction engine is
checked against, so they never share code with it.

Flat-terminator convention: the engine and :func:`naive_bwt` emit every
per-word terminator as the single byte ``'$'``. For :func:`lf` the j-th
``'$'`` byte in transform order is treated as the j-th ranked terminator.
Inversion never takes an LF step *from* a ``'$'`` byte (it stops there), so
round trips are exact under this convention.
"""
from __future__ import annotations

import numpy as np

from .collection import WordCollection

_ORDER = {ord("$"): 0, ord("A"): 1, ord("C"): 2, ord("G"): 3, ord("T"): 4}


class InvalidBwtError(ValueError):
    pass


class SentinelString:
    """The concatenation of all words, each followed by a distinct terminator.

    Terminators compare by word index and sort below every base. Internally
    word j's terminator is the integer j and base X is ``m + code(X)``, so
    plain integer comparison realises the full order.
    """

    def __init__(self, collection: WordCollection):
        self.m = collection.m
        parts = []
        for j in range(self.m):
            parts.append(collection.word_codes(j).astype(np.int64) + self.m)
            parts.append(np.asarray([j], dtype=np.int64))
        self.codes = np.concatenate(parts)
        self.n = len(self.codes)

    def char_byte(self, i: int) -> int:
        c = int(self.codes[i])
        return ord("$") if c < self.m else b"ACGT"[c - self.m]

    def rotation_keys(self) -> list:
        """Total-order keys for all rotations.

        Each rotation is keyed by its prefix up to and including the first
        terminator. Terminators are pairwise distinct and each occurs once,
        so two distinct rotations always differ within these prefixes.
        """
        doubled = np.concatenate([self.codes, self.codes])
        dist = np.empty(self.n, dtype=np.int64)
        last = -1
        for i in range(2 * self.n - 1, -1, -1):
            if int(doubled[i]) < self.m:
                last = i
            if i < self.n:
                dist[i] = last - i
        if self.m + 4 <= 256:
            raw = doubled.astype(np.uint8).tobytes()
            return [raw[i : i + int(dist[i]) + 1] for i in range(self.n)]
        lst = doubled.tolist()
        return [tuple(lst[i : i + int(dist[i]) + 1]) for i in range(self.n)]


def naive_bwt(collection: WordCollection) -> bytes:
    """Transform by sorting all rotations and reading the last column."""
    s = SentinelString(collection)
    order = sorted(range(s.n), key=s.rotation_keys().__getitem__)
    return bytes(s.char_byte((i - 1) % s.n) for i in order)


def rank(s: bytes, x: int, c: str | int) -> int:
    """Occurrences of ``c`` in ``s[0:x]``."""
    if not 0 <= x <= len(s):
        raise IndexError(f"rank position {x} out of range")
    c = ord(c) if isinstance(c, str) else c
    return s[:x].count(c)


def count_smaller(s: bytes, c: str | int) -> int:
    """Characters of ``s`` strictly smaller than ``c`` under $ < A < C < G < T."""
    c = ord(c) if isinstance(c, str) else c
    lim = _ORDER[c]
    return sum(s.count(d) for d, o in _ORDER.items() if o < lim)


def lf(bwt: bytes, i: int) -> int:
    """Map a transform position to the position of its preceding character."""
    if not 0 <= i < len(bwt):
        raise IndexError(f"position {i} out of range")
    c = bwt[i]
    return rank(bwt, i, c) + count_smaller(bwt, c)


def invert(bwt: bytes, m: int) -> list[bytes]:
    """Recover the m words from a flat multi-word transform.

    Walks LF steps right-to-left from row j for each word, stopping at the
    first terminator byte. Uses precomputed occurrence tables; the steps
    taken are identical to iterating :func:`lf`.
    """
    n = len(bwt)
    if m < 1:
        raise InvalidBwtError("the input holds no terminator byte '$', so it is not a transform"
                              if b"$" not in bwt else f"expected at least one word, got m={m}")
    if bwt.count(b"$") != m or n < 2 * m:
        raise InvalidBwtError(f"expected {m} terminator bytes in a transform of length {n}")
    arr = np.frombuffer(bwt, dtype=np.uint8)
    if bad := set(bwt) - set(b"$ACGT"):
        raise InvalidBwtError(f"transform contains bytes outside the alphabet: {sorted(bad)}")
    smaller = {c: count_smaller(bwt, c) for c in _ORDER}
    occ = {c: np.concatenate([[0], np.cumsum(arr == c)]) for c in _ORDER}

    words = []
    for j in range(m):
        out = bytearray()
        i = j
        for _ in range(n + 1):
            c = bwt[i]
            if c == ord("$"):
                break
            out.append(c)
            i = int(occ[c][i]) + smaller[c]
        else:
            raise InvalidBwtError("inversion did not terminate; transform is inconsistent")
        if not out:
            raise InvalidBwtError(f"word {j} decoded as empty")
        words.append(bytes(reversed(out)))
    return words
