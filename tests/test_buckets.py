import errno
import itertools
import os
import random
import re
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnabwt.buckets as buckets
from dnabwt.buckets import BucketIOError, ConsistencyError
from dnabwt.collection import DOLLAR, _pack
from reference import (SLOT, ExternalBucketStore, MemoryBucketStore, bucket_id, leaf_ordinal,
                       n_buckets, naive_splice, ordinal_context)


def _stores(tmp_path, kappa):
    yield MemoryBucketStore(kappa)
    yield ExternalBucketStore(kappa, str(tmp_path / "packed"))


def _merge(store, ordinal, positions, syms, base=0):
    """``merge_insert`` as a sparse round makes it: one bucket, ranked,
    Python int lists."""
    return store.merge_insert(ordinal, [int(p) for p in positions], [int(c) for c in syms], base)


def _round_arrays(batches):
    """``merge_many``'s arrays for (ordinal, positions, symbols, base) batches."""
    return (np.array([b[0] for b in batches], dtype=np.int64),
            np.cumsum([0] + [len(b[2]) for b in batches]),
            np.concatenate([np.asarray(b[1], dtype=np.int64) for b in batches]),
            np.concatenate([np.asarray(b[2], dtype=np.uint8) for b in batches]),
            np.array([b[3] for b in batches], dtype=np.int64))


def _terminator_round(store, batches):
    """The terminator round: (ordinal, positions) batches of terminators in
    one unranked ``merge_many`` call."""
    return store.merge_many(*_round_arrays([(o, p, [DOLLAR] * len(p), 0) for o, p in batches]), False)


def test_bucket_id_worked_examples():
    assert bucket_id("CG", 4) == 22
    assert bucket_id("AA", 4) == 16
    assert leaf_ordinal("AA", 4) == 0


def test_bucket_id_bijection():
    for kappa in (3, 4, 5, 6):
        n_sym = (kappa + 1) // 2
        contexts = [""]
        for _ in range(n_sym):
            contexts = [c + s for c in contexts for s in "ACGT"]
        ids = sorted({bucket_id(c, kappa) for c in contexts})
        assert ids == list(range(1 << kappa, 1 << (kappa + 1)))


def test_merge_insert_worked_example(tmp_path):
    # bucket CG receives two C entries at tree positions 1 and 2 with a
    # bucket base of 1: ranks captured before each write are 0 then 1
    for store in _stores(tmp_path, 4):
        ordinal = leaf_ordinal("CG", 4)
        captured = store.merge_insert(ordinal, [1, 2], [1, 1], base=1)
        assert captured == [0, 1]
        assert store.read(ordinal).tolist() == [1, 1]
        store.close()


def test_merge_insert_empty_bucket_single_entry(tmp_path):
    for store in _stores(tmp_path, 4):
        captured = store.merge_insert(0, [0], [0], base=0)
        assert captured == [0]
        assert store.read(0).tolist() == [0]
        store.close()


def test_captured_ranks_monotone_per_symbol():
    rng = random.Random(34)
    for _ in range(30):
        store = MemoryBucketStore(3)
        old = [rng.randrange(4) for _ in range(rng.randrange(40))]
        store.fill(0, old)
        k = rng.randint(2, 10)
        positions = sorted(rng.sample(range(len(old) + k), k))
        syms = [rng.randrange(4) for _ in range(k)]
        captured = store.merge_insert(0, positions, syms, base=0)
        for c in range(4):
            per_sym = [r for r, s in zip(captured, syms) if s == c]
            assert per_sym == sorted(per_sym)


def _splice_cases(rng):
    """(old, positions, syms) batches for the splice oracle: random ones, and
    batches of 1, 16 and 17 entries with inserts at the front and the end
    and all-equal symbols."""
    for _ in range(40):
        old = [rng.randrange(4) for _ in range(rng.randrange(30))]
        k = rng.randint(1, 8)
        yield old, sorted(rng.sample(range(len(old) + k), k)), [rng.randrange(4) for _ in range(k)]
    for k in (1, 16, 17):
        for n0 in (0, 1, 25):
            old = [rng.randrange(4) for _ in range(n0)]
            n = n0 + k
            spread = [0, *sorted(rng.sample(range(1, n - 1), k - 2)), n - 1] if k > 1 else [0]
            for positions in (list(range(k)), list(range(n - k, n)), spread):
                yield old, positions, [rng.randrange(4) for _ in range(k)]
                for c in range(4):
                    yield old, positions, [c] * k


def test_merge_insert_matches_array_splice_oracle(tmp_path):
    # ranked one-bucket merges, as lists, on both backends
    rng = random.Random(31)
    for trial, (old, positions, syms) in enumerate(_splice_cases(rng)):
        expected, expected_ranks = naive_splice(old, positions, syms)
        for store in _stores(tmp_path / f"t{trial}", 3):
            store.fill(2, old)
            assert store.merge_insert(2, positions, syms, base=0) == expected_ranks
            assert store.read(2).tolist() == expected
            store.close()


def _large_splice_cases(rng):
    """(old, positions, syms) batches of 32 entries into buckets of 1k to 70k
    symbols, over random, single-symbol and all-T content: entries with 0,
    1, 63 or 64 mod 64 old symbols before them, entries at 0, 1, 63 or 64
    mod 64 in the spliced content (either side of the rank kernel's
    64-symbol word edge), all entries first and all entries last."""
    k = 32
    for n0 in (1000, 8191, 70_000):
        contents = {
            "random": [rng.randrange(4) for _ in range(n0)],
            "single": [1] * n0,
            "all T": [3] * n0,
        }
        words = rng.sample(range(0, n0 // 64, 2), k // 4)
        edges = sorted(64 * q + r for q in words for r in (0, 1, 63, 64))
        layouts = {
            "old word edges": [ob + i for i, ob in enumerate(edges)],
            "new word edges": edges,
            "first": list(range(k)),
            "last": list(range(n0, n0 + k)),
        }
        for old in contents.values():
            for positions in layouts.values():
                yield old, positions, [rng.randrange(4) for _ in range(k)]
                yield old, positions, [old[0]] * k


def _naive_counts(content, points):
    """Rows 0 to 3: the counts of A, C, G and T in ``content[:p]`` per point p."""
    return [[content[:p].count(c) for p in points] for c in range(4)]


def _counts(content, points):
    """Rows 0 to 3: the counts of A, C, G and T in ``content[:p]`` per point
    p, by the rank kernel, each point asked once per symbol."""
    points = np.asarray(points, dtype=np.int64)
    k = len(points)
    counts = buckets._counts_before(np.asarray(content, dtype=np.uint8), np.tile(points, 4),
                                    np.repeat(np.arange(4), k))
    assert counts.dtype == np.int64
    return counts.reshape(4, k)


def _check_splice(old, positions, syms, count_ranks):
    # the copying splice, into a new array and into a region between guard
    # bytes, and with count_ranks the rank kernel over its result: every
    # count before each entry, and so each entry's rank
    expected, expected_ranks = naive_splice(old, positions, syms)
    args = np.array(old, dtype=np.uint8), np.array(positions, dtype=np.int64), np.array(syms, dtype=np.uint8)
    new = buckets._splice(*args)
    assert new.tolist() == expected
    region = np.full(len(expected) + 2, GUARD, dtype=np.uint8)
    assert buckets._splice(*args, out=region[1:-1]).base is region
    assert region.tolist() == [GUARD, *expected, GUARD]
    if count_ranks:
        counts = _counts(new, positions)
        assert counts.tolist() == _naive_counts(expected, positions)
        assert counts[syms, np.arange(len(syms))].tolist() == expected_ranks


@pytest.mark.parametrize("count_ranks", [True, False])
def test_splice_numpy_large_buckets_match_naive_splice(count_ranks):
    for old, positions, syms in _large_splice_cases(random.Random(35)):
        _check_splice(old, positions, syms, count_ranks)


@st.composite
def _splice_inputs(draw):
    alphabet = draw(st.sampled_from([(0,), (3,), (1, 2), (0, 1, 2, 3)]))
    old = draw(st.lists(st.sampled_from(alphabet), max_size=300))
    k = draw(st.integers(1, 40))
    positions = sorted(draw(st.sets(st.integers(0, len(old) + k - 1), min_size=k, max_size=k)))
    syms = draw(st.lists(st.sampled_from(draw(st.sampled_from([alphabet, (0, 1, 2, 3)]))),
                         min_size=k, max_size=k))
    return old, positions, syms


@settings(max_examples=300, deadline=None)
@given(case=_splice_inputs(), count_ranks=st.booleans())
def test_splice_numpy_matches_naive_splice(case, count_ranks):
    _check_splice(*case, count_ranks)


def test_splice_numpy_ranks_past_three_count_fields():
    # content past 2**21 symbols, most of it G, so that a count needs more
    # than 20 bits and any narrower count would wrap. The rank kernel over
    # the copying splice's result is checked against counts of the spliced
    # bytes, and its ranks against the in-place splice's, which counts each
    # rank on those bytes
    rng = np.random.default_rng(36)
    n0 = (1 << 21) + 1000
    old = rng.choice(4, size=n0, p=[0.1, 0.1, 0.7, 0.1]).astype(np.uint8)
    k = 24
    positions = np.sort(rng.choice(n0 + k, size=k, replace=False)).astype(np.int64)
    positions[-3:] = np.arange(n0 + k - 3, n0 + k)
    syms = rng.integers(0, 4, size=k, dtype=np.uint8)
    new = buckets._splice(old, positions, syms)
    expected = bytearray(n0 + k)
    expected[:n0] = old.tobytes()
    expected_ranks = buckets._splice_in_place(expected, 0, n0, positions.tolist(), syms.tolist())
    assert new.tobytes() == bytes(expected)
    counts = _counts(new, positions)
    assert counts.tolist() == [[expected.count(c, 0, p) for p in positions.tolist()] for c in range(4)]
    assert counts[syms, np.arange(k)].tolist() == expected_ranks


def _slot_bytes(store):
    """Every slot's bytes: the RAM array, or the bucket file."""
    if store.tmp_dir is None:
        return store._codes.tobytes()
    with open(store._path, "rb") as fh:
        return fh.read()


GUARD = 0xA5  # a byte no symbol code takes


def _layouts(rng, n, k):
    """Post-insertion positions of k entries among n symbols: all first (an
    entry at 0), all last (an entry at n - 1), both ends, and random."""
    yield list(range(k))
    yield list(range(n - k, n))
    if k > 1:
        yield [0, *sorted(rng.sample(range(1, n - 1), k - 2)), n - 1]
    yield sorted(rng.sample(range(n), k))


@pytest.mark.parametrize("count_numpy_min", [0, buckets.COUNT_NUMPY_MIN, 1 << 30])
def test_in_place_splice_matches_naive_splice_between_guard_bytes(count_numpy_min, tmp_path, monkeypatch):
    # an in-place merge splices in RAM inside its slot and on disk in a
    # bytearray of the unpacked bucket. With guard bytes in every slot byte
    # around the bucket's content, the merge changes only the bytes of its
    # spliced content, which equals the naive splice; its ranks equal the
    # naive splice's and a count on the spliced content. Merges splice in
    # place into empty, part-filled and exactly filled slots; ranks are
    # counted all by numpy, by range length, or all by bytearray.count
    monkeypatch.setattr(buckets, "COUNT_NUMPY_MIN", count_numpy_min)
    rng = random.Random(61)
    slot, ordinal = 40, 2
    for trial in range(12):
        k = rng.randint(1, 8)
        n0 = [0, 1, rng.randrange(slot - k), slot - k][trial % 4]
        old = [rng.randrange(4) for _ in range(n0)]
        for positions in _layouts(rng, n0 + k, k):
            syms = [rng.randrange(4) for _ in range(k)]
            expected, expected_ranks = naive_splice(old, positions, syms)
            for store in (MemoryBucketStore(3, slot), ExternalBucketStore(3, str(tmp_path / "g"), slot)):
                if store.tmp_dir is None:
                    store._codes[:] = GUARD
                    start, end = store._start[ordinal], store._start[ordinal] + n0 + k
                else:
                    os.pwrite(store._fd, bytes([GUARD]) * (8 * slot // 4), 0)
                    start, end = store._start[ordinal], store._start[ordinal] + (n0 + k + 3) // 4
                store.fill(ordinal, old)
                before = _slot_bytes(store)
                ranks = _merge(store, ordinal, positions, syms)
                after = _slot_bytes(store)
                assert after[:start] == before[:start] and after[end:] == before[end:]
                assert store.read(ordinal).tolist() == expected
                counted = _counts(expected, positions)
                assert ranks == expected_ranks == counted[syms, np.arange(k)].tolist()
                store.close()


def test_ranked_merges_of_up_to_32_entries_splice_in_place_in_large_buckets(tmp_path):
    # a ranked merge, as a sparse round of up to SPARSE_MAX = 32 words makes
    # it, is spliced in place whatever the bucket's size. Into buckets above
    # COUNT_NUMPY_MIN symbols some of its ranks are counted by numpy; entries
    # all first, all last, at both ends and random, on both backends
    rng = random.Random(62)
    n0 = 3 * buckets.COUNT_NUMPY_MIN
    for k in (17, 24, 32):
        old = [rng.randrange(4) for _ in range(n0)]
        for trial, positions in enumerate(_layouts(rng, n0 + k, k)):
            syms = [rng.randrange(4) for _ in range(k)]
            expected, expected_ranks = naive_splice(old, positions, syms)
            for store in (MemoryBucketStore(3, n0 + k),
                          ExternalBucketStore(3, str(tmp_path / f"big{k}_{trial}"), n0 + k)):
                store.fill(5, old)
                assert _merge(store, 5, [p + 100 for p in positions], syms, base=100) == expected_ranks
                assert store.read(5).tolist() == expected
                store.close()


def test_refused_small_merges_leave_the_store_untouched(tmp_path):
    # every check of a sparse round's merge runs before any byte of its
    # bucket is read or moved: a refused merge leaves every slot byte, the
    # sizes and the I/O counts as they were, on both backends
    refused = {
        "negative position": (1, [-1], [0]),
        "position past the end": (1, [31], [0]),
        "repeated positions": (1, [3, 3], [0, 1]),
        "decreasing positions": (1, [4, 3], [0, 1]),
        "slot overflow": (3, [0, 1], [2, 2]),
        "terminator among bases": (1, [0, 5], [1, DOLLAR]),
        "lone terminator": (1, [2], [DOLLAR]),
    }
    for store in _stores(tmp_path, 3):
        store.fill(1, np.arange(30) % 4)
        store.fill(3, [1] * (SLOT - 1))
        state = _io_state(store)
        for name, (ordinal, positions, syms) in refused.items():
            with pytest.raises(ConsistencyError):
                _merge(store, ordinal, positions, syms)
            assert _io_state(store) == state, name
        store.close()


def test_store_takes_only_the_merges_a_build_makes(tmp_path):
    # a build merges one bucket ranked (a sparse round, into slots), a
    # round ranked (a dense round) and a round of terminators, last. On
    # both backends, with content in slots and gapless, the store refuses
    # every other merge before any byte is read or moved, leaving every
    # byte, size and I/O count as it was: an unranked one-bucket merge, a
    # one-bucket merge after the first ranked round, a terminator round
    # that holds a base, and any merge after the terminator round
    fill = {1: [0, 1, 2, 3] * 3, 2: [3, 3], 5: [1]}
    dense = [(1, np.array([0, 13]), np.array([2, 0], dtype=np.uint8), 0),
             (5, np.array([1]), np.array([3], dtype=np.uint8), 0)]
    for store in _stores(tmp_path, 3):
        _fill(store, fill)
        for layout in ("slots", "gapless"):
            if layout == "gapless":
                store.merge_many(*_round_arrays(dense))
            assert (store._begin is None) == (layout == "slots")
            state = _io_state(store)
            refused = {
                "one bucket unranked, a base": lambda: store.merge_insert(
                    1, np.array([0]), np.array([2], dtype=np.uint8), 0, False),
                "one bucket unranked, a terminator": lambda: store.merge_insert(
                    1, np.array([0]), np.array([DOLLAR], dtype=np.uint8), 0, False),
                "terminator round with a base": lambda: store.merge_many(
                    *_round_arrays([(1, [0, 2], [DOLLAR, 2], 0), (2, [0], [DOLLAR], 0)]), False),
                "terminator round of bases": lambda: store.merge_many(
                    *_round_arrays([(2, [0], [1], 0)]), False),
            }
            if layout == "gapless":
                refused["one bucket after the first ranked round"] = lambda: _merge(store, 2, [0], [1])
            for name, merge in refused.items():
                with pytest.raises(ConsistencyError):
                    merge()
                assert _io_state(store) == state, (layout, name)
        model = [store.read(o).tolist() for o in range(8)]
        assert _terminator_round(store, [(1, [0, 15]), (2, [1])]) is None
        model[1] = naive_splice(model[1], [0, 15], [DOLLAR] * 2)[0]
        model[2] = naive_splice(model[2], [1], [DOLLAR])[0]
        state = _io_state(store)
        after = {
            "a second terminator round": lambda: _terminator_round(store, [(5, [0])]),
            "a ranked round": lambda: store.merge_many(*_round_arrays([(5, [0], [1], 0)])),
            "a ranked one-bucket merge": lambda: _merge(store, 5, [0], [1]),
            "an unranked one-bucket merge": lambda: store.merge_insert(
                5, np.array([0]), np.array([DOLLAR], dtype=np.uint8), 0, False),
        }
        for name, merge in after.items():
            with pytest.raises(ConsistencyError, match="after the terminator round"):
                merge()
            assert _io_state(store) == state, name
        assert [store.read(o).tolist() for o in range(8)] == model
        store.close()


def test_ranked_merge_many_refuses_a_bucket_named_twice(tmp_path):
    # a round's merge takes each bucket's entries as one run of the round's
    # entries. So, on both backends, a ranked round or a terminator round
    # whose buckets are not in increasing order, as when it names one
    # bucket twice apart, is refused before any bucket changes. A bucket
    # named twice in a row is one run of entries, which merges as its two
    # batches in sequence would
    twice = [(1, [0], [2], 0), (2, [5, 6], [3, 0], 5), (1, [4], [3], 0)]
    decreasing = [(2, [5, 6], [3, 0], 5), (1, [4], [3], 0)]
    for store in _stores(tmp_path, 3):
        store.fill(1, [0, 1, 2, 3, 0, 1])
        state = _io_state(store)
        for round_ in (twice, decreasing):
            with pytest.raises(ConsistencyError, match="each bucket once, in increasing order"):
                store.merge_many(*_round_arrays(round_))
            with pytest.raises(ConsistencyError, match="each bucket once, in increasing order"):
                _terminator_round(store, [(o, positions) for o, positions, *_ in round_])
            assert _io_state(store) == state
        expected, first = naive_splice([0, 1, 2, 3, 0, 1], [0], [2])
        expected, second = naive_splice(expected, [4], [3])
        assert store.merge_many(*_round_arrays([(1, [0], [2], 0), (1, [4], [3], 0)])).tolist() == first + second
        assert store.read(1).tolist() == expected
        store.close()


def test_rank_capture_rejects_codes_above_t(tmp_path):
    # T's rank is derived from A, C and G, which needs content of the four
    # bases only: the rank kernel refuses a terminator in the content it
    # reads, which the copying splice moves like any code, and a ranked
    # merge or round refuses one among its entries
    old = np.zeros(40, dtype=np.uint8)
    old[5] = DOLLAR
    assert _counts(old, [4]).tolist() == [[4], [0], [0], [0]]
    with pytest.raises(ConsistencyError, match="above T"):
        _counts(old, [2, 6])
    k = 20
    positions = np.arange(20, 20 + k, dtype=np.int64)
    syms = np.full(k, 3, dtype=np.uint8)
    assert buckets._splice(old, positions, syms)[5] == DOLLAR
    syms[k // 2] = DOLLAR
    for store in _stores(tmp_path, 3):
        with pytest.raises(ConsistencyError, match="above T"):
            _merge(store, 0, range(k), syms)
        with pytest.raises(ConsistencyError, match="above T"):
            store.merge_many(*_round_arrays([(0, range(k), syms, 0)]))
        assert store.sizes.tolist() == [0] * 8 and store.bytes_written == 0
        store.close()


def _merge_many_cases(rng, slot):
    """Rounds of (ordinal, positions, symbols, base) batches in ascending
    bucket order over 16 buckets: prefilled and empty buckets, single-entry
    batches, and one batch that fills a bucket to nearly its ``slot``."""
    for _ in range(6):
        fill = {o: [rng.randrange(4) for _ in range(rng.choice([0, 1, 9, 40]))] for o in range(16)}
        batches = []
        for o in sorted(rng.sample(range(16), rng.randint(1, 10))):
            n0 = len(fill[o])
            k = rng.choice([1, 1, 3, 21, slot - n0 - 2])
            base = rng.randrange(1000)
            positions = np.array(sorted(rng.sample(range(n0 + k), k)), dtype=np.int64) + base
            syms = np.array([rng.choice([rng.randrange(4), 3]) for _ in range(k)], dtype=np.uint8)
            batches.append((o, positions, syms, base))
        yield fill, batches


@pytest.mark.parametrize("chunk", [1, 7, 64, buckets.RANK_CHUNK])
def test_merge_many_ranks_equal_per_batch_ranks_at_any_chunk_bound(chunk, tmp_path, monkeypatch):
    # on both backends a ranked round is one pass over the content, a window
    # of old symbols at a time: at a window of one symbol, of a few and the
    # default, two rounds, of which the first compacts the slots, leave the
    # ranks, contents and sizes of naive splices of each batch alone, and
    # the second reads the old content at most once (on disk, a window that
    # ends inside a byte reads that byte again with the next one)
    monkeypatch.setattr(buckets, "RANK_CHUNK", chunk)
    for trial, (fill, batches) in enumerate(_merge_many_cases(random.Random(39), SLOT)):
        for store in _stores(tmp_path / f"m{trial}", 4):
            _fill(store, fill)
            expected = {o: list(c) for o, c in fill.items()}
            first_round = True
            for round_ in (batches, None):
                if round_ is None:
                    # an entry at the front of every bucket with room
                    round_ = [(o, np.array([3]), np.array([o % 4], dtype=np.uint8), 3)
                              for o in range(16) if len(expected[o]) < SLOT]
                expected_ranks = []
                for o, positions, syms, base in round_:
                    expected[o], ranks = naive_splice(expected[o], (positions - base).tolist(), syms.tolist())
                    expected_ranks += ranks
                read, n_old = store.bytes_read, int(store.sizes.sum())
                captured = store.merge_many(*_round_arrays(round_))
                assert captured.dtype == np.int64
                assert captured.tolist() == expected_ranks
                if not first_round:
                    once = n_old if store.tmp_dir is None else (n_old + 3) // 4 + (chunk % 4 > 0) * -(-n_old // chunk)
                    assert store.bytes_read - read <= once
                first_round = False
                assert store.sizes.tolist() == [len(expected[o]) for o in range(16)]
                assert [store.read(o).tolist() for o in range(16)] == [expected[o] for o in range(16)]
            store.close()


def _io_state(store):
    """Every slot byte, the sizes and both I/O counts."""
    return _slot_bytes(store), store.sizes.tolist(), store.bytes_read, store.bytes_written


def _fill(store, fill):
    for o, codes in fill.items():
        store.fill(o, codes)


def _gapless_run(store):
    """The bytes that the gapless layout uses, in RAM or in the file, and the
    run of every bucket's content in bucket order, packed on disk, which
    they must equal."""
    codes = np.concatenate([store.read(o) for o in range(len(store.sizes))])
    if store.tmp_dir is None:
        return _slot_bytes(store)[: len(codes)], codes.tobytes()
    return _slot_bytes(store)[: (len(codes) + 3) // 4], _pack(codes).tobytes()


def _traced_io(monkeypatch, calls):
    """Record every os.pread and os.pwrite as (name, first byte, bytes)."""
    for name in ("pread", "pwrite"):
        def traced(fd, arg, offset, name=name, real=getattr(os, name)):
            out = real(fd, arg, offset)
            calls.append((name, offset, len(out) if name == "pread" else out))
            return out
        monkeypatch.setattr(os, name, traced)


@pytest.mark.parametrize("chunk", [1, 7, buckets.RANK_CHUNK])
def test_external_merge_many_equals_per_bucket_merges(chunk, tmp_path, monkeypatch):
    # on disk the first ranked round compacts the slots into one gapless
    # run, and each round is one pass over it. Two rounds leave the ranks,
    # contents and sizes of naive splices of each batch, one bucket at a
    # time, and the file holds the contents' packed run from its start,
    # even where a slot held set bits past its content. The second round
    # reads and writes nothing before the byte of its first bucket's start,
    # and writes every byte from there to the new content's end once.
    # Rounds touch empty and prefilled buckets and buckets larger than a
    # window, one of them larger than the default window
    big = (1 << 18) + 200 if chunk == buckets.RANK_CHUNK else 9 * chunk + 2
    monkeypatch.setattr(buckets, "RANK_CHUNK", chunk)
    final = np.full(16, SLOT)
    final[9] = max(SLOT, big + 100)
    rng = random.Random(41)
    cases = list(_merge_many_cases(rng, SLOT))
    fill_big = {o: [rng.randrange(4) for _ in range(n)] for o, n in ((3, 5), (9, big), (12, 0))}
    cases.append((fill_big, [(o, np.array(sorted(rng.sample(range(len(c) + 40), 40))) + 7,
                              np.array([rng.randrange(4) for _ in range(40)], dtype=np.uint8), 7)
                             for o, c in sorted(fill_big.items())]))
    for trial, (fill, batches) in enumerate(cases):
        passed = ExternalBucketStore(4, str(tmp_path / f"passed{trial}"), final)
        _fill(passed, fill)
        model = {o: list(fill.get(o, [])) for o in range(16)}
        # set the bits past each content in its slot's last byte
        for o, codes in fill.items():
            if len(codes) % 4:
                at = passed._start[o] + len(codes) // 4
                byte = os.pread(passed._fd, 1, at)[0]
                os.pwrite(passed._fd, bytes([byte | 0xFF >> 2 * (len(codes) % 4)]), at)
        # the second round: an entry first and one last in each bucket the
        # first round touched but its first
        touched = [o for o, *_ in batches]
        sizes = {o: len(fill.get(o, [])) + len(syms) for o, _, syms, _ in batches}
        second = [(o, np.array([0, sizes[o] + 1]) + 3, np.array([o % 4, 3], dtype=np.uint8), 3)
                  for o in touched[1:]]
        for round_ in (batches, second):
            expected_ranks = []
            for o, positions, syms, base in round_:
                model[o], ranks = naive_splice(model[o], (positions - base).tolist(), syms.tolist())
                expected_ranks += ranks
            begin = np.cumsum(passed.sizes) - passed.sizes
            before, calls = _slot_bytes(passed), []
            with monkeypatch.context() as mp:
                _traced_io(mp, calls)
                assert passed.merge_many(*_round_arrays(round_)).tolist() == expected_ranks
            assert passed.sizes.tolist() == [len(model[o]) for o in range(16)]
            assert [passed.read(o).tolist() for o in range(16)] == [model[o] for o in range(16)]
            file_bytes, run = _gapless_run(passed)
            assert file_bytes == run
            if round_ is second and second:
                first = int(begin[touched[1]]) // 4
                assert min(offset for _, offset, _ in calls) == first
                assert _slot_bytes(passed)[:first] == before[:first]
                writes = sorted((offset, offset + n) for name, offset, n in calls if name == "pwrite")
                assert [w for w in writes if w[0] < w[1]][0][0] == first
                assert all(a[1] == b[0] for a, b in zip(writes, writes[1:]))
                assert writes[-1][1] == len(run)
        passed.close()


def _window_round(rng, store, chunk, k, length_mod_4):
    """A ranked round for ``store``: about k entries at random, and, in the
    buckets from the first one touched on, entries before the old symbol at
    each of up to 40 window starts of the pass and at the content's end,
    and more until the content's length is ``length_mod_4`` mod 4.
    Returns its (ordinal, positions, symbols, base) batches."""
    sizes, room = store.sizes.tolist(), (store.final - store.sizes).tolist()
    begin = np.cumsum(store.sizes) - store.sizes
    places: dict[int, list[int]] = {}
    for _ in range(k):
        o = rng.choice([o for o in range(len(sizes)) if room[o] > len(places.get(o, []))])
        places.setdefault(o, []).append(rng.randint(0, sizes[o]))
    first, n = min(places), sum(sizes)
    edges = list(range(int(begin[first]) & -4, n, chunk))
    for x in [*rng.sample(edges, min(40, len(edges))), n]:
        fits = [o for o in range(first, len(sizes))
                if begin[o] <= x <= begin[o] + sizes[o] and room[o] > len(places.get(o, []))]
        if fits:
            o = rng.choice(fits)
            places.setdefault(o, []).append(x - int(begin[o]))
    while (n + sum(map(len, places.values()))) % 4 != length_mod_4:
        o = rng.choice([o for o in range(first, len(sizes)) if room[o] > len(places.get(o, []))])
        places.setdefault(o, []).append(rng.randint(0, sizes[o]))
    batches = []
    for o in sorted(places):
        old = sorted(places[o])
        base = rng.randrange(100)
        batches.append((o, np.array([p + i + base for i, p in enumerate(old)]),
                        np.array([rng.randrange(4) for _ in old], dtype=np.uint8), base))
    return batches


@pytest.mark.parametrize("chunk", [1, 7, 64, buckets.RANK_CHUNK])
def test_pass_equals_naive_splices_at_any_window_edge(chunk, tmp_path, monkeypatch):
    # the pass over the gapless content, in RAM and on disk, at a window of
    # one symbol, of a few and the default. After 0, 1 and 20 sparse rounds
    # (ranked one-bucket merges into slots), the first round compacts the
    # slots; four rounds put entries before every window's first old
    # symbol and at the content's end, with bucket starts in earlier
    # windows than their entries and contents of each length mod 4. Ranks,
    # sizes and every read(o) equal naive splices of each batch, and the
    # RAM array or the file holds the contents' run
    monkeypatch.setattr(buckets, "RANK_CHUNK", chunk)
    rng = random.Random(44)
    for n_sparse, tmp_dir in itertools.product((0, 1, 20), (None, "disk")):
        final = np.array([rng.choice([3, 40, 150, 300]) for _ in range(16)])
        store = buckets.BucketStore(final, tmp_dir and str(tmp_path / f"s{n_sparse}"))
        model = [[] for _ in range(16)]
        for _ in range(n_sparse):
            o = rng.choice([o for o in range(16) if len(model[o]) < final[o]])
            k = rng.randint(1, min(4, final[o] - len(model[o])))
            positions = sorted(rng.sample(range(len(model[o]) + k), k))
            syms = [rng.randrange(4) for _ in range(k)]
            model[o], ranks = naive_splice(model[o], positions, syms)
            assert store.merge_insert(o, positions, syms, 0) == ranks
        assert store._begin is None
        for length_mod_4 in range(4):
            batches = _window_round(rng, store, chunk, 80, length_mod_4)
            expected_ranks = []
            for o, positions, syms, base in batches:
                model[o], ranks = naive_splice(model[o], (positions - base).tolist(), syms.tolist())
                expected_ranks += ranks
            assert store.merge_many(*_round_arrays(batches)).tolist() == expected_ranks
            assert store.sizes.tolist() == [len(m) for m in model]
            assert [store.read(o).tolist() for o in range(16)] == model
            file_bytes, run = _gapless_run(store)
            assert file_bytes == run
        store.close()


def test_terminator_round_makes_no_bucket_io(tmp_path, monkeypatch):
    # the terminator round loads nothing and never compacts: its one call
    # fills the side lists
    store = ExternalBucketStore(3, str(tmp_path / "dollars"))
    _fill(store, {1: [0, 1, 2], 4: [3] * 9})
    calls = []
    for name in ("pread", "preadv", "pwrite"):
        monkeypatch.setattr(os, name, lambda *a, name=name: calls.append(name))
    assert _terminator_round(store, [(1, [0, 3]), (4, [9])]) is None
    assert calls == []
    assert store._begin is None and store.bytes_read == store.bytes_written == 0
    monkeypatch.undo()
    assert store.read(1).tolist() == [DOLLAR, 0, 1, DOLLAR, 2]
    assert store.read(4).tolist() == [3] * 9 + [DOLLAR]
    store.close()


@pytest.mark.parametrize("n", [64, 65, 127, 1024, 1025, 1087])
def test_chunk_ranks_match_naive_counts_at_word_edges(n):
    # the pass's rank rule over content lengths of 0, 1 and 63 mod 64
    # symbols, bucket starts on word edges or anywhere, entries at 0 and at
    # the content's end: one count of each entry's symbol and of all four
    # at each bucket start, and each rank, an entry's count less its bucket
    # start's, is the count of the entry's symbol from its bucket's start to it
    rng = np.random.default_rng(n)
    content = rng.integers(0, 4, n, dtype=np.uint8)
    edges = np.arange(0, n, 64)
    anywhere = np.unique(np.concatenate([[0], rng.integers(1, n, 6)]))
    for starts in (edges, anywhere, np.zeros(1, dtype=np.int64)):
        for _ in range(10):
            points = np.unique(np.concatenate([[0, n - 1], starts, rng.integers(0, n, 12)]))
            owner = np.searchsorted(starts, points, side="right") - 1
            syms = rng.integers(0, 4, len(points)).astype(np.uint8)
            expected = [content[starts[o] : p].tolist().count(c) for p, o, c in zip(points, owner, syms)]
            k = len(points)
            counts = buckets._counts_before(content, np.concatenate([points, np.repeat(starts, 4)]),
                                            np.concatenate([syms, np.tile(np.arange(4), len(starts))]))
            assert (counts[:k] - counts[k + 4 * owner + syms]).tolist() == expected


def test_merge_many_refused_third_batch_stores_the_first_two(tmp_path):
    # every check of a ranked round runs before its first symbol is read, so
    # on both backends a round refused at its third bucket, or for any
    # other reason, in slots or in the gapless content, changes no byte, no
    # size and no I/O count, and does not compact the slots. No round may
    # follow the terminator round, into its buckets or any other, since
    # terminators stay out of the content
    fill = {0: [1, 2, 3], 2: list(range(4)) * 5, 5: [2] * 7}
    batches = [(0, np.array([0, 4]), np.array([3, 3], dtype=np.uint8), 0),
               (2, np.arange(20) + 1, np.arange(20, dtype=np.uint8) % 4, 0),
               (5, np.array([0, 9]), np.array([1, 1], dtype=np.uint8), 0)]
    refused = {
        "bucket 5: insert positions": batches,
        "bucket 6: insert positions": [(5, np.array([0, 8]), np.array([1, 1], dtype=np.uint8), 0),
                                       (6, np.array([1]), np.array([0], dtype=np.uint8), 0)],
        "bucket 2: \\d+ \\+ 250 symbols overflow": [(2, np.arange(250), np.zeros(250, dtype=np.uint8), 0)],
        "each bucket once, in increasing order": [batches[1], batches[0]],
        "above T": [(0, np.array([0]), np.array([DOLLAR], dtype=np.uint8), 0)],
    }
    for store in _stores(tmp_path, 3):
        _fill(store, fill)
        expected = {o: fill.get(o, []) for o in range(8)}
        for layout in ("slots", "gapless"):
            state = _io_state(store)
            for message, round_ in refused.items():
                with pytest.raises(ConsistencyError, match=message):
                    store.merge_many(*_round_arrays(round_))
                assert _io_state(store) == state, (layout, message)
                assert (store._begin is None) == (layout == "slots")
            for o, positions, syms, base in batches[:2]:
                expected[o] = naive_splice(expected[o], (positions - base).tolist(), syms.tolist())[0]
            store.merge_many(*_round_arrays(batches[:2]))
            assert [store.read(o).tolist() for o in range(8)] == [expected[o] for o in range(8)]
        _terminator_round(store, [(1, [0])])
        state = _io_state(store)
        for round_ in ([(0, [0], [1], 0), (1, [0], [1], 0)], [(0, [0], [1], 0)]):
            with pytest.raises(ConsistencyError, match="after the terminator round"):
                store.merge_many(*_round_arrays(round_))
            assert _io_state(store) == state
        assert [store.read(o).tolist() for o in range(8)] == [expected[o] if o != 1 else [DOLLAR] for o in range(8)]
        store.close()


def test_merge_insert_rank_capture_counts_copied_and_inserted(tmp_path):
    # captured rank must include stream copies before the position as well
    # as earlier batch entries of the same symbol
    store = MemoryBucketStore(3)
    store.fill(0, [1, 0, 1])
    captured = store.merge_insert(0, [1, 4], [1, 1], base=0)
    # content becomes C C A C C; first C sees one C before it, second sees three
    assert store.read(0).tolist() == [1, 1, 0, 1, 1]
    assert captured == [1, 3]


def test_merge_insert_validates_positions(tmp_path):
    for store in _stores(tmp_path, 3):
        with pytest.raises(ConsistencyError):
            store.merge_insert(1, [5], [0], base=0)
        store.close()
    store = MemoryBucketStore(3)
    with pytest.raises(ConsistencyError):
        store.merge_insert(0, [1, 1], [0, 0], base=0)
    # each violation, in a ranked one-bucket merge and in a terminator
    # round, in batches of 2, 17 and 48 entries, into an empty bucket and
    # into one of 30 symbols, on every store kind
    for k in (2, 17, 48):
        for n0 in (0, 30):
            ok = np.arange(k, dtype=np.int64) + n0 // 2
            bad = {
                "negative first": ok - ok[0] - 1,
                "past the end": ok + (n0 - int(ok[0]) + 1),
                "repeated": np.concatenate([ok[:-1], ok[-2:-1]]),
                "decreasing": np.concatenate([ok[:-2], ok[-1:], ok[-2:-1]]),
            }
            for (name, positions), ranked in itertools.product(bad.items(), (True, False)):
                for store in _stores(tmp_path / f"v{k}_{n0}_{name.replace(' ', '_')}_{ranked}", 3):
                    store.fill(1, [0] * n0)
                    with pytest.raises(ConsistencyError, match="insert positions"):
                        if ranked:
                            _merge(store, 1, positions, [0] * k)
                        else:
                            _terminator_round(store, [(1, positions)])
                    assert store.read(1).tolist() == [0] * n0, name
                    store.close()


def test_skip_rule_untouched_buckets_do_no_io(tmp_path, monkeypatch):
    store = ExternalBucketStore(3, str(tmp_path / "skip"))
    store.merge_insert(0, [0], [1], base=0)
    with open(store._path, "rb") as fh:
        file_bytes0 = fh.read()
    extent = SLOT // 4
    offsets = []
    for name in ("pread", "pwrite"):
        def traced(fd, arg, offset, real=getattr(os, name)):
            offsets.append(offset)
            return real(fd, arg, offset)
        monkeypatch.setattr(os, name, traced)
    for _ in range(10):
        store.merge_insert(5, [0], [2], base=0)
    # an iteration's traffic only touches merged buckets: every read and
    # write of bucket 5 is at its own extent, and the rest of the file,
    # bucket 0's extent included, keeps its bytes
    assert len(offsets) == 20 and set(offsets) == {5 * extent}
    with open(store._path, "rb") as fh:
        file_bytes = fh.read()
    assert len(file_bytes) == len(file_bytes0) == 8 * extent
    assert file_bytes[: 5 * extent] == file_bytes0[: 5 * extent]
    assert file_bytes[6 * extent :] == file_bytes0[6 * extent :]
    assert store.read(0).tolist() == [1]
    assert store.read(5).tolist() == [2] * 10
    store.close()


def test_one_file_holds_every_merge(tmp_path):
    # the store's one file, allocated in full up front, holds bucket 4's
    # current content after every merge
    rng = random.Random(32)
    store = ExternalBucketStore(3, str(tmp_path / "flip"))
    content = []
    for merges in range(1, rng.randint(6, 9) + 1):
        sym = rng.randrange(4)
        store.merge_insert(4, [0], [sym], base=0)
        content.insert(0, sym)
        assert store.sizes[4] == merges
        assert os.listdir(store.tmp_dir) == ["buckets.bin"]
        assert os.path.getsize(store._path) == 8 * SLOT // 4
        assert store.read(4).tolist() == content
    store.close()


def test_short_bucket_io_raises_instead_of_short_content(tmp_path, monkeypatch):
    store = ExternalBucketStore(3, str(tmp_path / "short"))
    store.merge_insert(2, list(range(9)), [0, 1, 2, 3] * 2 + [1], base=0)
    # bucket 2's 9 symbols are 3 bytes at the start of its extent
    os.truncate(store._path, 2 * SLOT // 4 + 2)
    with pytest.raises(BucketIOError, match="read 2 of 3 bytes"):
        store.read(2)
    with pytest.raises(BucketIOError, match="read 2 of 3 bytes"):
        store.merge_insert(2, [0], [3], base=0)
    assert store.sizes[2] == 9
    # a write that stops short of the packed content
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: real_pwrite(fd, bytes(data)[:-1], offset))
    written = store.bytes_written
    with pytest.raises(BucketIOError, match="short write"):
        store.merge_insert(4, list(range(5)), [0] * 5, base=0)
    assert store.sizes[4] == 0 and store.bytes_written == written
    store.close()


def test_chunk_io_errors_name_the_bucket(tmp_path, monkeypatch):
    # compaction reads each bucket's slot with os.pread: a short read names
    # the bucket. A dense round's pass reads each window of the gapless
    # file with os.pread and writes it with os.pwrite: a short count or an
    # OSError from either is a BucketIOError that names the file and the
    # window's bytes. Sizes change only when a pass completes
    store = ExternalBucketStore(3, str(tmp_path / "chunk"))
    _fill(store, {2: [0, 1, 2, 3] * 2 + [1], 5: [3] * 6})
    round_ = _round_arrays([(2, [0], [2], 0), (5, [6], [1], 0)])
    os.truncate(store._path, 5 * SLOT // 4 + 1)
    with pytest.raises(BucketIOError, match="bucket 5: read 1 of 2 bytes"):
        store.merge_many(*round_)
    assert store.sizes.tolist()[2:6] == [9, 0, 0, 6] and store._begin is None
    os.truncate(store._path, 8 * SLOT // 4)
    _fill(store, {5: [3] * 6})
    assert store.merge_many(*round_).tolist() == [0, 0]
    # the gapless file now holds 17 symbols in 5 bytes, bucket 5 from
    # symbol 10 on: a round into it passes one window, read from byte 2 to
    # 5 and written over the same bytes
    window = re.escape(f"bucket file {store._path}, bytes 2-5")
    round_ = _round_arrays([(5, [0], [2], 0)])
    os.truncate(store._path, 4)
    with pytest.raises(BucketIOError, match=f"{window}: read 2 of 3 bytes"):
        store.merge_many(*round_)
    os.truncate(store._path, 8 * SLOT // 4)
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: real_pwrite(fd, bytes(data)[:-1], offset))
    with pytest.raises(BucketIOError, match=f"{window}: short write"):
        store.merge_many(*round_)
    monkeypatch.undo()

    def fail(*args):
        raise OSError(errno.EIO, os.strerror(errno.EIO))

    for name in ("pread", "pwrite"):
        with monkeypatch.context() as mp:
            mp.setattr(os, name, fail)
            with pytest.raises(BucketIOError, match=f"{window}: .*{os.strerror(errno.EIO)}"):
                store.merge_many(*round_)
    assert store.sizes.tolist()[2:6] == [10, 0, 0, 7]
    store.close()


def test_close_removes_the_one_file(tmp_path, monkeypatch):
    store = ExternalBucketStore(12, str(tmp_path / "wide"))
    for o in (7, 4000):
        store.merge_insert(o, [0, 1], [1, 2], base=0)
    fd = store._fd
    unlinked = []
    real_unlink = os.unlink

    def counting_unlink(path, *args, **kwargs):
        unlinked.append(os.path.basename(path))
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", counting_unlink)
    store.close()
    assert unlinked == ["buckets.bin"]
    assert not os.path.exists(store.tmp_dir)
    with pytest.raises(OSError):
        os.fstat(fd)
    store.close()
    assert unlinked == ["buckets.bin"]
    # a store with only terminators has written nothing to its file
    store = ExternalBucketStore(12, str(tmp_path / "dollar_only"))
    _terminator_round(store, [(9, [0])])
    assert store.bytes_written == 0
    store.close()
    assert not os.path.exists(store.tmp_dir)


def test_merge_overflowing_its_slot_raises_and_spares_the_neighbour(tmp_path):
    for store in _stores(tmp_path, 3):
        store.fill(3, [0] * (SLOT - 2))
        _merge(store, 4, range(5), [1, 2, 3, 1, 2])
        for k in (3, 17):
            with pytest.raises(ConsistencyError, match="overflow its slot"):
                _merge(store, 3, range(k), [2] * k)
            with pytest.raises(ConsistencyError, match="overflow its slot"):
                store.merge_many(*_round_arrays([(3, range(k), [2] * k, 0)]))
        with pytest.raises(ConsistencyError, match="overflow its slot"):
            _terminator_round(store, [(3, range(3))])
        assert store.read(3).tolist() == [0] * (SLOT - 2)
        assert store.read(4).tolist() == [1, 2, 3, 1, 2]
        # a merge that fills the slot exactly is taken
        store.merge_insert(3, [0, SLOT - 1], [3, 3], base=0)
        assert store.read(3).tolist() == [3] + [0] * (SLOT - 2) + [3]
        assert store.read(4).tolist() == [1, 2, 3, 1, 2]
        store.close()


def test_terminator_side_list_in_packed_mode(tmp_path):
    store = ExternalBucketStore(3, str(tmp_path / "dollar"))
    store.fill(0, [0, 1, 2])
    before = store.bytes_written
    _terminator_round(store, [(0, [1, 4])])
    assert store.bytes_written == before  # no rewrite for the terminator round
    assert store.read(0).tolist() == [0, DOLLAR, 1, 2, DOLLAR]
    out = BytesIO()
    assert store.assemble(out) == 5
    assert out.getvalue() == b"A$CG$"
    store.close()


def test_packed_store_rejects_mixed_terminator_batches(tmp_path):
    store = ExternalBucketStore(3, str(tmp_path / "mixed"))
    with pytest.raises(ConsistencyError, match="only terminators"):
        store.merge_many(*_round_arrays([(0, [0, 1], [0, DOLLAR], 0)]), False)
    with pytest.raises(ConsistencyError, match="insert positions"):
        _terminator_round(store, [(0, [5])])
    assert store.sizes.tolist() == [0] * 8
    store.close()


def test_assemble_single_word_collection(tmp_path):
    # word "A": its symbol lands in the all-A bucket, the terminator in the
    # bucket of context "AA..."; assembly must read "A$"
    from dnabwt import Config, WordCollection, build

    out = build(WordCollection.from_words(["A"]), Config(kappa=4, backend="memory"))
    assert out == b"A$"


def test_assemble_concatenates_in_leaf_order(tmp_path):
    assert [ordinal_context(o, 4) for o in range(5)] == ["AA", "AC", "AG", "AT", "CA"]
    store = MemoryBucketStore(4)
    for ordinal, sym in ((0, 0), (1, 1), (4, 2)):
        store.merge_insert(ordinal, [0], [sym], base=0)
    out = BytesIO()
    store.assemble(out)
    assert out.getvalue() == b"ACG"


def test_backends_identical_bucket_contents(tmp_path):
    rng = random.Random(33)
    stores = list(_stores(tmp_path / "same", 4))
    model = [[] for _ in range(n_buckets(4))]
    for step in range(30):
        ordinal = rng.randrange(n_buckets(4))
        k = rng.randint(1, 4)
        size = int(stores[0].sizes[ordinal])
        positions = sorted(rng.sample(range(size + k), k))
        syms = [rng.randrange(4) for _ in range(k)]
        outs = [s.merge_insert(ordinal, positions, syms, base=0) for s in stores]
        model[ordinal] = naive_splice(model[ordinal], positions, syms)[0]
        assert outs[0] == outs[1]
        for s in stores[1:]:
            assert s.read(ordinal).tolist() == stores[0].read(ordinal).tolist()
    # the terminator round: one unranked call of terminators into several
    # touched buckets, first, last and inner positions included
    touched = [int(o) for o in np.flatnonzero(stores[0].sizes)]
    batches = []
    for ordinal in sorted(rng.sample(touched, 4)):
        size = int(stores[0].sizes[ordinal])
        k = rng.randint(1, 3)
        positions = sorted({0, size + k - 1, *rng.sample(range(size + k), k)})
        batches.append((ordinal, positions))
        model[ordinal] = naive_splice(model[ordinal], positions, [DOLLAR] * len(positions))[0]
    for s in stores:
        assert _terminator_round(s, batches) is None
    assembled = []
    for s in stores:
        for o in range(n_buckets(4)):
            assert s.read(o).tolist() == model[o]
        out = BytesIO()
        assert s.assemble(out) == sum(map(len, model))
        assembled.append(out.getvalue())
    assert assembled[0] == assembled[1]
    assert assembled[0] == bytes(b"ACGT$"[c] for content in model for c in content)
    for s in stores:
        s.close()


def test_both_backends_refuse_misplaced_terminators(tmp_path):
    # a terminator has no rank to capture: on both backends a ranked batch
    # that holds one raises before its bucket changes
    for k in (2, 17):
        for n0 in (0, 30):
            for at in (0, k - 1):
                for store in _stores(tmp_path / f"r{k}_{n0}_{at}", 3):
                    store.fill(1, np.arange(n0) % 4)
                    content, sizes = store.read(1).tolist(), store.sizes.tolist()
                    written = store.bytes_written
                    syms = np.full(k, 2, dtype=np.uint8)
                    syms[at] = DOLLAR
                    with pytest.raises(ConsistencyError):
                        _merge(store, 1, np.arange(k) + n0 // 2, syms)
                    assert store.read(1).tolist() == content
                    assert store.sizes.tolist() == sizes
                    assert store.bytes_written == written
                    # through merge_many, as the second batch of a round: the
                    # first batch, into bucket 0, is not merged either
                    first = (0, np.arange(3), [0, 3, 1], 0)
                    with pytest.raises(ConsistencyError, match="above T"):
                        store.merge_many(*_round_arrays([first, (1, np.arange(k) + n0 // 2, syms, 0)]))
                    assert store.read(1).tolist() == content and store.read(0).tolist() == []
                    assert store.sizes.tolist() == sizes
                    assert store.bytes_written == written
                    store.close()
    # the terminator round refuses a base among its terminators, and no
    # merge may follow it: a second one, or bases, ranked or not, which
    # would shift the side list's positions
    for store in _stores(tmp_path / "unranked", 3):
        store.fill(1, [0, 1, 2])
        with pytest.raises(ConsistencyError, match="only terminators"):
            store.merge_many(*_round_arrays([(0, [0, 1], [DOLLAR, 1], 0)]), False)
        _terminator_round(store, [(0, [0]), (1, [1])])
        written = store.bytes_written
        for merge in (lambda: _terminator_round(store, [(0, [1])]),
                      lambda: _merge(store, 0, [0], [3]),
                      lambda: store.merge_many(*_round_arrays([(1, [0], [3], 0)]))):
            with pytest.raises(ConsistencyError, match="after the terminator round"):
                merge()
        assert store.read(0).tolist() == [DOLLAR]
        assert store.read(1).tolist() == [0, DOLLAR, 1, 2]
        assert store.sizes.tolist()[:2] == [1, 4]
        assert store.bytes_written == written
        store.close()
