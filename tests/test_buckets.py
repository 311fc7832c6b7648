import os
import random
from io import BytesIO

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnabwt.buckets as buckets
from dnabwt.buckets import (
    BucketIOError,
    ConsistencyError,
    ExternalBucketStore,
    MemoryBucketStore,
    n_buckets,
)
from dnabwt.collection import DOLLAR
from reference import bucket_id, leaf_ordinal, ordinal_context


def _stores(tmp_path, kappa):
    yield MemoryBucketStore(kappa)
    yield ExternalBucketStore(kappa, str(tmp_path / "packed"))


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
        captured = store.merge_insert(
            ordinal,
            np.array([1, 2], dtype=np.int64),
            np.array([1, 1], dtype=np.uint8),
            base=1,
        )
        assert captured.tolist() == [0, 1]
        assert store.read(ordinal).tolist() == [1, 1]
        store.close()


def test_merge_insert_empty_bucket_single_entry(tmp_path):
    for store in _stores(tmp_path, 4):
        captured = store.merge_insert(
            0, np.array([0], dtype=np.int64), np.array([0], dtype=np.uint8), base=0
        )
        assert captured.tolist() == [0]
        assert store.read(0).tolist() == [0]
        store.close()


def _naive_splice(old, positions, syms):
    out = list(old)
    ranks = []
    for p, s in zip(positions, syms):
        ranks.append(out[:p].count(s))
        out.insert(p, s)
    return out, ranks


def test_captured_ranks_monotone_per_symbol():
    rng = random.Random(34)
    for _ in range(30):
        store = MemoryBucketStore(3)
        old = [rng.randrange(4) for _ in range(rng.randrange(40))]
        store._content[0] = np.array(old, dtype=np.uint8)
        store.sizes[0] = len(old)
        k = rng.randint(2, 10)
        positions = sorted(rng.sample(range(len(old) + k), k))
        syms = np.array([rng.randrange(4) for _ in range(k)], dtype=np.uint8)
        captured = store.merge_insert(0, np.array(positions, dtype=np.int64), syms, base=0)
        for c in range(4):
            per_sym = captured[syms == c]
            assert np.all(np.diff(per_sym) >= 0)


def _splice_cases(rng):
    """(old, positions, syms) batches for the splice oracle: random ones, and
    batch sizes on both sides of the small-batch cut with inserts at the
    front and the end and all-equal symbols."""
    for _ in range(40):
        old = [rng.randrange(4) for _ in range(rng.randrange(30))]
        k = rng.randint(1, 8)
        yield old, sorted(rng.sample(range(len(old) + k), k)), [rng.randrange(4) for _ in range(k)]
    for k in (1, buckets.SPLICE_FEW_MAX, buckets.SPLICE_FEW_MAX + 1):
        for n0 in (0, 1, 25):
            old = [rng.randrange(4) for _ in range(n0)]
            n = n0 + k
            spread = [0, *sorted(rng.sample(range(1, n - 1), k - 2)), n - 1] if k > 1 else [0]
            for positions in (list(range(k)), list(range(n - k, n)), spread):
                yield old, positions, [rng.randrange(4) for _ in range(k)]
                for c in range(4):
                    yield old, positions, [c] * k


def test_merge_insert_matches_array_splice_oracle(tmp_path):
    rng = random.Random(31)
    for trial, (old, positions, syms) in enumerate(_splice_cases(rng)):
        expected, expected_ranks = _naive_splice(old, positions, syms)
        for store in _stores(tmp_path / f"t{trial}", 3):
            if isinstance(store, MemoryBucketStore):
                store._content[2] = np.array(old, dtype=np.uint8)
                store.sizes[2] = len(old)
            else:
                if old:
                    store.merge_insert(
                        2,
                        np.arange(len(old), dtype=np.int64),
                        np.array(old, dtype=np.uint8),
                        base=0,
                        want_ranks=False,
                    )
            captured = store.merge_insert(
                2, np.array(positions, dtype=np.int64), np.array(syms, dtype=np.uint8), base=0
            )
            assert store.read(2).tolist() == expected
            assert captured.tolist() == expected_ranks
            store.close()


def _large_splice_cases(rng):
    """(old, positions, syms) batches of more than ``SPLICE_FEW_MAX`` entries
    into buckets of 1k to 70k symbols, over random, single-symbol and all-T
    content: entries with 0, 1, 7 or 8 mod 8 old symbols before them,
    entries at 0, 1, 7 or 8 mod 8 in the spliced content (either side of
    an eight-symbol lane edge), all entries first and all entries last."""
    k = 2 * buckets.SPLICE_FEW_MAX
    for n0 in (1000, 8191, 70_000):
        contents = {
            "random": [rng.randrange(4) for _ in range(n0)],
            "single": [1] * n0,
            "all T": [3] * n0,
        }
        lanes = rng.sample(range(0, n0 // 8, 2), k // 4)
        edges = sorted(8 * q + r for q in lanes for r in (0, 1, 7, 8))
        layouts = {
            "old lane edges": [ob + i for i, ob in enumerate(edges)],
            "new lane edges": edges,
            "first": list(range(k)),
            "last": list(range(n0, n0 + k)),
        }
        for old in contents.values():
            for positions in layouts.values():
                yield old, positions, [rng.randrange(4) for _ in range(k)]
                yield old, positions, [old[0]] * k


def _check_splice_numpy(old, positions, syms, want_ranks):
    expected, expected_ranks = _naive_splice(old, positions, syms)
    new, captured = buckets._splice_numpy(
        np.array(old, dtype=np.uint8), np.array(positions, dtype=np.int64),
        np.array(syms, dtype=np.uint8), want_ranks,
    )
    assert new.tolist() == expected
    if want_ranks:
        assert captured.dtype == np.int64
        assert captured.tolist() == expected_ranks
    else:
        assert captured is None


@pytest.mark.parametrize("want_ranks", [True, False])
def test_splice_numpy_large_buckets_match_naive_splice(want_ranks):
    for old, positions, syms in _large_splice_cases(random.Random(35)):
        _check_splice_numpy(old, positions, syms, want_ranks)


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
@given(case=_splice_inputs(), want_ranks=st.booleans())
def test_splice_numpy_matches_naive_splice(case, want_ranks):
    _check_splice_numpy(*case, want_ranks)


def test_splice_numpy_ranks_past_three_count_fields():
    # content past 2**21 symbols leaves no room for three count fields in
    # one 64-bit cumsum, so the counts take two; most of it is G, whose
    # count then needs more than the 20 bits a third field would keep.
    # The small-batch splice is the reference
    rng = np.random.default_rng(36)
    n0 = (1 << 21) + 1000
    old = rng.choice(4, size=n0, p=[0.1, 0.1, 0.7, 0.1]).astype(np.uint8)
    k = buckets.SPLICE_FEW_MAX + 8
    positions = np.sort(rng.choice(n0 + k, size=k, replace=False)).astype(np.int64)
    positions[-3:] = np.arange(n0 + k - 3, n0 + k)
    syms = rng.integers(0, 4, size=k, dtype=np.uint8)
    new, captured = buckets._splice_numpy(old, positions, syms, True)
    expected, expected_ranks = buckets._splice_few(old, positions, syms, True)
    assert np.array_equal(new, expected)
    assert captured.tolist() == expected_ranks.tolist()


def test_rank_capture_rejects_codes_above_t():
    # T's rank is derived from A, C and G, which needs content of the four
    # bases only; a terminator in the content read or among the entries is
    # an error when ranks are wanted
    k = buckets.SPLICE_FEW_MAX + 1
    old = np.zeros(40, dtype=np.uint8)
    old[5] = DOLLAR
    positions = np.arange(20, 20 + k, dtype=np.int64)
    syms = np.full(k, 3, dtype=np.uint8)
    with pytest.raises(ConsistencyError, match="above T"):
        buckets._splice_numpy(old, positions, syms, True)
    new, captured = buckets._splice_numpy(old, positions, syms, False)
    assert captured is None and new[5] == DOLLAR
    store = MemoryBucketStore(3)
    store._content[0] = old
    store.sizes[0] = len(old)
    with pytest.raises(ConsistencyError, match="above T"):
        store.merge_insert(0, positions, syms, base=0)
    syms[3] = DOLLAR
    with pytest.raises(ConsistencyError, match="above T"):
        buckets._splice_numpy(np.zeros(40, dtype=np.uint8), positions, syms, True)


def test_merge_insert_rank_capture_counts_copied_and_inserted(tmp_path):
    # captured rank must include stream copies before the position as well
    # as earlier batch entries of the same symbol
    store = MemoryBucketStore(3)
    store._content[0] = np.array([1, 0, 1], dtype=np.uint8)
    store.sizes[0] = 3
    captured = store.merge_insert(
        0,
        np.array([1, 4], dtype=np.int64),
        np.array([1, 1], dtype=np.uint8),
        base=0,
    )
    # content becomes C C A C C; first C sees one C before it, second sees three
    assert store.read(0).tolist() == [1, 1, 0, 1, 1]
    assert captured.tolist() == [1, 3]


def test_merge_insert_validates_positions(tmp_path):
    for store in _stores(tmp_path, 3):
        with pytest.raises(ConsistencyError):
            store.merge_insert(
                1, np.array([5], dtype=np.int64), np.array([0], dtype=np.uint8), base=0
            )
        store.close()
    store = MemoryBucketStore(3)
    with pytest.raises(ConsistencyError):
        store.merge_insert(
            0, np.array([1, 1], dtype=np.int64), np.array([0, 0], dtype=np.uint8), base=0
        )
    # each violation on both sides of the small-batch cut, into an empty
    # bucket and into one of 30 symbols, on every store kind
    for k in (2, buckets.SPLICE_FEW_MAX + 1, 3 * buckets.SPLICE_FEW_MAX):
        for n0 in (0, 30):
            ok = np.arange(k, dtype=np.int64) + n0 // 2
            bad = {
                "negative first": ok - ok[0] - 1,
                "past the end": ok + (n0 - int(ok[0]) + 1),
                "repeated": np.concatenate([ok[:-1], ok[-2:-1]]),
                "decreasing": np.concatenate([ok[:-2], ok[-1:], ok[-2:-1]]),
            }
            for name, positions in bad.items():
                for store in _stores(tmp_path / f"v{k}_{n0}_{name.replace(' ', '_')}", 3):
                    if n0:
                        store.merge_insert(
                            1, np.arange(n0, dtype=np.int64), np.zeros(n0, dtype=np.uint8), base=0,
                            want_ranks=False,
                        )
                    with pytest.raises(ConsistencyError, match="insert positions"):
                        store.merge_insert(1, positions, np.zeros(k, dtype=np.uint8), base=0)
                    assert store.read(1).tolist() == [0] * n0, name
                    store.close()


def test_skip_rule_untouched_buckets_do_no_io(tmp_path):
    store = ExternalBucketStore(3, str(tmp_path / "skip"))
    store.merge_insert(0, np.array([0], dtype=np.int64), np.array([1], dtype=np.uint8), base=0)
    path0 = os.path.join(store.tmp_dir, "bucket_0.bin")
    with open(path0, "rb") as fh:
        file_bytes0 = fh.read()
    stat0 = os.stat(path0)
    for _ in range(10):
        store.merge_insert(5, np.array([0], dtype=np.int64), np.array([2], dtype=np.uint8), base=0)
    # an iteration's traffic only touches merged buckets: bucket 0 keeps its
    # file bytes, size and modification time, and its merge count
    assert store.merge_counts[0] == 1
    with open(path0, "rb") as fh:
        assert fh.read() == file_bytes0
    stat = os.stat(path0)
    assert (stat.st_size, stat.st_mtime_ns) == (stat0.st_size, stat0.st_mtime_ns)
    assert store.read(0).tolist() == [1]
    assert store.read(5).tolist() == [2] * 10
    store.close()


def test_flip_parity_counts_nonempty_merges(tmp_path):
    # no file pair flips: after an odd or an even number of merges the count
    # is exact and bucket 4's one file holds its current content
    rng = random.Random(32)
    store = ExternalBucketStore(3, str(tmp_path / "flip"))
    content = []
    for merges in range(1, rng.randint(6, 9) + 1):
        sym = rng.randrange(4)
        store.merge_insert(
            4, np.array([0], dtype=np.int64), np.array([sym], dtype=np.uint8), base=0
        )
        content.insert(0, sym)
        assert store.merge_counts[4] == merges
        assert os.listdir(store.tmp_dir) == ["bucket_4.bin"]
        assert store.read(4).tolist() == content
    store.close()


def test_short_bucket_io_raises_instead_of_short_content(tmp_path, monkeypatch):
    store = ExternalBucketStore(3, str(tmp_path / "short"))
    store.merge_insert(2, np.arange(9, dtype=np.int64), np.array([0, 1, 2, 3] * 2 + [1], dtype=np.uint8),
                       base=0)
    path = os.path.join(store.tmp_dir, "bucket_2.bin")
    assert os.path.getsize(path) == 3
    os.truncate(path, 2)
    with pytest.raises(BucketIOError, match="read 2 of 3 bytes"):
        store.read(2)
    with pytest.raises(BucketIOError, match="read 2 of 3 bytes"):
        store.merge_insert(2, np.array([0], dtype=np.int64), np.array([3], dtype=np.uint8), base=0)
    assert store.sizes[2] == 9 and store.merge_counts[2] == 1
    os.unlink(path)
    with pytest.raises(BucketIOError, match="No such file"):
        store.read(2)
    # a write that stops short of the packed content
    real_pwrite = os.pwrite
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: real_pwrite(fd, bytes(data)[:-1], offset))
    with pytest.raises(BucketIOError, match="short write"):
        store.merge_insert(4, np.arange(5, dtype=np.int64), np.zeros(5, dtype=np.uint8), base=0)
    assert store.sizes[4] == 0 and store.merge_counts[4] == 0
    store.close()


def test_close_unlinks_only_written_buckets(tmp_path, monkeypatch):
    store = ExternalBucketStore(12, str(tmp_path / "wide"))
    for o in (7, 4000):
        store.merge_insert(o, np.array([0, 1], dtype=np.int64), np.array([1, 2], dtype=np.uint8), base=0)
    unlinked = []
    real_unlink = os.unlink

    def counting_unlink(path, *args, **kwargs):
        unlinked.append(os.path.basename(path))
        return real_unlink(path, *args, **kwargs)

    monkeypatch.setattr(os, "unlink", counting_unlink)
    store.close()
    assert sorted(unlinked) == ["bucket_4000.bin", "bucket_7.bin"]
    assert not os.path.exists(store.tmp_dir)
    # a terminator-only bucket counts as merged but has no file
    store = ExternalBucketStore(12, str(tmp_path / "dollar_only"))
    store.merge_insert(9, np.array([0], dtype=np.int64), np.array([DOLLAR], dtype=np.uint8),
                       base=0, want_ranks=False)
    store.close()
    assert not os.path.exists(store.tmp_dir)


def test_terminator_side_list_in_packed_mode(tmp_path):
    store = ExternalBucketStore(3, str(tmp_path / "dollar"))
    store.merge_insert(
        0,
        np.arange(3, dtype=np.int64),
        np.array([0, 1, 2], dtype=np.uint8),
        base=0,
        want_ranks=False,
    )
    before = store.bytes_written
    store.merge_insert(
        0,
        np.array([1, 4], dtype=np.int64),
        np.array([DOLLAR, DOLLAR], dtype=np.uint8),
        base=0,
        want_ranks=False,
    )
    assert store.bytes_written == before  # no rewrite for the terminator round
    assert store.read(0).tolist() == [0, DOLLAR, 1, 2, DOLLAR]
    out = BytesIO()
    assert store.assemble(out) == 5
    assert out.getvalue() == b"A$CG$"
    store.close()


def test_packed_store_rejects_mixed_terminator_batches(tmp_path):
    store = ExternalBucketStore(3, str(tmp_path / "mixed"))
    with pytest.raises(ConsistencyError, match="mixed terminator"):
        store.merge_insert(
            0,
            np.array([0, 1], dtype=np.int64),
            np.array([0, DOLLAR], dtype=np.uint8),
            base=0,
            want_ranks=False,
        )
    with pytest.raises(ConsistencyError):
        store.merge_insert(
            0, np.array([5], dtype=np.int64), np.array([DOLLAR], dtype=np.uint8),
            base=0, want_ranks=False,
        )
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
        store.merge_insert(
            ordinal, np.array([0], dtype=np.int64), np.array([sym], dtype=np.uint8), base=0
        )
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
        outs = [
            s.merge_insert(
                ordinal, np.array(positions, dtype=np.int64), np.array(syms, dtype=np.uint8), base=0
            )
            for s in stores
        ]
        model[ordinal] = _naive_splice(model[ordinal], positions, syms)[0]
        assert outs[0].tolist() == outs[1].tolist()
        for s in stores[1:]:
            assert s.read(ordinal).tolist() == stores[0].read(ordinal).tolist()
    # the terminator round: one pure, unranked batch into several touched
    # buckets, first, last and inner positions included
    touched = [int(o) for o in np.flatnonzero(stores[0].sizes)]
    for ordinal in rng.sample(touched, 4):
        size = int(stores[0].sizes[ordinal])
        k = rng.randint(1, 3)
        positions = sorted({0, size + k - 1, *rng.sample(range(size + k), k)})
        for s in stores:
            dollars = np.full(len(positions), DOLLAR, dtype=np.uint8)
            assert s.merge_insert(ordinal, np.array(positions, dtype=np.int64), dollars, base=0,
                                  want_ranks=False) is None
        model[ordinal] = _naive_splice(model[ordinal], positions, [DOLLAR] * len(positions))[0]
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
    for k in (2, buckets.SPLICE_FEW_MAX + 1):
        for n0 in (0, 30):
            for at in (0, k - 1):
                for store in _stores(tmp_path / f"r{k}_{n0}_{at}", 3):
                    if n0:
                        store.merge_insert(1, np.arange(n0, dtype=np.int64),
                                           np.arange(n0, dtype=np.uint8) % 4, base=0, want_ranks=False)
                    content, sizes = store.read(1).tolist(), store.sizes.tolist()
                    syms = np.full(k, 2, dtype=np.uint8)
                    syms[at] = DOLLAR
                    with pytest.raises(ConsistencyError):
                        store.merge_insert(1, np.arange(k, dtype=np.int64) + n0 // 2, syms, base=0)
                    assert store.read(1).tolist() == content
                    assert store.sizes.tolist() == sizes
                    assert store.merge_counts[1] == (1 if n0 else 0)
                    store.close()
    # unranked, a batch mixing terminators with bases is refused, and so
    # is a bucket's second terminator batch
    for store in _stores(tmp_path / "unranked", 3):
        with pytest.raises(ConsistencyError, match="mixed terminator"):
            store.merge_insert(0, np.array([0, 1], dtype=np.int64),
                               np.array([DOLLAR, 1], dtype=np.uint8), base=0, want_ranks=False)
        store.merge_insert(0, np.array([0], dtype=np.int64), np.array([DOLLAR], dtype=np.uint8),
                           base=0, want_ranks=False)
        with pytest.raises(ConsistencyError, match="a second one"):
            store.merge_insert(0, np.array([1], dtype=np.int64), np.array([DOLLAR], dtype=np.uint8),
                               base=0, want_ranks=False)
        assert store.read(0).tolist() == [DOLLAR]
        assert store.sizes[0] == 1 and store.merge_counts[0] == 1
        store.close()
