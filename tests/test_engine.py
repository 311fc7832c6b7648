import errno
import itertools
import os
import random
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnabwt.buckets as buckets
import dnabwt.collection as collection
import dnabwt.engine as engine
from dnabwt import Config, ConfigError, WordCollection, build, naive_bwt
from dnabwt.buckets import BucketIOError
from dnabwt.engine import (
    BwtBuilder,
    StartBitvector,
    next_positions,
    plan_iteration,
    stable_radix_step,
)
from conftest import random_collection
from reference import TreeArray, next_insert_position, sb_rank
from test_acceptance import _recount_tree, _SpliceOracle

# SPARSE_MAX settings that force every round onto one path (the final
# terminator round is always dense)
ROUND_PATHS = {"dense": 0, "sparse": 1 << 30}


def test_build_single_letter_word():
    assert build(WordCollection.from_words(["A"]), Config(kappa=4, backend="memory")) == b"A$"


def test_build_two_words_matches_reference():
    c = WordCollection.from_words(["AC", "C"])
    out = build(c, Config(kappa=4, backend="memory"))
    assert out == naive_bwt(c) == b"CC$A$"


def test_build_edge_shapes():
    cases = [["A"], ["T"], ["A", "A", "A"], ["AT"], ["ACGT" * 5, "G"], ["G", "ACGT" * 5]]
    for words in cases:
        c = WordCollection.from_words(words)
        for kappa in (3, 4, 5):
            assert build(c, Config(kappa=kappa, backend="memory")) == naive_bwt(c), (words, kappa)


def test_build_deterministic_across_runs():
    c = WordCollection.from_words(["GATTACA", "TAG", "CCCCCCCCCC"])
    cfg = Config(kappa=5, backend="memory")
    assert build(c, cfg) == build(c, cfg)


def test_build_thread_count_invariance():
    rng = random.Random(41)
    for _ in range(5):
        c = random_collection(rng)
        one = build(c, Config(kappa=4, backend="external", threads=1))
        many = build(c, Config(kappa=4, backend="external", threads=8))
        assert one == many


def test_external_build_starts_no_threads(tmp_path):
    # builds merge on the calling thread whatever ``threads`` says: no round,
    # and nothing left after close, adds a thread
    rng = random.Random(43)
    words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 40))) for _ in range(60)]
    c = WordCollection.from_words(words)
    before = threading.active_count()
    counts = []
    config = Config(kappa=4, backend="external", threads=2, tmp_dir=str(tmp_path))
    with BwtBuilder(c, config) as builder:
        assert builder.run(inspect=lambda b: counts.append(threading.active_count())) == naive_bwt(c)
    assert len(counts) == c.max_length + 1
    assert max(counts) <= before
    assert threading.active_count() <= before


def _rand_words(rng, lengths):
    return ["".join(rng.choice("ACGT") for _ in range(n)) for n in lengths]


@pytest.mark.parametrize("chunk", [1, 7, 64, buckets.RANK_CHUNK])
def test_external_build_compacts_once_at_its_first_ranked_dense_round(chunk, tmp_path, monkeypatch):
    # the external store keeps the sparse prefix in RAM, with no read or
    # write of its bucket file, and compacts it into the file at the first
    # dense round: the first ranked one, after no sparse round, one, and
    # many, and in a build with no ranked dense round the terminator round.
    # Every window size gives the oracle's transform
    monkeypatch.setattr(buckets, "RANK_CHUNK", chunk)
    rng = random.Random(74)
    builds = {
        "terminator round only": _rand_words(rng, [9, 3, 14, 1, 14]),
        "no sparse round": _rand_words(rng, [12] * 40),
        "one sparse round": _rand_words(rng, [12] * 20 + [11] * 20),
        "many sparse rounds": _rand_words(rng, [50] + [rng.randint(3, 10) for _ in range(40)]),
    }
    real_compact = buckets.BucketStore._compact
    real_io = {name: getattr(os, name) for name in ("pread", "pwrite")}
    for name, words in builds.items():
        c = WordCollection.from_words(words)
        starts = sorted(c.max_length - len(w) for w in words)
        first = min((t for t in range(c.max_length) if sum(s <= t for s in starts) > engine.SPARSE_MAX),
                    default=c.max_length)
        compacted, gapless, file_io = [], [], []
        with BwtBuilder(c, Config(kappa=4, backend="external", tmp_dir=str(tmp_path))) as builder:
            monkeypatch.setattr(buckets.BucketStore, "_compact",
                                lambda self: compacted.append(builder.t) or real_compact(self))
            for io, real in real_io.items():
                def traced(fd, *args, real=real):
                    if fd == builder.store._fd:
                        file_io.append(bool(compacted))  # whether the compaction has begun
                    return real(fd, *args)
                monkeypatch.setattr(os, io, traced)
            out = builder.run(inspect=lambda b: gapless.append(b.store._begin is not None))
        assert out == naive_bwt(c), name
        assert compacted == [first], name
        assert file_io and all(file_io), name
        assert gapless == [t >= first for t in range(c.max_length + 1)], name
    assert not list(tmp_path.iterdir())


def test_external_build_bounds_memory(tmp_path, monkeypatch):
    # the external backend holds windows of the transform, never the whole:
    # as 450 words grow from 150 to 600 symbols, the traced peak of an
    # external run() grows by less than two windows' bytes, while the
    # memory backend's holds the whole content and a window's spliced
    # codes. The window is cut to 2^16 symbols and the counting pass's
    # chunk to 2^13, so that the windows are full in both builds and set
    # the peak
    window = 1 << 16
    monkeypatch.setattr(buckets, "RANK_CHUNK", window)
    monkeypatch.setattr(collection, "_COUNT_CHUNK", 1 << 13)
    rng = np.random.default_rng(75)
    peaks = {}
    for n in (150, 600):
        words = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, (450, n))]
        c = WordCollection.from_words([w.tobytes() for w in words])
        for backend in ("external", "memory"):
            with BwtBuilder(c, Config(kappa=5, backend=backend, tmp_dir=str(tmp_path))) as builder, \
                    open(tmp_path / "out.bwt", "wb") as out:
                tracemalloc.start()
                try:
                    assert builder.run(out=out) == c.total_length
                    peaks[backend, n] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        assert peaks["memory", n] >= c.total_length + window
    assert peaks["external", 600] - peaks["external", 150] < 2 * window


def test_activation_schedule_costs_memory_per_word_not_per_round(monkeypatch):
    # one 5,000,000-symbol word among 1,000 reads of 150: the schedule keeps
    # the words that start only for the rounds where some do, so it and a
    # sparse prefix that ends at round 0 peak under 1 MB, where a table of
    # every round held 16 bytes a round (80 MB traced)
    rng = np.random.default_rng(79)
    acgt = np.frombuffer(b"ACGT", dtype=np.uint8)
    words = [acgt[rng.integers(0, 4, 5_000_000)].tobytes()] + \
        [w.tobytes() for w in acgt[rng.integers(0, 4, (1000, 150))]]
    c = WordCollection.from_words(words)
    monkeypatch.setattr(engine, "SPARSE_MAX", 0)
    with BwtBuilder(c, Config(kappa=5, backend="memory")) as builder:
        builder.store = buckets.BucketStore(np.zeros(1 << 5, dtype=np.int64))
        sb = StartBitvector(c.m)
        tracemalloc.start()
        try:
            builder._prepare_starts()
            first, _ = builder._sparse_rounds(sb, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert first == 0 and peak < 1 << 20


def test_context_counts_peak_stays_below_one_pass_window():
    # the bucket-size count before round 0 works a chunk of symbols at a
    # time, so that its temporaries peak below what one window of a dense
    # round's pass holds, and a run()'s traced peak is set by its rounds.
    # 2,000 words of 150 symbols hold several counting chunks and, in the
    # last rounds, more than one full window of the default size
    rng = np.random.default_rng(76)
    words = np.frombuffer(b"ACGT", dtype=np.uint8)[rng.integers(0, 4, (2000, 150))]
    c = WordCollection.from_words([w.tobytes() for w in words])
    assert c.total_length > max(4 * collection._COUNT_CHUNK, buckets.RANK_CHUNK)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        c.context_counts(3, 1)
        counting = tracemalloc.get_traced_memory()[1] - before
        rounds = []

        def peak(builder):
            now, top = tracemalloc.get_traced_memory()
            rounds.append(top - now)
            tracemalloc.reset_peak()

        with BwtBuilder(c, Config(kappa=5, backend="memory")) as builder:
            builder.run(inspect=peak)
    finally:
        tracemalloc.stop()
    assert counting < max(rounds)


def test_config_validation():
    with pytest.raises(ConfigError):
        Config(kappa=2)
    with pytest.raises(ConfigError):
        Config(kappa=40)
    assert Config(kappa=engine.MAX_KAPPA).kappa == 19
    with pytest.raises(ConfigError, match=r"\[3, 19\], got 20: .* 2\*\*20 leaves x 56 bytes \(59 MB\)"):
        Config(kappa=20)
    with pytest.raises(ConfigError):
        Config(backend="tape")
    assert Config(threads=0).threads == 1


def test_sb_rank():
    sb = StartBitvector(8)
    assert sb_rank(sb, 5) == 0
    sb.bits[:] = [0, 1, 1, 0, 1, 0, 1, 0]
    assert sb_rank(sb, 7) == 4
    assert sb_rank(sb, 0) == 0


def test_sb_rank_active_words_fixture():
    # words 2 and 3 active, 7 and 8 newly started: two set bits below 7
    sb = StartBitvector(9)
    sb.set_many(np.array([2, 3, 7, 8]))
    assert sb_rank(sb, 7) == 2
    assert sb_rank(sb, 8) == 3


def test_activation_positions_fixture():
    # length layout putting words 2,3 in flight and starting 7,8 at t=6
    lengths = {0: 1, 1: 2, 2: 10, 3: 7, 4: 1, 5: 2, 6: 3, 7: 4, 8: 4}
    words = ["".join(random.Random(j).choice("ACGT") for _ in range(n))
             for j, n in sorted(lengths.items())]
    builder = BwtBuilder(WordCollection.from_words(words), Config(kappa=4, backend="memory"))
    builder._prepare_starts()
    sb = StartBitvector(9)
    positions = {}
    for t in range(7):
        new_js, new_pos = builder.activate_new_words(sb, t)
        positions.update(zip(new_js.tolist(), new_pos.tolist()))
    assert positions[7] == 2
    assert positions[8] == 3
    assert builder.alpha == 4
    builder.close()


def test_activation_at_zero_is_index_order():
    words = ["ACGTA", "CCCCC", "GGGGG", "T"]
    builder = BwtBuilder(WordCollection.from_words(words), Config(kappa=4, backend="memory"))
    builder._prepare_starts()
    sb = StartBitvector(4)
    new_js, new_pos = builder.activate_new_words(sb, 0)
    assert new_js.tolist() == [0, 1, 2]
    assert new_pos.tolist() == [0, 1, 2]
    builder.close()


def test_activation_ranks_match_popcount_oracle():
    rng = random.Random(42)
    for _ in range(20):
        m = rng.randint(1, 30)
        words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 15)))
                 for _ in range(m)]
        c = WordCollection.from_words(words)
        builder = BwtBuilder(c, Config(kappa=4, backend="memory"))
        builder._prepare_starts()
        sb = StartBitvector(m)
        seen = set()
        for t in range(c.max_length + 1):
            new_js, new_pos = builder.activate_new_words(sb, t)
            for j, p in zip(new_js.tolist(), new_pos.tolist()):
                seen.add(j)
                assert p == sum(1 for z in seen if z < j)
        assert len(seen) == m
        builder.close()


def test_alpha_counts_started_words_every_iteration():
    rng = random.Random(43)
    for _ in range(10):
        c = random_collection(rng)
        lengths = c.lengths
        observed = {}

        def snap(builder):
            observed[builder.t] = builder.alpha

        build(c, Config(kappa=4, backend="memory"), inspect=snap)
        for t in range(c.max_length + 1):
            expect = int(np.sum(c.max_length - lengths <= t))
            assert observed[t] == expect


def test_next_insert_position_worked_examples():
    tree = TreeArray(4)
    tree.counters[0] = [0, 3, 0, 0, 0]  # three C stored in the A tree
    # two C entries into bucket CG: ranks 0 and 1 captured during the write
    assert next_insert_position(1, 1, tree, r_c=0, rankk=0, alpha_next=4) == 3
    assert next_insert_position(1, 1, tree, r_c=0, rankk=1, alpha_next=4) == 4
    # an A inserted under an all-A context owes only the started-word offset
    assert next_insert_position(0, 0, tree, r_c=0, rankk=0, alpha_next=5) == 5


def test_next_insert_position_terminator_is_final():
    tree = TreeArray(4)
    with pytest.raises(ValueError):
        next_insert_position(0, 4, tree, r_c=0, rankk=0, alpha_next=1)


def test_next_insert_position_alpha_term_follows_inserted_symbol():
    # inserting A from a non-A tree still owes alpha_next; inserting a
    # non-A symbol from the A tree does not
    tree = TreeArray(4)
    tree.counters[0] = [2, 0, 1, 0, 0]
    assert next_insert_position(1, 0, tree, r_c=1, rankk=1, alpha_next=6) == 2 + 1 + 1 + 6
    assert next_insert_position(0, 2, tree, r_c=0, rankk=2, alpha_next=6) == 2


def test_next_positions_matches_scalar_rule():
    tree = TreeArray(4)
    tree.counters[0] = [0, 3, 0, 0, 0]  # three C stored in the A tree
    tree.counters[1] = [2, 4, 1, 0, 0]
    tree.counters[2] = [5, 4, 3, 1, 0]
    # the worked examples: two C entries into bucket CG with captured ranks
    # 0 and 1 come out at 3 and 4; an A under an all-A context owes alpha_next
    got = next_positions(
        tree.counters, np.array([1, 1, 0]), np.array([1, 1, 0], dtype=np.uint8),
        np.zeros(3, dtype=np.int64), np.array([0, 1, 0]), 4,
    )
    assert got.tolist() == [3, 4, 4]
    rng = random.Random(56)
    for _ in range(50):
        n = rng.randint(1, 12)
        xs = [rng.randrange(4) for _ in range(n)]
        ss = [rng.randrange(4) for _ in range(n)]
        accs = [rng.randrange(20) for _ in range(n)]
        ranks = [rng.randrange(20) for _ in range(n)]
        alpha_next = rng.randrange(10)
        expected = [
            next_insert_position(x, s, tree, r_c=a, rankk=r, alpha_next=alpha_next)
            for x, s, a, r in zip(xs, ss, accs, ranks)
        ]
        dense = next_positions(
            tree.counters, np.array(xs), np.array(ss, dtype=np.uint8),
            np.array(accs), np.array(ranks), alpha_next,
        )
        cv = memoryview(tree.counters)
        sparse = [
            next_positions(cv, x, s, a, r, alpha_next) for x, s, a, r in zip(xs, ss, accs, ranks)
        ]
        assert dense.tolist() == sparse == expected


def test_plan_iteration_groups():
    uniq, bounds = plan_iteration(np.array([6, 6], dtype=np.int64))
    assert uniq.tolist() == [6]
    assert bounds.tolist() == [0, 2]
    uniq, bounds = plan_iteration(np.zeros(5, dtype=np.int64))
    assert uniq.tolist() == [0]
    assert bounds.tolist() == [0, 5]


def test_plan_iteration_matches_groupby_oracle():
    rng = random.Random(44)
    for _ in range(30):
        ords = np.sort(
            np.array([rng.randrange(16) for _ in range(rng.randint(1, 40))], dtype=np.int64)
        )
        uniq, bounds = plan_iteration(ords)
        expected = [(k, len(list(g))) for k, g in itertools.groupby(ords.tolist())]
        assert uniq.tolist() == [k for k, _ in expected]
        assert np.diff(bounds).tolist() == [n for _, n in expected]
        # the list form of sparse rounds groups identically
        luniq, lbounds = plan_iteration(ords.tolist())
        assert (luniq, lbounds) == (uniq.tolist(), bounds.tolist())
    assert plan_iteration([]) == ([], [0])


def test_stable_radix_step_singleton():
    syms = np.array([2], dtype=np.uint8)
    (j,) = stable_radix_step(syms, np.array([5]))
    assert j.tolist() == [5]


def test_stable_radix_step_active_word_fixture():
    # started words 7 and 8 precede the in-flight words 2 and 3 (context CG);
    # partitioning on the symbols just inserted yields the next round's order
    j = np.array([7, 8, 2, 3])
    syms = np.array([2, 0, 1, 1], dtype=np.uint8)  # G, A, C, C
    (j2,) = stable_radix_step(syms, j)
    assert j2.tolist() == [8, 2, 3, 7]


def test_stable_radix_step_matches_comparison_sort():
    rng = random.Random(45)
    for _ in range(20):
        n = 100
        syms = np.array([rng.randrange(4) for _ in range(n)], dtype=np.uint8)
        # per symbol group, draw (context, position) pairs and hand them out
        # in sorted order, mirroring the monotonicity of real states
        ctx, pos = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
        for c in range(4):
            idx = np.flatnonzero(syms == c)
            pairs = sorted(
                (c * 16 + rng.randrange(16), rng.randrange(1000)) for _ in idx
            )
            for i, (cv, pv) in zip(idx, pairs):
                ctx[i], pos[i] = cv, pv
        got_ctx, got_pos = stable_radix_step(syms, ctx, pos)
        expected = sorted(zip(ctx.tolist(), pos.tolist()))
        assert list(zip(got_ctx.tolist(), got_pos.tolist())) == expected


def test_active_list_sorted_by_context_then_position_every_iteration():
    rng = random.Random(48)
    for _ in range(10):
        c = random_collection(rng)
        kappa = rng.choice([3, 4, 5])
        drop = 2 * (((kappa + 1) // 2)) - kappa

        def check(builder):
            _, pos, ctx = builder.active_state
            assert np.all(np.diff(ctx) >= 0)
            # tree-relative positions strictly increase within each tree
            tree_of = (ctx >> drop) >> (kappa - 2)
            for x in range(4):
                p = pos[tree_of == x]
                assert np.all(np.diff(p) > 0)

        build(c, Config(kappa=kappa, backend="memory"), inspect=check)


def test_half_level_and_full_level_builds_agree():
    rng = random.Random(47)
    for _ in range(15):
        c = random_collection(rng)
        five = build(c, Config(kappa=5, backend="memory"))
        six = build(c, Config(kappa=6, backend="memory"))
        assert five == six == naive_bwt(c)


def test_build_output_length_and_terminators():
    rng = random.Random(46)
    for _ in range(10):
        c = random_collection(rng)
        out = build(c, Config(kappa=5, backend="memory"))
        assert len(out) == c.total_length
        assert out.count(b"$") == c.m


def test_kappa_warning_on_oversized_tree():
    c = WordCollection.from_words(["ACGT"])
    with pytest.warns(RuntimeWarning, match="kappa=8"):
        BwtBuilder(c, Config(kappa=8, backend="memory")).close()


def test_no_kappa_warning_at_the_least_kappa():
    # kappa 3 is the least allowed, so even the smallest input suggests it
    c = WordCollection.from_words(["ACGT"])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # conftest silences these warnings
        BwtBuilder(c, Config(kappa=3, backend="memory")).close()
    assert [str(w.message) for w in caught] == []


def test_build_highly_diverse_lengths():
    # the core use case: word lengths spanning three orders of magnitude
    rng = random.Random(49)
    long_word = "".join(rng.choice("ACGT") for _ in range(3000))
    words = [long_word]
    for _ in range(40):
        words.append("".join(rng.choice("ACGT") for _ in range(rng.randint(1, 12))))
    rng.shuffle(words)
    c = WordCollection.from_words(words)
    expected = naive_bwt(c)
    for kappa in (3, 5, 8):
        assert build(c, Config(kappa=kappa, backend="memory")) == expected
    assert build(c, Config(kappa=5, backend="external", threads=2)) == expected


def test_build_heavy_tailed_length_mix():
    rng = random.Random(54)
    pool = [1, 1, 2, 3, 4, 7, 12, 40, 90, 250]
    for _ in range(8):
        words = ["".join(rng.choice("ACGT") for _ in range(rng.choice(pool)))
                 for _ in range(rng.randint(2, 14))]
        c = WordCollection.from_words(words)
        expected = naive_bwt(c)
        for kappa in (3, 6, 9):
            assert build(c, Config(kappa=kappa, backend="memory")) == expected


def test_build_every_iteration_activates_a_word():
    rng = random.Random(55)
    lengths = list(range(1, 16))
    rng.shuffle(lengths)
    words = ["".join(rng.choice("ACGT") for _ in range(n)) for n in lengths]
    c = WordCollection.from_words(words)
    expected = naive_bwt(c)
    for kappa in (3, 4, 5, 10, 11):
        assert build(c, Config(kappa=kappa, backend="memory")) == expected


def test_build_single_letter_words_fill_terminator_only_buckets():
    # length-1 words: every terminator lands in a bucket its word never
    # wrote a base into
    c = WordCollection.from_words(["A", "C", "G", "T", "C"])
    assert build(c, Config(kappa=4, backend="memory")) == naive_bwt(c)


def test_build_identical_words_diverse_counts():
    for words in (["ACG"] * 7, ["A"] * 9, ["TTTT", "TTTT", "TT"]):
        c = WordCollection.from_words(words)
        assert build(c, Config(kappa=5, backend="memory")) == naive_bwt(c)




def test_backends_agree_bucket_for_bucket_after_build():
    # after a build, both backends' buckets have the counted final sizes and
    # the external one reads back what the memory one holds
    rng = random.Random(53)
    c = random_collection(rng)
    with BwtBuilder(c, Config(kappa=4, backend="memory")) as mem:
        mem.run()
        with BwtBuilder(c, Config(kappa=4, backend="external", threads=1)) as ext:
            ext.run()
            assert mem.store.sizes.tolist() == ext.store.sizes.tolist() == ext.store.final.tolist()
            assert mem.store.final.tolist() == ext.store.final.tolist()
            for o in range(len(ext.store.sizes)):
                np.testing.assert_array_equal(ext.store.read(o), mem.store.read(o))


@pytest.mark.parametrize("backend", ["memory", "external"])
def test_bucket_contents_stay_in_their_slots(backend, monkeypatch):
    # checked every round, the last one (terminators) included, before close:
    # no bucket outgrows the size counted before round 0, and the external
    # store is one file of the counted sizes' packed bytes, opened once
    rng = random.Random(53)
    c = random_collection(rng)
    seen, opened = [], []
    real_open = os.open
    monkeypatch.setattr(os, "open", lambda *a, **k: opened.append(a[0]) or real_open(*a, **k))

    def check(builder):
        store = builder.store
        assert (store.sizes <= store.final).all()
        if backend == "external":
            assert os.listdir(store.tmp_dir) == ["buckets.bin"]
            assert os.path.getsize(store._path) == (int(store.final.sum()) + 3) // 4
        seen.append(builder.t)

    with BwtBuilder(c, Config(kappa=4, backend=backend, threads=1)) as builder:
        assert builder.run(inspect=check) == naive_bwt(c)
        assert builder.store.sizes.tolist() == builder.store.final.tolist()
    assert seen[-1] == c.max_length
    assert [os.path.basename(p) for p in opened] == (["buckets.bin"] if backend == "external" else [])


@pytest.mark.parametrize("backend", ["memory", "external"])
def test_counted_sizes_that_differ_from_the_build_raise(backend, monkeypatch, tmp_path):
    # a count one short fails the merge that outgrows its slot; one over
    # fails the check of the final sizes
    c = WordCollection.from_words(["GATTACA", "CCTGA", "TTAGGCA"])
    counts = WordCollection.context_counts
    for delta, message in ((-1, "overflow its counted final size"), (1, "differ from the counted")):
        def miscount(self, n_sym, drop, delta=delta):
            out = counts(self, n_sym, drop)
            out[int(np.argmax(out))] += delta
            return out

        monkeypatch.setattr(WordCollection, "context_counts", miscount)
        with pytest.raises(engine.ConsistencyError, match=message):
            build(c, Config(kappa=4, backend=backend, tmp_dir=str(tmp_path)))
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("fail_at", [1, 30])
def test_external_build_surfaces_write_errors(tmp_path, monkeypatch, fail_at):
    # a full disk on the bucket file's first write, the compaction's
    # (fail_at=1), or on a later one, a dense round's pass (fail_at=30), is
    # a BucketIOError, and the build still removes its bucket directory.
    # Ten copies of four words: 7 sparse rounds, then 35 dense ones
    c = WordCollection.from_words(["GATTACAGATTACA" * 3, "CCTGA" * 7, "TTAGGCATTAGGCA" * 3, "ACGTACGT" * 5] * 10)
    calls = itertools.count(1)
    real_pwrite = os.pwrite

    def pwrite(fd, data, offset):
        if next(calls) == fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return real_pwrite(fd, data, offset)

    monkeypatch.setattr(os, "pwrite", pwrite)
    with pytest.raises(BucketIOError, match="No space left"):
        build(c, Config(kappa=4, backend="external", threads=2, tmp_dir=str(tmp_path)))
    assert next(calls) > fail_at
    assert not list(tmp_path.glob("dnabwt_*"))


def test_external_build_removes_temp_files_on_every_exit(tmp_path):
    # a build that completes and one stopped by an exception mid-run both
    # leave no bucket directory behind; the stopped one had files on disk
    c = WordCollection.from_words(["GATTACA", "CCTGA", "TTAGGCA", "ACGTACGT"])
    config = Config(kappa=4, backend="external", threads=2, tmp_dir=str(tmp_path))
    assert build(c, config) == naive_bwt(c)
    assert not list(tmp_path.glob("dnabwt_*"))

    class Stop(Exception):
        pass

    def stop(builder):
        if builder.t == 4:
            assert list(tmp_path.glob("dnabwt_*/buckets.bin"))
            raise Stop

    with pytest.raises(Stop):
        build(c, config, inspect=stop)
    assert not list(tmp_path.glob("dnabwt_*"))


@pytest.mark.parametrize("backend", engine.BACKENDS)
def test_second_run_is_refused_before_any_state_changes(backend, tmp_path):
    c = WordCollection.from_words(["GATTACA", "CCTGA", "TTAGGCA"])
    builder = BwtBuilder(c, Config(kappa=4, backend=backend, tmp_dir=str(tmp_path)))
    assert builder.run() == naive_bwt(c)
    store, counters, alpha = builder.store, builder.tree.counters.copy(), builder.alpha
    with pytest.raises(RuntimeError, match=r"run\(\) builds once: make a new BwtBuilder"):
        builder.run()
    assert builder.store is store and builder.alpha == alpha
    assert np.array_equal(builder.tree.counters, counters)
    builder.close()
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("backend", engine.BACKENDS)
def test_run_writes_the_transform_to_a_stream_a_bucket_at_a_time(backend, tmp_path):
    c = random_collection(random.Random(59), max_m=20)
    pieces = []

    class Stream:
        def write(self, data):
            pieces.append(bytes(data))

    with BwtBuilder(c, Config(kappa=4, backend=backend, tmp_dir=str(tmp_path))) as builder:
        assert builder.run(out=Stream()) == c.total_length
        assert len(pieces) == np.count_nonzero(builder.store.sizes) > 1
    assert b"".join(pieces) == naive_bwt(c)


def test_every_small_collection_over_two_letters(tmp_path):
    # bounded-exhaustive: every collection of 1 to 3 words of length 1 to 3
    # over {A, C}, duplicates and every order included. Words shorter than
    # the context are where the bucket count reads A past a word's end
    words = ["".join(p) for n in (1, 2, 3) for p in itertools.product("AC", repeat=n)]
    cases = [ws for m in (1, 2, 3) for ws in itertools.product(words, repeat=m)]
    assert len(cases) == 2954
    failures = []
    for i, ws in enumerate(cases):
        c = WordCollection.from_words(ws)
        expected = naive_bwt(c)
        for kappa in (3, 4, 7):
            for backend in ("memory", "external") if i % 10 == 0 else ("memory",):
                if build(c, Config(kappa=kappa, backend=backend, tmp_dir=str(tmp_path))) != expected:
                    failures.append((ws, kappa, backend))
    assert not failures, failures[:5]
    assert not list(tmp_path.iterdir())


@st.composite
def long_tail_words(draw):
    """One long word among short ones, in any order: the sparse-round case."""
    dna = st.text(alphabet="ACGT", min_size=1, max_size=8)
    words = draw(st.lists(dna, max_size=10))
    words.append(draw(st.text(alphabet="ACGT", min_size=20, max_size=120)))
    return draw(st.permutations(words))


@settings(max_examples=40, deadline=None)
@given(
    words=long_tail_words(),
    kappa=st.integers(3, 8),
    backend=st.sampled_from(["memory", "external"]),
    rank_chunk=st.sampled_from([1, 5, buckets.RANK_CHUNK]),
)
def test_round_paths_match_oracle(words, kappa, backend, rank_chunk):
    # every round dense, then every round before the last sparse; dense
    # rounds pass over the content a window at a time: of one symbol, of a
    # few and the default
    c = WordCollection.from_words(words)
    expected = naive_bwt(c)
    for cut in ROUND_PATHS.values():
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(engine, "SPARSE_MAX", cut)
            mp.setattr(buckets, "RANK_CHUNK", rank_chunk)
            assert build(c, Config(kappa=kappa, backend=backend, threads=2)) == expected, cut


def _record_merges(mp, merges):
    """Wrap ``merge_insert`` on both backends so that every call appends
    (bounds, positions, symbols, ordinal) to ``merges``."""
    real = buckets.BucketStore.merge_insert

    def merge_insert(self, ordinal, positions, syms, base, *, bounds=None):
        merges.append((bounds, positions, syms, ordinal))
        return real(self, ordinal, positions, syms, base, bounds=bounds)

    mp.setattr(buckets.BucketStore, "merge_insert", merge_insert)


@settings(max_examples=30, deadline=None)
@given(
    words=long_tail_words(),
    more=st.lists(st.text(alphabet="ACGT", min_size=1, max_size=8), max_size=48),
    tail=st.integers(1, 8),
    kappa=st.integers(3, 8),
    backend=st.sampled_from(["memory", "external"]),
)
def test_merges_take_one_form_per_round_kind(words, more, tail, kappa, backend):
    # sparse rounds merge one bucket ranked, as Python int lists of at most
    # SPARSE_MAX entries of bases. Ranked dense rounds merge all their
    # entries in one call, as arrays of bases with an ordinal per touched
    # bucket and the bounds of its group of entries, on both backends; the
    # terminator round is one call of the same arrays, of terminators only,
    # made last. SPARSE_MAX + 1 words of ``tail`` symbols
    # make the rounds from their start on dense, so every build has a
    # ranked dense round
    rng = random.Random(tail)
    even = _rand_words(rng, [tail] * (engine.SPARSE_MAX + 1))
    c = WordCollection.from_words(words + more + even)
    merges = []
    with pytest.MonkeyPatch.context() as mp:
        _record_merges(mp, merges)
        assert build(c, Config(kappa=kappa, backend=backend)) == naive_bwt(c)
    forms = []
    for bounds, positions, syms, ordinal in merges:
        if bounds is not None:
            assert type(ordinal) is type(positions) is type(syms) is np.ndarray
            assert len(bounds) == len(ordinal) + 1 and bounds[0] == 0 and bounds[-1] == len(syms)
            assert (np.diff(bounds) > 0).all() and (np.diff(ordinal) > 0).all()
            dollars = syms == collection.DOLLAR
            assert dollars.all() or not dollars.any()
            forms.append("terminators" if dollars.all() else "array")
        else:
            assert type(positions) is type(syms) is list and len(syms) <= engine.SPARSE_MAX
            assert max(syms) <= 3
            forms.append("list")
    assert "array" in forms
    # no form goes back to an earlier one: sparse rounds first, then the
    # dense ones, and the terminator round alone, last
    assert forms == sorted(forms, key=["list", "array", "terminators"].index)
    assert forms.count("terminators") == 1 and forms[-1] == "terminators"
    assert len(merges[-1][2]) == c.m
    # every symbol is inserted through merge_insert once
    assert sum(len(syms) for *_, syms, _ in merges) == c.total_length


@pytest.mark.parametrize("backend", engine.BACKENDS)
def test_copies_of_one_word_merge_sparse_max_ranked_entries_into_one_bucket(backend, monkeypatch):
    # 32 copies of one word share every context, so each sparse round
    # merges all 32 into one bucket, ranked: the largest merge a sparse
    # round makes
    word = "".join(random.Random(58).choice("ACGT") for _ in range(300))
    c = WordCollection.from_words([word] * engine.SPARSE_MAX)
    merges = []
    _record_merges(monkeypatch, merges)
    assert build(c, Config(kappa=3, backend=backend)) == naive_bwt(c)
    sparse = [len(syms) for bounds, _, syms, _ in merges if bounds is None]
    assert sparse == [engine.SPARSE_MAX] * len(word)
    # the terminator round, the one dense round, merges all of them into one bucket
    assert [(len(ordinal), bounds.tolist()) for bounds, _, _, ordinal in merges if bounds is not None] == \
        [(1, [0, engine.SPARSE_MAX])]
    assert sum(len(syms) for *_, syms, _ in merges) == c.total_length


def _check_every_round(c, kappa, backend, tmp_path):
    """Build ``c``, checking after every round that the active list is
    sorted by (context, position), that the bucket contents equal an
    independent splice reference and that the tree counters equal a
    recount of them. Returns the rounds that ran dense."""
    drop = 2 * ((kappa + 1) // 2) - kappa
    oracle = _SpliceOracle(c)
    failures, dense = [], []

    def check(builder):
        _, pos, ctx = builder.active_state
        assert np.all(np.diff(ctx) >= 0)
        tree_of = (ctx >> drop) >> (kappa - 2)
        for x in range(4):
            assert np.all(np.diff(pos[tree_of == x]) > 0)
        oracle.step(builder.t)
        content = np.concatenate([builder.store.read(o) for o in range(1 << kappa)])
        if content.tolist() != oracle.bwt:
            failures.append((builder.t, "content"))
        if not np.array_equal(_recount_tree(builder.store, kappa)[: 1 << kappa], builder.tree.counters[: 1 << kappa]):
            failures.append((builder.t, "counters"))

    real = BwtBuilder._dense_round
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(BwtBuilder, "_dense_round", lambda self, t, *a: dense.append(t) or real(self, t, *a))
        config = Config(kappa=kappa, backend=backend, tmp_dir=str(tmp_path))
        assert build(c, config, inspect=check) == naive_bwt(c)
    assert not failures, failures[:3]
    return dense


@pytest.mark.parametrize("backend", engine.BACKENDS)
def test_sparse_prefix_edges_match_oracle_every_round(backend, tmp_path):
    # the sparse loop runs every round before the last while at most
    # SPARSE_MAX words are active, and hands the dense rounds their first
    # round and state. Checked every round against the splice reference:
    # words starting in mid-prefix that lift the active count from
    # SPARSE_MAX to SPARSE_MAX + 1, a collection whose every round before
    # the last is sparse, and words that start at round 0, few or more
    # than SPARSE_MAX of them
    rng = random.Random(77)
    n = engine.SPARSE_MAX
    cases = {
        "lifted past SPARSE_MAX at round 25": (_rand_words(rng, [40] + [30] * (n - 1) + [15, 15]), 25),
        "every round sparse": (_rand_words(rng, [rng.randint(1, 45) for _ in range(n - 1)] + [45]), 45),
        "three start at round 0": (_rand_words(rng, [20, 7, 20, 1, 20, 12]), 20),
        "more than SPARSE_MAX start at round 0": (_rand_words(rng, [9] * (n + 1) + [3]), 0),
    }
    for name, (words, first_dense) in cases.items():
        c = WordCollection.from_words(words)
        for kappa in (3, 5):
            dense = _check_every_round(c, kappa, backend, tmp_path)
            assert dense == list(range(first_dense, c.max_length + 1)), (name, kappa)
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("kappa", [3, 10])
def test_memory_dense_rounds_read_the_old_content_at_most_once(kappa, monkeypatch):
    # in RAM a ranked dense round is one pass over the gapless content: it
    # reads at most the content it starts from, whatever the bucket count.
    # The first such round compacts the slots, which reads the content once
    # more, and only that round does. Windows of the default size and of 64
    rng = random.Random(78)
    c = WordCollection.from_words(_rand_words(rng, [600] + [rng.randint(20, 150) for _ in range(300)]))
    expected = naive_bwt(c)
    for window in (buckets.RANK_CHUNK, 64):
        monkeypatch.setattr(buckets, "RANK_CHUNK", window)
        rounds, compacted = [], []
        real_many, real_compact = buckets.BucketStore.merge_many, buckets.BucketStore._compact

        def merge_many(self, *args):
            read, content = self.bytes_read, int(self.sizes.sum())
            out = real_many(self, *args)
            if args[3].max() <= 3:  # a round of bases, ranked
                rounds.append((self.bytes_read - read, content))
            return out

        def compact(self):
            read = self.bytes_read
            real_compact(self)
            compacted.append(self.bytes_read - read)

        with monkeypatch.context() as mp:
            mp.setattr(buckets.BucketStore, "merge_many", merge_many)
            mp.setattr(buckets.BucketStore, "_compact", compact)
            assert build(c, Config(kappa=kappa, backend="memory")) == expected
        assert len(rounds) > 100 and len(compacted) == 1
        assert rounds[0][0] - compacted[0] <= rounds[0][1] and compacted[0] == rounds[0][1]
        assert all(read <= content for read, content in rounds[1:]), window


_DNA = st.text(alphabet="ACGT", min_size=1, max_size=12)


@st.composite
def duplicate_and_periodic_words(draw):
    """Copies of a few words, and repeats of a short period cut anywhere."""
    bases = draw(st.lists(_DNA, min_size=1, max_size=3))
    words = draw(st.lists(st.sampled_from(bases), min_size=1, max_size=8))
    period = draw(st.text(alphabet="ACGT", min_size=1, max_size=4))
    for n in draw(st.lists(st.integers(1, 40), max_size=5)):
        words.append((period * 40)[:n])
    return draw(st.permutations(words))


@st.composite
def homopolymers(draw):
    """Runs of one letter, some of equal length, with a few mixed words."""
    runs = st.builds(lambda ch, n: ch * n, st.sampled_from("ACGT"), st.integers(1, 40))
    words = draw(st.lists(runs, min_size=1, max_size=10)) + draw(st.lists(_DNA, max_size=2))
    return draw(st.permutations(words))


@st.composite
def suffix_and_prefix_families(draw):
    """Suffixes and prefixes of one word, each possibly more than once."""
    word = draw(st.text(alphabet="ACGT", min_size=2, max_size=30))
    cuts = draw(st.lists(st.integers(0, len(word) - 1), min_size=1, max_size=12))
    words = [word] + [word[i:] if i % 2 else word[: i + 1] for i in cuts]
    return draw(st.permutations(words))


def many_one_letter_words():
    """Up to 40 words of one letter, with at most one longer word among them."""
    return st.builds(
        lambda ones, extra, at: ones[:at] + extra + ones[at:],
        st.lists(st.sampled_from("ACGT"), min_size=1, max_size=40),
        st.lists(_DNA, max_size=1),
        st.integers(0, 40),
    )


def words_shorter_than_the_context():
    """Words of 1 to 5 letters: shorter than the 6-letter context at kappa 12."""
    return st.lists(st.text(alphabet="ACGT", min_size=1, max_size=5), min_size=1, max_size=20)


REPETITIVE = {
    "duplicate_and_periodic": duplicate_and_periodic_words(),
    "homopolymers": homopolymers(),
    "suffix_and_prefix_families": suffix_and_prefix_families(),
    "many_one_letter_words": many_one_letter_words(),
    "shorter_than_the_context": words_shorter_than_the_context(),
}


@pytest.mark.parametrize("family", REPETITIVE)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_repetitive_collections_match_naive(family, data):
    # equal suffixes of different words, where multi-string builders go
    # wrong, on both backends and at kappa up to 12 (4,096 leaves)
    c = WordCollection.from_words(data.draw(REPETITIVE[family], label="words"))
    expected = naive_bwt(c)
    for kappa in (3, 4, 7, 10, 12):
        for backend in engine.BACKENDS:
            assert build(c, Config(kappa=kappa, backend=backend)) == expected, (kappa, backend)


@pytest.mark.parametrize("path", ROUND_PATHS)
def test_round_invariants_on_both_paths(path, monkeypatch):
    # every round: the active list sorted by (context, position), the bucket
    # contents equal to an independent splice reference, and the tree
    # counters equal to a recount of those contents
    monkeypatch.setattr(engine, "SPARSE_MAX", ROUND_PATHS[path])
    rng = random.Random(57)
    failures = []
    for i in range(12):
        words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 6)))
                 for _ in range(rng.randint(0, 6))]
        words.insert(rng.randint(0, len(words)), "".join(rng.choice("ACGT") for _ in range(30)))
        c = WordCollection.from_words(words)
        kappa = rng.choice([3, 4, 5, 6])
        drop = 2 * ((kappa + 1) // 2) - kappa
        oracle = _SpliceOracle(c)

        def check(builder):
            _, pos, ctx = builder.active_state
            assert np.all(np.diff(ctx) >= 0)
            tree_of = (ctx >> drop) >> (kappa - 2)
            for x in range(4):
                assert np.all(np.diff(pos[tree_of == x]) > 0)
            oracle.step(builder.t)
            content = np.concatenate([builder.store.read(o) for o in range(1 << kappa)])
            if content.tolist() != oracle.bwt:
                failures.append((i, builder.t, "content"))
            expected = _recount_tree(builder.store, kappa)
            if not np.array_equal(expected[: 1 << kappa], builder.tree.counters[: 1 << kappa]):
                failures.append((i, builder.t, "counters"))

        assert build(c, Config(kappa=kappa, backend="memory"), inspect=check) == naive_bwt(c)
    assert not failures, failures[:3]
