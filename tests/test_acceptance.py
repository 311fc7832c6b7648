"""Acceptance gate: every criterion prints one pass/fail line.

Criteria are property-based (exact byte equality against brute-force
references) plus small hand-checked numeric anchors and two loose
desk-scale performance bounds.
"""
import random
import time

import numpy as np
import pytest

from dnabwt import Config, WordCollection, build, invert, naive_bwt
from dnabwt.engine import BwtBuilder, StartBitvector
from dnabwt.oracle import count_smaller, rank
from conftest import synthetic_reads
from reference import TreeArray, bucket_offsets, leaf_ordinal, next_insert_position, sb_rank


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


def _random_collection(rng: random.Random) -> WordCollection:
    m = rng.randint(1, 25)
    return WordCollection.from_words(
        ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 40))) for _ in range(m)]
    )


@pytest.fixture(scope="module")
def corpus_5mb():
    return synthetic_reads(seed=123, n_reads=33_400)


def test_criterion_1_oracle_equivalence():
    mismatches = 0
    for i in range(1000):
        rng = random.Random(0xC0FFEE + i)
        c = _random_collection(rng)
        expected = naive_bwt(c)
        for kappa in (3, 4, 5, 6, 7, 8):
            got = build(c, Config(kappa=kappa, backend="memory"))
            if got != expected:
                mismatches += 1
    _report(1, "oracle equivalence", mismatches == 0,
            f"(1000 collections x 6 kappa values, {mismatches} mismatches)")


def test_criterion_2_worked_example_anchors():
    ok = True
    # partial-transform anchor: rank/count of the next-position arithmetic
    bwt6 = b"CTCCGAACCGCCG"
    r, cnt = rank(bwt6, 8, "C"), count_smaller(bwt6, "C")
    alpha7 = 4
    ok &= r == 4 and cnt == 2 and r + cnt + alpha7 == 10

    # count-tree fixture: two equal-context entries route to one bucket and
    # come back with consecutive next positions 3 and 4
    tree = TreeArray(4)
    tree.counters[5] = [0, 0, 0, 1, 0]
    tree.counters[0:4, 1] = 1
    per_tree = np.zeros((4, 5), dtype=np.int64)
    per_tree[0, 1] = 2  # two C into the A tree
    per_tree[1, 1] = 2  # two C into the C tree (the fixture's entries)
    tree.update_prefix_totals(per_tree)
    ok &= int(tree.counters[0, 1]) == 3
    ordinal = leaf_ordinal("CG", 4)
    results = tree.descend(
        5,
        np.array([ordinal, ordinal], dtype=np.int64),
        np.array([1, 1], dtype=np.uint8),
        np.zeros(5, dtype=np.int64),
        4, 8,
    )
    (leaf, start, end, racc) = results[0]
    ok &= leaf == ordinal and int(racc.sum()) == 1
    from reference import MemoryBucketStore

    store = MemoryBucketStore(4)
    captured = store.merge_insert(
        leaf, np.array([1, 2], dtype=np.int64), np.array([1, 1], dtype=np.uint8),
        base=int(racc.sum()),
    )
    nxt = [
        next_insert_position(1, 1, tree, r_c=int(racc[1]), rankk=int(k), alpha_next=4)
        for k in captured
    ]
    ok &= nxt == [3, 4]

    # activation-rank fixture
    sb = StartBitvector(9)
    sb.set_many(np.array([2, 3, 7, 8]))
    ok &= sb_rank(sb, 7) == 2
    _report(2, "worked-example anchors", ok,
            f"(rank={r}, count={cnt}, next={r + cnt + alpha7}, positions={nxt}, sb_rank={sb_rank(sb, 7)})")


def test_criterion_3_inversion_round_trip():
    bad = 0
    for i in range(500):
        rng = random.Random(0xBEEF + i)
        c = _random_collection(rng)
        out = build(c, Config(kappa=5, backend="memory"))
        if invert(out, c.m) != c.words():
            bad += 1
    _report(3, "inversion round trip", bad == 0, f"(500 collections, {bad} failures)")


def test_criterion_4_kappa_invariance(corpus_5mb):
    outputs = {}
    for kappa in range(3, 11):
        outputs[kappa] = build(corpus_5mb, Config(kappa=kappa, backend="memory"))
    reference = outputs[3]
    ok = all(v == reference for v in outputs.values())
    _report(4, "kappa invariance", ok,
            f"(kappa 3..10 on {corpus_5mb.total_length} symbols)")


def test_criterion_5_backend_and_thread_determinism(corpus_5mb, tmp_path):
    mem = build(corpus_5mb, Config(kappa=5, backend="memory"))
    ext_1 = build(corpus_5mb, Config(kappa=5, backend="external", threads=1,
                                     tmp_dir=str(tmp_path)))
    ext_n = build(corpus_5mb, Config(kappa=5, backend="external", threads=None,
                                     tmp_dir=str(tmp_path)))
    ok = mem == ext_1 == ext_n
    _report(5, "backend and thread determinism", ok,
            "(memory == external/1 thread == external/max threads)")


def test_criterion_6_bucket_offset_consistency():
    bad = 0
    for i in range(200):
        rng = random.Random(0xABBA + i)
        c = _random_collection(rng)
        kappa = rng.choice([3, 4, 5, 6, 7, 8])
        with BwtBuilder(c, Config(kappa=kappa, backend="memory")) as builder:
            builder.run()
            sizes = builder.bucket_sizes()
        offsets = bucket_offsets(c, kappa)
        expected_sizes = np.diff(np.concatenate([offsets, [c.total_length]]))
        if not np.array_equal(sizes, expected_sizes):
            bad += 1
    _report(6, "bucket-offset consistency", bad == 0, f"(200 collections, {bad} failures)")


class _SpliceOracle:
    """Rebuilds each partial transform with plain lists and global positions.

    Independent of the engine: positions advance by the literal
    rank + smaller-count + started-words rule over a materialised list.
    """

    def __init__(self, collection: WordCollection):
        self.c = collection
        self.bwt: list[int] = []
        self.positions: dict[int, int] = {}
        self.active: set[int] = set()

    def step(self, t: int) -> None:
        c, M = self.c, self.c.max_length
        for j in range(c.m):
            if M - c.length(j) == t:
                self.active.add(j)
        for j in sorted(self.active):
            if M - c.length(j) == t:
                self.positions[j] = sum(1 for z in self.active if z < j)
        alpha_next = sum(1 for j in range(c.m) if M - c.length(j) <= t + 1)
        entries = sorted((p, j) for j, p in self.positions.items())
        inserted = []
        for p, j in entries:
            sym = 4 if t == M else int(c.fetch_codes(np.asarray([j]), t)[0])
            self.bwt.insert(p, sym)
            inserted.append((p, j, sym))
        if t == M:
            return
        for p, j, sym in inserted:
            r = self.bwt[:p].count(sym)
            smaller = sum(1 for x in self.bwt if x < sym)
            self.positions[j] = r + smaller + alpha_next


def _recount_tree(store, kappa: int) -> np.ndarray:
    tree = TreeArray(kappa)
    per_leaf = np.zeros((tree.n_leaves, 5), dtype=np.int64)
    for o in range(tree.n_leaves):
        per_leaf[o] = np.bincount(store.read(o), minlength=5)[:5]
    cum = np.vstack([np.zeros(5, dtype=np.int64), np.cumsum(per_leaf, axis=0)])
    expected = np.zeros_like(tree.counters)
    for node in range(4, tree.n_leaves):
        expected[node] = cum[tree._node_mid[node]] - cum[tree._node_lo[node]]
    for x in range(4):
        expected[x] = cum[(x + 1) * tree.leaves_per_tree]
    return expected


def test_criterion_7_structural_invariants():
    failures = []
    for i in range(20):
        rng = random.Random(0xFACE + i)
        words = ["".join(rng.choice("ACGT") for _ in range(rng.randint(1, 14)))
                 for _ in range(rng.randint(1, 8))]
        c = WordCollection.from_words(words)
        kappa = rng.choice([3, 4, 5])
        oracle = _SpliceOracle(c)

        def check(builder):
            oracle.step(builder.t)
            content = np.concatenate(
                [builder.store.read(o) for o in range(1 << kappa)]
            ).tolist()
            if content != oracle.bwt:
                failures.append((i, builder.t, "content"))
            expected = _recount_tree(builder.store, kappa)
            if not np.array_equal(expected[: 1 << kappa], builder.tree.counters[: 1 << kappa]):
                failures.append((i, builder.t, "counters"))

        build(c, Config(kappa=kappa, backend="memory"), inspect=check)
    _report(7, "structural invariants", not failures,
            f"(20 instrumented runs, every iteration; failures: {failures[:3]})")


def _plain_counting_pass(chunks: list[bytes]) -> dict:
    # deliberately unvectorised: one interpreted tally per symbol
    counts = {65: 0, 67: 0, 71: 0, 84: 0}
    for chunk in chunks:
        for b in chunk:
            counts[b] += 1
    return counts


def test_criterion_8_desk_scale_performance():
    corpus = synthetic_reads(seed=99, n_reads=333_400)
    data = [corpus.word(j) for j in range(corpus.m)]

    t0 = time.perf_counter()
    counts = _plain_counting_pass(data)
    baseline = time.perf_counter() - t0
    assert sum(counts.values()) == corpus.total_length - corpus.m

    times = {}
    for kappa in range(3, 9):
        t0 = time.perf_counter()
        out = build(corpus, Config(kappa=kappa, backend="memory"))
        times[kappa] = time.perf_counter() - t0
        assert len(out) == corpus.total_length

    ratio = times[5] / baseline
    spread = times[5] / min(times.values())
    ok = ratio < 10.0 and spread <= 2.0
    _report(8, "desk-scale performance sanity", ok,
            f"(build/counting-pass ratio {ratio:.2f} < 10, kappa-5 vs best spread {spread:.2f} <= 2)")
