import random
import tracemalloc

import numpy as np
import pytest

from reference import TreeArray, leaf_ordinal, nav_directions, ordinal_context


def test_nav_directions_mapping():
    assert nav_directions("A") == ("left", "left")
    assert nav_directions("C") == ("left", "right")
    assert nav_directions("G") == ("right", "left")
    assert nav_directions("T") == ("right", "right")
    with pytest.raises(ValueError):
        nav_directions("$")


def test_nav_encoding_orders_leaves_lexicographically():
    contexts = [a + b for a in "ACGT" for b in "ACGT"]
    ordinals = [leaf_ordinal(ctx, 4) for ctx in contexts]
    assert ordinals == sorted(ordinals) == list(range(16))


def test_update_prefix_totals_worked_example():
    # two C into the A tree and two C into the C tree in one round
    tree = TreeArray(4)
    tree.counters[0, 1] = 1
    tree.counters[1, 1] = 1
    tree.counters[2, 1] = 1
    tree.counters[3, 1] = 1
    per_tree = np.zeros((4, 5), dtype=np.int64)
    per_tree[0, 1] = 2
    per_tree[1, 1] = 2
    tree.update_prefix_totals(per_tree)
    assert tree.counters[0, 1] == 3
    assert tree.counters[1, 1] == 5
    assert tree.counters[2, 1] == 5
    assert tree.counters[3, 1] == 5


def test_update_prefix_totals_zero_is_noop():
    tree = TreeArray(5)
    before = tree.counters.copy()
    tree.update_prefix_totals(np.zeros((4, 5), dtype=np.int64))
    assert np.array_equal(tree.counters, before)


def test_descend_shared_context_group():
    # two entries with context CG arrive at the C-tree root: one right step
    # picks up the root counters, both then step left at node 11 and land in
    # the leaf with array index 2*11 = 22
    tree = TreeArray(4)
    tree.counters[5] = [0, 0, 0, 1, 0]  # one T in the left subtree of the C root
    ordinals = np.array([6, 6], dtype=np.int64)  # leaf ordinal of context CG
    syms = np.array([1, 1], dtype=np.uint8)  # both insert C
    out = tree.descend(5, ordinals, syms, np.zeros(5, dtype=np.int64), 4, 8)
    assert len(out) == 1
    ordinal, start, end, r = out[0]
    assert ordinal == 6 and ordinal + tree.n_leaves == 22
    assert (start, end) == (0, 2)
    assert r.tolist() == [0, 0, 0, 1, 0]
    assert tree.counters[11, 1] == 2


def test_descend_all_left_path_keeps_zero_accumulator():
    tree = TreeArray(6)
    out = tree.descend(
        4, np.zeros(1, dtype=np.int64), np.array([2], dtype=np.uint8),
        np.zeros(5, dtype=np.int64), 0, tree.leaves_per_tree,
    )
    [(ordinal, start, end, r)] = out
    assert ordinal == 0
    assert r.sum() == 0
    # every node on the all-left path recorded the G
    node = 4
    while node < tree.n_leaves:
        assert tree.counters[node, 2] == 1
        node *= 2


def _random_state(rng, kappa):
    """A tree whose counters are consistent with random bucket contents."""
    n_leaves = 1 << kappa
    contents = [
        np.array([rng.randrange(4) for _ in range(rng.randrange(6))], dtype=np.uint8)
        for _ in range(n_leaves)
    ]
    tree = TreeArray(kappa)
    per_leaf = np.zeros((n_leaves, 5), dtype=np.int64)
    for o, content in enumerate(contents):
        for c in content:
            per_leaf[o, c] += 1
    cum = np.vstack([np.zeros(5, dtype=np.int64), np.cumsum(per_leaf, axis=0)])
    for node in range(4, n_leaves):
        lo, mid = tree._node_lo[node], tree._node_mid[node]
        tree.counters[node] = cum[mid] - cum[lo]
    L = tree.leaves_per_tree
    for x in range(4):
        tree.counters[x] = cum[(x + 1) * L]
    return tree, contents, per_leaf


def test_descend_accumulator_matches_bucket_scan():
    rng = random.Random(21)
    for kappa in (3, 4, 5):
        for _ in range(20):
            tree, contents, per_leaf = _random_state(rng, kappa)
            n = rng.randint(1, 12)
            ords = np.sort(np.array([rng.randrange(1 << kappa) for _ in range(n)], dtype=np.int64))
            syms = np.array([rng.randrange(4) for _ in range(n)], dtype=np.uint8)
            results = tree.descend_iteration(ords.copy(), syms.copy())
            L = tree.leaves_per_tree
            for ordinal, start, end, r in results:
                tree_base = (ordinal >> (kappa - 2)) * L
                # symbols left of the bucket inside its tree, including this
                # round's insertions into those buckets
                expect = per_leaf[tree_base:ordinal].sum(axis=0)
                for i in range(n):
                    if tree_base <= ords[i] < ordinal:
                        expect[syms[i]] += 1
                assert r.tolist() == expect.tolist(), (kappa, ordinal)


def test_bulk_updates_equal_reference_descent():
    # the bulk pair takes its batch in any order; the reference descends the
    # sorted batch. Batches of up to 2,000 entries, terminators included
    rng = random.Random(22)
    for kappa in range(3, 13):
        for n in [rng.randint(1, 20) for _ in range(6)] + [rng.randint(20, 2000) for _ in range(4)]:
            ords = np.sort(np.array([rng.randrange(1 << kappa) for _ in range(n)], dtype=np.int64))
            syms = np.array([rng.randrange(5) for _ in range(n)], dtype=np.uint8)
            ref, bulk = TreeArray(kappa), TreeArray(kappa)
            seed = np.random.default_rng(kappa * 100).integers(0, 50, size=ref.counters.shape)
            seed[-1] = 0  # pad row stays zero
            ref.counters += seed
            bulk.counters += seed
            expected = ref.descend_iteration(ords.copy(), syms.copy())
            shuffled = rng.sample(range(n), n)
            bulk.apply_left_increments(ords[shuffled], syms[shuffled])
            uniq = np.unique(ords)
            racc = bulk.accumulators_for(uniq)
            assert np.array_equal(ref.counters, bulk.counters), (kappa, n)
            by_ordinal = {o: r for o, _, _, r in expected}
            for i, o in enumerate(uniq):
                assert racc[i].tolist() == by_ordinal[int(o)].tolist(), (kappa, n, o)


def test_scalar_updates_equal_bulk_updates():
    rng = random.Random(24)
    for kappa in range(3, 9):
        for _ in range(20):
            n = rng.randint(1, 6)
            ords = np.sort(np.array([rng.randrange(1 << kappa) for _ in range(n)], dtype=np.int64))
            syms = np.array([rng.randrange(5) for _ in range(n)], dtype=np.uint8)
            bulk, scalar = TreeArray(kappa), TreeArray(kappa)
            seed = np.random.default_rng(kappa).integers(0, 50, size=bulk.counters.shape)
            seed[-1] = 0  # pad row stays zero
            bulk.counters += seed
            scalar.counters += seed
            per_tree = np.bincount((ords >> (kappa - 2)) * 5 + syms, minlength=20).reshape(4, 5)
            bulk.update_prefix_totals(per_tree)
            bulk.apply_left_increments(ords, syms)
            uniq = np.unique(ords)
            racc = bulk.accumulators_for(uniq)
            scalar.add_insertions(ords.tolist(), syms.tolist())
            assert np.array_equal(bulk.counters, scalar.counters)
            assert [scalar.accumulator(o) for o in uniq.tolist()] == racc.tolist()


def test_accumulators_of_every_leaf_equal_scalar_and_descent():
    # on one seeded state, the bulk gather, the scalar walk and a reference
    # descent of a single entry read the same right-step nodes of every leaf
    for kappa in range(3, 13):
        tree = TreeArray(kappa)
        tree.counters[:-1] = np.random.default_rng(kappa).integers(0, 50, size=(tree.n_leaves, 5))
        seeded = tree.counters.copy()
        bulk = tree.accumulators_for(np.arange(tree.n_leaves, dtype=np.int64))
        for o in range(tree.n_leaves):
            assert tree.accumulator(o) == bulk[o].tolist(), (kappa, o)
            [(_, _, _, r)] = tree.descend_iteration(np.array([o], dtype=np.int64), np.array([4], dtype=np.uint8))
            assert r.tolist() == bulk[o].tolist(), (kappa, o)
            tree.counters[:] = seeded  # undo the descent's left increments


def test_tree_footprint_at_largest_kappa():
    # counters plus the node ranges: 56 bytes a leaf, 29.4 MB at kappa 19
    tracemalloc.start()
    try:
        tree = TreeArray(19)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert tree.n_leaves == 1 << 19
    assert held <= 35e6, held


def test_level1_base():
    tree = TreeArray(4)
    tree.counters[0] = [7, 3, 2, 1, 0]
    tree.counters[1] = [9, 5, 4, 1, 0]
    assert tree.level1_base(0, 1) == 0
    assert tree.level1_base(1, 1) == 3
    assert tree.level1_base(2, 1) == 5
    with pytest.raises(ValueError):
        tree.level1_base(4, 0)


def test_level1_base_matches_bucket_scan():
    rng = random.Random(23)
    tree, contents, per_leaf = _random_state(rng, 4)
    L = tree.leaves_per_tree
    for x in range(1, 4):
        for c in range(4):
            expect = per_leaf[: x * L, c].sum()
            assert tree.level1_base(x, c) == expect


def test_half_level_layout():
    # odd kappa: 2**kappa leaves, a quarter per tree, reached in kappa-2 steps
    tree = TreeArray(5)
    assert tree.n_leaves == 32
    assert tree.leaves_per_tree == 8
    assert len(tree.counters) == 33
    # the final half step splits {A,C} from {G,T} on the last symbol
    assert leaf_ordinal("CGA", 5) == leaf_ordinal("CGC", 5)
    assert leaf_ordinal("CGG", 5) == leaf_ordinal("CGT", 5)
    assert leaf_ordinal("CGA", 5) + 1 == leaf_ordinal("CGG", 5)


def test_half_level_contexts_stay_lexicographic():
    contexts = [a + b + c for a in "ACGT" for b in "ACGT" for c in "ACGT"]
    ordinals = [leaf_ordinal(ctx, 5) for ctx in contexts]
    assert ordinals == sorted(ordinals)
    assert sorted(set(ordinals)) == list(range(32))


def test_ordinal_context_round_trip():
    for kappa in (3, 4, 5, 6):
        for o in range(1 << kappa):
            assert leaf_ordinal(ordinal_context(o, kappa), kappa) == o
