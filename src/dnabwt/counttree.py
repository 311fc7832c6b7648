"""Implicit-array count trees over the context buckets.

Four balanced binary trees (one per first context symbol) are stored in a
single array of 2**kappa rows using the implicit layout: roots at rows 4..7,
children of row i at 2i and 2i+1, leaf indices >= 2**kappa standing for the
context buckets, which are not stored here. Rows 0..3 hold running
cumulative per-symbol totals over the A-, A+C-, A+C+G- and all-tree leaves.

Each internal row carries five counters (A, C, G, T and terminator): the
number of symbols of that kind currently stored in the leaves of the row's
left subtree. The terminator slot is only ever touched in the final
iteration, when terminators are routed through the trees like any other
symbol so that simultaneous insertions still see each other.

``kappa`` is the number of navigation bits: each context symbol contributes
two (high bit then low bit, so A=00 < C=01 < G=10 < T=11 keeps leaves in
context order). An odd ``kappa`` consumes only the high bit of the last
context symbol, halving the final split ({A,C} left vs {G,T} right).

Node i spans 2**h leaves from leaf id ``i << h``, h = kappa + 1 - bit_length(i).
"""
from __future__ import annotations

import numpy as np


def _step(leaf, d):
    """The node ``d`` levels above leaf id ``leaf``, and 1 if the path steps
    right below it. Elementwise on Python ints and integer arrays alike."""
    return leaf >> d, (leaf >> (d - 1)) & 1


def path_steps(leaf, depth: int):
    """Yield :func:`_step` for the ``depth`` nodes above a leaf id, root first."""
    for d in range(depth, 0, -1):
        yield _step(leaf, d)


class TreeArray:
    def __init__(self, kappa: int):
        if kappa < 3:
            raise ValueError(f"kappa must be >= 3, got {kappa}")
        self.kappa = kappa
        self.n_leaves = 1 << kappa
        self.leaves_per_tree = self.n_leaves >> 2
        # extra all-zero row at index n_leaves pads the right-step gather
        self.counters = np.zeros((self.n_leaves + 1, 5), dtype=np.int64)
        # row i's left subtree holds the leaf ordinals [_node_lo[i], _node_mid[i])
        rows = np.arange(4, self.n_leaves, dtype=np.int64)
        half = self.n_leaves >> np.frexp(rows)[1]  # frexp's exponent is bit_length
        self._node_lo = np.zeros(self.n_leaves, dtype=np.int64)
        self._node_mid = np.zeros(self.n_leaves, dtype=np.int64)
        self._node_lo[4:] = 2 * rows * half - self.n_leaves
        self._node_mid[4:] = self._node_lo[4:] + half

    # -- per-iteration bulk operations ---------------------------------------

    def update_prefix_totals(self, per_tree_counts: np.ndarray) -> None:
        """Add one iteration's per-tree insertion counts to rows 0..3.

        ``per_tree_counts[x][c]`` is the number of symbols ``c`` inserted this
        iteration whose context starts with tree symbol ``x``. Row x receives
        the running sum over trees 0..x, restoring the cumulative invariant
        for the post-insertion state.
        """
        self.counters[:4] += per_tree_counts.cumsum(axis=0)

    def apply_left_increments(self, ordinals: np.ndarray, syms: np.ndarray) -> None:
        """Record one iteration's insertions in the internal-node counters.

        ``ordinals`` are the target bucket ordinals, in any order, ``syms``
        the inserted symbol codes. Each node gains the insertions into its
        left subtree, counted per symbol from the cumulative per-leaf
        histogram, as a recount of the bucket contents would count them.
        """
        n = self.n_leaves
        cum = np.zeros((n + 1, 5), dtype=np.int64)
        np.cumsum(np.bincount(ordinals * 5 + syms, minlength=5 * n).reshape(n, 5), axis=0, out=cum[1:])
        self.counters[4:n] += cum.take(self._node_mid[4:], axis=0) - cum.take(self._node_lo[4:], axis=0)

    def accumulators_for(self, ordinals: np.ndarray) -> np.ndarray:
        """Per-bucket accumulators: counter sums over each path's right-step nodes.

        Must be called after :meth:`apply_left_increments` for the iteration;
        the counters then already include same-iteration insertions into
        buckets left of each queried one, which is the value a sequential
        left-before-right descent would read. Left-step slots gather the
        all-zero pad row.
        """
        d = np.arange(self.kappa - 2, 0, -1)
        nodes, right = _step(self.n_leaves + ordinals[:, None], d)
        return self.counters.take(np.where(right == 1, nodes, self.n_leaves), axis=0).sum(axis=1)

    # -- scalar forms for rounds with few insertions ---------------------------

    def add_insertions(self, ordinals: list[int], syms: list[int]) -> None:
        """Scalar :meth:`update_prefix_totals` plus :meth:`apply_left_increments`.

        Same arguments as :meth:`apply_left_increments`, as Python int lists;
        each insertion walks its own path instead of a per-round batch.
        """
        cv = memoryview(self.counters)
        depth = self.kappa - 2
        for o, s in zip(ordinals, syms):
            for x in range(o >> depth, 4):
                cv[x, s] += 1
            for node, right in path_steps(self.n_leaves + o, depth):
                if not right:
                    cv[node, s] += 1

    def accumulator(self, ordinal: int) -> list[int]:
        """Scalar :meth:`accumulators_for` of one bucket, as five Python ints.

        Like the bulk form, it must follow the round's :meth:`add_insertions`.
        """
        cv = memoryview(self.counters)
        acc = [0] * 5
        for node, right in path_steps(self.n_leaves + ordinal, self.kappa - 2):
            if right:
                for c in range(5):
                    acc[c] += cv[node, c]
        return acc
