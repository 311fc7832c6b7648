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
"""
from __future__ import annotations

import numpy as np

def path_steps(leaf, depth: int):
    """Yield ``(node, right)`` for the ``depth`` nodes above a leaf id, root first.

    In the implicit layout the node ``d`` levels above leaf id ``leaf`` is
    ``leaf >> d``, and the step below it goes right (to ``2 * node + 1``)
    exactly when bit ``d - 1`` of ``leaf`` is set. Works elementwise on
    Python ints and on integer arrays alike.
    """
    for d in range(depth, 0, -1):
        yield leaf >> d, (leaf >> (d - 1)) & 1


class TreeArray:
    def __init__(self, kappa: int):
        if kappa < 3:
            raise ValueError(f"kappa must be >= 3, got {kappa}")
        self.kappa = kappa
        self.n_leaves = 1 << kappa
        self.leaves_per_tree = self.n_leaves >> 2
        # extra all-zero row at index n_leaves pads the right-step gather
        self.counters = np.zeros((self.n_leaves + 1, 5), dtype=np.int64)
        self._node_lo = np.zeros(self.n_leaves, dtype=np.int64)
        self._node_mid = np.zeros(self.n_leaves, dtype=np.int64)
        self._fill_ranges()
        self._right_nodes = self._build_right_nodes()

    def _fill_ranges(self) -> None:
        stack = [(4 + x, x * self.leaves_per_tree, (x + 1) * self.leaves_per_tree) for x in range(4)]
        while stack:
            node, lo, hi = stack.pop()
            mid = (lo + hi) // 2
            self._node_lo[node] = lo
            self._node_mid[node] = mid
            if 2 * node < self.n_leaves:
                stack.append((2 * node, lo, mid))
                stack.append((2 * node + 1, mid, hi))

    def _build_right_nodes(self) -> np.ndarray:
        # one row per leaf: its right-step nodes from the root down, then the
        # all-zero pad row in the unused slots so a flat gather-sum works
        leaves = self.n_leaves + np.arange(self.n_leaves, dtype=np.int64)
        nodes, right = (np.column_stack(a) for a in zip(*path_steps(leaves, self.kappa - 2)))
        table = np.where(right == 1, nodes, self.n_leaves)
        order = np.argsort(right == 0, axis=1, kind="stable")
        return np.take_along_axis(table, order, axis=1)

    # -- per-iteration bulk operations ---------------------------------------

    def update_prefix_totals(self, per_tree_counts: np.ndarray) -> None:
        """Add one iteration's per-tree insertion counts to rows 0..3.

        ``per_tree_counts[x][c]`` is the number of symbols ``c`` inserted this
        iteration whose context starts with tree symbol ``x``. Row x receives
        the running sum over trees 0..x, restoring the cumulative invariant
        for the post-insertion state.
        """
        h = np.zeros(5, dtype=np.int64)
        for x in range(4):
            h += per_tree_counts[x]
            self.counters[x] += h

    def apply_left_increments(self, ordinals: np.ndarray, syms: np.ndarray) -> None:
        """Record one iteration's insertions in the internal-node counters.

        ``ordinals`` (sorted) are the target bucket ordinals, ``syms`` the
        inserted symbol codes. Every node whose left subtree contains a
        target bucket is incremented once per such insertion, which is
        exactly what per-entry left steps would do.
        """
        lo = self._node_lo[4:]
        mid = self._node_mid[4:]
        for c in np.unique(syms):
            oc = ordinals[syms == c]
            self.counters[4 : self.n_leaves, c] += np.searchsorted(oc, mid) - np.searchsorted(oc, lo)

    def accumulators_for(self, ordinals: np.ndarray) -> np.ndarray:
        """Per-bucket accumulators: counter sums over each path's right-step nodes.

        Must be called after :meth:`apply_left_increments` for the iteration;
        the counters then already include same-iteration insertions into
        buckets left of each queried one, which is the value a sequential
        left-before-right descent would read.
        """
        return self.counters[self._right_nodes[ordinals]].sum(axis=1)

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
