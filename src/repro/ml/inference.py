"""Packed-ensemble inference engine.

Scoring dominates the CATS workload: the detector is trained once on D0
but applied to millions of items (D1, the crawled E-platform).  The
model classes keep a per-tree reference path (``_BoostTree.predict``,
``DecisionTreeClassifier._leaf_values``) that walks one tree at a time
-- ~``n_trees * depth`` masked passes over the batch.  This module
freezes a fitted ensemble into one contiguous node arena and traverses
**all trees simultaneously**, advancing an ``(n_trees, block)``
node-index matrix one level per numpy pass.

Arena layouts
-------------
Two layouts share a single traversal loop:

* ``"heap"`` -- every tree is padded to a perfect binary tree of the
  ensemble's max depth ``D`` (``2**(D+1) - 1`` slots), stored in
  breadth-first heap order.  Children are *implicit*:
  ``child = 2*node + 1 + go_right - root``, so descending a level is
  three integer adds and no children gather.  Leaves shallower than
  ``D`` are planted down their left spine (padding slots keep the
  defaults ``threshold=+inf``, ``feature=0``, so rows fall left until
  the planted depth-``D`` slot).  Chosen whenever the ensemble is at
  most ``_HEAP_MAX_DEPTH`` deep; the padding is exponential in depth.
* ``"pointer"`` -- nodes are concatenated as-is with per-tree root
  offsets and an interleaved children table
  (``children[2*node + go_right]``); leaves self-loop.  No padding, so
  arbitrarily deep trees (unbounded CART) stay linear in node count.

Scoring has one path with no knobs: ``margins`` walks X in fixed
``_CHUNK_ROWS`` row chunks, so the transposed per-chunk copy of X and
the traversal buffers stay bounded however many rows arrive (a
full-D1 ``cats detect`` included).  Within a chunk, traversal is
cache-blocked: ``_BLOCK_ROWS`` rows are walked at a time through
preallocated ``(n_trees, block)`` buffers, all index buffers are
``np.intp`` (``np.take`` gathers are substantially faster with native
word indices than with narrower ones), and the chunk is transposed once
so the per-level value gather ``X.T.ravel()[feature * n + row]`` is
tree-major like the node matrix.

Bit-identity
------------
The packed margin is ``np.array_equal`` to the per-tree reference, not
merely close: both paths compare ``x <= threshold`` (packed negates to
``x > threshold``), gather the same float64 leaf weights, and
accumulate ``margin += scale_t * leaf_t`` sequentially in tree order --
binary-op for binary-op the reference loop.  Each row's result never
depends on the other rows of its chunk, so the chunking is invisible
in the output.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1

#: Deepest ensemble packed with the heap layout; beyond this the
#: ``2**(depth+1) - 1`` per-tree padding outweighs the saved gather and
#: the pointer layout takes over (unbounded-depth CART can be huge).
_HEAP_MAX_DEPTH = 10

#: Rows traversed per cache block.  The working set per block is
#: ``~5 * n_trees * block`` words; 256 keeps a 120-tree ensemble's
#: buffers inside L2, which measured fastest by a wide margin over
#: full-matrix traversal (whose (n_rows, n_trees) temporaries are
#: memory-bandwidth bound).
_BLOCK_ROWS = 256

#: Cache blocks per leaf-accumulation group.  The per-tree margin
#: accumulation must run sequentially over trees (bit-identity), so at
#: block granularity it is ``n_trees`` tiny axpy calls per 256 rows --
#: call overhead dominates.  Buffering 16 blocks of leaf indices and
#: accumulating 4096 rows at a time amortizes that overhead while the
#: operands stay cache-resident.
_ACC_BLOCKS = 16

#: Rows scored per chunk.  Bounds the working set of one ``margins``
#: call (the float64 transposed copy of the chunk is 512 KiB per
#: feature) without costing the single-chunk case anything.
_CHUNK_ROWS = 65536


def _tree_depth(
    children_left: np.ndarray,
    children_right: np.ndarray,
    feature: np.ndarray,
) -> int:
    """Depth of one flat-array tree.

    Builders append parents before children, so a single forward pass
    suffices; the ordering is asserted rather than assumed.
    """
    depth = np.zeros(len(feature), dtype=np.int64)
    max_depth = 0
    for node in range(len(feature)):
        if feature[node] != _LEAF:
            left = int(children_left[node])
            right = int(children_right[node])
            if left <= node or right <= node:
                raise ValueError(
                    "tree nodes must be stored parent-before-children"
                )
            child_depth = int(depth[node]) + 1
            depth[left] = child_depth
            depth[right] = child_depth
            if child_depth > max_depth:
                max_depth = child_depth
    return max_depth


class PackedEnsemble:
    """All trees of a fitted ensemble in one contiguous node arena.

    Every node occupies one slot across four parallel arrays:

    ======================  =================================================
    ``gather_feature``      split feature (0 on leaves/padding), ``np.intp``
    ``threshold``           split threshold; ``+inf`` on leaves/padding
    ``leaf_weight``         margin contribution; meaningful on leaf slots
    ``children``            pointer layout only: ``children[2*i + go_right]``
    ======================  =================================================

    ``root_offset[t]`` is tree *t*'s first slot; ``tree_scale[t]``
    multiplies its leaf contribution (GBDT: the learning rate, AdaBoost:
    the stage weight, CART: 1.0) and ``base_score`` seeds the margin.

    ``n_calls`` / ``n_rows`` count scoring activity so callers (the
    serving layer's ``/stats``) can confirm the packed path is engaged.
    """

    def __init__(
        self,
        gather_feature: np.ndarray,
        threshold: np.ndarray,
        leaf_weight: np.ndarray,
        root_offset: np.ndarray,
        tree_scale: np.ndarray,
        base_score: float,
        max_depth: int,
        n_features: int,
        layout: str,
        children: np.ndarray | None = None,
    ) -> None:
        if layout not in ("heap", "pointer"):
            raise ValueError(f"unknown arena layout {layout!r}")
        if layout == "pointer" and children is None:
            raise ValueError("pointer layout requires a children table")
        self.gather_feature = np.ascontiguousarray(
            gather_feature, dtype=np.intp
        )
        self.threshold = np.ascontiguousarray(threshold, dtype=np.float64)
        self.leaf_weight = np.ascontiguousarray(
            leaf_weight, dtype=np.float64
        )
        self.root_offset = np.ascontiguousarray(root_offset, dtype=np.intp)
        self.tree_scale = np.ascontiguousarray(tree_scale, dtype=np.float64)
        self.base_score = float(base_score)
        self.max_depth = int(max_depth)
        self.n_features = int(n_features)
        self.layout = layout
        self.children = (
            None
            if children is None
            else np.ascontiguousarray(children, dtype=np.intp)
        )
        # Python-float scales so the accumulation multiplies exactly like
        # the reference's `learning_rate * tree.predict(...)`.
        self._scales = [float(s) for s in self.tree_scale]
        # Heap child arithmetic: child = 2*node + 1 + go - root, per tree.
        self._heap_step = (
            (1 - self.root_offset)[:, None] if layout == "heap" else None
        )
        # Single unscaled tree with no base: assign the leaf gather
        # directly (exact for CART, including signed zeros).
        self._passthrough = (
            self.n_trees == 1
            and self.base_score == 0.0
            and self._scales[0] == 1.0
        )
        self.n_calls = 0
        self.n_rows = 0

    # -- construction -------------------------------------------------------

    @classmethod
    def from_node_arrays(
        cls,
        trees: list[tuple],
        tree_scale,
        base_score: float,
        n_features: int,
        layout: str | None = None,
    ) -> "PackedEnsemble":
        """Pack ``(children_left, children_right, feature, threshold,
        leaf_value)`` tuples, one per tree, into a single arena."""
        if not trees:
            raise ValueError("cannot pack an empty ensemble")
        depths = [_tree_depth(cl, cr, ft) for cl, cr, ft, _, _ in trees]
        max_depth = max(depths)
        if layout is None:
            layout = "heap" if max_depth <= _HEAP_MAX_DEPTH else "pointer"
        if layout == "heap":
            return cls._pack_heap(
                trees, tree_scale, base_score, n_features, max_depth
            )
        return cls._pack_pointer(
            trees, tree_scale, base_score, n_features, max_depth
        )

    @classmethod
    def _pack_heap(
        cls, trees, tree_scale, base_score, n_features, max_depth
    ) -> "PackedEnsemble":
        n_trees = len(trees)
        slots_per_tree = 2 ** (max_depth + 1) - 1
        n_slots = n_trees * slots_per_tree
        gather_feature = np.zeros(n_slots, dtype=np.intp)
        threshold = np.full(n_slots, np.inf, dtype=np.float64)
        leaf_weight = np.zeros(n_slots, dtype=np.float64)
        root_offset = np.arange(n_trees, dtype=np.intp) * slots_per_tree
        for t, (cl, cr, ft, th, lv) in enumerate(trees):
            base = t * slots_per_tree
            # (node, heap-local slot, depth), preorder.
            stack = [(0, 0, 0)]
            while stack:
                node, slot, depth = stack.pop()
                if ft[node] != _LEAF:
                    gather_feature[base + slot] = ft[node]
                    threshold[base + slot] = th[node]
                    stack.append((int(cl[node]), 2 * slot + 1, depth + 1))
                    stack.append((int(cr[node]), 2 * slot + 2, depth + 1))
                else:
                    # Plant the leaf down its left spine: the padding
                    # slots' +inf thresholds route every row left, so
                    # after exactly max_depth levels it sits on the
                    # slot holding this leaf's weight.
                    for _ in range(max_depth - depth):
                        slot = 2 * slot + 1
                    leaf_weight[base + slot] = lv[node]
        return cls(
            gather_feature=gather_feature,
            threshold=threshold,
            leaf_weight=leaf_weight,
            root_offset=root_offset,
            tree_scale=tree_scale,
            base_score=base_score,
            max_depth=max_depth,
            n_features=n_features,
            layout="heap",
        )

    @classmethod
    def _pack_pointer(
        cls, trees, tree_scale, base_score, n_features, max_depth
    ) -> "PackedEnsemble":
        n_trees = len(trees)
        counts = np.array([len(t[2]) for t in trees], dtype=np.intp)
        root_offset = np.concatenate(
            [[0], np.cumsum(counts)[:-1]]
        ).astype(np.intp)
        n_slots = int(counts.sum())
        gather_feature = np.zeros(n_slots, dtype=np.intp)
        threshold = np.full(n_slots, np.inf, dtype=np.float64)
        leaf_weight = np.zeros(n_slots, dtype=np.float64)
        children = np.empty(2 * n_slots, dtype=np.intp)
        for t, (cl, cr, ft, th, lv) in enumerate(trees):
            base = int(root_offset[t])
            idx = np.arange(len(ft), dtype=np.intp)
            internal = ft != _LEAF
            span = slice(base, base + len(ft))
            gather_feature[span] = np.where(internal, ft, 0)
            threshold[span] = np.where(internal, th, np.inf)
            leaf_weight[span] = lv
            # Leaves self-loop (go_right is always 0 there thanks to the
            # +inf threshold, but both slots point home regardless).
            children[2 * base : 2 * (base + len(ft)) : 2] = base + np.where(
                internal, cl, idx
            )
            children[2 * base + 1 : 2 * (base + len(ft)) : 2] = (
                base + np.where(internal, cr, idx)
            )
        return cls(
            gather_feature=gather_feature,
            threshold=threshold,
            leaf_weight=leaf_weight,
            root_offset=root_offset,
            tree_scale=tree_scale,
            base_score=base_score,
            max_depth=max_depth,
            n_features=n_features,
            layout="pointer",
            children=children,
        )

    @classmethod
    def from_gbdt(cls, model, layout: str | None = None) -> "PackedEnsemble":
        """Pack a fitted :class:`~repro.ml.gbdt.GradientBoostingClassifier`."""
        trees = [
            (
                tree.children_left,
                tree.children_right,
                tree.feature,
                tree.threshold,
                tree.leaf_weight,
            )
            for tree in model.trees_
        ]
        return cls.from_node_arrays(
            trees,
            tree_scale=np.full(len(trees), model.learning_rate),
            base_score=model.base_margin_,
            n_features=model.n_features_in_,
            layout=layout,
        )

    @classmethod
    def from_tree(cls, model, layout: str | None = None) -> "PackedEnsemble":
        """Pack a fitted :class:`~repro.ml.tree.DecisionTreeClassifier`;
        margins are the leaf P(fraud) values."""
        trees = [
            (
                model.children_left_,
                model.children_right_,
                model.feature_,
                model.threshold_,
                model.value_,
            )
        ]
        return cls.from_node_arrays(
            trees,
            tree_scale=np.ones(1),
            base_score=0.0,
            n_features=model.n_features_in_,
            layout=layout,
        )

    @classmethod
    def from_adaboost(
        cls, model, layout: str | None = None
    ) -> "PackedEnsemble":
        """Pack a fitted :class:`~repro.ml.adaboost.AdaBoostClassifier`.

        Leaf values become the stump's vote sign (the reference predicts
        class 1 when the leaf P(fraud) is >= 0.5) and the per-tree scale
        is the stage weight; the caller still divides by the weight sum
        exactly like the reference.
        """
        trees = [
            (
                stump.children_left_,
                stump.children_right_,
                stump.feature_,
                stump.threshold_,
                np.where(stump.value_ >= 0.5, 1.0, -1.0),
            )
            for stump in model.estimators_
        ]
        return cls.from_node_arrays(
            trees,
            tree_scale=np.asarray(model.estimator_weights_, dtype=np.float64),
            base_score=0.0,
            n_features=model.n_features_in_,
            layout=layout,
        )

    # -- introspection ------------------------------------------------------

    @property
    def n_trees(self) -> int:
        return len(self.root_offset)

    @property
    def n_slots(self) -> int:
        return len(self.threshold)

    # -- traversal ----------------------------------------------------------

    def _margins_chunk(self, X: np.ndarray, out: np.ndarray) -> None:
        """Margins of one chunk into *out* (pre-filled with the base
        score): blocked level-synchronous traversal."""
        n = X.shape[0]
        # Tree-major value gathers index the transposed matrix as
        # flat[feature * n + row].
        x_flat = np.ascontiguousarray(X.T).ravel()
        feature_n = self.gather_feature * n
        n_trees = self.n_trees
        block = min(_BLOCK_ROWS, n)
        group = min(_ACC_BLOCKS * block, n)
        node = np.empty((n_trees, block), dtype=np.intp)
        flat_idx = np.empty((n_trees, block), dtype=np.intp)
        go_right = np.empty((n_trees, block), dtype=np.intp)
        values = np.empty((n_trees, block), dtype=np.float64)
        thresholds = np.empty((n_trees, block), dtype=np.float64)
        group_nodes = np.empty((n_trees, group), dtype=np.intp)
        leaves = np.empty((n_trees, group), dtype=np.float64)
        row_in_block = np.arange(block, dtype=np.intp)[None, :]
        roots = self.root_offset[:, None]
        scales = self._scales
        # All gathers use mode="clip": every index is in range by
        # construction, and skipping np.take's per-element bounds
        # checking ("raise") is a measured ~25% kernel win.
        for gstart in range(0, n, group):
            gstop = min(gstart + group, n)
            for start in range(gstart, gstop, block):
                stop = min(start + block, gstop)
                b = stop - start
                nd = node[:, :b]
                fi = flat_idx[:, :b]
                go = go_right[:, :b]
                vl = values[:, :b]
                th = thresholds[:, :b]
                nd[:] = roots
                rows = row_in_block[:, :b] + start
                for _ in range(self.max_depth):
                    np.take(feature_n, nd, out=fi, mode="clip")
                    fi += rows
                    np.take(x_flat, fi, out=vl, mode="clip")
                    np.take(self.threshold, nd, out=th, mode="clip")
                    np.greater(vl, th, out=go, casting="unsafe")
                    nd += nd
                    nd += go
                    if self.layout == "heap":
                        nd += self._heap_step
                    else:
                        # children[2*node + go]; gather into a scratch
                        # buffer (np.take may not alias index and out).
                        np.take(self.children, nd, out=fi, mode="clip")
                        nd[:] = fi
                group_nodes[:, start - gstart : stop - gstart] = nd
            gb = gstop - gstart
            lw = leaves[:, :gb]
            np.take(
                self.leaf_weight, group_nodes[:, :gb], out=lw, mode="clip"
            )
            acc = out[gstart:gstop]
            if self._passthrough:
                acc[:] = lw[0]
            else:
                for t in range(n_trees):
                    acc += scales[t] * lw[t]

    def margins(self, X: np.ndarray) -> np.ndarray:
        """Ensemble margin per row of *X*, scored ``_CHUNK_ROWS`` rows
        at a time."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2:
            raise ValueError(f"X must be 2-D, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise ValueError(
                f"expected {self.n_features} features, got {X.shape[1]}"
            )
        n = X.shape[0]
        self.n_calls += 1
        self.n_rows += n
        out = np.full(n, self.base_score, dtype=np.float64)
        for start in range(0, n, _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, n)
            self._margins_chunk(X[start:stop], out[start:stop])
        return out

    def scoring_stats(self) -> dict[str, int]:
        """Activity counters (calls / rows scored through this arena)."""
        return {"calls": self.n_calls, "rows": self.n_rows}
