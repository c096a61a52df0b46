"""RP-Trie construction (paper §III-B, §III-C, Appendix B).

Three build modes:

* ``"basic"``  — insert the full z-value sequence in trajectory order
  (required for order-sensitive measures: Frechet, DTW, ERP, EDR, LCSS).
* ``"dedup"``  — order-independent measures only (Hausdorff): keep one
  z-value per distinct cell, first-occurrence order (the *unoptimized*
  trie of Fig. 7).
* ``"opt"``    — ``dedup`` plus greedy hitting-set z-value re-arrangement
  (§III-C / Appendix B): each level's children are chosen most-frequent-
  first over the remaining z-value sets, using the C(Z) − C(Z^z1)
  frequency-difference bookkeeping from the appendix.

Every node has an ``HR[N_p]`` (min,max) pivot-distance array, one per
path-compressed chain, whose nodes share it; every leaf carries the
trajectory ids and ``D_max`` (max distance from stored trajectories to
the node's reference trajectory). The frozen trie is a set of chain
arrays, and the search reads one ``Chain`` record per chain.
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from .zorder import Grid, ref_points, ref_trajectory


class Leaf:
    """$-terminated leaf: trajectory ids + D_max + pivot HR (§III-B).

    Insertion fills ``tids`` and ``dmax``; the leaves of the frozen chain
    records also carry the exact ``hr`` (None without pivots).
    """

    __slots__ = ("tids", "dmax", "hr")

    def __init__(self, tids=None, dmax: float = 0.0, hr=None):
        self.tids: list[int] = [] if tids is None else tids
        self.dmax = dmax
        self.hr: np.ndarray | None = hr


class Node:
    """Build-time trie node labelled with a z-value.

    Insertion, ``RPTrie.iter_nodes`` and the succinct encoder read these
    nodes; the search reads the frozen ``Chain`` records instead.
    """

    __slots__ = ("z", "depth", "children", "leaf")

    def __init__(self, z: int, depth: int):
        self.z = z
        self.depth = depth
        self.children: dict[int, Node] = {}
        self.leaf: Leaf | None = None


class Chain:
    """Frozen search record of one path-compressed chain.

    A chain is a maximal run of trie nodes that starts at a child of the
    root, of a branch or of a leaf node, and goes on through single-child,
    leaf-free nodes. The record stands for the run's last node:
    ``depth``, ``max_suffix``, ``children`` (the chains starting below it)
    and ``leaf`` are that node's; ``refpts`` / ``rects`` hold the geometry
    of every node on the run. The run's nodes cover the same trajectories,
    so they share one HR: ``hr`` is the stored float32 (min, max) widened
    by one ulp, which keeps the pivot bound admissible.
    """

    __slots__ = ("refpts", "rects", "depth", "max_suffix", "hr", "children", "leaf")

    def __init__(self, refpts, rects, depth: int, max_suffix: int, hr):
        self.refpts = refpts
        self.rects = rects
        self.depth = depth
        self.max_suffix = max_suffix
        self.hr: np.ndarray | None = hr
        self.children: list[Chain] = []
        self.leaf: Leaf | None = None


def _batched(f: Callable, arrays: list[np.ndarray]) -> list[np.ndarray]:
    """``[f(a) for a in arrays]`` for an element-wise ``f``, in one call."""
    if not arrays:
        return []
    out = f(np.concatenate(arrays))
    ends = np.cumsum([len(a) for a in arrays]).tolist()
    return [out[e - len(a):e] for a, e in zip(arrays, ends)]


def dedup_first_occurrence(zs: np.ndarray) -> np.ndarray:
    """Distinct z-values in first-occurrence order (§III-C step 1)."""
    _, idx = np.unique(zs, return_index=True)
    return zs[np.sort(idx)]


class RPTrie:
    """A per-partition reference point trie.

    Parameters
    ----------
    grid : the z-order grid (shared across partitions; built from global
        dataset bounds so reference trajectories agree everywhere).
    fn : exact distance kernel of the active measure (used for pivot
        distances and D_max).
    pivots : global pivot trajectories (empty for non-metrics).
    """

    def __init__(
        self,
        grid: Grid,
        fn: Callable,
        pivots: Sequence[np.ndarray] = (),
        *,
        collapse_ref_for_dists: bool = False,
        need_dmax: bool = True,
    ):
        self.grid = grid
        self.fn = fn
        self.pivots = list(pivots)
        self.n_pivots = len(self.pivots)
        self.root = Node(-1, depth=0)
        self.pivot_slack = 0.0  # max leaf D_max — slack for the HR bound
        self.n_trajs = 0
        # HR/D_max distances may run on the consecutive-duplicate-collapsed
        # reference trajectory — valid for measures invariant to collapsing
        # (Hausdorff: set semantics; discrete Frechet: couplings may repeat
        # points) and a large build speed-up since the DP cost is O(L²).
        self.collapse_ref_for_dists = collapse_ref_for_dists
        # D_max feeds LB_t (Hausdorff/Frechet) and the pivot slack
        # (metrics); measures that use neither (DTW/EDR/LCSS) skip it.
        self.need_dmax = need_dmax

    # ------------------------------------------------------------------
    def build(self, trajs: Sequence[tuple[int, np.ndarray]], mode: str = "basic") -> None:
        """Insert trajectories ``(tid, (n,2) points)``; then freeze.

        Insertion only shapes the trie. It records which trajectories
        pass through each node and leaf as (owner, item) pairs; the
        freeze pass lays the trie out as chain arrays and turns those
        pairs into HR rows in whole-trie array operations.
        """
        if mode not in ("basic", "dedup", "opt"):
            raise ValueError(f"unknown trie mode {mode!r}")
        trajs = list(trajs)
        n = self.n_trajs = len(trajs)
        zss = _batched(
            lambda p: ref_trajectory(self.grid, p), [pts for _, pts in trajs]
        )
        if mode != "basic":
            zss = [dedup_first_occurrence(zs) for zs in zss]
        pd = np.empty((n, self.n_pivots))
        dmaxs = [0.0] * n
        if self.n_pivots or self.need_dmax:
            zds = zss
            if self.collapse_ref_for_dists:
                zds = [
                    zs[np.concatenate([[True], zs[1:] != zs[:-1]])]
                    if len(zs) > 1 else zs
                    for zs in zds
                ]
            rps = _batched(lambda z: ref_points(self.grid, z), zds)
            for i, ((_, pts), rp) in enumerate(zip(trajs, rps)):
                pd[i] = [self.fn(p, rp) for p in self.pivots]
                if self.need_dmax:
                    dmaxs[i] = float(self.fn(pts, rp))
        self.pivot_slack = max([self.pivot_slack, *dmaxs])
        # HR bookkeeping: owners[j] (a Node or Leaf) covers trajectory who[j]
        owners: list = []
        who: list[int] = []
        if mode == "opt":
            sets = [
                (tid, set(zs.tolist()), i, dmaxs[i])
                for i, ((tid, _), zs) in enumerate(zip(trajs, zss))
            ]
            self._build_greedy(self.root, sets, owners, who)
        else:
            for i, ((tid, _), zs) in enumerate(zip(trajs, zss)):
                path = self._insert_path(zs)
                owners += path
                owners.append(self._attach_leaf(path[-1], tid, dmaxs[i]))
                who += [i] * (len(path) + 1)
        self._finalize(owners, pd[who])

    # -- sequential insertion (basic / dedup) ---------------------------
    def _insert_path(self, zs: np.ndarray) -> list[Node]:
        """Walk/extend the path for ``zs``; return it, root first."""
        node = self.root
        path = [node]
        for z in zs.tolist():
            child = node.children.get(z)
            if child is None:
                child = Node(z, node.depth + 1)
                node.children[z] = child
            path.append(child)
            node = child
        return path

    @staticmethod
    def _attach_leaf(node: Node, tid: int, dmax: float) -> Leaf:
        if node.leaf is None:
            node.leaf = Leaf()
        node.leaf.tids.append(tid)
        node.leaf.dmax = max(node.leaf.dmax, dmax)
        return node.leaf

    # -- greedy hitting-set construction (Appendix B) -------------------
    def _build_greedy(self, root: Node, items: list, owners: list, who: list) -> None:
        """Partition ``items`` (tid, remaining z-set, index, dmax) level by level.

        Implements the appendix bookkeeping: count C(Z) once, pick the
        most frequent z, split off Z^z (counting C(Z^z) for the child's
        turn), and obtain the remaining counts as C(Z) − C(Z^z). Each
        child's turn is independent of its siblings', so pending
        (node, items) pairs sit on an explicit stack: a trie is as deep
        as its longest trajectory, beyond CPython's recursion limit.
        Every (node or leaf, item) it places is appended to
        ``owners`` / ``who`` for the HR pass.
        """
        stack = [(root, items)]
        while stack:
            parent, items = stack.pop()
            owners += [parent] * len(items)
            who += [it[2] for it in items]
            remaining = []
            for it in items:
                if it[1]:
                    remaining.append(it)
                else:  # complete path consumed → $-leaf at the parent
                    owners.append(self._attach_leaf(parent, it[0], it[3]))
                    who.append(it[2])
            counts = Counter()
            for _, zset, _, _ in remaining:
                counts.update(zset)
            while remaining:
                z1, _ = max(counts.items(), key=lambda kv: (kv[1], -kv[0]))
                group, rest = [], []
                sub_counts = Counter()
                for it in remaining:
                    if z1 in it[1]:
                        sub_counts.update(it[1])
                        it[1].discard(z1)
                        group.append(it)
                    else:
                        rest.append(it)
                counts.subtract(sub_counts)  # C(Z) ← C(Z) − C(Z^z1)
                del counts[z1]
                child = Node(z1, parent.depth + 1)
                parent.children[z1] = child
                stack.append((child, group))
                remaining = rest

    # -- freeze: the chain arrays and their search records --------------
    def _finalize(self, owners: list, owner_pd: np.ndarray) -> None:
        """Lay the trie out once as path-compressed chain arrays.

        One iterative walk (trie depth can reach trajectory length ~1000,
        beyond Python's default recursion limit) visits the chains parents
        first and records each chain's z-values, length, parent chain (-1:
        the root) and end depth; ``max_suffix`` follows from the lengths in
        one reverse pass. HR rows come from one min/max reduction over the
        (owner, pivot-distance row) pairs the insertion recorded, each node
        mapped to its chain: a chain's nodes cover the same trajectories.
        These arrays are the trie's only frozen form. They are what
        pickles, and ``_link_chains`` builds the search records from them,
        here and on unpickling.
        """
        root = self.root
        zs: list[int] = []
        lens: list[int] = []
        parents: list[int] = []
        depths: list[int] = []
        ends_with_leaf: list[tuple[int, Leaf]] = []
        row = {id(root): -1}  # node → index of its chain
        frontier = [root]
        while frontier:
            n = frontier.pop()
            for cur in n.children.values():
                e, start = len(lens), len(zs)
                while True:
                    row[id(cur)] = e
                    zs.append(cur.z)
                    if len(cur.children) != 1 or cur.leaf is not None:
                        break
                    (cur,) = cur.children.values()
                lens.append(len(zs) - start)
                parents.append(row[id(n)])
                depths.append(cur.depth)
                if cur.leaf is not None:
                    ends_with_leaf.append((e, cur.leaf))
                frontier.append(cur)
        n_chains = len(lens)
        suffixes = [0] * n_chains
        for e in reversed(range(n_chains)):  # a chain follows its parent
            p = parents[e]
            if p >= 0:
                suffixes[p] = max(suffixes[p], lens[e] + suffixes[e])

        hr = None
        if self.n_pivots:
            # HR rows: the chains, then the leaves, then the root (unread)
            for j, (_, leaf) in enumerate(ends_with_leaf):
                row[id(leaf)] = n_chains + j
            row[id(root)] = n_chains + len(ends_with_leaf)
            rows = np.fromiter(
                (row[id(o)] for o in owners), dtype=np.intp, count=len(owners)
            )
            shape = (n_chains + len(ends_with_leaf) + 1, self.n_pivots)
            lo = np.full(shape, np.inf)
            hi = np.full(shape, -np.inf)
            np.minimum.at(lo, rows, owner_pd)
            np.maximum.at(hi, rows, owner_pd)
            hr = np.stack([lo, hi], axis=-1)
        self.zs_flat = np.array(zs, dtype=np.int64)
        self.lens = np.array(lens, dtype=np.int32)
        self.parents = np.array(parents, dtype=np.int32)
        self.depths = np.array(depths, dtype=np.int32)
        self.suffixes = np.array(suffixes, dtype=np.int32)
        self.hrs = None if hr is None else hr[:n_chains].astype(np.float32)
        self.leaves = [
            (e, leaf.tids, leaf.dmax, None if hr is None else hr[n_chains + j])
            for j, (e, leaf) in enumerate(ends_with_leaf)
        ]
        self._link_chains()

    def _link_chains(self) -> None:
        """Build the search records from the chain arrays.

        ``self.heads`` holds the chains that start at the root's children.
        Reference points and cell rects come from one ``refpoints_of_z`` /
        ``cell_rects_of_z`` call; each record's are slices of them.
        """
        refpts = self.grid.refpoints_of_z(self.zs_flat)
        rects = self.grid.cell_rects_of_z(self.zs_flat)
        hrs = self.hrs
        if hrs is not None:
            hrs = np.stack(
                [np.nextafter(hrs[..., 0], -np.inf), np.nextafter(hrs[..., 1], np.inf)],
                axis=-1,
            ).astype(np.float64)
        chains: list[Chain] = []
        self.heads: list[Chain] = []
        stop = 0
        for e, (n, parent, depth, suffix) in enumerate(
            zip(
                self.lens.tolist(), self.parents.tolist(),
                self.depths.tolist(), self.suffixes.tolist(),
            )
        ):
            start, stop = stop, stop + n
            c = Chain(
                refpts[start:stop], rects[start:stop], depth, suffix,
                None if hrs is None else hrs[e],
            )
            chains.append(c)
            (self.heads if parent < 0 else chains[parent].children).append(c)
        for e, tids, dmax, hr in self.leaves:
            chains[e].leaf = Leaf(tids, dmax, hr)

    # -- compact serialization -----------------------------------------
    # Pickling the linked Node graph costs ~700 bytes/node and, because
    # PySpark caches RDD elements serialized, both the bytes *and* the
    # rebuild would be paid per query. The trie therefore pickles only its
    # chain arrays (~60 B/node) and rebuilds the search records from them:
    # one Chain per chain, not one object per node. The build graph stays
    # behind, so a restored trie searches the very records the built one
    # does and node_count() agrees, while iter_nodes() and the succinct
    # encoding (the IS metric, computed at build time) need ``root`` and
    # fail on a restored trie.
    _STATE = (
        "grid", "fn", "pivots", "n_pivots", "pivot_slack", "n_trajs",
        "collapse_ref_for_dists", "need_dmax",
        "zs_flat", "lens", "parents", "depths", "suffixes", "hrs", "leaves",
    )

    def __getstate__(self):
        return {k: getattr(self, k) for k in self._STATE}

    def __setstate__(self, st):
        self.__dict__.update(st)
        self._link_chains()

    # -- stats ---------------------------------------------------------
    def node_count(self) -> int:
        """Number of trie nodes, excluding the root (Fig. 7 metric)."""
        return int(self.lens.sum())

    def iter_nodes(self):
        """Pre-order walk of the build graph, root first."""
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(n.children.values())
