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

Every node carries an ``HR[N_p]`` (min,max) pivot-distance array; every
leaf carries the trajectory ids and ``D_max`` (max distance from stored
trajectories to the node's reference trajectory).
"""
from __future__ import annotations

from collections import Counter
from typing import Callable, Sequence

import numpy as np

from .zorder import Grid, ref_points, ref_trajectory


class Leaf:
    """$-terminated leaf: trajectory ids + D_max + pivot HR (§III-B)."""

    __slots__ = ("tids", "dmax", "hr")

    def __init__(self):
        self.tids: list[int] = []
        self.dmax: float = 0.0
        self.hr: np.ndarray | None = None  # filled by RPTrie._finalize


class Node:
    """Internal trie node labelled with a z-value.

    ``chain_*`` attributes implement path compression for the search:
    a child node carries the z-values, reference points and cell rects
    of the maximal single-child, leaf-free run it starts, and
    ``chain_end`` is the run's last node (the next branch/leaf point).
    Interior chain nodes share the same subtree, hence the same HR, so
    bounds are unaffected.
    """

    __slots__ = (
        "z", "children", "leaf", "hr", "refpoint", "rect",
        "depth", "max_suffix", "child_nodes",
        "chain_zs", "chain_refpts", "chain_rects", "chain_end",
    )

    def __init__(self, z: int, depth: int):
        self.z = z
        self.children: dict[int, Node] = {}
        self.leaf: Leaf | None = None
        self.depth = depth
        self.max_suffix = 0
        # frozen geometry, HR and traversal structure (RPTrie._finalize)
        self.hr: np.ndarray | None = None
        self.refpoint: np.ndarray | None = None
        self.rect: np.ndarray | None = None
        self.child_nodes: list[Node] | None = None
        self.chain_zs: np.ndarray | None = None
        self.chain_refpts: np.ndarray | None = None
        self.chain_rects: np.ndarray | None = None
        self.chain_end: "Node | None" = None


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
        freeze pass turns those into HR arrays and fills every node's
        geometry in whole-trie array operations.
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
        self._finalize(self.root, owners, pd[who])

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

    # -- freeze: chains, max_suffix, geometry and HR --------------------
    def _finalize(self, root: Node, owners: list, owner_pd: np.ndarray) -> None:
        """One iterative pass over the trie, then whole-trie array fills.

        The walk lays the nodes out chain by chain, so every chain is a
        contiguous run of ``nodes``: its z-values, reference points and
        cell rects are slices of three arrays computed by one
        ``refpoints_of_z`` / ``cell_rects_of_z`` call. Each chain starts
        at a child of a *reachable* node (the root, a branch or a leaf
        node) and runs through single-child, leaf-free nodes; the search
        jumps straight to ``chain_end``. HR rows are filled by one
        min/max reduction over the (owner, pivot-distance row) pairs the
        insertion recorded. The walk is iterative: trie depth can reach
        trajectory length ~1000, beyond Python's default recursion limit.
        """
        nodes: list[Node] = []  # every node but the root, chain by chain
        chains: list[tuple[Node, int, int]] = []  # (head, start, stop)
        root.child_nodes = list(root.children.values())
        frontier = [root]
        while frontier:
            n = frontier.pop()
            for cur in n.child_nodes:
                head, start = cur, len(nodes)
                while True:
                    cur.child_nodes = list(cur.children.values())
                    nodes.append(cur)
                    if len(cur.child_nodes) != 1 or cur.leaf is not None:
                        break
                    cur = cur.child_nodes[0]
                head.chain_end = cur
                chains.append((head, start, len(nodes)))
                frontier.append(cur)
        every = [root, *nodes]  # a node's children follow it: reversed is post-order
        for n in reversed(every):
            if n.child_nodes:
                n.max_suffix = 1 + max(c.max_suffix for c in n.child_nodes)

        zs = np.fromiter((n.z for n in nodes), dtype=np.int64, count=len(nodes))
        refpts = self.grid.refpoints_of_z(zs)
        rects = self.grid.cell_rects_of_z(zs)
        for n, p, r in zip(nodes, refpts, rects):
            n.refpoint = p
            n.rect = r
        for head, start, stop in chains:
            head.chain_zs = zs[start:stop]
            head.chain_refpts = refpts[start:stop]
            head.chain_rects = rects[start:stop]

        if self.n_pivots:
            holders = every + [n.leaf for n in every if n.leaf is not None]
            row = {id(h): r for r, h in enumerate(holders)}
            rows = np.fromiter(
                (row[id(o)] for o in owners), dtype=np.intp, count=len(owners)
            )
            lo = np.full((len(holders), self.n_pivots), np.inf)
            hi = np.full((len(holders), self.n_pivots), -np.inf)
            np.minimum.at(lo, rows, owner_pd)
            np.maximum.at(hi, rows, owner_pd)
            for h, hr in zip(holders, np.stack([lo, hi], axis=-1)):
                h.hr = hr

    # -- compact serialization -----------------------------------------
    # Pickling the linked Node graph costs ~700 bytes/node and, because
    # PySpark caches RDD elements serialized, both the bytes *and* the
    # rebuild would be paid per query. The trie therefore pickles as its
    # path-compressed edge list: one record per chain (flat z-value
    # array + end-node metadata + HR), which is both small (~60 B/node)
    # and cheap to restore (~#branch+#leaf Node objects, not #nodes).
    # The restored trie is a *search-only view*: chain-interior nodes are
    # not materialized, so node_count()/iter_nodes()/succinct encoding
    # are only meaningful on the originally built trie (where the IS
    # metric is computed, before any serialization).

    def __getstate__(self):
        chain_zs: list[np.ndarray] = []
        parents: list[int] = []
        depths: list[int] = []
        suffixes: list[int] = []
        hrs: list[np.ndarray] = []
        leaves: list[tuple] = []
        edge_of: dict[int, int] = {id(self.root): -1}
        frontier = [self.root]
        while frontier:
            node = frontier.pop()
            for child in node.child_nodes:
                end = child.chain_end
                e = len(parents)
                edge_of[id(end)] = e
                parents.append(edge_of[id(node)])
                chain_zs.append(child.chain_zs)
                depths.append(end.depth)
                suffixes.append(end.max_suffix)
                if self.n_pivots:
                    hrs.append(child.hr)  # == end.hr along a chain
                if end.leaf is not None:
                    leaves.append(
                        (e, end.leaf.tids, end.leaf.dmax, end.leaf.hr)
                    )
                frontier.append(end)
        lens = np.array([len(c) for c in chain_zs], dtype=np.int32)
        return {
            "grid": self.grid,
            "fn": self.fn,
            "pivots": self.pivots,
            "n_pivots": self.n_pivots,
            "pivot_slack": self.pivot_slack,
            "n_trajs": self.n_trajs,
            "collapse_ref_for_dists": self.collapse_ref_for_dists,
            "need_dmax": self.need_dmax,
            "zs_flat": (
                np.concatenate(chain_zs) if chain_zs else np.zeros(0, np.int64)
            ),
            "lens": lens,
            "parents": np.asarray(parents, dtype=np.int32),
            "depths": np.asarray(depths, dtype=np.int32),
            "suffixes": np.asarray(suffixes, dtype=np.int32),
            "hrs": np.stack(hrs).astype(np.float32) if hrs else None,
            "root_hr": self.root.hr,
            "leaves": leaves,
        }

    def __setstate__(self, st):
        for k in (
            "grid", "fn", "pivots", "n_pivots", "pivot_slack", "n_trajs",
            "collapse_ref_for_dists", "need_dmax",
        ):
            setattr(self, k, st[k])
        self.root = Node(-1, depth=0)
        self.root.hr = st["root_hr"]
        self.root.child_nodes = []
        zs_flat = st["zs_flat"]
        refpts = self.grid.refpoints_of_z(zs_flat)
        rects = self.grid.cell_rects_of_z(zs_flat)
        offs = np.concatenate([[0], np.cumsum(st["lens"])])
        hrs64 = None
        if st["hrs"] is not None:
            # widen the float32-rounded (min,max) by one ulp so the pivot
            # bound stays admissible after the round trip
            hrs64 = st["hrs"].astype(np.float64)
            hrs64[..., 0] = np.nextafter(st["hrs"][..., 0], -np.inf)
            hrs64[..., 1] = np.nextafter(st["hrs"][..., 1], np.inf)
        nodes: list[Node] = []
        parents = st["parents"]
        for e in range(len(parents)):
            n = Node.__new__(Node)
            lo, hi = offs[e], offs[e + 1]
            n.z = int(zs_flat[hi - 1])
            n.children = {}
            n.leaf = None
            n.hr = hrs64[e] if hrs64 is not None else None
            n.refpoint = refpts[hi - 1]
            n.rect = rects[hi - 1]
            n.depth = int(st["depths"][e])
            n.max_suffix = int(st["suffixes"][e])
            n.child_nodes = []
            n.chain_zs = zs_flat[lo:hi]
            n.chain_refpts = refpts[lo:hi]
            n.chain_rects = rects[lo:hi]
            n.chain_end = n  # merged head/end: a single search-view node
            nodes.append(n)
            parent = self.root if parents[e] < 0 else nodes[parents[e]]
            parent.children[int(zs_flat[lo])] = n
            parent.child_nodes.append(n)
        for e, tids, dmax, hr in st["leaves"]:
            leaf = Leaf.__new__(Leaf)
            leaf.tids = tids
            leaf.dmax = dmax
            leaf.hr = hr
            nodes[e].leaf = leaf

    # -- stats ---------------------------------------------------------
    def node_count(self) -> int:
        """Number of trie nodes, excluding the root (Fig. 7 metric)."""
        count = 0
        stack = [self.root]
        while stack:
            n = stack.pop()
            count += len(n.children)
            stack.extend(n.child_nodes or n.children.values())
        return count

    def iter_nodes(self):
        stack = [self.root]
        while stack:
            n = stack.pop()
            yield n
            stack.extend(n.children.values())
