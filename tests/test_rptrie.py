"""RP-Trie construction tests: build modes, HR/D_max invariants, the
$-prefix rule, and the greedy hitting-set arrangement including the
paper's Appendix Example 3 (Table X → Fig. 10) node-for-node."""
from __future__ import annotations

import pickle
import sys

import numpy as np
import pytest

from repro.core import zorder
from repro.core.measures import get_measure, resolve_measure
from repro.core.rptrie import RPTrie, dedup_first_occurrence
from repro.core.search import search_topk
from repro.core.succinct import trie_size_bytes
from repro.core.zorder import Grid, ref_points, ref_trajectory
from tests.util import rnd_dataset, rnd_query

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)


def build(data, mode, measure="hausdorff", pivots=()):
    fn = get_measure(measure)
    trie = RPTrie(GRID, fn, pivots)
    trie.build(list(data.items()), mode=mode)
    return trie


@pytest.fixture(scope="module")
def data():
    return rnd_dataset(0, 120)


def collect_leaf_tids(trie):
    out = []
    for node in trie.iter_nodes():
        if node.leaf is not None:
            out.extend(node.leaf.tids)
    return sorted(out)


@pytest.mark.parametrize("mode", ["basic", "dedup", "opt"])
def test_all_trajectories_indexed(data, mode):
    trie = build(data, mode)
    assert collect_leaf_tids(trie) == sorted(data)


def test_mode_validation(data):
    with pytest.raises(ValueError):
        build(data, "bogus")


def test_opt_has_fewest_nodes(data):
    n_basic = build(data, "basic").node_count()
    n_dedup = build(data, "dedup").node_count()
    n_opt = build(data, "opt").node_count()
    assert n_opt <= n_dedup <= n_basic
    assert n_opt < n_dedup  # re-arrangement actually helps on this data


def test_dedup_first_occurrence():
    zs = np.array([5, 5, 3, 5, 3, 9])
    assert list(dedup_first_occurrence(zs)) == [5, 3, 9]


def test_basic_path_matches_ref_trajectory(data):
    trie = build(data, "basic")
    tid, pts = 7, data[7]
    zs = ref_trajectory(GRID, pts)
    node = trie.root
    for z in zs:
        node = node.children[int(z)]
    assert node.leaf is not None and tid in node.leaf.tids


def test_opt_path_zset_equals_trajectory_zset(data):
    """In the re-arranged trie, the z-value *set* along every root→leaf
    path must equal the trajectory's deduped z-set (order may differ)."""
    trie = build(data, "opt")
    want = {
        tid: set(dedup_first_occurrence(ref_trajectory(GRID, pts)).tolist())
        for tid, pts in data.items()
    }

    def walk(node, path):
        if node.leaf is not None:
            for tid in node.leaf.tids:
                assert set(path) == want[tid], tid
        for z, child in node.children.items():
            walk(child, path + [z])

    walk(trie.root, [])


def test_prefix_trajectory_ends_at_internal_node():
    a = np.array([[0.5, 0.5], [3.5, 3.5]])
    b = np.array([[0.5, 0.5], [3.5, 3.5], [7.5, 7.5]])
    trie = build({1: a, 2: b}, "basic")
    za = ref_trajectory(GRID, a)
    node = trie.root
    for z in za:
        node = node.children[int(z)]
    assert node.leaf is not None and node.leaf.tids == [1]
    assert node.children  # trajectory 2 continues below — the "$" rule


def test_leaf_dmax_is_max_dist_to_ref(data):
    fn = get_measure("hausdorff")
    trie = build(data, "dedup")
    for node in trie.iter_nodes():
        if node.leaf is None:
            continue
        # reconstruct the path z-values to get the reference trajectory
        pass  # covered structurally below
    # direct check on a single-trajectory trie
    pts = data[3]
    t1 = build({3: pts}, "dedup")
    zs = dedup_first_occurrence(ref_trajectory(GRID, pts))
    rp = ref_points(GRID, zs)
    leaf = None
    node = t1.root
    while node.children:
        node = next(iter(node.children.values()))
    leaf = node.leaf
    assert leaf.dmax == pytest.approx(fn(pts, rp))
    assert leaf.dmax <= GRID.half_diag + 1e-9


def test_hr_brackets_pivot_distances(data):
    fn = get_measure("hausdorff")
    pivots = [data[10], data[20]]
    trie = build(data, "dedup", pivots=pivots)

    def subtree_tids(node):
        out = []
        stack = [node]
        while stack:
            n = stack.pop()
            if n.leaf is not None:
                out.extend(n.leaf.tids)
            stack.extend(n.children.values())
        return out

    def path_check(node, zs):
        if node.z >= 0:
            zs = zs + [node.z]
        for tid in subtree_tids(node):
            ref = ref_points(
                GRID,
                dedup_first_occurrence(ref_trajectory(GRID, data[tid])),
            )
            for i, pv in enumerate(pivots):
                d = fn(pv, ref)
                assert node.hr[i, 0] - 1e-9 <= d <= node.hr[i, 1] + 1e-9
        for c in node.children.values():
            path_check(c, zs)

    path_check(trie.root, [])


def test_pivot_slack_covers_all_dmax(data):
    trie = build(data, "dedup", pivots=[data[0]])
    for node in trie.iter_nodes():
        if node.leaf is not None:
            assert node.leaf.dmax <= trie.pivot_slack + 1e-12


def test_max_suffix(data):
    trie = build(data, "basic")

    def depth_below(node):
        if not node.children:
            return 0
        return 1 + max(depth_below(c) for c in node.children.values())

    for node in trie.iter_nodes():
        assert node.max_suffix == depth_below(node)


def test_chain_compression_frozen(data):
    """Every reachable child carries a chain ending at a branch or leaf
    node; chain arrays cover exactly the run of single-child nodes."""
    trie = build(data, "basic")
    frontier = [trie.root]
    seen = 0
    while frontier:
        n = frontier.pop()
        assert n.child_nodes is not None
        for child in n.child_nodes:
            seen += 1
            L = len(child.chain_refpts)
            assert child.chain_rects.shape == (L, 4)
            end = child.chain_end
            assert len(end.child_nodes) != 1 or end.leaf is not None
            # replay the chain through the children links
            cur, hops = child, 1
            while cur is not end:
                assert len(cur.child_nodes) == 1 and cur.leaf is None
                cur = cur.child_nodes[0]
                hops += 1
            assert hops == L
            frontier.append(end)
    assert seen > 0


# --------------------------------------------- Appendix B, Example 3 / Fig 10

def _example3_trie():
    """Construct trajectories whose z-sets match Table X exactly.

    Grid: bounds (0,0,4,4), δ=1 → l=4, bits=2. A z-value deinterleaves to
    a cell whose center we use as the trajectory point, so each
    trajectory's z-set is exactly the Table X set.
    """
    from repro.core.zorder import deinterleave

    grid = Grid.from_bounds(0, 0, 4, 4, delta=1.0)
    table_x = {
        1: [0b0001, 0b0011],
        2: [0b0001, 0b0011, 0b0101],
        3: [0b0010, 0b0011],
        4: [0b0010, 0b0011, 0b0101],
        5: [0b0011, 0b0101],
        6: [0b0001, 0b0100],
        7: [0b0010, 0b0100],
        8: [0b0101, 0b0110],
    }
    data = {}
    for tid, zs in table_x.items():
        ix, iy = deinterleave(np.array(zs), 2)
        data[tid] = np.column_stack([ix + 0.5, iy + 0.5]).astype(float)
    trie = RPTrie(grid, get_measure("hausdorff"), [])
    trie.build(list(data.items()), mode="opt")
    return trie, table_x


def test_example3_first_level():
    """Appendix Example 3: first-level children are 0011 (5 trajs),
    0100 (2 trajs), 0101 (1 traj)."""
    trie, _ = _example3_trie()
    assert set(trie.root.children) == {0b0011, 0b0100, 0b0101}

    def subtree_count(node):
        c = len(node.leaf.tids) if node.leaf else 0
        return c + sum(subtree_count(ch) for ch in node.children.values())

    counts = {z: subtree_count(n) for z, n in trie.root.children.items()}
    assert counts == {0b0011: 5, 0b0100: 2, 0b0101: 1}


def test_example3_full_shape():
    """Fig. 10: 11 nodes total; e1=0011 has children {0101, 0001, 0010};
    0101-under-0011 holds Z5's $-leaf and children {0001 (Z2), 0010 (Z4)}."""
    trie, table_x = _example3_trie()
    assert trie.node_count() == 11
    e1 = trie.root.children[0b0011]
    assert set(e1.children) == {0b0101, 0b0001, 0b0010}
    z5node = e1.children[0b0101]
    assert z5node.leaf is not None and z5node.leaf.tids == [5]
    assert set(z5node.children) == {0b0001, 0b0010}
    assert z5node.children[0b0001].leaf.tids == [2]
    assert z5node.children[0b0010].leaf.tids == [4]
    e2 = trie.root.children[0b0100]
    assert {t for c in e2.children.values() for t in c.leaf.tids} == {6, 7}
    e3 = trie.root.children[0b0101]
    (only_child,) = e3.children.values()
    assert only_child.leaf.tids == [8]


def test_example3_hitting_set_property():
    """Every level's chosen cells form a hitting set of the remaining
    z-sets (Definition 5): each trajectory's set meets its path."""
    trie, table_x = _example3_trie()

    def walk(node, path):
        if node.leaf is not None:
            for tid in node.leaf.tids:
                assert set(path) == set(table_x[tid])
        for z, c in node.children.items():
            walk(c, path + [z])

    walk(trie.root, [])


@pytest.mark.parametrize("mode", ["basic", "opt"])
def test_deep_trie_builds_and_encodes_at_default_recursion_limit(mode):
    """A 1,500-point trajectory through 1,500 distinct cells makes a trie
    1,500 levels deep; neither the greedy build nor the succinct encoding
    may recurse per level."""
    grid = Grid.from_bounds(0, 0, 1500, 1500, delta=1.0)
    t = np.arange(1500) + 0.5
    data = [(0, np.column_stack([t, t])), (1, np.column_stack([t, t[::-1]]))]
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        trie = RPTrie(grid, get_measure("hausdorff"), need_dmax=False)
        trie.build(data, mode=mode)
        size = trie_size_bytes(trie)
    finally:
        sys.setrecursionlimit(old)
    assert max(n.depth for n in trie.iter_nodes()) == 1500
    assert size > 0


# ------------------------------------- freeze pass: whole-trie array fills

#: every valid (mode, measure) pairing: dedup/opt need order independence
MODE_MEASURES = [
    ("basic", "hausdorff"), ("dedup", "hausdorff"), ("opt", "hausdorff"),
    ("basic", "frechet"), ("basic", "dtw"),
]


def build_like_repose(data, mode, measure):
    """Build as ``ReposePack`` does: pivots, D_max and collapsing per spec."""
    spec = resolve_measure(measure)
    pivots = [data[10], data[20], data[30]] if spec.is_metric else []
    trie = RPTrie(
        GRID, spec.fn, pivots,
        collapse_ref_for_dists=spec.collapse_invariant,
        need_dmax=spec.is_metric,
    )
    trie.build(list(data.items()), mode=mode)
    return trie, spec


def pivot_dists(trie, pts, mode):
    """Pivot distances of one trajectory, computed on their own."""
    zs = ref_trajectory(GRID, pts)
    if mode != "basic":
        zs = dedup_first_occurrence(zs)
    if trie.collapse_ref_for_dists and len(zs) > 1:
        zs = zs[np.concatenate([[True], zs[1:] != zs[:-1]])]
    rp = ref_points(GRID, zs)
    return np.array([trie.fn(p, rp) for p in trie.pivots])


@pytest.mark.parametrize("mode", ["basic", "dedup", "opt"])
def test_build_decodes_z_values_in_whole_trie_passes(monkeypatch, mode):
    """Reference points and cell rects are computed per trie, not per
    node: the number of ``deinterleave`` calls a build makes must not
    grow with the number of nodes."""
    calls = []
    real = zorder.deinterleave

    def counting(z, bits):
        calls.append(1)
        return real(z, bits)

    monkeypatch.setattr(zorder, "deinterleave", counting)
    seen = []
    for n in (8, 120):
        data = rnd_dataset(1, n)
        calls.clear()
        trie = build(data, mode, pivots=[data[0], data[1]])
        seen.append((trie.node_count(), len(calls)))
    (small_nodes, small_calls), (big_nodes, big_calls) = seen
    assert big_nodes > 3 * small_nodes
    assert big_calls == small_calls


@pytest.mark.parametrize("mode,measure", MODE_MEASURES)
def test_frozen_chain_geometry_matches_z_values(data, mode, measure):
    """Each chain's reference points and rects are exactly the grid
    geometry of the z-values on its nodes, as are each node's own."""
    trie, _ = build_like_repose(data, mode, measure)
    frontier = [trie.root]
    while frontier:
        n = frontier.pop()
        for head in n.child_nodes:
            chain = [head]
            while chain[-1] is not head.chain_end:
                chain.append(chain[-1].child_nodes[0])
            zs = np.array([c.z for c in chain], dtype=np.int64)
            np.testing.assert_array_equal(head.chain_zs, zs)
            np.testing.assert_array_equal(head.chain_refpts, GRID.refpoints_of_z(zs))
            np.testing.assert_array_equal(head.chain_rects, GRID.cell_rects_of_z(zs))
            for c, p, r in zip(chain, head.chain_refpts, head.chain_rects):
                np.testing.assert_array_equal(c.refpoint, p)
                np.testing.assert_array_equal(c.rect, r)
            frontier.append(head.chain_end)


@pytest.mark.parametrize("mode,measure", MODE_MEASURES)
def test_frozen_hr_equals_min_max_of_pivot_dists_below(data, mode, measure):
    """Every node's and leaf's HR is exactly (not just within a slack)
    the per-pivot min and max over the trajectories below it."""
    trie, spec = build_like_repose(data, mode, measure)
    nodes = list(trie.iter_nodes())  # pre-order: parents before children
    if not spec.is_metric:
        assert all(n.hr is None for n in nodes)
        assert all(n.leaf.hr is None for n in nodes if n.leaf is not None)
        return
    pd = {tid: pivot_dists(trie, pts, mode) for tid, pts in data.items()}
    below: dict[int, np.ndarray] = {}
    for n in reversed(nodes):
        rows = [below[id(c)] for c in n.children.values()]
        if n.leaf is not None:
            leaf_rows = np.stack([pd[t] for t in n.leaf.tids])
            np.testing.assert_array_equal(
                n.leaf.hr,
                np.stack([leaf_rows.min(0), leaf_rows.max(0)], axis=-1),
            )
            rows.append(leaf_rows)
        below[id(n)] = np.concatenate(rows)
        np.testing.assert_array_equal(
            n.hr, np.stack([below[id(n)].min(0), below[id(n)].max(0)], axis=-1)
        )
    assert len(below[id(trie.root)]) == len(data)


@pytest.mark.parametrize("mode,measure", MODE_MEASURES)
def test_pickle_round_trip_gives_same_search_results(data, mode, measure):
    trie, spec = build_like_repose(data, mode, measure)
    restored = pickle.loads(pickle.dumps(trie))
    for seed in range(3):
        q = rnd_query(seed)
        for k in (1, 7, len(data) + 3):
            assert search_topk(restored, data, q, k, measure=spec) == search_topk(
                trie, data, q, k, measure=spec
            )
