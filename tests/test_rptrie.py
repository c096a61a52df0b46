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
from repro.core.search import brute_force_topk, search_topk
from repro.core.succinct import trie_size_bytes
from repro.core.zorder import Grid, ref_points, ref_trajectory
from tests.util import (
    MEASURE_PARAMS, chain_paths, iter_chains, rnd_dataset, rnd_query,
    subtree_tids, topk_dists_equal,
)

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
    # a chain record's HR is the HR of every node on its run
    for c in iter_chains(trie):
        for tid in subtree_tids(c):
            ref = ref_points(
                GRID,
                dedup_first_occurrence(ref_trajectory(GRID, data[tid])),
            )
            for i, pv in enumerate(pivots):
                d = fn(pv, ref)
                assert c.hr[i, 0] - 1e-9 <= d <= c.hr[i, 1] + 1e-9


def test_pivot_slack_covers_all_dmax(data):
    trie = build(data, "dedup", pivots=[data[0]])
    for node in trie.iter_nodes():
        if node.leaf is not None:
            assert node.leaf.dmax <= trie.pivot_slack + 1e-12


def test_max_suffix(data):
    """A chain record's depth and max_suffix are its last node's; the
    values the search derives from them hold on every node of the run."""
    trie = build(data, "basic")

    def depth_below(node):
        if not node.children:
            return 0
        return 1 + max(depth_below(c) for c in node.children.values())

    for c, path in chain_paths(trie):
        for i, node in enumerate(path):
            left = len(path) - 1 - i  # nodes of the run below this one
            assert node.depth == c.depth - left
            assert depth_below(node) == left + c.max_suffix


def test_chain_compression_frozen(data):
    """Every child of the root, of a branch or of a leaf node starts a
    chain record that ends at the next branch or leaf node; its arrays
    cover exactly that run of single-child nodes, and every node lies on
    one run."""
    trie = build(data, "basic")
    paths = chain_paths(trie)
    assert paths
    for c, path in paths:
        L = len(path)
        assert c.refpts.shape == (L, 2) and c.rects.shape == (L, 4)
        for node in path[:-1]:
            assert len(node.children) == 1 and node.leaf is None
        end = path[-1]
        assert len(end.children) != 1 or end.leaf is not None
        assert c.depth == end.depth
        assert (c.leaf is None) == (end.leaf is None)
        if end.leaf is not None:
            assert (c.leaf.tids, c.leaf.dmax) == (end.leaf.tids, end.leaf.dmax)
    np.testing.assert_array_equal(trie.lens, [len(p) for _, p in paths])
    assert trie.node_count() == len(list(trie.iter_nodes())) - 1


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
    ("basic", "erp"), ("basic", "edr"), ("basic", "lcss"),
]


def build_like_repose(data, mode, measure):
    """Build as ``ReposePack`` does: pivots, D_max and collapsing per spec."""
    spec = resolve_measure(measure, **MEASURE_PARAMS[measure])
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
    """Each chain's z-values, reference points and rects are exactly the
    z-values of the build nodes on its run and their grid geometry."""
    trie, _ = build_like_repose(data, mode, measure)
    runs = []
    for c, path in chain_paths(trie):
        zs = np.array([n.z for n in path], dtype=np.int64)
        np.testing.assert_array_equal(c.refpts, GRID.refpoints_of_z(zs))
        np.testing.assert_array_equal(c.rects, GRID.cell_rects_of_z(zs))
        runs.append(zs)
    np.testing.assert_array_equal(trie.zs_flat, np.concatenate(runs))


def widened(hr32: np.ndarray) -> np.ndarray:
    """A float32 (min, max) HR widened by one ulp on each side."""
    return np.stack(
        [np.nextafter(hr32[..., 0], -np.inf), np.nextafter(hr32[..., 1], np.inf)],
        axis=-1,
    ).astype(np.float64)


@pytest.mark.parametrize("mode,measure", MODE_MEASURES)
def test_frozen_hr_equals_min_max_of_pivot_dists_below(data, mode, measure):
    """Each chain's stored float32 HR is exactly float32 of the per-pivot
    min and max over the trajectories below it, the HR the search reads
    is that widened by one ulp, and each leaf's HR is the exact min/max."""
    trie, spec = build_like_repose(data, mode, measure)
    paths = chain_paths(trie)
    if not spec.is_metric:
        assert trie.hrs is None
        assert all(c.hr is None for c, _ in paths)
        assert all(c.leaf.hr is None for c, _ in paths if c.leaf is not None)
        return
    pd = {tid: pivot_dists(trie, pts, mode) for tid, pts in data.items()}
    for e, (c, path) in enumerate(paths):
        rows = np.stack([pd[t] for t in subtree_tids(path[-1])])
        exact = np.stack([rows.min(0), rows.max(0)], axis=-1)
        np.testing.assert_array_equal(trie.hrs[e], exact.astype(np.float32))
        np.testing.assert_array_equal(c.hr, widened(exact.astype(np.float32)))
        assert (c.hr[:, 0] <= exact[:, 0]).all() and (c.hr[:, 1] >= exact[:, 1]).all()
        if c.leaf is not None:
            leaf_rows = np.stack([pd[t] for t in c.leaf.tids])
            np.testing.assert_array_equal(
                c.leaf.hr,
                np.stack([leaf_rows.min(0), leaf_rows.max(0)], axis=-1),
            )
    assert sum(len(subtree_tids(c)) for c in trie.heads) == len(data)


def assert_same_records(a, b):
    """The two tries' chain records are equal field by field."""
    pairs = list(zip(iter_chains(a), iter_chains(b), strict=True))
    for x, y in pairs:
        np.testing.assert_array_equal(x.refpts, y.refpts)
        np.testing.assert_array_equal(x.rects, y.rects)
        assert (x.depth, x.max_suffix, len(x.children)) == (
            y.depth, y.max_suffix, len(y.children)
        )
        assert (x.hr is None) == (y.hr is None)
        if x.hr is not None:
            np.testing.assert_array_equal(x.hr, y.hr)
        assert (x.leaf is None) == (y.leaf is None)
        if x.leaf is not None:
            assert (x.leaf.tids, x.leaf.dmax) == (y.leaf.tids, y.leaf.dmax)
            assert (x.leaf.hr is None) == (y.leaf.hr is None)
            if x.leaf.hr is not None:
                np.testing.assert_array_equal(x.leaf.hr, y.leaf.hr)


@pytest.mark.parametrize("mode,measure", MODE_MEASURES)
def test_pickle_round_trip_gives_same_search_results(data, mode, measure):
    """A restored trie searches the built trie's records: same node count,
    same bytes when pickled again, and the same answers, which equal
    brute force."""
    trie, spec = build_like_repose(data, mode, measure)
    blob = pickle.dumps(trie)
    restored = pickle.loads(blob)
    assert pickle.dumps(restored) == blob
    assert restored.node_count() == trie.node_count()
    assert_same_records(trie, restored)
    for seed in range(3):
        q = rnd_query(seed)
        for k in (1, 7, len(data) + 3):
            got = search_topk(trie, data, q, k, measure=spec)
            assert search_topk(restored, data, q, k, measure=spec) == got
            exp = brute_force_topk(data.items(), q, k, measure=spec)
            if k >= len(data):
                assert got == exp  # every trajectory, ordered by (dist, tid)
            else:
                assert topk_dists_equal(got, exp)  # ties may pick other tids


def test_restored_trie_has_no_build_graph(data):
    """Node walks and the succinct encoding need the build graph, which
    does not pickle: on a restored trie they raise instead of counting
    a partial trie."""
    restored = pickle.loads(pickle.dumps(build(data, "basic")))
    with pytest.raises(AttributeError):
        next(restored.iter_nodes())
    with pytest.raises(AttributeError):
        trie_size_bytes(restored)


def slow_walks(rng, n: int, min_len: int, max_len: int) -> dict:
    """Random walks in the unit square with step σ = 0.02: on a coarse
    grid consecutive points share cells, so basic-trie chains are long."""
    out = {}
    for i in range(n):
        p0 = rng.random(2)
        steps = rng.normal(0, 0.02, (int(rng.integers(min_len, max_len + 1)), 2))
        out[i] = np.clip(p0 + np.cumsum(steps, axis=0), 0, 1)
    return out


@pytest.mark.parametrize("delta", [0.05, 0.1, 0.25])
@pytest.mark.parametrize("eps", [0.02, 0.05, 0.1])
def test_lcss_restored_trie_equals_brute_force_on_long_chains(delta, eps):
    """LCSS is the bound that reads a node's depth, through min(m, depth);
    queries longer than the trajectories keep that term equal to the
    depth. Chain-interior depths derived on a restored trie must be the
    true ones, else the bound overshoots and prunes true neighbours."""
    rng = np.random.default_rng(0)
    grid = Grid.from_bounds(0, 0, 1, 1, delta=delta)
    spec = resolve_measure("lcss", eps=eps)
    for _ in range(5):
        data = slow_walks(rng, 20, 5, 20)
        trie = RPTrie(grid, spec.fn, need_dmax=False)
        trie.build(list(data.items()), mode="basic")
        restored = pickle.loads(pickle.dumps(trie))
        for q in slow_walks(rng, 5, 25, 40).values():
            for k in (1, 3, 5):
                got = search_topk(restored, data, q, k, measure=spec)
                exp = brute_force_topk(data.items(), q, k, measure=spec)
                assert topk_dists_equal(got, exp)
