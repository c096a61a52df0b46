"""Lower-bound admissibility and CompLB-incrementality tests.

Verifies, per measure: LB_o of every node on a trajectory's root→leaf
path never exceeds the true distance (Lemma 1/3/4 admissibility), LB is
non-decreasing along the path (Lemma 2 monotonicity), LB_t at the leaf is
admissible and ≥ LB_o, the pivot bound LB_p is admissible for metrics,
and the O(m) incremental CompLB state equals a from-scratch O(mn)
recomputation (Algorithm 1 / Fig. 4 / Fig. 5).
"""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.measures import METRICS, get_measure, pair_dists, resolve_measure
from repro.core.rptrie import RPTrie
from repro.core.search import _pivot_lbs
from repro.core.zorder import Grid, points_to_rect_dist
from tests.util import (
    ALL, MEASURE_PARAMS, iter_chains, rnd_dataset, rnd_query, subtree_tids,
)

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)
DATA = rnd_dataset(1, 80)
PIVOTS = [DATA[5], DATA[40]]


def build_trie(measure):
    kw = MEASURE_PARAMS[measure]
    fn = get_measure(measure, **kw)
    pv = PIVOTS if measure in METRICS else []
    trie = RPTrie(GRID, fn, pv)
    mode = "opt" if measure == "hausdorff" else "basic"
    trie.build(list(DATA.items()), mode=mode)
    return trie


def find_path(trie, tid):
    """Root→leaf node chain whose leaf stores ``tid``."""

    def dfs(node, chain):
        if node.leaf is not None and tid in node.leaf.tids:
            return chain
        for c in node.children.values():
            r = dfs(c, chain + [c])
            if r:
                return r
        return None

    return dfs(trie.root, [])


def max_suffix(node):
    """Depth of the subtree below ``node`` (0 for a node without children)."""
    return max((1 + max_suffix(c) for c in node.children.values()), default=0)


def path_refpoints(chain):
    return GRID.refpoints_of_z(np.array([n.z for n in chain], dtype=np.int64))


def path_rects(chain):
    return GRID.cell_rects_of_z(np.array([n.z for n in chain], dtype=np.int64))


def walk(trie, measure, qpts, tid):
    """Replay the engine along tid's path one node at a time (chains of
    length 1 — `advance` is sequential, so this equals chained calls)."""
    kw = MEASURE_PARAMS[measure]
    engine = resolve_measure(measure, **kw).engine(qpts, GRID.half_diag)
    chain = find_path(trie, tid)
    assert chain, f"tid {tid} not found"
    state = engine.root_state()
    node = trie.root
    lbs, states = [], []
    for nxt, refpt, rect in zip(chain, path_refpoints(chain), path_rects(chain)):
        state = engine.advance(state, refpt[None, :], rect[None, :], np.inf)
        assert state is not None
        lbs.append(float(engine.node_lb(state, nxt.depth, max_suffix(nxt))))
        states.append(state)
        node = nxt
    leaf_lb = engine.leaf_lb(state, node.leaf, node.depth)
    return lbs, states, chain, leaf_lb, engine


@pytest.mark.parametrize("measure", ALL)
@pytest.mark.parametrize("tid", [0, 17, 42, 63])
def test_lb_admissible_along_path(measure, tid):
    qpts = rnd_query(tid)
    trie = build_trie(measure)
    fn = get_measure(measure, **MEASURE_PARAMS[measure])
    true = fn(qpts, DATA[tid])
    lbs, _, _, leaf_lb, _ = walk(trie, measure, qpts, tid)
    assert all(lb <= true + 1e-9 for lb in lbs), (measure, lbs, true)
    assert leaf_lb <= true + 1e-9


@pytest.mark.parametrize("measure", ["hausdorff", "frechet", "dtw", "erp", "edr"])
@pytest.mark.parametrize("tid", [3, 29])
def test_lb_monotone_along_path(measure, tid):
    """Lemma 2 (and its Frechet/DTW analogues): child LB ≥ parent LB."""
    qpts = rnd_query(100 + tid)
    trie = build_trie(measure)
    lbs, *_ = walk(trie, measure, qpts, tid)
    assert all(b >= a - 1e-9 for a, b in zip(lbs, lbs[1:])), lbs


@pytest.mark.parametrize("measure", ALL)
def test_leaf_lb_at_least_internal_lb(measure):
    qpts = rnd_query(55)
    trie = build_trie(measure)
    lbs, _, _, leaf_lb, _ = walk(trie, measure, qpts, 12)
    assert leaf_lb >= lbs[-1] - 1e-9  # LB_t is the tighter leaf bound


# ------------------------------------------------- CompLB vs batch recompute

def test_hausdorff_state_matches_batch():
    """Algorithm 1: incremental (r, c_max) == recomputed from the full
    distance matrix of Fig. 4."""
    qpts = rnd_query(1)
    trie = build_trie("hausdorff")
    _, states, chain, _, _ = walk(trie, "hausdorff", qpts, 33)
    refs = path_refpoints(chain)
    d = pair_dists(qpts, refs)
    r, cmax = states[-1]
    assert np.allclose(r, d.min(axis=1))
    assert cmax == pytest.approx(d.min(axis=0).max())


def test_frechet_state_matches_batch():
    """Incremental column == last column of the full Frechet DP (Fig. 5)."""
    qpts = rnd_query(2)
    trie = build_trie("frechet")
    _, states, chain, _, _ = walk(trie, "frechet", qpts, 8)
    refs = path_refpoints(chain)
    d = pair_dists(qpts, refs)
    m, n = d.shape
    f = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if i == 0 and j == 0:
                best = d[0, 0]
            elif i == 0:
                best = max(d[0, j], f[0, j - 1])
            elif j == 0:
                best = max(d[i, 0], f[i - 1, 0])
            else:
                best = max(d[i, j], min(f[i - 1, j - 1], f[i - 1, j], f[i, j - 1]))
            f[i, j] = best
    assert np.allclose(states[-1], f[:, -1])


def test_dtw_state_matches_batch():
    """Incremental column == last column of the DTW DP over d' (Eq. 15)."""
    qpts = rnd_query(3)
    trie = build_trie("dtw")
    _, states, chain, _, _ = walk(trie, "dtw", qpts, 21)
    d = np.stack(
        [points_to_rect_dist(qpts, r) for r in path_rects(chain)], axis=1
    )
    m, n = d.shape
    f = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            if i == 0 and j == 0:
                prev = 0.0
            elif i == 0:
                prev = f[0, j - 1]
            elif j == 0:
                prev = f[i - 1, 0]
            else:
                prev = min(f[i - 1, j - 1], f[i - 1, j], f[i, j - 1])
            f[i, j] = d[i, j] + prev
    assert np.allclose(states[-1], f[:, -1])


# ----------------------------------------------------------- pivot pruning

@pytest.mark.parametrize("measure", sorted(METRICS))
def test_pivot_lb_admissible(measure):
    """LB_p from a leaf's HR never exceeds the true distance of any
    trajectory stored in that leaf (§IV-D with the symmetric bound)."""
    kw = MEASURE_PARAMS[measure]
    fn = get_measure(measure, **kw)
    trie = build_trie(measure)
    qpts = rnd_query(9)
    dqp = np.array([fn(qpts, p) for p in trie.pivots])
    checked = 0
    for c in iter_chains(trie):
        if c.leaf is None:
            continue
        lbp = float(_pivot_lbs(dqp, c.leaf.hr, trie.pivot_slack))
        for tid in c.leaf.tids:
            assert lbp <= fn(qpts, DATA[tid]) + 1e-9
            checked += 1
    assert checked == len(DATA)


def test_pivot_lb_internal_nodes_admissible():
    fn = get_measure("hausdorff")
    trie = build_trie("hausdorff")
    qpts = rnd_query(10)
    dqp = np.array([fn(qpts, p) for p in trie.pivots])
    for c in iter_chains(trie):
        lbp = float(_pivot_lbs(dqp, c.hr, trie.pivot_slack))
        for tid in subtree_tids(c):
            assert lbp <= fn(qpts, DATA[tid]) + 1e-9


def test_pivot_lb_can_prune():
    """For a far-away query, LB_p must actually exceed zero somewhere —
    i.e. the bound does real work."""
    fn = get_measure("hausdorff")
    trie = build_trie("hausdorff")
    qpts = rnd_query(11) + 500.0
    dqp = np.array([fn(qpts, p) for p in trie.pivots])
    lbs = [
        float(_pivot_lbs(dqp, c.leaf.hr, trie.pivot_slack))
        for c in iter_chains(trie)
        if c.leaf is not None
    ]
    assert max(lbs) > 0
