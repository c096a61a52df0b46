"""Degenerate inputs to the RP-Trie build and to distributed REPOSE: an
empty partition, one-point trajectories, all-duplicate trajectories,
``k`` beyond the dataset size, queries outside the grid, and more
partitions than trajectories. Every case must build, encode, survive a
pickle round trip and answer exactly as brute force."""
from __future__ import annotations

import pickle

import numpy as np
import pytest

from repro.core.measures import resolve_measure
from repro.core.rptrie import RPTrie
from repro.core.search import brute_force_topk, search_topk
from repro.core.succinct import trie_size_bytes
from repro.core.zorder import Grid
from repro.dist.repose import Repose
from tests.util import MEASURE_PARAMS, rnd_traj, topk_dists_equal

GRID = Grid.from_bounds(-5, -5, 15, 15, delta=0.8)

#: every valid (measure, mode) pairing: dedup/opt need order independence
CASES = [
    ("hausdorff", "basic"), ("hausdorff", "dedup"), ("hausdorff", "opt"),
    ("frechet", "basic"), ("dtw", "basic"),
    ("erp", "basic"), ("edr", "basic"), ("lcss", "basic"),
]


def _datasets():
    rng = np.random.default_rng(3)
    base = rnd_traj(rng, 9)
    return {
        "empty": {},
        "one_point": {i: rng.random((1, 2)) * 10 for i in range(6)},
        "duplicates": {i: base.copy() for i in range(5)},
        "one_point_duplicates": {i: np.array([[2.5, 7.5]]) for i in range(4)},
    }


DATASETS = _datasets()
PIVOTS = [rnd_traj(np.random.default_rng(s), 6) for s in (11, 12)]
QUERIES = [
    rnd_traj(np.random.default_rng(21), 7),
    np.array([[2.5, 7.5]]),
    np.array([[40.0, -30.0], [41.0, -29.0]]),  # outside the grid
]


def assert_brute_force(got, trajs, q, k, spec):
    exp = brute_force_topk(trajs.items(), q, k, measure=spec)
    if k >= len(trajs):
        assert got == exp  # every trajectory, ordered by (dist, tid)
    else:
        assert topk_dists_equal(got, exp)  # ties may pick other tids


@pytest.mark.parametrize("name", list(DATASETS))
@pytest.mark.parametrize("measure,mode", CASES)
def test_degenerate_build_encodes_pickles_and_searches_exactly(measure, mode, name):
    trajs = DATASETS[name]
    spec = resolve_measure(measure, **MEASURE_PARAMS[measure])
    trie = RPTrie(
        GRID, spec.fn, PIVOTS if spec.is_metric else [],
        collapse_ref_for_dists=spec.collapse_invariant,
        need_dmax=spec.is_metric,
    )
    trie.build(list(trajs.items()), mode=mode)
    assert trie.n_trajs == len(trajs)
    assert isinstance(trie_size_bytes(trie), int)
    restored = pickle.loads(pickle.dumps(trie))
    for q in QUERIES:
        for k in (1, 3, len(trajs) + 2):
            for t in (trie, restored):
                got = search_topk(t, trajs, q, k, measure=spec)
                assert_brute_force(got, trajs, q, k, spec)


def test_repose_with_more_partitions_than_trajectories(spark, tdrive_smoke, tdrive_trajs):
    tids = sorted(t for t, _ in tdrive_trajs)[:5]
    small = tdrive_smoke.where(tdrive_smoke.tid.isin(tids)).cache()
    trajs = {t: p for t, p in tdrive_trajs if t in tids}
    rep = Repose(spark, small, measure="hausdorff", delta=0.15, n_partitions=8)
    try:
        assert sum(s["n_trajs"] for s in rep.summaries) == len(trajs)
        spec = rep.config["measure"]
        for _, q in tdrive_trajs[50:52]:
            for k in (1, 3, 7):
                assert_brute_force(rep.query(q, k), trajs, q, k, spec)
    finally:
        rep.unpersist()
        small.unpersist()
