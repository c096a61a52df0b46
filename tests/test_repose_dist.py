"""Distributed REPOSE end-to-end tests: exactness vs driver-side brute
force across measures / k / strategies / trie modes, plus the IT / IS /
node-count bookkeeping used by the table jobs."""
from __future__ import annotations

import numpy as np
import pytest

from repro.core.search import brute_force_topk
from repro.dist.repose import Repose
from tests.util import MEASURE_PARAMS, topk_dists_equal

DELTA = 0.15
NP = 4


@pytest.fixture(scope="module")
def repose_hausdorff(spark, tdrive_smoke):
    return Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA, n_partitions=NP
    )


@pytest.fixture(scope="module")
def repose_frechet(spark, tdrive_smoke):
    return Repose(
        spark, tdrive_smoke, measure="frechet", delta=DELTA, n_partitions=NP
    )


@pytest.mark.parametrize("k", [1, 5, 15])
def test_hausdorff_exact(repose_hausdorff, tdrive_trajs, tdrive_queries, k):
    for _, q in tdrive_queries:
        got = repose_hausdorff.query(q, k)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="hausdorff")
        assert topk_dists_equal(got, exp)


@pytest.mark.parametrize("k", [1, 10])
def test_frechet_exact(repose_frechet, tdrive_trajs, tdrive_queries, k):
    for _, q in tdrive_queries:
        got = repose_frechet.query(q, k)
        exp = brute_force_topk(tdrive_trajs, q, k, measure="frechet")
        assert topk_dists_equal(got, exp)


@pytest.mark.parametrize("measure", ["dtw", "erp", "edr", "lcss"])
def test_other_measures_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, measure):
    kw = dict(MEASURE_PARAMS[measure])
    if measure == "erp":
        kw = {}  # default gap = region center, resolved inside Repose
    rep = Repose(
        spark, tdrive_smoke, measure=measure, delta=DELTA, n_partitions=NP, **kw
    )
    _, q = tdrive_queries[0]
    got = rep.query(q, 8)
    exp = brute_force_topk(
        tdrive_trajs, q, 8, measure=measure,
        eps=kw.get("eps"), gap=rep.config["measure"].gap,
    )
    assert topk_dists_equal(got, exp)
    rep.unpersist()


@pytest.mark.parametrize("strategy", ["heterogeneous", "homogeneous", "random"])
def test_all_strategies_exact(spark, tdrive_smoke, tdrive_trajs, tdrive_queries, strategy):
    rep = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, strategy=strategy,
    )
    _, q = tdrive_queries[1]
    got = rep.query(q, 10)
    exp = brute_force_topk(tdrive_trajs, q, 10, measure="hausdorff")
    assert topk_dists_equal(got, exp)
    rep.unpersist()


def test_query_self_returns_zero(repose_hausdorff, tdrive_trajs):
    tid, pts = tdrive_trajs[3]
    got = repose_hausdorff.query(pts, 1)
    assert got[0][0] == pytest.approx(0.0, abs=1e-12)


def test_k_larger_than_dataset(repose_hausdorff, tdrive_trajs, tdrive_queries):
    _, q = tdrive_queries[0]
    got = repose_hausdorff.query(q, len(tdrive_trajs) + 10)
    assert len(got) == len(tdrive_trajs)


def test_build_stats(repose_hausdorff, tdrive_trajs):
    rep = repose_hausdorff
    assert rep.build_time > 0
    assert rep.index_bytes > 0
    assert rep.total_trie_nodes > 0
    assert len(rep.summaries) == NP
    assert sum(s["n_trajs"] for s in rep.summaries) == len(tdrive_trajs)
    # heterogeneous round-robin → balanced partitions
    sizes = [s["n_trajs"] for s in rep.summaries]
    assert max(sizes) - min(sizes) <= 1


def test_query_time_recorded(repose_hausdorff, tdrive_queries):
    _, q = tdrive_queries[0]
    repose_hausdorff.query(q, 5)
    assert repose_hausdorff.last_query_time > 0


def test_trie_mode_opt_fewer_nodes(spark, tdrive_smoke):
    """Fig. 7: the optimized (re-arranged) trie has fewer nodes than the
    unoptimized (dedup) trie, and both answer queries identically."""
    opt = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, trie_mode="opt",
    )
    dedup = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, trie_mode="dedup",
    )
    assert opt.total_trie_nodes < dedup.total_trie_nodes
    q = np.array([[116.5, 39.8], [116.6, 39.9], [116.7, 40.0]])
    assert topk_dists_equal(opt.query(q, 10), dedup.query(q, 10))
    opt.unpersist()
    dedup.unpersist()


def test_pivot_counts(spark, tdrive_smoke):
    rep = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, n_pivots=3,
    )
    assert len(rep.config["pivots"]) == 3
    rep.unpersist()
    rep0 = Repose(
        spark, tdrive_smoke, measure="hausdorff", delta=DELTA,
        n_partitions=NP, n_pivots=0,
    )
    assert rep0.config["pivots"] == []
    rep0.unpersist()


def test_dtw_gets_no_pivots(spark, tdrive_smoke):
    rep = Repose(
        spark, tdrive_smoke, measure="dtw", delta=DELTA, n_partitions=NP
    )
    # non-metric: pivots are not selected (paper §VI-B)
    assert rep.config["pivots"] == []
    rep.unpersist()


def test_erp_default_gap_is_region_center(spark, tdrive_smoke):
    rep = Repose(
        spark, tdrive_smoke, measure="erp", delta=DELTA, n_partitions=NP
    )
    minx, miny, maxx, maxy = rep.config["bounds"]
    assert rep.config["measure"].gap == ((minx + maxx) / 2, (miny + maxy) / 2)
    rep.unpersist()
