"""Traced run: per-layer numbers from spans around public calls.

Every span wraps a call from this file into one module of ``repro``:
``core.partition``, ``core.pivots``, ``dist.framework``/``dist.repose``,
``core.rptrie``, ``core.succinct``, ``core.search`` and
``core.measures``. Build and search work that runs inside Spark tasks is
replayed here on the driver, over the packs the index collected, so that
it can be timed and counted call by call.
"""
from __future__ import annotations

import pickle
import statistics

from repro.core.measures import METRICS, get_measure
from repro.core.partition import assign_partitions, dataset_bounds
from repro.core.pivots import query_pivot_dists, select_pivots
from repro.core.rptrie import RPTrie
from repro.core.search import SearchStats, search_topk
from repro.core.succinct import trie_size_bytes
from repro.dist import framework
from repro.dist.framework import sample_trajectories

from perfbench.oracle import same_answer

#: ``Repose``'s default ``pivot_pool``: the sample pivots are chosen from
PIVOT_POOL = 100
_COUNTERS = SearchStats.__slots__


def _median(xs) -> float:
    return statistics.median(xs) if xs else 0.0


def traced_setup(tracer, df, wl, queries, seed, build):
    """Set up once with spans; returns the index, its packs and metrics."""
    fn = get_measure(wl.measure)
    out = {}
    with tracer.span("setup"):
        with tracer.span("partition.dataset_bounds"):
            bounds = dataset_bounds(df)
        with tracer.span("partition.assign_partitions"):
            counts = (
                assign_partitions(df, wl.n_partitions, wl.strategy, bounds=bounds)
                .groupBy("pid")
                .count()
                .collect()
            )
        sizes = [r["count"] for r in counts]
        out["partition.skew"] = max(sizes) / (sum(sizes) / wl.n_partitions)
        if wl.measure in METRICS and wl.n_pivots:
            with tracer.span("pivots.select"):
                pool = sample_trajectories(df, PIVOT_POOL, seed=seed)
                select_pivots([p for _, p in pool], wl.n_pivots, fn, seed=seed)
        with tracer.span("repose.build"):
            index = build()
        with tracer.span("query", qid=0):
            warm = index.query(queries[0][1], wl.k)
    with tracer.span("framework.collect_packs"):
        packs = index.rdd.collect()

    blobs = [pickle.dumps(p) for p in packs]
    for blob in blobs:
        # an empty worker-side pack cache forces the full restore
        framework._PACK_CACHE.clear()
        with tracer.span("framework.pack_restore"):
            pickle.loads(blob)
    framework._PACK_CACHE.clear()

    node_mismatch = 0
    for pack in packs:
        t = pack.trie
        trie = RPTrie(
            t.grid,
            t.fn,
            t.pivots,
            collapse_ref_for_dists=t.collapse_ref_for_dists,
            need_dmax=t.need_dmax,
        )
        with tracer.span("rptrie.build"):
            trie.build(list(pack.trajs.items()), mode=index.config["trie_mode"])
        with tracer.span("succinct.trie_size_bytes"):
            trie_size_bytes(trie)
        node_mismatch += trie.node_count() != pack.node_count

    out.update(
        {
            "framework.pack_restore_s": max(tracer.durations("framework.pack_restore")),
            "pivots.select_s": tracer.total("pivots.select"),
            "partition.bounds_s": tracer.total("partition.dataset_bounds"),
            "partition.assign_s": tracer.total("partition.assign_partitions"),
            "rptrie.build_s": tracer.total("rptrie.build"),
            "rptrie.build_max_s": max(tracer.durations("rptrie.build")),
            "succinct.size_s": tracer.total("succinct.trie_size_bytes"),
            "rptrie.nodes": index.total_trie_nodes,
            "rptrie.pickled_bytes": sum(len(b) for b in blobs),
        }
    )
    return index, packs, warm, out, node_mismatch


class TracedQueries:
    """``ask(qid, q)`` for the closed loop, with spans around each layer.

    Each traced query is preceded by the same query untraced, so that
    the traced and untraced wall clocks come from the same moments.
    """

    def __init__(self, tracer, index, packs, wl):
        self.tracer = tracer
        self.index = index
        self.packs = packs
        self.wl = wl
        self.fn = get_measure(wl.measure)
        self.pivots = index.config["pivots"]
        self.trajs = {tid: p for pack in packs for tid, p in pack.trajs.items()}
        self.untraced: list[float] = []
        self.replay_mismatch = 0

    def __call__(self, qid, q):
        tr, index, k = self.tracer, self.index, self.wl.k
        index.query(q, k)
        self.untraced.append(index.last_query_time)
        with tr.span("query", qid=qid):
            with tr.span("framework.query") as s:
                ans = index.query(q, k)
                s["local_max"] = index.last_local_max
                s["local_sum"] = sum(index.last_local_times)
            if self.pivots:
                with tr.span("pivots.query_pivot_dists"):
                    query_pivot_dists(q, self.pivots, self.fn)
            with tr.span("framework.noop_job"):
                index.rdd.map(lambda p: p.pid).collect()
            with tr.span("search.search_topk") as s:
                stats = SearchStats()
                local = []
                for pack in self.packs:
                    local += search_topk(
                        pack.trie, pack.trajs, q, k,
                        measure=pack.measure, stats=stats, **pack.params,
                    )
                s.update({c: getattr(stats, c) for c in _COUNTERS})
            replay = sorted(local, key=lambda x: (x[0], x[1]))[:k]
            self.replay_mismatch += not same_answer(replay, ans)
            with tr.span("measures.exact") as s:
                for _, tid in ans:
                    self.fn(q, self.trajs[tid])
                s["calls"] = len(ans)
        return ans

    def metrics(self) -> dict:
        tr, k = self.tracer, self.wl.k
        spans = [s for s in tr.spans if s["name"] == "framework.query"]
        search = [s for s in tr.spans if s["name"] == "search.search_topk"]
        exact = [s for s in tr.spans if s["name"] == "measures.exact"]
        calls = sum(s["calls"] for s in exact)
        query_s = tr.median("framework.query")
        out = {
            "framework.noop_job_s": tr.median("framework.noop_job"),
            "framework.local_max_s": _median([s["local_max"] for s in spans]),
            "framework.local_sum_s": _median([s["local_sum"] for s in spans]),
            "framework.query_s": query_s,
            "tracing.overhead_s": query_s - _median(self.untraced),
            "search.local_s": tr.median("search.search_topk"),
            "search.exact_per_result": _median([s["exact_computed"] / k for s in search]),
            "measures.exact_us": 1e6 * tr.total("measures.exact") / max(calls, 1),
            "pivots.query_dists_s": tr.median("pivots.query_pivot_dists"),
        }
        for c in _COUNTERS:
            out[f"search.{c}"] = _median([s[c] for s in search])
        return out
