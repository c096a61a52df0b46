"""Exact top-k by brute force, vectorised across candidate trajectories.

``repro.core.search.brute_force_topk`` runs one Python DP per candidate,
which costs seconds per query at benchmark scale. The kernels below run
the same recurrences, but each step operates on a vector holding one cell
of every candidate's DP. They use the same floating-point operations in
the same order as ``repro.core.measures`` (``sqrt(dx*dx + dy*dy)``,
min/max selections, one addition per DTW cell), so their distances equal
the repository's bit for bit; ``check_kernel`` confirms that on a sample
of candidates in every run.
"""
from __future__ import annotations

import numpy as np

from repro.core.measures import get_measure

#: candidates per vectorised block (bounds the padded (len, block) arrays)
_BLOCK = 256
#: distance tolerance of the answer check
TOL = 1e-9


class BruteForce:
    """All trajectories of a dataset, grouped for vectorised scans."""

    def __init__(self, tids: np.ndarray, trajs: list[np.ndarray], measure: str):
        self.measure = measure
        self.tids = np.asarray(tids, dtype=np.int64)
        self.trajs = trajs
        order = np.argsort([len(t) for t in trajs], kind="stable")
        self.blocks = []
        for lo in range(0, len(order), _BLOCK):
            idx = order[lo : lo + _BLOCK]
            lens = np.array([len(trajs[i]) for i in idx])
            xs = np.zeros((lens.max(), len(idx)))
            ys = np.zeros_like(xs)
            for c, i in enumerate(idx):
                xs[: lens[c], c] = trajs[i][:, 0]
                ys[: lens[c], c] = trajs[i][:, 1]
            self.blocks.append((idx, lens, xs, ys))

    def dists(self, q: np.ndarray) -> np.ndarray:
        """Distance from ``q`` to every trajectory, in input order."""
        out = np.empty(len(self.trajs))
        for idx, lens, xs, ys in self.blocks:
            out[idx] = _block_dists(self.measure, q, lens, xs, ys)
        return out

    def topk(self, q: np.ndarray, k: int) -> list[tuple[float, int]]:
        """``[(dist, tid)]`` ascending by (dist, tid), as brute_force_topk."""
        d = self.dists(q)
        order = np.lexsort((self.tids, d))[:k]
        return [(float(d[i]), int(self.tids[i])) for i in order]

    def check_kernel(self, q: np.ndarray, n: int, seed: int) -> int:
        """Compare ``n`` sampled distances with the repository's kernel.

        Returns the number of mismatches beyond ``TOL``.
        """
        fn = get_measure(self.measure)
        d = self.dists(q)
        rng = np.random.default_rng(seed)
        sample = rng.choice(len(self.trajs), size=min(n, len(self.trajs)), replace=False)
        return sum(abs(d[i] - fn(q, self.trajs[i])) > TOL for i in sample)


def _block_dists(measure, q, lens, xs, ys) -> np.ndarray:
    cols = np.arange(len(lens))
    if measure == "hausdorff":
        # padded points repeat no real point, so mask them out of both sides
        valid = np.arange(xs.shape[0])[:, None] < lens[None, :]
        rows = np.full(len(lens), -np.inf)
        colmin = np.full(xs.shape, np.inf)
        for qx, qy in q:
            dx = qx - xs
            dy = qy - ys
            d = np.sqrt(dx * dx + dy * dy)
            rows = np.maximum(rows, np.where(valid, d, np.inf).min(0))
            np.minimum(colmin, d, out=colmin)
        return np.maximum(rows, np.where(valid, colmin, -np.inf).max(0))
    if measure not in ("frechet", "dtw"):
        raise ValueError(f"no vectorised kernel for {measure!r}")
    prev = None
    for qx, qy in q:
        dx = qx - xs
        dy = qy - ys
        d = np.sqrt(dx * dx + dy * dy)
        if prev is None:
            prev = (
                np.maximum.accumulate(d, axis=0)
                if measure == "frechet"
                else np.add.accumulate(d, axis=0)
            )
            continue
        cur = np.empty_like(d)
        up = np.minimum(prev[:-1], prev[1:])  # min(prev[j-1], prev[j])
        if measure == "frechet":
            cur[0] = np.maximum(d[0], prev[0])
            for j in range(1, len(d)):
                cur[j] = np.maximum(d[j], np.minimum(up[j - 1], cur[j - 1]))
        else:
            cur[0] = d[0] + prev[0]
            for j in range(1, len(d)):
                cur[j] = d[j] + np.minimum(up[j - 1], cur[j - 1])
        prev = cur
    return prev[lens - 1, cols]


def same_answer(got, want) -> bool:
    """Exact ``(dist, tid)`` list equality with a ``TOL`` distance slack."""
    return len(got) == len(want) and all(
        gt == wt and abs(gd - wd) <= TOL for (gd, gt), (wd, wt) in zip(got, want)
    )
