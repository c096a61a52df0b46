"""CompLB engines: incremental lower-bound state per measure (paper §IV, §VI).

Per measure, an *engine* carries the incremental CompLB state (Algorithm
1): appending one reference point to a node's reference trajectory
updates the state in O(m) instead of recomputing the O(mn) distance
matrix:

* Hausdorff — row minima ``r[0..m)`` and the column-max ``c_max``
  (Fig. 4); ``LB_o = max(c_max − √2δ/2, 0)`` (Eq. 2) and, on leaves,
  ``LB_t = max(max(max_i r_i, c_max) − D_max, 0)`` (Eq. 3).
* Frechet — the last DP column ``f`` (Fig. 5, Eq. 9);
  ``LB_o = max(c_min − √2δ/2, 0)`` (Eq. 7), ``LB_t`` from ``f_m,n``
  (Eq. 8, tightened with the stored leaf ``D_max ≤ √2δ/2``).
* DTW — the last DP column built from ``d'(q_i, cell_j)``, the min
  distance from a query point to the *cell* (Eqs. 13–15); no √2δ/2
  correction because ``d'`` already under-estimates.
* ERP / EDR / LCSS — extensions per §VI closing paragraph: the same
  column-DP machinery with optimistic (cell-based) costs.

Every engine is built as ``engine(qpts, slack)`` by a ``Measure`` spec
(``core.measures``), which binds ERP's gap and EDR/LCSS's ε. ``advance``
takes a run of reference points / cell rects (a path-compressed chain,
see ``core.search``) and returns ``None`` once the monotone column
minimum crosses ``dk``.
"""
from __future__ import annotations

import numpy as np

from .rptrie import Leaf


def _col_point_dists(qpts: np.ndarray, p: np.ndarray) -> list[float]:
    """d(q_i, p) for one reference point — one DP column's costs."""
    dx = qpts[:, 0] - p[0]
    dy = qpts[:, 1] - p[1]
    return np.sqrt(dx * dx + dy * dy).tolist()


def _col_rect_dists(qpts: np.ndarray, rect: np.ndarray) -> list[float]:
    """d'(q_i, cell) for one cell rect — optimistic column costs."""
    dx = np.maximum(np.maximum(rect[0] - qpts[:, 0], qpts[:, 0] - rect[2]), 0.0)
    dy = np.maximum(np.maximum(rect[1] - qpts[:, 1], qpts[:, 1] - rect[3]), 0.0)
    return np.sqrt(dx * dx + dy * dy).tolist()


class HausdorffEngine:
    """CompLB for Hausdorff (Algorithm 1). State = (r, c_max)."""

    def __init__(self, qpts: np.ndarray, slack: float):
        self.q = qpts
        self.m = len(qpts)
        self.slack = slack  # √2δ/2

    def root_state(self):
        return (np.full(self.m, np.inf), 0.0)

    def advance(self, state, refpts, rects, dk):
        r, cmax = state
        r = r.copy()
        qx, qy = self.q[:, 0], self.q[:, 1]
        for p in refpts:
            d = np.sqrt((qx - p[0]) ** 2 + (qy - p[1]) ** 2)
            np.minimum(r, d, out=r)
            c = float(d.min())
            if c > cmax:
                cmax = c
                if cmax - self.slack >= dk:
                    return None
        return (r, cmax)

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return max(state[1] - self.slack, 0.0)

    def leaf_lb(self, state, leaf: Leaf, depth: int) -> float:
        r, cmax = state
        return max(max(float(r.max()), cmax) - leaf.dmax, 0.0)


class FrechetEngine:
    """CompLB for discrete Frechet (Eqs. 7–9). State = last DP column."""

    def __init__(self, qpts: np.ndarray, slack: float):
        self.q = qpts
        self.m = len(qpts)
        self.slack = slack

    def root_state(self):
        return None  # no column yet

    def advance(self, state, refpts, rects, dk):
        f = state
        m = self.m
        cut = dk + self.slack
        for p in refpts:
            d = _col_point_dists(self.q, p)
            nf = [0.0] * m
            if f is None:
                run = d[0]
                nf[0] = run
                for i in range(1, m):
                    di = d[i]
                    run = di if di > run else run
                    nf[i] = run
            else:
                v, p0 = d[0], f[0]
                nf[0] = v if v > p0 else p0
                prev = f[0]  # f_{i-1, j-1}
                for i in range(1, m):
                    fi = f[i]
                    best = prev if prev < fi else fi
                    w = nf[i - 1]
                    if w < best:
                        best = w
                    di = d[i]
                    nf[i] = di if di > best else best
                    prev = fi
            f = nf
            if min(f) >= cut:  # c_min monotone ⇒ safe chain abort
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return max(min(state) - self.slack, 0.0)

    def leaf_lb(self, state, leaf: Leaf, depth: int) -> float:
        return max(float(state[-1]) - leaf.dmax, 0.0)


class DtwEngine:
    """CompLB for DTW (Eqs. 13–15) using cell distances d'."""

    def __init__(self, qpts: np.ndarray, slack: float):
        self.q = qpts
        self.m = len(qpts)

    def root_state(self):
        return None

    def advance(self, state, refpts, rects, dk):
        f = state
        m = self.m
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            nf = [0.0] * m
            if f is None:
                acc = 0.0
                for i in range(m):
                    acc += d[i]
                    nf[i] = acc
            else:
                nf[0] = d[0] + f[0]
                prev = f[0]
                for i in range(1, m):
                    fi = f[i]
                    best = prev if prev < fi else fi
                    w = nf[i - 1]
                    if w < best:
                        best = w
                    nf[i] = d[i] + best
                    prev = fi
            f = nf
            if min(f) >= dk:  # c_min (Eq. 13) monotone
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return min(state)

    def leaf_lb(self, state, leaf: Leaf, depth: int) -> float:
        return float(state[-1])  # f_{m,n}, Eq. 14


class ErpEngine:
    """ERP extension: column DP with optimistic match/gap costs.

    Matching q_i↔cell_j costs d'(q_i, cell_j) ≤ d(q_i, p_j); gapping the
    data point costs d'(cell_j, g) ≤ d(p_j, g); gapping q_i costs the
    exact d(q_i, g). State = column of length m+1 (incl. boundary row).
    """

    def __init__(self, qpts: np.ndarray, slack: float, gap):
        self.q = qpts
        self.m = len(qpts)
        self.gap = np.asarray(gap, dtype=float)
        self.ga = np.sqrt(((qpts - self.gap) ** 2).sum(1)).tolist()

    def root_state(self):
        col = [0.0] * (self.m + 1)
        acc = 0.0
        for i, g in enumerate(self.ga):
            acc += g
            col[i + 1] = acc
        return col

    def advance(self, state, refpts, rects, dk):
        f = state
        m, ga = self.m, self.ga
        gq = self.gap
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            dx = max(rect[0] - gq[0], gq[0] - rect[2], 0.0)
            dy = max(rect[1] - gq[1], gq[1] - rect[3], 0.0)
            gp = float(np.hypot(dx, dy))  # d'(cell_j, g)
            nf = [0.0] * (m + 1)
            nf[0] = f[0] + gp
            for i in range(1, m + 1):
                # E[i][j] = min(match, gap q_i, gap p_j)
                best = f[i - 1] + d[i - 1]
                v = nf[i - 1] + ga[i - 1]
                if v < best:
                    best = v
                v = f[i] + gp
                if v < best:
                    best = v
                nf[i] = best
            f = nf
            if min(f) >= dk:
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return min(state)

    def leaf_lb(self, state, leaf: Leaf, depth: int) -> float:
        return float(state[-1])


class EdrEngine:
    """EDR extension: 0/1 edit DP with optimistic cell matching."""

    def __init__(self, qpts: np.ndarray, slack: float, eps: float):
        self.q = qpts
        self.m = len(qpts)
        self.eps = eps

    def root_state(self):
        return [float(i) for i in range(self.m + 1)]  # E[i][0] = i

    def advance(self, state, refpts, rects, dk):
        f = state
        m, eps = self.m, self.eps
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            nf = [0.0] * (m + 1)
            nf[0] = f[0] + 1.0
            for i in range(1, m + 1):
                best = f[i - 1] + (0.0 if d[i - 1] <= eps else 1.0)
                v = f[i] + 1.0
                if v < best:
                    best = v
                v = nf[i - 1] + 1.0
                if v < best:
                    best = v
                nf[i] = best
            f = nf
            if min(f) >= dk:
                return None
        return f

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        return min(state)

    def leaf_lb(self, state, leaf: Leaf, depth: int) -> float:
        return float(state[-1])


class LcssEngine:
    """LCSS-distance extension: optimistic match DP + suffix-aware bound.

    For a node at depth j with max remaining depth s, the final LCSS
    length is ≤ min(max_i(L_i + m − i), max_i L_i + s) and the final
    min(m, n) ≥ min(m, j), giving an admissible distance lower bound.
    """

    def __init__(self, qpts: np.ndarray, slack: float, eps: float):
        self.q = qpts
        self.m = len(qpts)
        self.eps = eps

    def root_state(self):
        return [0.0] * (self.m + 1)

    def advance(self, state, refpts, rects, dk):
        f = state
        m, eps = self.m, self.eps
        for rect in rects:
            d = _col_rect_dists(self.q, rect)
            nf = [0.0] * (m + 1)
            for i in range(1, m + 1):
                keep = f[i] if f[i] >= nf[i - 1] else nf[i - 1]
                if d[i - 1] <= eps:
                    grown = f[i - 1] + 1.0
                    nf[i] = grown if grown > keep else keep
                else:
                    nf[i] = keep
            f = nf
        return f  # no mid-chain abort: the LCSS bound needs node context

    def node_lb(self, state, depth: int, max_suffix: int) -> float:
        m = self.m
        ub_diag = max(v + (m - i) for i, v in enumerate(state))
        ub_suffix = max(state) + max_suffix
        ub = ub_diag if ub_diag < ub_suffix else ub_suffix
        denom = max(1, min(m, depth))
        return max(0.0, 1.0 - min(1.0, ub / denom))

    def leaf_lb(self, state, leaf: Leaf, depth: int) -> float:
        denom = max(1, min(self.m, depth))
        return max(0.0, 1.0 - min(1.0, float(state[-1]) / denom))
