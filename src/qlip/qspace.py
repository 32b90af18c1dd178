"""The metric space of unordered Q-tuples of points in R^n.

A value is a multiset of Q points (repetitions allowed), stored canonically as
a lexicographically sorted (Q, n) array so equal multisets compare bitwise.
The matching metric G pairs the two tuples by the permutation minimizing the
sum of squared distances; W1 uses linear costs and always dominates G.
"""
from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

_BRUTE_MAX_Q = 8


def _canonical(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts[:, None]
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("expected a (Q, n) array of points")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    order = np.lexsort(pts.T[::-1])
    return np.ascontiguousarray(pts[order])


class QPoint:
    """Canonical unordered Q-tuple of points in R^n."""

    __slots__ = ("points",)

    def __init__(self, points):
        object.__setattr__(self, "points", _canonical(points))
        self.points.setflags(write=False)

    def __setattr__(self, name, value):
        raise AttributeError("QPoint is immutable")

    @property
    def q(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[1]

    def __eq__(self, other):
        return (
            isinstance(other, QPoint)
            and self.points.shape == other.points.shape
            and bool(np.array_equal(self.points, other.points))
        )

    def __hash__(self):
        return hash((self.points.shape, self.points.tobytes()))

    def __repr__(self):
        rows = ", ".join("(" + ", ".join(f"{v:g}" for v in p) + ")" for p in self.points)
        return f"QPoint[{rows}]"

    @staticmethod
    def singleton(p, q: int = 1) -> "QPoint":
        p = np.atleast_1d(np.asarray(p, dtype=float))
        return QPoint(np.tile(p, (q, 1)))

    def to_json(self) -> dict:
        return {"q": self.q, "n": self.n, "points": self.points.tolist()}

    @staticmethod
    def from_json(obj) -> "QPoint":
        if isinstance(obj, str):
            obj = json.loads(obj)
        pts = np.asarray(obj["points"], dtype=float)
        if pts.shape != (obj["q"], obj["n"]):
            raise ValueError("point array does not match declared (q, n)")
        return QPoint(pts)


def _check_compatible(s: QPoint, t: QPoint):
    if s.q != t.q or s.n != t.n:
        raise ValueError(f"incompatible tuples: ({s.q},{s.n}) vs ({t.q},{t.n})")


def _pairwise_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    d = a[:, None, :] - b[None, :, :]
    return np.einsum("ijk,ijk->ij", d, d)


def _min_assignment(cost: np.ndarray, method: str):
    """Least total cost of a perfect matching of the square cost matrix."""
    q = len(cost)
    if method == "hungarian":
        rows, cols = linear_sum_assignment(cost)
        return cost[rows, cols].sum()
    if method == "brute":
        if q > _BRUTE_MAX_Q:
            raise ValueError(f"brute force limited to Q <= {_BRUTE_MAX_Q}")
        return min(cost[range(q), perm].sum() for perm in itertools.permutations(range(q)))
    raise ValueError(f"unknown method {method!r}")


def metric_g(s: QPoint, t: QPoint, method: str = "hungarian") -> float:
    """Matching metric: min over permutations of the root sum of squared gaps."""
    _check_compatible(s, t)
    return float(np.sqrt(_min_assignment(_pairwise_sq(s.points, t.points), method)))


def wasserstein1(s: QPoint, t: QPoint) -> float:
    """Linear-cost matching distance; dominates metric_g."""
    _check_compatible(s, t)
    return float(_min_assignment(np.sqrt(_pairwise_sq(s.points, t.points)),
                                 "hungarian"))


def mean_eta(t: QPoint) -> np.ndarray:
    """Barycenter of the tuple."""
    return t.points.mean(axis=0)


def separation_diameter(t: QPoint) -> tuple[float, float]:
    """(separation, diameter): min gap between distinct values, max gap overall.

    Separation is +inf when all Q points coincide.
    """
    pts = t.points
    d = np.sqrt(_pairwise_sq(pts, pts))
    iu = np.triu_indices(t.q, k=1)
    gaps = d[iu]
    diameter = float(gaps.max()) if gaps.size else 0.0
    distinct = gaps[gaps > 0.0]
    separation = float(distinct.min()) if distinct.size else float("inf")
    return separation, diameter


def translate(t: QPoint, y) -> QPoint:
    """Shift every point by y; a G-isometry."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (t.n,):
        raise ValueError(f"offset must have shape ({t.n},)")
    return QPoint(t.points + y)


@dataclass(frozen=True)
class BlockDecomposition:
    """Partition of a Q-tuple into groups pairwise farther apart than the threshold."""

    blocks: tuple  # tuple of (multiplicity, QPoint)
    threshold: float

    def __post_init__(self):
        for mult, blk in self.blocks:
            if mult != blk.q:
                raise ValueError("block multiplicity must match its point count")
        for (_, a), (_, b) in itertools.combinations(self.blocks, 2):
            d = np.sqrt(_pairwise_sq(a.points, b.points))
            if d.min() <= self.threshold:
                raise ValueError("blocks are not separated beyond the threshold")


def separate_blocks(t: QPoint, threshold: float) -> BlockDecomposition:
    """Single-linkage split: points chain-connected at gaps <= threshold share a block."""
    if threshold < 0:
        raise ValueError("threshold must be nonnegative")
    pts = t.points
    d = np.sqrt(_pairwise_sq(pts, pts))
    parent = list(range(t.q))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(t.q):
        for j in range(i + 1, t.q):
            if d[i, j] <= threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i in range(t.q):
        groups.setdefault(find(i), []).append(i)
    blocks = [QPoint(pts[idx]) for idx in groups.values()]
    blocks.sort(key=lambda b: b.points[0].tolist() + [b.q])
    return BlockDecomposition(
        blocks=tuple((b.q, b) for b in blocks), threshold=float(threshold)
    )


def random_qpoint(rng: np.random.Generator, q: int, n: int,
                  cluster: float = 0.0) -> QPoint:
    """Random standard normal tuple; cluster > 0 shrinks points toward a
    common center."""
    pts = rng.normal(size=(q, n))
    if cluster > 0:
        center = rng.normal(size=n)
        pts = center + pts * cluster
    return QPoint(pts)
