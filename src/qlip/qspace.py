"""The metric space of unordered Q-tuples of points in R^n.

A value is a multiset of Q points (repetitions allowed), stored canonically as
a lexicographically sorted (Q, n) array so equal multisets compare bitwise.
The matching metric G pairs the two tuples by the permutation minimizing the
sum of squared distances; W1 uses linear costs and always dominates G.
Arrays of tuples (..., Q, n) are matched in one pass over a bank of all Q!
permutations for Q <= _BANK_MAX_Q, and per tuple by `metric_g` above it.
"""
from __future__ import annotations

import functools
import itertools

import numpy as np

_BRUTE_MAX_Q = 8
_BANK_MAX_Q = 6  # largest q whose q! permutations the bank enumerates


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
        from scipy.optimize import linear_sum_assignment  # loaded on first use

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


@functools.lru_cache(maxsize=None)
def _perm_bank(q: int) -> np.ndarray:
    """All permutations of range(q), one per row (read-only, shared); q
    above _BANK_MAX_Q raises ValueError before any is built."""
    if q > _BANK_MAX_Q:
        raise ValueError(f"q = {q}: grid-backed matchings enumerate all q! "
                         f"permutations, so they support q <= {_BANK_MAX_Q}")
    bank = np.array(list(itertools.permutations(range(q))))
    bank.flags.writeable = False
    return bank


def _perm_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairing cost of every permutation in the bank: entry k of the
    (q!, ...) stack is |a - b[..., bank[k], :]|^2 for tuples (..., q, n),
    the batch shapes of a and b broadcast together.

    The q*q*n squared-gap planes (a[..., i, c] - b[..., j, c])^2 are formed
    once, sheet-major, each a contiguous batch array.  Each row then adds its
    planes in place in one fixed order: sheet i = 0, 1, ..., and within a
    sheet coordinate c = 0, 1, ....  That is numpy's sequential order for a
    sum over q*n < 8 terms, so those costs are bitwise the sums of the
    gathered squared gaps; above that numpy sums pairwise, and the two agree
    to rounding.  Coincident sheets give equal terms in equal places, so
    their pairings tie exactly."""
    a, b = np.broadcast_arrays(a, b)
    q, n = a.shape[-2:]
    at, bt = (np.ascontiguousarray(np.moveaxis(x, (-2, -1), (0, 1)))
              for x in (a, b))
    planes = at[:, None] - bt[None, :]
    planes *= planes
    bank = _perm_bank(q)
    costs = np.empty(bank.shape[:1] + planes.shape[3:], dtype=planes.dtype)
    for k, perm in enumerate(bank):
        first, *rest = (planes[i, j, c, ...]
                        for i, j in enumerate(perm) for c in range(n))
        row = costs[k, ...]
        row[...] = first
        for term in rest:
            row += term
    return costs


def least_pairing(a: np.ndarray, b: np.ndarray):
    """(cost, row) over tuples (..., q, n): each pair's least pairing cost,
    which is its squared matching metric, and the first bank row attaining it."""
    costs = _perm_costs(a, b)
    return costs.min(axis=0), np.argmin(costs, axis=0)


def _align(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b with each tuple reordered into its cheapest pairing with a."""
    best = _perm_bank(a.shape[-2])[least_pairing(a, b)[1]]
    return np.take_along_axis(b, best[..., None], axis=-2)


def matched_diff_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared matching metric between aligned arrays of tuples (..., q, n)."""
    if a.shape[-2] <= _BANK_MAX_Q:
        return _perm_costs(a, b).min(axis=0)
    pairs = zip(a.reshape(-1, *a.shape[-2:]), b.reshape(-1, *b.shape[-2:]))
    return np.array([metric_g(QPoint(x), QPoint(y)) ** 2
                     for x, y in pairs]).reshape(a.shape[:-2])


def wasserstein1(s: QPoint, t: QPoint) -> float:
    """Linear-cost matching distance; dominates metric_g."""
    _check_compatible(s, t)
    return float(_min_assignment(np.sqrt(_pairwise_sq(s.points, t.points)),
                                 "hungarian"))


def random_qpoint(rng: np.random.Generator, q: int, n: int,
                  cluster: float = 0.0) -> QPoint:
    """Random standard normal tuple; cluster > 0 shrinks points toward a
    common center."""
    pts = rng.normal(size=(q, n))
    if cluster > 0:
        center = rng.normal(size=n)
        pts = center + pts * cluster
    return QPoint(pts)
