"""Multi-valued functions on uniform grids.

Values are unordered q-tuples per node.  The Dirichlet energy uses matched
finite differences: each grid edge contributes the squared matching metric of
its endpoint tuples over the spacing, weighted by a trapezoid rule in the
transverse directions (exact for affine single-valued fields) and optionally
by per-node region weights (coverage fractions for disks).  One edge table,
`grid_edges`, carries these weights for both energies, the energy density and
the Dirichlet solver.

Extension and mollification route through the embedded coordinates, and
stray values are retracted with the almost-projection machinery.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .embed import xi_batch, xi_inverse
from .qspace import QPoint, metric_g

_DISK_SUB = 4  # disk_weights: samples per axis of a rim cell
_LIP_STENCIL = 2  # lipschitz_and_osc: largest node offset per axis


@dataclass(frozen=True)
class GridDomain:
    """Square [c-r, c+r]^m or the inscribed ball B_r(c)."""

    kind: str
    center: tuple
    radius: float

    def __post_init__(self):
        if self.kind not in ("square", "ball"):
            raise ValueError("kind must be 'square' or 'ball'")
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @property
    def m(self) -> int:
        return len(self.center)

    def to_json(self):
        return {"kind": self.kind, "center": list(self.center), "radius": self.radius}

    @staticmethod
    def from_json(obj):
        return GridDomain(obj["kind"], tuple(obj["center"]), float(obj["radius"]))


def square(radius: float = 1.0, center=(0.0, 0.0)) -> GridDomain:
    return GridDomain("square", tuple(float(c) for c in center), float(radius))


def ball(radius: float = 1.0, center=(0.0, 0.0)) -> GridDomain:
    return GridDomain("ball", tuple(float(c) for c in center), float(radius))


class QGridFunction:
    """q-tuple of values in R^n at each node of a uniform tensor grid."""

    def __init__(self, domain: GridDomain, res: int, values: np.ndarray,
                 mask: np.ndarray = None):
        self.domain = domain
        self.res = int(res)
        if self.res < 2:
            raise ValueError("a grid needs res >= 2 nodes per axis")
        values = np.asarray(values, dtype=float)
        m = domain.m
        if values.shape[:m] != (res,) * m or values.ndim != m + 2:
            raise ValueError("values must have shape grid^m x q x n")
        if not np.isfinite(values).all():
            raise ValueError("field values must be finite")
        self.values = values
        if mask is None:
            if domain.kind == "ball":
                r2 = np.sum((self.nodes() - np.asarray(domain.center)) ** 2, axis=-1)
                mask = r2 <= domain.radius ** 2 + 1e-12
            else:
                mask = np.ones((res,) * m, dtype=bool)
        self.mask = np.asarray(mask, dtype=bool)
        if self.mask.shape != (res,) * m:
            raise ValueError("mask shape mismatch")

    # -- geometry ------------------------------------------------------------

    @property
    def m(self) -> int:
        return self.domain.m

    @property
    def q(self) -> int:
        return self.values.shape[-2]

    @property
    def n(self) -> int:
        return self.values.shape[-1]

    @property
    def spacing(self) -> float:
        return 2.0 * self.domain.radius / (self.res - 1)

    def axes(self):
        c, r = np.asarray(self.domain.center), self.domain.radius
        return [np.linspace(ci - r, ci + r, self.res) for ci in c]

    def nodes(self) -> np.ndarray:
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1)

    def nearest_values(self, pts) -> np.ndarray:
        """Values at the node nearest each point of `pts` (..., m), with
        points off the grid clipped to its edge."""
        c = np.asarray(self.domain.center)
        idx = np.rint((np.asarray(pts, dtype=float) - c + self.domain.radius)
                      / self.spacing)
        idx = np.clip(idx, 0, self.res - 1).astype(int)
        return self.values[tuple(np.moveaxis(idx, -1, 0))]

    def copy(self) -> "QGridFunction":
        return QGridFunction(self.domain, self.res, self.values.copy(), self.mask.copy())

    # -- serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "domain": self.domain.to_json(),
            "res": self.res,
            "q": self.q,
            "n": self.n,
            "values": self.values.reshape(-1).tolist(),
            "mask": self.mask.reshape(-1).astype(int).tolist(),
        }

    @staticmethod
    def from_json(obj) -> "QGridFunction":
        dom = GridDomain.from_json(obj["domain"])
        res, q, n = int(obj["res"]), int(obj["q"]), int(obj["n"])
        vals = np.asarray(obj["values"], dtype=float).reshape((res,) * dom.m + (q, n))
        mask = np.asarray(obj["mask"], dtype=int).reshape((res,) * dom.m).astype(bool)
        return QGridFunction(dom, res, vals, mask)


def from_callable(domain: GridDomain, res: int, fn, q: int, n: int) -> QGridFunction:
    """Sample fn(point) -> (q, n) array at every node."""
    probe = QGridFunction(domain, res, np.zeros((res,) * domain.m + (q, n)))
    pts = probe.nodes().reshape(-1, domain.m)
    vals = np.stack([np.asarray(fn(p), dtype=float).reshape(q, n) for p in pts])
    return QGridFunction(domain, res, vals.reshape((res,) * domain.m + (q, n)))


# ---------------------------------------------------------------------------
# energy


@functools.lru_cache(maxsize=None)
def _perm_bank(q: int) -> np.ndarray:
    """All permutations of range(q), one per row (read-only, shared)."""
    bank = np.array(list(itertools.permutations(range(q))))
    bank.flags.writeable = False
    return bank


def _perm_costs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairing cost of every permutation in the bank: entry k of the
    (q!, ...) stack is |a - b[..., bank[k], :]|^2 for tuples (..., q, n)."""
    return np.stack([np.sum((a - b[..., p, :]) ** 2, axis=(-2, -1))
                     for p in _perm_bank(a.shape[-2])])


def _align(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """b with each tuple reordered into its cheapest pairing with a."""
    best = _perm_bank(a.shape[-2])[np.argmin(_perm_costs(a, b), axis=0)]
    return np.take_along_axis(b, best[..., None], axis=-2)


def matched_diff_sq(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Squared matching metric between aligned arrays of tuples (..., q, n)."""
    if a.shape[-2] <= 6:
        return _perm_costs(a, b).min(axis=0)
    flat_a = a.reshape(-1, *a.shape[-2:])
    flat_b = b.reshape(-1, *b.shape[-2:])
    out = np.array([metric_g(QPoint(x), QPoint(y)) ** 2
                    for x, y in zip(flat_a, flat_b)])
    return out.reshape(a.shape[:-2])


def grid_edges(mask: np.ndarray, weights: np.ndarray = None, h: float = 1.0):
    """The grid's edge table: for each axis, flat (low, high, weight) arrays
    of the edges along it with both ends in the mask and positive weight.

    Ends are indices into the C-order ravel of the grid.  An edge's weight
    is the mean of its end nodes' weights (`weights` times the mask; default:
    the mask) times the transverse trapezoid factor (exact for affine
    single-valued fields) times h^(m-2), so w @ |value[high] - value[low]|^2,
    summed over the axes, is the Dirichlet energy."""
    m, res = mask.ndim, mask.shape[0]
    node_w = mask * (1.0 if weights is None else np.asarray(weights, dtype=float))
    ids = np.arange(mask.size).reshape(mask.shape)
    ends = np.ones(res)
    ends[[0, -1]] = 0.5
    for ax in range(m):
        lo = (slice(None),) * ax + (slice(0, res - 1),)
        hi = (slice(None),) * ax + (slice(1, res),)
        # 1/2 for each transverse axis on whose boundary the edge lies
        trap = functools.reduce(np.multiply, np.ix_(
            *(np.ones(res - 1) if a == ax else ends for a in range(m))))
        w = 0.5 * (node_w[lo] + node_w[hi]) * (mask[lo] & mask[hi]) \
            * trap * h ** (m - 2)
        keep = w > 0
        yield ids[lo][keep], ids[hi][keep], w[keep]


def _edge_costs(values, mask, weights, h: float, edge_cost):
    """(low, high, weight, edge_cost(low, high)) per axis of the edge table;
    `values` has the grid shape of `mask` plus the value axes."""
    flat = values.reshape((mask.size,) + values.shape[mask.ndim:])
    for a, b, w in grid_edges(mask, weights, h):
        yield a, b, w, edge_cost(flat[a], flat[b])


def _edge_energy(values, mask, weights, h: float, edge_cost) -> float:
    """The edge table's weights dotted with edge_cost, summed over the axes."""
    return sum((float(w @ cost) for _, _, w, cost
                in _edge_costs(values, mask, weights, h, edge_cost)), 0.0)


def dirichlet_energy(f: QGridFunction, weights: np.ndarray = None) -> float:
    """Sum over edges of matched difference quotients squared, times cell
    measure; `weights` are per-node region fractions (default: the mask).
    An empty or zero-weight region has energy 0."""
    return _edge_energy(f.values, f.mask, weights, f.spacing, matched_diff_sq)


def _sq_dist(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.sum((a - b) ** 2, axis=-1)


def dirichlet_energy_embedded(emb: np.ndarray, h: float, mask: np.ndarray = None,
                              weights: np.ndarray = None) -> float:
    """Same quadrature for a single-valued embedded field (..., D)."""
    if mask is None:
        mask = np.ones(emb.shape[:-1], dtype=bool)
    return _edge_energy(emb, mask, weights, h, _sq_dist)


def energy_density(f: QGridFunction) -> np.ndarray:
    """Per-node energy density: m / (number of incident edges) times the sum
    of their matched difference quotients squared, over the edges with both
    ends in the mask; 0 at nodes with none."""
    ends, costs = [], []
    for a, b, _, cost in _edge_costs(f.values, f.mask, None, f.spacing,
                                     matched_diff_sq):
        ends += [a, b]
        costs += [cost / f.spacing ** 2] * 2
    ends = np.concatenate(ends)
    out = np.bincount(ends, np.concatenate(costs), minlength=f.mask.size)
    count = np.bincount(ends, minlength=f.mask.size)
    return (out * (f.m / np.maximum(count, 1))).reshape(f.mask.shape)


def disk_coverage(pts: np.ndarray, h: float, center, radius: float,
                  sub: int) -> np.ndarray:
    """Coverage fraction inside the disk of the spacing-h dual cell of each
    point: 1 or 0 beyond one spacing of the rim, a sub^m-point sample on it."""
    c = np.asarray(center, dtype=float)
    m = pts.shape[-1]
    d = np.linalg.norm(pts - c, axis=-1)
    inner = d <= radius - h  # dual cell certainly inside
    outer = d >= radius + h
    w = inner.astype(float)
    edge = ~inner & ~outer
    if np.any(edge):
        offs = (np.arange(sub) + 0.5) / sub - 0.5
        stencil = np.stack(np.meshgrid(*([offs] * m), indexing="ij"),
                           axis=-1).reshape(-1, m) * h
        epts = pts[edge][:, None, :] + stencil[None, :, :]
        w[edge] = (np.linalg.norm(epts - c, axis=-1) <= radius).mean(axis=1)
    return w


def disk_weights(f: QGridFunction, center, radius: float) -> np.ndarray:
    """Coverage fraction of each node's dual cell inside the disk."""
    return disk_coverage(f.nodes(), f.spacing, center, radius, _DISK_SUB)


def disk_kernel(h: float, s: float) -> np.ndarray:
    """Coverage of a radius-s disk on the centred (2k+1)^2 planar node
    lattice of spacing h, k = ceil(s/h) + 1."""
    k = int(math.ceil(s / h)) + 1
    # small kernels are all rim; refine them until quantization is ~1%
    sub = max(4, int(math.ceil(4.0 * h / s)) * 8)
    ax = np.arange(-k, k + 1) * h
    pts = np.stack(np.meshgrid(ax, ax, indexing="ij"), axis=-1)
    return disk_coverage(pts, h, (0.0, 0.0), s, sub)


def kernel_sum(a: np.ndarray, kern: np.ndarray) -> np.ndarray:
    """Sum of `a` under `kern` centred on each node, zero beyond the array."""
    from scipy.signal import fftconvolve  # loaded on first use only

    return fftconvolve(a, kern, mode="same")


def masked_kernel_mean(values: np.ndarray, mask: np.ndarray, kern: np.ndarray,
                       floor: float):
    """Kernel-weighted mean of `values` (the grid shape of `mask`, plus any
    trailing axes) over the masked nodes.

    Returns (mean, weight): weight is the kernel mass on masked nodes, and
    the mean is 0 where the weight is at most `floor`."""
    w = kernel_sum(mask.astype(float), kern)
    chans = values.reshape(mask.shape + (-1,)) * mask[..., None]
    num = np.empty(chans.shape)
    for i in range(chans.shape[-1]):
        num[..., i] = kernel_sum(chans[..., i], kern)
    good = w > floor
    out = np.zeros_like(num)
    out[good] = num[good] / w[good][..., None]
    return out.reshape(values.shape), w


# ---------------------------------------------------------------------------
# Lipschitz constant and oscillation


def lipschitz_and_osc(f: QGridFunction):
    """Max difference quotient over node pairs within the stencil, and
    the exact min-over-centers of the worst spread (solved as a weighted
    smallest enclosing problem on tuple means and spreads)."""
    from .coneproj import offset_enclosing_center

    h = f.spacing
    m = f.m
    lip_sq = 0.0
    # its own stencil, not grid_edges: the pairs include diagonal offsets
    # up to _LIP_STENCIL nodes away, which the edge table does not
    for off in itertools.product(range(-_LIP_STENCIL, _LIP_STENCIL + 1), repeat=m):
        if all(o == 0 for o in off) or off < tuple(-o for o in off):
            continue  # skip null and mirror-duplicate offsets
        src = [slice(max(0, -o), f.res - max(0, o)) for o in off]
        dst = [slice(max(0, o), f.res + min(0, o)) for o in off]
        a = f.values[tuple(src)]
        b = f.values[tuple(dst)]
        both = f.mask[tuple(src)] & f.mask[tuple(dst)]
        if not np.any(both):
            continue
        cost = matched_diff_sq(a, b)
        d2 = (h ** 2) * sum(o * o for o in off)
        lip_sq = max(lip_sq, float(cost[both].max()) / d2)

    valid = f.values[f.mask]
    eta = valid.mean(axis=-2)
    spread = np.sum((valid - eta[..., None, :]) ** 2, axis=(-2, -1))
    if np.allclose(spread, 0) and np.allclose(eta, eta.reshape(-1, f.n)[0]):
        return math.sqrt(lip_sq), 0.0
    _, worst = offset_enclosing_center(eta.reshape(-1, f.n), spread.reshape(-1),
                                       weight=float(f.q))
    return math.sqrt(lip_sq), math.sqrt(max(worst, 0.0))


# ---------------------------------------------------------------------------
# extension, mollification, retraction


def lipschitz_extend(f: QGridFunction, keep: np.ndarray, lip: float,
                     machinery=None) -> QGridFunction:
    """McShane inf-convolution per embedded coordinate off `keep`, followed by
    retraction of values that left the cone; nodes in `keep` are preserved
    bitwise."""
    keep = np.asarray(keep, dtype=bool)
    if not np.any(keep):
        raise ValueError("empty anchor set")
    if machinery is None:
        from .roproj import default_machinery
        machinery = default_machinery(f.n, f.q)
    spec, lat = machinery.spec, machinery.lattice
    emb = xi_batch(spec, f.values)
    pts = f.nodes()
    anchors = pts[keep]
    avals = emb[keep]
    out = f.copy()
    todo = np.argwhere(~keep & f.mask)
    if len(todo) == 0:
        return out
    qpts = pts[tuple(np.asarray(todo).T)]
    dists = np.linalg.norm(qpts[:, None, :] - anchors[None, :, :], axis=-1)
    ext = np.min(avals[None, :, :] + lip * dists[:, :, None], axis=1)
    out.values[tuple(todo.T)] = xi_inverse(
        lat, retract_embedded(ext, machinery), tol=1e-5)
    return out


def _bump_kernel(m: int, h: float, eps: float) -> np.ndarray:
    if eps < h:
        raise ValueError("mollification radius below grid spacing")
    k = int(math.floor(eps / h + 1e-9))
    ax = np.arange(-k, k + 1) * h
    grids = np.meshgrid(*([ax] * m), indexing="ij")
    r2 = sum(g ** 2 for g in grids) / eps ** 2
    with np.errstate(divide="ignore", over="ignore"):
        kern = np.where(r2 < 1.0, np.exp(-1.0 / np.maximum(1.0 - r2, 1e-300)), 0.0)
    return kern / kern.sum()


def mollify_embedded(f: QGridFunction, eps: float, machinery=None):
    """Mask-aware convolution of the embedded field with a smooth bump.

    Returns (embedded array, weight array); the ratio is normalized so the
    kernel integrates to one over the valid region.  Values are meaningful
    where the weight is positive; the output generally leaves the cone.
    """
    if machinery is None:
        from .roproj import default_machinery
        machinery = default_machinery(f.n, f.q)
    emb = xi_batch(machinery.spec, f.values)
    return masked_kernel_mean(emb, f.mask, _bump_kernel(f.m, f.spacing, eps), 1e-10)


def retract_embedded(emb: np.ndarray, machinery) -> np.ndarray:
    """Bring embedded node values back onto the cone: exact nearest point when
    the residual is tiny, the full almost-projection otherwise."""
    flat = emb.reshape(-1, emb.shape[-1])
    out, resid = machinery.lattice.nearest_point_batch(flat)
    tol = machinery.on_image_tol * (1 + np.linalg.norm(flat, axis=1))
    off = np.flatnonzero(resid > tol)
    if len(off):
        out[off] = machinery.rho_star_batch(flat[off])
    return out.reshape(emb.shape)
