"""Graph currents over a disk at small excess.

A current here is a multi-valued graph on a grid plus optional declared
spikes (bad cells carrying extra mass).  The module computes mass and
cylindrical excess with a Taylor-remainder diagnostic, the non-centered
maximal function of the excess over a finite ball family, a BV functional of
slice pushforwards, the threshold-and-extend Lipschitz approximation
pipeline, ambient mass-ratio profiles, and the mollify-blend competitor used
for energy comparisons.

Analytic sheet callables (values and Jacobians), when supplied, route the
integrals through polar Gauss quadrature; otherwise matched cell differences
on the grid are used.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from . import qfield as qf
from .embed import xi_batch, xi_inverse
from .qspace import _align

_OMEGA = {1: 2.0, 2: math.pi}  # unit-ball measure per base dimension
_POLAR_NODES = (96, 32)  # excess disk quadrature: directions, Gauss radii
_PROFILE_NODES = (64, 24)  # mass-ratio ray quadrature: directions, Gauss radii
_SHORT_MAP_BOX, _SHORT_MAP_SAMPLES = 4.0, 300  # short-map spot check
_COMPETITOR_SIGMAS = 10  # competitor: candidate blend radii in [1.25 r, 2 r]
_EXCESS_FLOOR = 1e-12  # least excess ratio E of the competitor and the probes
_CYLINDER_SLACK = 1e-9  # how far a ball or region may leave its cylinder
_SPIKE_RADIUS = 0.75  # least radius of a spike's disk, in grid spacings


@dataclass(frozen=True)
class Spike:
    """Extra excess mass riding on the graph inside a small disk; optional
    replacement slice values inside the disk."""

    center: tuple
    radius: float
    excess: float
    values: tuple = None

    def to_json(self):
        return {"center": list(self.center), "radius": self.radius,
                "excess": self.excess,
                "values": None if self.values is None else
                [list(row) for row in self.values]}


class GraphCurrent:
    """Multiplicity-Q graph over B_{4r}(x) with declared spikes."""

    def __init__(self, base: qf.QGridFunction, center=(0.0, 0.0),
                 radius4: float = None, spikes=(),
                 sheet_values=None, sheet_jacobians=None):
        self.base = base
        self.center = np.asarray(center, dtype=float)
        self.radius4 = float(radius4 if radius4 is not None else base.domain.radius)
        reach = np.abs(self.center - np.asarray(base.domain.center)).max() + self.radius4
        if reach > base.domain.radius + _CYLINDER_SLACK:
            raise ValueError("cylinder exceeds the grid extent")
        self.spikes = tuple(spikes)
        self.sheet_values = sheet_values
        self.sheet_jacobians = sheet_jacobians

    @functools.cached_property
    def excess(self) -> ExcessField:
        """The current's excess field, built on first use."""
        return ExcessField(self)

    @property
    def r(self) -> float:
        return self.radius4 / 4.0

    @property
    def m(self) -> int:
        return self.base.m

    @property
    def q(self) -> int:
        return self.base.q

    @property
    def n(self) -> int:
        return self.base.n

    def sheet_area_density(self, pts: np.ndarray) -> np.ndarray:
        """Per-sheet area integrand sqrt(det(Id + J^T J)) at points."""
        if self.sheet_jacobians is None:
            raise ValueError("no analytic jacobians on this current")
        J = np.asarray(self.sheet_jacobians(np.asarray(pts, dtype=float)))
        return _sqrt_det(J)

    def sheet_energy_density(self, pts: np.ndarray) -> np.ndarray:
        if self.sheet_jacobians is None:
            raise ValueError("no analytic jacobians on this current")
        J = np.asarray(self.sheet_jacobians(np.asarray(pts, dtype=float)))
        return np.sum(J ** 2, axis=(-2, -1))

    def to_json(self):
        return {"base": self.base.to_json(), "center": self.center.tolist(),
                "radius4": self.radius4,
                "spikes": [sp.to_json() for sp in self.spikes]}


def current_from_json(blob) -> GraphCurrent:
    """Rebuild a grid-backed current from ``to_json`` output, ignoring other
    keys (older files carry "chart").  Analytic sheet callables are not
    serialized; the result integrates off the stored node values only."""
    spikes = [Spike(center=tuple(sp["center"]), radius=sp["radius"],
                    excess=sp["excess"],
                    values=None if sp["values"] is None else
                    tuple(tuple(row) for row in sp["values"]))
              for sp in blob.get("spikes", ())]
    return GraphCurrent(qf.QGridFunction.from_json(blob["base"]),
                        center=blob["center"], radius4=blob["radius4"],
                        spikes=spikes)


# ---------------------------------------------------------------------------
# integrands


def _sqrt_det(J: np.ndarray) -> np.ndarray:
    """sqrt(det(Id_m + J^T J)) per sheet for J of shape (..., q, n, m)."""
    G = np.einsum("...ni,...nj->...ij", J, J)
    if J.shape[-1] == 1:
        det = 1.0 + G[..., 0, 0]
    else:
        det = (1.0 + G[..., 0, 0]) * (1.0 + G[..., 1, 1]) - G[..., 0, 1] * G[..., 1, 0]
    return np.sqrt(det)


def _tangent_defect(J: np.ndarray) -> np.ndarray:
    """Per-sheet 1 - <tangent plane, horizontal plane> = 1 - 1/sqrt(det)."""
    a = _sqrt_det(J)
    return 1.0 - 1.0 / a


def _corners(nodes: np.ndarray):
    """Views of a node array at the 2^m corners of each grid cell, the low
    corner first and the first axis varying fastest (this order fixes how
    _cell_average rounds)."""
    for off in itertools.product((0, 1), repeat=nodes.ndim):
        yield nodes[tuple(slice(o, o + n - 1)
                          for o, n in zip(reversed(off), nodes.shape))]


def _cell_valid(mask: np.ndarray) -> np.ndarray:
    """Cells whose corners all lie in the mask."""
    return functools.reduce(np.logical_and, _corners(mask))


def _cell_average(w: np.ndarray) -> np.ndarray:
    """Mean of a per-node weight over the corners of each cell."""
    return 0.5 ** w.ndim * functools.reduce(np.add, _corners(w))


def _cell_jacobians(f: qf.QGridFunction):
    """Matched forward differences at cells: (cells..., q, n, m) plus a
    cell validity mask.  Sheet alignment per cell minimizes the pair cost
    against the low corner."""
    low = (slice(0, f.res - 1),) * f.m
    a = f.values[low]
    cols = []
    for ax in range(f.m):
        b = f.values[low[:ax] + (slice(1, f.res),) + low[ax + 1:]]
        cols.append((_align(a, b) - a) / f.spacing)
    return np.stack(cols, axis=-1), _cell_valid(f.mask)


def _disk_overlap(d: float, r1: float, r2: float) -> float:
    """Area of the intersection of two disks at center distance d."""
    if d >= r1 + r2:
        return 0.0
    if d <= abs(r1 - r2):
        rr = min(r1, r2)
        return math.pi * rr * rr
    a1 = math.acos((d * d + r1 * r1 - r2 * r2) / (2 * d * r1))
    a2 = math.acos((d * d + r2 * r2 - r1 * r1) / (2 * d * r2))
    return (r1 * r1 * (a1 - math.sin(2 * a1) / 2)
            + r2 * r2 * (a2 - math.sin(2 * a2) / 2))


def _spike_ball_mass(spikes, h: float, center, radius: float) -> float:
    """Spike excess inside B_radius(center); each spike spreads its excess
    evenly over a disk of radius at least _SPIKE_RADIUS h."""
    total = 0.0
    for sp in spikes:
        rr = max(sp.radius, _SPIKE_RADIUS * h)
        d = float(np.linalg.norm(np.asarray(center) - np.asarray(sp.center)))
        total += sp.excess * _disk_overlap(d, radius, rr) / (math.pi * rr * rr)
    return total


def _polar_integral(fn, center, radius):
    """Integral of fn over the disk B_radius(center), Gauss in the radius."""
    n_theta, n_rad = _POLAR_NODES
    t, wt = leggauss(n_rad)
    t = 0.5 * radius * (t + 1.0)
    wt = 0.5 * radius * wt
    th = (np.arange(n_theta) + 0.5) * (2 * math.pi / n_theta)
    u = np.stack([np.cos(th), np.sin(th)], axis=-1)
    pts = np.asarray(center) + t[:, None, None] * u[None, :, :]
    vals = np.asarray(fn(pts), dtype=float)
    return float(np.sum(vals * (t * wt)[:, None]) * (2 * math.pi / n_theta))


# ---------------------------------------------------------------------------
# excess


class ExcessField:
    """Per-node excess density of a graph current plus spike mass, with ball
    and weighted-region integrals (additive over disjoint regions)."""

    def __init__(self, T: GraphCurrent):
        # T's data, not T: T keeps its field, so a reference back to T would
        # make a cycle that only the cyclic garbage collector frees
        self.base, self.center, self.radius4 = T.base, T.center, T.radius4
        self.spikes, self.sheet_jacobians = T.spikes, T.sheet_jacobians
        f = T.base
        self.h = f.spacing
        nodes = f.nodes()
        if T.sheet_jacobians is not None:
            dens = T.sheet_area_density(nodes).sum(axis=-1) - T.q
        else:
            J, ok = _cell_jacobians(f)
            cell = np.where(ok, _sqrt_det(J).sum(axis=-1) - T.q, 0.0)
            # each node averages its 2^m adjacent cells (edge-padded)
            dens = _cell_average(np.pad(cell, 1, mode="edge"))
        self.graph_density = np.where(f.mask, dens, 0.0)
        spike = np.zeros_like(self.graph_density)
        for sp in T.spikes:
            w = qf.disk_weights(f, sp.center, max(sp.radius, _SPIKE_RADIUS * self.h))
            tot = w.sum() * self.h ** f.m
            if tot > 0:
                spike += sp.excess * w / tot
        self.spike_density = spike
        self.density = self.graph_density + spike

    def region_excess(self, weights: np.ndarray) -> float:
        w = np.asarray(weights, dtype=float) * self.base.mask
        return float(np.sum(self.density * w) * self.h ** self.base.m)

    def ball_excess(self, center, radius: float) -> float:
        if np.linalg.norm(np.asarray(center) - self.center) + radius \
                > self.radius4 + _CYLINDER_SLACK:
            raise ValueError("ball leaves the cylinder of validity")
        if self.sheet_jacobians is not None:
            graph = _polar_integral(
                lambda p: _sqrt_det(self.sheet_jacobians(p)).sum(axis=-1) - self.base.q,
                center, radius)
        else:
            w = qf.disk_weights(self.base, center, radius)
            graph = float(np.sum(self.graph_density * w) * self.h ** self.base.m)
        return graph + _spike_ball_mass(self.spikes, self.h, center, radius)

    def ball_mass(self, center, radius: float) -> float:
        area = _OMEGA[self.base.m] * radius ** self.base.m
        return self.base.q * area + self.ball_excess(center, radius)

    def excess_ratio(self, radius: float) -> float:
        """E(T, C_radius(center)) = excess / (omega_m radius^m)."""
        return (self.ball_excess(self.center, radius)
                / (_OMEGA[self.base.m] * radius ** self.base.m))


def mass_and_excess(T: GraphCurrent, region=None):
    """Mass over a region plus the excess/energy/Taylor-remainder breakdown
    (kept as the tests' Taylor-remainder oracle for ExcessField).

    region: None (full B_{4r}), ("ball", center, radius), or a per-node
    weight array.  The remainder is mass - Q |region| - energy/2.
    """
    if region is None:
        region = ("ball", tuple(T.center), T.radius4)
    if isinstance(region, tuple) and region[0] == "ball":
        _, c, s = region
        if np.linalg.norm(np.asarray(c) - T.center) + s > T.radius4 + _CYLINDER_SLACK:
            raise ValueError("region outside the cylinder")
        area = _OMEGA[T.m] * s ** T.m
        if T.sheet_jacobians is not None:
            gmass = _polar_integral(
                lambda p: T.sheet_area_density(p).sum(axis=-1), c, s)
            energy = _polar_integral(
                lambda p: T.sheet_energy_density(p).sum(axis=-1), c, s)
        else:
            w = qf.disk_weights(T.base, c, s)
            gmass, energy = _grid_mass_energy(T.base, w)
        spikes = _spike_ball_mass(T.spikes, T.base.spacing, c, s)
    else:
        w = np.asarray(region, dtype=float)
        area = float(np.sum(w * T.base.mask) * T.base.spacing ** T.m)
        gmass, energy = _grid_mass_energy(T.base, w)
        spikes = float(np.sum(T.excess.spike_density * w * T.base.mask)
                       * T.base.spacing ** T.m)
    mass = gmass + spikes
    excess = mass - T.q * area
    report = {"mass": mass, "area": area, "excess": excess,
              "energy": energy, "remainder": mass - T.q * area - energy / 2.0,
              "spike_mass": spikes}
    return mass, report


def _grid_mass_energy(f: qf.QGridFunction, node_weights: np.ndarray):
    J, ok = _cell_jacobians(f)
    a = _sqrt_det(J).sum(axis=-1)
    e = np.sum(J ** 2, axis=(-3, -2, -1))
    cw = _cell_average(np.asarray(node_weights, dtype=float) * f.mask) * ok
    h = f.spacing
    return float(np.sum(a * cw) * h ** f.m), float(np.sum(e * cw) * h ** f.m)


def excess_two_ways(T: GraphCurrent, center, radius: float):
    """Excess as mass - Q area and as the tangent-defect integral against
    the mass measure; the two agree up to quadrature.  Kept as the tests'
    oracle for ExcessField.ball_excess."""
    first = T.excess.ball_excess(center, radius)
    if T.sheet_jacobians is not None:
        def defect_mass(p):
            J = np.asarray(T.sheet_jacobians(p))
            return (_tangent_defect(J) * _sqrt_det(J)).sum(axis=-1)
        second = _polar_integral(defect_mass, center, radius)
    else:
        J, ok = _cell_jacobians(T.base)
        dm = (_tangent_defect(J) * _sqrt_det(J)).sum(axis=-1)
        cw = _cell_average(qf.disk_weights(T.base, center, radius)) * ok
        second = float(np.sum(dm * cw) * T.base.spacing ** T.m)
    return first, second + _spike_ball_mass(T.spikes, T.base.spacing,
                                            center, radius)


# ---------------------------------------------------------------------------
# maximal function


def _footprint_max(a: np.ndarray, fp: np.ndarray) -> np.ndarray:
    """maximum_filter(a, footprint=fp, mode="constant", cval=-inf), exactly, by
    one 1-D running maximum per row width of fp over an -inf padded array.
    fp must be symmetric with each row one interval on the middle column,
    as the disk footprints are."""
    from scipy.ndimage import maximum_filter1d  # loaded on first use only

    k = len(fp) // 2
    width = fp.sum(axis=1)
    if not (np.array_equal(fp, fp[::-1]) and np.array_equal(
            fp, 2 * np.abs(np.arange(-k, k + 1)) < width[:, None])):
        raise ValueError("footprint rows are not centered intervals")
    pad = np.pad(a, ((k, k), (0, 0)), constant_values=-np.inf)
    out = np.full(a.shape, -np.inf)
    for w in np.unique(width[width > 0]):
        run = maximum_filter1d(pad, int(w), axis=1, mode="constant", cval=-np.inf)
        for row in np.flatnonzero(width == w):
            np.maximum(out, run[row:row + len(a)], out=out)
    return out


def maximal_excess(T: GraphCurrent):
    """Non-centered maximal function of the excess over a finite family of
    balls: grid-node centers, unit-step radii h..8h plus dyadic radii up to
    the cylinder, all constrained inside B_{4r}(x).

    Returns (M, info) with the finest-scale density field in info."""
    if T.m != 2:
        raise ValueError("maximal function implemented for planar bases")
    f = T.base
    h = f.spacing
    radii = [h * k for k in range(1, 9)]
    s = 16 * h
    while s < T.radius4 - h:
        radii.append(s)
        s *= 2.0
    radii = [s for s in radii if s <= T.radius4 - h] or [h]
    nodes = f.nodes()
    dist = np.linalg.norm(nodes - T.center, axis=-1)
    dens = T.excess.density * (h ** 2)
    M = np.full(f.values.shape[:2], -np.inf)
    finest = None
    for s in radii:
        kern = qf.disk_kernel(h, s)
        sums = qf.kernel_sum(dens, kern)
        quot = sums / (_OMEGA[2] * s ** 2)
        valid = dist <= T.radius4 - s + 1e-12
        if finest is None:
            finest = np.where(valid, quot, 0.0)
        quot = np.where(valid, quot, -np.inf)
        M = np.maximum(M, _footprint_max(quot, kern > 1e-9))
    M = np.where(np.isfinite(M), M, 0.0)
    return M, {"radii": list(radii), "finest": finest}


# ---------------------------------------------------------------------------
# the BV functional


def check_short_map(psi, n: int) -> float:
    rng = np.random.default_rng(0)
    y = rng.uniform(-_SHORT_MAP_BOX, _SHORT_MAP_BOX, size=(_SHORT_MAP_SAMPLES, n))
    step = 1e-5
    g2 = np.zeros(_SHORT_MAP_SAMPLES)
    for i in range(n):
        d = np.zeros(n)
        d[i] = step
        g2 += ((np.asarray(psi(y + d)) - np.asarray(psi(y - d))) / (2 * step)) ** 2
    return float(np.sqrt(g2.max()))


def bv_functional(T: GraphCurrent, psi, regions=None):
    """Sum of psi over the slice at each node, with the total-variation
    versus excess-times-mass inequality evaluated per region.

    psi must be 1-Lipschitz (spot checked).  Regions are per-node weight
    arrays; default is a nest of disks around the center."""
    worst = check_short_map(psi, T.n)
    if worst > 1.0 + 1e-4:
        raise ValueError("psi is not a short map: sampled slope %.4f" % worst)
    f = T.base
    vals = f.values
    phi = np.asarray(psi(vals.reshape(-1, T.n)), dtype=float)
    phi = phi.reshape(vals.shape[:-1]).sum(axis=-1)
    for sp in T.spikes:
        if sp.values is None:
            continue
        d = np.linalg.norm(f.nodes() - np.asarray(sp.center), axis=-1)
        inside = d <= sp.radius
        if inside.any():
            rep = np.asarray(psi(np.asarray(sp.values, dtype=float))).sum()
            phi[inside] = rep
    if regions is None:
        regions = [qf.disk_weights(f, T.center, T.radius4 * fr)
                   for fr in (0.25, 0.5, 0.75, 1.0)]
    h = f.spacing
    reports = []
    if T.m == 1:
        grad = np.abs(np.diff(phi)) / h
    else:
        dx = (phi[1:, :-1] - phi[:-1, :-1]) / h
        dy = (phi[:-1, 1:] - phi[:-1, :-1]) / h
        grad = np.hypot(dx, dy)
    ok = _cell_valid(f.mask)
    for w in regions:
        w = np.asarray(w, dtype=float) * f.mask
        tv = float(np.sum(grad * (_cell_average(w) * ok)) * h ** T.m)
        e = max(T.excess.region_excess(w), 0.0)
        area = float(np.sum(w) * h ** T.m)
        mass_region = T.q * area + e
        rhs = 2.0 * T.m ** 2 * e * mass_region
        reports.append({"tv": tv, "lhs_sq": tv ** 2, "rhs": rhs,
                        "margin": rhs - tv ** 2, "excess": e, "area": area})
    return phi, reports


# ---------------------------------------------------------------------------
# Lipschitz approximation


def lipschitz_approximation(T: GraphCurrent, delta11: float, strict: bool = False):
    """Threshold the maximal excess at delta11, keep the graph there, extend
    across the bad set; returns (u on B_{3r}, K mask, report).

    The smallness hypothesis 16^m E < delta11 is reported; strict=True makes
    a violation fatal."""
    f = T.base
    E = T.excess.excess_ratio(T.radius4)
    hyp_ok = bool((16 ** T.m) * E < delta11)
    if strict and not hyp_ok:
        raise ValueError("excess too large for the threshold: 16^m E = %.3g"
                         % ((16 ** T.m) * E))
    M, info = maximal_excess(T)
    dist = np.linalg.norm(f.nodes() - T.center, axis=-1)
    ball3 = (dist <= 3 * T.r + 1e-12) & f.mask
    K = (M < delta11) & ball3
    if not K.any():
        raise ValueError("threshold leaves no good set")
    inner = qf.QGridFunction(f.domain, f.res, f.values.copy(), K)
    lip_K, _ = qf.lipschitz_and_osc(inner)
    L = max(lip_K, 1e-9)
    work = qf.QGridFunction(f.domain, f.res, f.values.copy(), ball3)
    u = qf.lipschitz_extend(work, K, lip=L) if (~K & ball3).any() else work
    lip_u, osc_u = qf.lipschitz_and_osc(u)
    h = f.spacing
    r0 = 16.0 * (max(E, 0.0) / delta11) ** (1.0 / T.m)
    bad = (~K) & (dist <= T.r) & f.mask
    area_bad = float(bad.sum()) * h ** T.m
    grow = min((1.0 + r0) * T.r, T.radius4)
    big = (M > (2.0 ** -T.m) * delta11) & (dist <= grow)
    bound = (10 ** T.m / delta11) * max(T.excess.region_excess(big.astype(float)), 0.0)
    match = bool(np.array_equal(u.values[K], f.values[K]))
    report = {"E": E, "delta11": delta11, "hypothesis_ok": hyp_ok, "r0": r0,
              "lip_u": lip_u, "osc_u": osc_u, "lip_K": lip_K,
              "area_bad": area_bad, "bad_bound": bound,
              "graph_match_exact": match, "radii": info["radii"]}
    return u, K, report


# ---------------------------------------------------------------------------
# height and mass ratio


def height(T: GraphCurrent) -> float:
    """Diameter of the vertical support over B_{4r} (0 for a plane)."""
    f = T.base
    dist = np.linalg.norm(f.nodes() - T.center, axis=-1)
    sel = (dist <= T.radius4) & f.mask
    cloud = f.values[sel].reshape(-1, T.n)
    for sp in T.spikes:
        if sp.values is not None:
            cloud = np.vstack([cloud, np.asarray(sp.values, dtype=float)])
    return _diameter(cloud) if len(cloud) else 0.0


def _diameter(cloud: np.ndarray) -> float:
    """Largest distance between two points of a (k, n) cloud, taken over its
    convex hull; a flat cloud is first written in coordinates of its affine
    hull, where the hull is full-dimensional (or a segment)."""
    from scipy.spatial import ConvexHull, QhullError

    if cloud.shape[1] == 1:
        return float(cloud.max() - cloud.min())
    try:
        hull = cloud[ConvexHull(cloud).vertices]
    except QhullError:
        centred = cloud - cloud.mean(axis=0)
        _, sv, vt = np.linalg.svd(centred, full_matrices=False)
        rank = int(np.sum(sv > 1e-12 * sv[0]))
        if rank == 0:
            return 0.0
        if rank == cloud.shape[1]:
            raise
        return _diameter(centred @ vt[:rank].T)
    d = np.linalg.norm(hull[:, None, :] - hull[None, :, :], axis=-1)
    return float(d.max())


def mass_ratio_profile(T: GraphCurrent, radii):
    """rho -> rho^{-m} ||T||(B_rho(p)) on ambient balls around p = (center,
    z0) of the flat ambient space, z0 the mean of the sheets' values over the
    center; needs analytic sheets.

    Each sheet is assumed to leave the ball at most once along each ray from
    the center, as the radial quadrature of its mass assumes: the exit t* of
    every (radius, direction, sheet) is one bracketed root on [0, tmax], all
    of them found in one batched solve to 1e-14 relative in t* (an absolute
    stop lets the relative error grow like 1/rho at small radii).  A sheet
    still inside at tmax counts up to tmax; one outside at the center counts
    nothing.

    Returns (profile list of (rho, value), max downward violation)."""
    from scipy.optimize.elementwise import find_root

    if T.sheet_jacobians is None or T.sheet_values is None:
        raise ValueError("profile needs analytic sheet callables")
    radii = np.array(sorted(float(r) for r in radii))
    if radii[-1] > T.radius4:
        raise ValueError("radius exceeds the cylinder")
    z0 = T.sheet_values(T.center[None])[0].mean(axis=0)
    n_theta, n_rad = _PROFILE_NODES
    th = (np.arange(n_theta) + 0.5) * (2 * math.pi / n_theta)
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    tmax = T.radius4 * 0.999

    def sheet_gap(t, rho, d, sheet):
        """|point of the sheet over center + t u_d, minus p| - rho."""
        pts = T.center + t[..., None] * dirs[d]
        vert = np.take_along_axis(T.sheet_values(pts), sheet[..., None, None],
                                  axis=-2)[..., 0, :] - z0
        return np.hypot(t, np.linalg.norm(vert, axis=-1)) - rho

    # one (radius, direction, sheet) triple per entry
    args = np.meshgrid(radii, np.arange(n_theta), np.arange(T.q),
                       indexing="ij")
    inside = sheet_gap(np.full(args[0].shape, tmax), *args) <= 0.0
    cross = ~inside & (sheet_gap(np.zeros(args[0].shape), *args) < 0.0)
    tstar = np.where(inside, tmax, 0.0)
    root = find_root(sheet_gap, (0.0, tmax),
                     args=tuple(x[cross] for x in args),
                     tolerances={"xatol": 0.0, "xrtol": 1e-14})
    tstar[cross] = root.x

    gt, gw = leggauss(n_rad)
    mass = np.empty(len(radii))
    for i, ti in enumerate(tstar):
        ts = 0.5 * ti[:, None, :] * (gt[:, None] + 1.0)   # (dir, node, sheet)
        ws = 0.5 * ti[:, None, :] * gw[:, None]
        pts = T.center + ts[..., None] * dirs[:, None, None, :]
        own = np.diagonal(T.sheet_area_density(pts), axis1=-2, axis2=-1)
        mass[i] = np.sum(own * ts * ws) * (2 * math.pi / n_theta)
    vals = mass / radii ** T.m
    worst = float(np.max(vals[:-1] - vals[1:], initial=0.0))
    return [(float(r), float(v)) for r, v in zip(radii, vals)], worst


# ---------------------------------------------------------------------------
# competitor


def build_competitor(T: GraphCurrent, beta1: float):
    """Mollify-blend competitor: smooth the embedded approximation in a core
    ball, interpolate back to the approximation across two annuli of width s,
    keep the original beyond; energy and Lipschitz constants are reported
    against the kept-set energy.

    Exponent schedule: eps = E^a with a = (1-2 beta1)/(2m), blend width
    s = E^{a/2} (grid-floored), retraction scale c0 = E^a within [1e-3, 0.12]."""
    from .roproj import default_machinery

    if T.m != 2:
        raise ValueError("competitor construction is planar")
    if not 0 < beta1 < 1.0 / (2 * T.m):
        raise ValueError("beta1 out of range")
    r = T.r
    E = max(T.excess.excess_ratio(T.radius4), _EXCESS_FLOOR)
    a = (1.0 - 2.0 * beta1) / (2.0 * T.m)
    delta11 = max(E ** (2 * beta1), (16 ** T.m) * E * 1.25)
    u, K, rep = lipschitz_approximation(T, delta11)
    f = T.base
    h = f.spacing
    c0 = min(max(E ** a, 1e-3), 0.12)
    machinery = default_machinery(T.n, T.q, c0=c0, delta=min(0.4, math.sqrt(c0)))
    spec = machinery.spec
    s_abs = min(max(E ** (a / 2.0) * r, 3 * h), r / 4.0)
    eps_abs = min(max(E ** a * r, h), s_abs)

    dist = np.linalg.norm(f.nodes() - T.center, axis=-1)
    dens_u = qf.energy_density(u)
    sigmas = np.linspace(1.25 * r, 2.0 * r, _COMPETITOR_SIGMAS)
    scores = [float(dens_u[(dist <= sg) & (dist > sg - s_abs) & u.mask].sum())
              for sg in sigmas]
    sigma = float(sigmas[int(np.argmin(scores))])
    r3, r2, r1 = sigma, sigma - s_abs, sigma - 2 * s_abs

    sqrtE = math.sqrt(E)
    scaled = qf.QGridFunction(f.domain, f.res, u.values / sqrtE, u.mask)
    emb = xi_batch(spec, scaled.values)
    emb_moll, wmoll = qf.mollify_embedded(scaled, eps_abs, machinery=machinery)

    core = (dist <= r1) & u.mask
    ann1 = (dist > r1) & (dist <= r2) & u.mask
    ann2 = (dist > r2) & (dist <= r3) & u.mask
    ring = ann1 | ann2
    inside = core | ring

    # R(moll) on core and ann1, R(emb) on both annuli; then each annulus
    # blends lo -> hi on its own ramp t: R(moll) -> R(emb), R(emb) -> emb
    gprime = emb.copy()
    gprime[core | ann1] = qf.retract_embedded(emb_moll[core | ann1], machinery)
    remb = emb.copy()
    remb[ring] = qf.retract_embedded(emb[ring], machinery)
    lo = np.where(ann1[..., None], gprime, remb)[ring]
    hi = np.where(ann1[..., None], remb, emb)[ring]
    t = np.where(ann1, (dist - r1) / (r2 - r1), (dist - r2) / (r3 - r2))[ring, None]
    gprime[ring] = qf.retract_embedded((1 - t) * lo + t * hi, machinery)
    gvals = u.values.copy()
    gvals[inside] = xi_inverse(machinery.lattice, sqrtE * gprime[inside])
    g = qf.QGridFunction(f.domain, f.res, gvals, u.mask)

    wsig = qf.disk_weights(f, T.center, sigma)
    lhs_rebuilt = qf.dirichlet_energy(g, weights=wsig)
    lhs_kept = qf.dirichlet_energy(u, weights=wsig)
    base = qf.dirichlet_energy(u, weights=wsig * K)
    # the approximation itself is admissible (same boundary values, bounded
    # Lipschitz constant); return the cheaper candidate so the reported
    # inequality reflects the best competitor the builder found
    if lhs_kept <= lhs_rebuilt + 1e-15:
        choice, lhs, best, bvals = "kept", lhs_kept, u, u.values
    else:
        choice, lhs, best, bvals = "rebuilt", lhs_rebuilt, g, g.values
    ring = qf.QGridFunction(f.domain, f.res, bvals, (dist <= r3) & u.mask)
    lip_g, _ = qf.lipschitz_and_osc(ring)
    boundary = (dist > r3) & u.mask
    report = {"E": E, "sigma": sigma, "radii": (r1, r2, r3),
              "s": s_abs, "eps": eps_abs, "c0": machinery.ladder.ck(0),
              "energy": lhs, "kept_energy": base, "gap": lhs - base,
              "gap_rebuilt": lhs_rebuilt - base, "choice": choice,
              "lip_g": lip_g, "lip_u": rep["lip_u"],
              "boundary_exact": bool(np.array_equal(bvals[boundary],
                                                    u.values[boundary])),
              "hypothesis_ok": rep["hypothesis_ok"], "delta11": delta11}
    return best, report


# ---------------------------------------------------------------------------
# factories


def flat_current(q: int = 2, n: int = 1, heights=None, res: int = 65,
                 radius4: float = 1.0, spikes=()) -> GraphCurrent:
    """Union of horizontal planes at the given heights (default all zero)."""
    if heights is None:
        heights = np.zeros((q, n))
    H = np.asarray(heights, dtype=float).reshape(q, n)

    def vals(pts):
        return np.broadcast_to(H, np.shape(pts)[:-1] + (q, n))

    def jacs(pts):
        pts = np.asarray(pts)
        return np.zeros(pts.shape[:-1] + (q, n, pts.shape[-1]))

    base = qf.from_callable(qf.ball(radius4), res, vals)
    return GraphCurrent(base, (0.0, 0.0), radius4, spikes=spikes,
                        sheet_values=vals, sheet_jacobians=jacs)


def w32_current(scale: float = 1.0, res: int = 129,
                radius4: float = 1.0) -> GraphCurrent:
    """Two-sheeted conformal graph with a branch point at the origin:
    values +- sqrt(scale) w^{3/2}, excess density 4.5 scale |w|."""
    lam = float(scale)
    root = math.sqrt(lam)

    def _pair(pts):
        pts = np.asarray(pts, dtype=float)
        w = pts[..., 0] + 1j * pts[..., 1]
        v = root * np.sqrt(w ** 3)
        return v, w

    def vals(pts):
        v, _ = _pair(pts)
        out = np.empty(v.shape + (2, 2))
        out[..., 0, 0] = v.real
        out[..., 0, 1] = v.imag
        out[..., 1, 0] = -v.real
        out[..., 1, 1] = -v.imag
        return out

    def jacs(pts):
        v, w = _pair(pts)
        with np.errstate(divide="ignore", invalid="ignore"):
            gp = np.where(w == 0, 0.0, 1.5 * v / np.where(w == 0, 1.0, w))
        J = np.empty(v.shape + (2, 2, 2))
        J[..., 0, 0, 0] = gp.real
        J[..., 0, 0, 1] = -gp.imag
        J[..., 0, 1, 0] = gp.imag
        J[..., 0, 1, 1] = gp.real
        J[..., 1, :, :] = -J[..., 0, :, :]
        return J

    base = qf.from_callable(qf.ball(radius4), res, vals)
    return GraphCurrent(base, (0.0, 0.0), radius4,
                        sheet_values=vals, sheet_jacobians=jacs)
