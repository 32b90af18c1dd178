"""Almost-projections onto the embedded cone.

Three maps share a ladder of constants c_{-1} > c_0 > ... > c_{nQ-1}:

* rho_flat: defined on the cone itself; runs top-down over skeleton
  dimensions, collapsing thin tubes around each face onto the face and
  radially repelling a slightly thicker shell, so that the result avoids
  small neighborhoods of every lower skeleton while moving points as little
  as possible.
* rho_sharp: extends rho_flat to a system of tubular neighborhoods
  (radius delta^(l+1) around the l-skeleton, plus the ball of radius delta
  at the origin).  Values in the gaps between prescribed regions are
  computed constructively by a Lipschitz min-max interpolation from anchor
  points on the cone, then projected into the face closure.
* rho_star: defined everywhere; points outside the neighborhood are moved
  to its nearest point first, a hair inside the boundary.

The ladder's `paper` constructor ties every constant to powers
delta^(8^(k-nQ)); `explicit` keeps the 8th-power chain but decouples the tube
parameter delta from the chain, so the construction can be exercised with
visible magnitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coneproj import kirszbraun_value
from .embed import (_ON_CONE_TOL, EmbeddingSpec, FaceLattice, NotOnImageError,
                    build_embedding, face_lattice, xi_batch, xi_inverse)

_LOG8 = math.log(8.0)
_CLAMP_MARGIN = 1e-6  # clamp_to_neighborhood: depth inside a tube, per radius
_STENCIL_FLOOR = 1e-9  # Kirszbraun gap: least stencil scale base_s
_FAR_ANCHOR_FLOOR = 1e-9  # Kirszbraun gap: least lower-skeleton distance of p0


class LadderError(ValueError):
    pass


class OutsideNeighborhoodError(ValueError):
    pass


def phi_tau(x: np.ndarray, tau: float) -> np.ndarray:
    """Radial collapse: 0 inside B_tau, identity outside B_sqrt(tau),
    radial interpolation between; |phi(x) - x| <= tau, Lip <= 1 + 2 sqrt(tau).
    A 2-D input is treated as a batch of row vectors."""
    if not 0.0 < tau < 0.25:
        raise ValueError("tau must lie in (0, 1/4)")
    x = np.asarray(x, dtype=float)
    r = np.linalg.norm(x, axis=-1, keepdims=True)
    root = math.sqrt(tau)
    fac = np.ones_like(r)
    fac[r <= tau] = 0.0
    mid = (r > tau) & (r < root)
    fac[mid] = root * (r[mid] - tau) / ((root - tau) * r[mid])
    return fac * x


# ---------------------------------------------------------------------------
# the constant ladder


@dataclass(frozen=True)
class ConstantLadder:
    """Constants c_{-1}, c_0, ..., c_{nq-1} with c_{k+1} = c_k^8.

    `c[0]` stores c_{-1}; use `ck(k)` for the natural indexing.  `delta` is
    the tube-scale parameter of the extension; in `paper` it also
    generates the chain via c_k = delta^(8^(k-nq)).  log10_c carries the
    exact logarithms so underflowed entries (stored as 0.0) keep meaning:
    a zero c_k is a degenerate tube and that cascade level acts nowhere.
    """

    nq: int
    delta: float
    c: np.ndarray
    log10_c: np.ndarray

    def ck(self, k: int) -> float:
        if k < -1 or k >= self.nq:
            raise IndexError("ladder index out of range")
        return float(self.c[k + 1])

    def log10_ck(self, k: int) -> float:
        return float(self.log10_c[k + 1])

    def tube(self, k):
        """delta^(k+1): the tube radius around the k-skeleton (k = nq: the
        cone's own tube).  An array k gives an array."""
        return self.delta ** (k + 1)

    @staticmethod
    def paper(nq: int, log10_delta: float) -> "ConstantLadder":
        if log10_delta >= 0:
            raise LadderError("log10_delta must be negative")
        delta = 10.0 ** log10_delta if log10_delta > -300 else 0.0
        log10_c = np.array([log10_delta * 8.0 ** (k - nq) for k in range(-1, nq)])
        with np.errstate(under="ignore"):
            c = 10.0 ** log10_c
        ladder = ConstantLadder(nq=nq, delta=delta, c=c, log10_c=log10_c)
        if ladder.ck(0) >= 0.125:
            raise LadderError(f"c0 = {ladder.ck(0):.4g} >= 1/8: radial maps undefined")
        return ladder

    @staticmethod
    def explicit(nq: int, c0: float = 0.1, delta: float = 0.1) -> "ConstantLadder":
        if not 0.0 < c0 < 0.125:
            raise LadderError("c0 must lie in (0, 1/8) for the radial maps")
        if not 0.0 < delta < 0.5:
            raise LadderError("delta must lie in (0, 1/2)")
        log10_c = np.array([math.log10(c0) * 8.0 ** k for k in range(-1, nq)])
        with np.errstate(under="ignore"):
            c = 10.0 ** log10_c
        return ConstantLadder(nq=nq, delta=delta, c=c, log10_c=log10_c)

    def validate_margins(self, lattice: FaceLattice) -> dict:
        """Check 2 sqrt(c_k) < cbar_k * c_{k-1}^2 against the measured face
        separations; dimensions with fewer than two faces are vacuous.
        Underflowed c_k (degenerate tube) passes trivially."""
        report = {}
        for k in range(1, self.nq):
            cbar = lattice.pair_separation.get(k)
            if cbar is None:
                continue
            # in log10: log(2) + log c_k / 2  <  log cbar + 2 log c_{k-1}
            lhs = math.log10(2.0) + self.log10_ck(k) / 2.0
            rhs = math.log10(cbar) + 2.0 * self.log10_ck(k - 1)
            report[k] = {"lhs_log10": lhs, "rhs_log10": rhs, "ok": lhs < rhs,
                         "cbar": cbar}
            if lhs >= rhs:
                raise LadderError(
                    f"separation margin fails at dimension {k}: "
                    f"2 sqrt(c_{k}) = 1e{lhs:.2f} vs cbar c_{k - 1}^2 = 1e{rhs:.2f}")
        return report


# ---------------------------------------------------------------------------
# the machine


class AlmostProjection:
    """Bundle of spec + lattice + ladder evaluating the three maps."""

    far_scale = 1.0  # least skeleton distance of the projection region

    def __init__(self, spec: EmbeddingSpec, lattice: FaceLattice,
                 ladder: ConstantLadder):
        if ladder.nq != lattice.max_dim:
            raise LadderError("ladder length does not match the lattice grading")
        self.spec = spec
        self.lattice = lattice
        self.ladder = ladder
        ladder.validate_margins(lattice)

    # -- rho_flat ------------------------------------------------------------

    def rho_flat(self, pts: np.ndarray, assume_on_image: bool = False) -> np.ndarray:
        single = np.ndim(pts) == 1
        pts = self._rows(pts, "rho_flat")
        if not assume_on_image:
            _, dist = self.lattice.nearest_point_batch(pts)
            scale = 1.0 + np.linalg.norm(pts, axis=1)
            bad = dist > _ON_CONE_TOL * scale
            if np.any(bad):
                i = int(np.argmax(dist / scale))
                raise NotOnImageError(
                    f"{int(bad.sum())} inputs are off the cone "
                    f"(worst residual {dist[i]:.3e})", residual=float(dist[i]))
        cur = pts.copy()
        lat, lad = self.lattice, self.ladder
        for k in range(lad.nq - 1, -1, -1):
            c_k = lad.ck(k)
            if c_k == 0.0:
                continue  # degenerate tube: this level acts nowhere
            c_km1 = lad.ck(k - 1)
            wide = 2.0 * math.sqrt(c_k)
            faces = lat.faces_of_dim(k)
            # candidate (row, face) pairs: the row's span point lies in the
            # face closure, within the wide tube
            found = [(np.zeros(0, dtype=int),) * 2 + (np.zeros(0), np.zeros((0, pts.shape[1])))]
            for rows, (_, near, znorm, slack) in faces.spans(pts):
                cr, cj = np.nonzero((znorm <= wide) & (slack >= 0.0))
                found.append((cr + rows.start, cj, znorm[cr, cj], near[cr, cj]))
            r, j, z, base = map(np.concatenate, zip(*found))
            # membership needs the base away from the lower skeleton (at
            # infinite distance for the origin, which has none)
            dlow = lat.skeleton_distance_batch(base, k - 1)
            ok = (dlow >= c_km1 ** 2) & (z <= lat.tilde_c * dlow)
            r, j, z, base = r[ok], j[ok], z[ok], base[ok]
            # each row's face: its first nearest candidate in face order
            order = np.lexsort((z, r))
            pick = order[np.unique(r[order], return_index=True)[1]]
            r, j, z, base = r[pick], j[pick], z[pick], base[pick]
            move = z > c_k  # the rest snap onto their base
            zc = cur[r[move]] - faces.own_span(cur[r[move]], j[move])[0]
            base[move] += phi_tau(zc, 2.0 * c_k)
            cur[r] = base
        return cur[0] if single else cur

    # -- rho_sharp -----------------------------------------------------------
    #
    # Every stage runs once over a batch of rows.  The one-row methods are
    # views of the batch code; a row's result does not depend on its batch.

    def tube_level(self, x: np.ndarray):
        """Smallest l with dist(x, S_l) <= delta^(l+1), counting the cone
        itself as level nq; None when x is outside every tube.  One-row view
        for the tests; perfbench/tracer.py binds it."""
        level = self._locate(np.asarray(x, dtype=float)[None])[2][0]
        return None if level < 0 else int(level)

    @staticmethod
    def _on_cone(pts: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return dq <= 1e-12 * (1.0 + np.linalg.norm(pts, axis=1))

    def _locate(self, pts: np.ndarray):
        """Per row: the nearest cone point and its distance, the tube level
        (`tube_level`, -1 outside every tube), the face that puts the row in
        that tube, as its position `which` in faces_of_dim(level) and the
        row's nearest point p0 there, and the row clamped into the tubes
        (`clamp_to_neighborhood`).  The l-faces are searched one dimension
        at a time, upward: the running minimum over the passes is
        dist(x, S_l), and a row leaves the search at its level.  A row
        outside every tube meets every pass k (the top faces as k = nq, in
        the cone's own tube) and is clamped toward the point of the least k
        with the least dist - tube(k)."""
        lat, lad, nq = self.lattice, self.ladder, self.ladder.nq
        near, dq, which = lat.top_faces.nearest(pts)
        level = np.where(dq <= lad.tube(nq), nq, -1)
        p0 = near.copy()
        point_k, dist_k = np.empty((nq + 1,) + pts.shape), np.empty((nq + 1, len(pts)))
        point_k[nq], dist_k[nq] = near, dq
        todo, low = np.arange(len(pts)), np.full(len(pts), np.inf)
        for lvl in range(nq):
            point, dist, face = lat.faces_of_dim(lvl).nearest(pts[todo])
            point_k[lvl, todo], dist_k[lvl, todo] = point, dist
            low = np.minimum(low, dist)
            inside = low <= lad.tube(lvl)
            rows = todo[inside]
            level[rows], which[rows], p0[rows] = lvl, face[inside], point[inside]
            todo, low = todo[~inside], low[~inside]
        rows = np.flatnonzero(level < 0)
        radius = np.array([lad.tube(k) for k in range(nq + 1)])
        k = np.argmin(dist_k[:, rows] - radius[:, None], axis=0)
        p, d = point_k[k, rows], dist_k[k, rows]
        clamped = pts.copy()
        clamped[rows] = p + (pts[rows] - p) * (radius[k] * (1.0 - _CLAMP_MARGIN) / d)[:, None]
        return near, dq, level, which, p0, clamped

    def rho_sharp(self, x: np.ndarray) -> np.ndarray:
        """One-row view for the tests; perfbench/tracer.py binds it."""
        x = np.asarray(x, dtype=float)[None]
        return self._sharp(x, *self._locate(x)[:5])[0]

    def _sharp(self, x, near, dq, level, which, p0):
        """rho_sharp of each row of x, given `_locate(x)`."""
        lat, nq = self.lattice, self.ladder.nq
        flat = self._on_cone(x, dq)
        outside = np.flatnonzero(~flat & (level < 0))
        if len(outside):
            far = outside[np.argmax(dq[outside])]
            raise OutsideNeighborhoodError(
                f"{len(outside)} point(s) outside every tube; the farthest at "
                f"distance {dq[far]:.3e} from the cone")
        out = np.zeros_like(x)  # level-0 rows: the delta-ball goes to 0
        if np.any(flat):
            out[flat] = self.rho_flat(near[flat], assume_on_image=True)
        gap = np.zeros(len(x), dtype=bool)
        for lvl in range(1, nq + 1):
            rows = np.flatnonzero(~flat & (level == lvl))
            plane, region = lat.faces_of_dim(lvl).own_span(x[rows], which[rows])
            region[region] = lat.skeleton_distance_batch(
                plane[region], lvl - 1) >= self.far_scale
            out[rows[region]] = plane[region]  # orthogonal-projection region
            gap[rows[~region]] = True
        gap = np.flatnonzero(gap)
        if len(gap):
            out[gap] = self._kirszbraun_gap(x[gap], near[gap], dq[gap],
                                            level[gap], which[gap], p0[gap])
        return out

    def _kirszbraun_gap(self, x, near, dq, level, which, p0):
        """Lipschitz min-max interpolation of rho_flat at anchor points on the
        cone, projected into the closure of face which[row] of dim level[row].
        A row's anchors: its nearest cone point; a fixed stencil t0 +- s *
        base_s along each coordinate of that point's tuple t0, s = 1, sqrt(8),
        8, base_s = max(2 dq, delta^(level+1), c_min(level, nq-1) / 16,
        _STENCIL_FLOOR);
        a far anchor in the projection region of its face (else the nearest
        point again); and the nearby lower-skeleton points.  A face closure
        lies in the cone, so the projected value needs no snap."""
        lat, lad, spec = self.lattice, self.ladder, self.spec
        nq, q, n = lad.nq, spec.dims.q, spec.dims.n
        lip = 1.0 + 4.0 * lad.ck(-1)
        base_s = np.max([2.0 * dq, lad.tube(level),
                         lad.c[np.minimum(level, nq - 1) + 1] / 16.0,
                         np.full(len(x), _STENCIL_FLOOR)], axis=0)
        stencil = np.concatenate([s * np.eye(q * n) for s in (
            1.0, -1.0, math.sqrt(8.0), -math.sqrt(8.0), 8.0, -8.0)])
        t0 = xi_inverse(lat, near).reshape(len(x), 1, q * n)
        around = xi_batch(spec, (t0 + base_s[:, None, None] * stencil)
                          .reshape(len(x), -1, q, n))
        far = near.copy()
        for k in np.unique(level):
            rows = np.flatnonzero(level == k)
            dlow = lat.skeleton_distance_batch(p0[rows], k - 1)
            keep = dlow > _FAR_ANCHOR_FLOOR
            rows, dlow = rows[keep], dlow[keep]
            far[rows] = p0[rows] * np.maximum(
                1.0, 2.0 * self.far_scale / dlow)[:, None]
        anchors = np.concatenate([near[:, None], around, far[:, None]], axis=1)
        # anchors on the nearby lower skeleton keep the gap consistent with
        # the values already prescribed there: one pass per dimension below
        # the row's level, its (row, point) pairs put in row order
        reach = np.array([4.0 * lad.tube(lvl - 1) for lvl in range(nq + 1)])[level]
        low_row, low_pts = (np.concatenate(a) for a in zip(*[
            lat.faces_of_dim(k).within(x, np.where(level > k, reach, -np.inf)[:, None])
            for k in range(int(level.max()))]))
        order = np.argsort(low_row, kind="stable")
        low_row, low_pts = low_row[order], low_pts[order]
        # each anchor is on the cone: xi of a tuple, a face point or projection
        pts = np.concatenate([anchors.reshape(-1, x.shape[1]), low_pts])
        vals = self.rho_flat(pts, assume_on_image=True)
        m = anchors.shape[0] * anchors.shape[1]
        split = np.cumsum(np.bincount(low_row, minlength=len(x)))[:-1]
        ybest = np.array([
            kirszbraun_value(row, np.concatenate([a, la]), np.concatenate([v, lv]),
                             lip)[0]
            for row, a, v, la, lv in zip(
                x, pts[:m].reshape(anchors.shape), vals[:m].reshape(anchors.shape),
                np.split(pts[m:], split), np.split(vals[m:], split))])
        out = np.empty_like(x)
        for k in np.unique(level):
            rows = np.flatnonzero(level == k)
            out[rows] = lat.faces_of_dim(k).project(ybest[rows], which[rows])
        return out

    # -- rho_star ------------------------------------------------------------

    def clamp_to_neighborhood(self, x: np.ndarray) -> np.ndarray:
        """Nearest point of the union of tubes (along the segment to the
        realizing skeleton point), pulled _CLAMP_MARGIN of the tube radius
        inside the boundary so the membership test stays stable under
        re-evaluation noise; a row inside a tube stays.  One-row or batch
        view of `_locate`; perfbench/tracer.py binds it."""
        pts = np.asarray(x, dtype=float)
        out = self._locate(self._rows(pts, "clamp_to_neighborhood"))[5]
        return out[0] if pts.ndim == 1 else out

    def rho_star(self, x: np.ndarray) -> np.ndarray:
        return self.rho_star_batch(np.asarray(x, dtype=float)[None])[0]

    def rho_star_batch(self, pts: np.ndarray) -> np.ndarray:
        """rho_star of each row.  The search that finds the rows outside
        every tube also clamps them into the tubes, once; they are located
        again, and rho_sharp runs on the batch."""
        *loc, x = self._locate(self._rows(pts, "rho_star"))
        rows = np.flatnonzero(loc[2] < 0)
        if len(rows):  # zip stops at loc's five entries
            for whole, part in zip(loc, self._locate(x[rows])):
                whole[rows] = part
        return self._sharp(x, *loc)

    def _rows(self, pts, name: str) -> np.ndarray:
        """pts as rows (a vector is one row), each h*q wide and finite."""
        x, width = np.atleast_2d(np.asarray(pts, dtype=float)), self.spec.dims.big_n
        if x.ndim != 2 or x.shape[1] != width:
            raise ValueError(f"{name}: rows must be h*q = {width} wide, not shape {np.shape(pts)}")
        bad = int((~np.isfinite(x).all(axis=1)).sum())
        if bad:
            raise ValueError(f"{name}: {bad} of {len(x)} input rows are not finite")
        return x


_MACHINERY_CACHE: dict = {}


def default_machinery(n: int, q: int, c0: float = 0.1, delta: float = 0.1):
    """Embedding + lattice + explicit ladder + projection machine, cached."""
    key = (n, q, c0, delta)
    if key not in _MACHINERY_CACHE:
        spec = build_embedding(n, q)
        lattice = face_lattice(spec)
        ladder = ConstantLadder.explicit(lattice.max_dim, c0=c0, delta=delta)
        _MACHINERY_CACHE[key] = AlmostProjection(spec, lattice, ladder)
    return _MACHINERY_CACHE[key]
