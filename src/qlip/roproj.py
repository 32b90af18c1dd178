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
  to its exactly nearest point first.

The ladder's "paper" mode ties every constant to powers delta^(8^(k-nQ));
"explicit" mode keeps the 8th-power chain but decouples the desk-scale tube
parameter delta from the chain, so the construction can be exercised with
visible magnitudes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coneproj import kirszbraun_value
from .embed import (EmbeddingSpec, FaceLattice, NotOnImageError,
                    build_embedding, face_lattice, xi_batch, xi_inverse)

_LOG8 = math.log(8.0)


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
    if x.ndim == 2:
        return _phi_factor(np.linalg.norm(x, axis=1), tau)[:, None] * x
    r = float(np.linalg.norm(x))
    return _phi_factor(np.array([r]), tau)[0] * x


def _phi_factor(r: np.ndarray, tau: float) -> np.ndarray:
    """Scalar multiplier of the radial collapse as a function of |x|."""
    root = math.sqrt(tau)
    out = np.ones_like(r)
    out[r <= tau] = 0.0
    mid = (r > tau) & (r < root)
    out[mid] = root * (r[mid] - tau) / ((root - tau) * r[mid])
    return out


# ---------------------------------------------------------------------------
# the constant ladder


@dataclass(frozen=True)
class ConstantLadder:
    """Constants c_{-1}, c_0, ..., c_{nq-1} with c_{k+1} = c_k^8.

    `c[0]` stores c_{-1}; use `ck(k)` for the natural indexing.  `delta` is
    the tube-scale parameter of the extension; in paper mode it also
    generates the chain via c_k = delta^(8^(k-nq)).  log10_c carries the
    exact logarithms so underflowed entries (stored as 0.0) keep meaning:
    a zero c_k is a degenerate tube and that cascade level acts nowhere.
    """

    nq: int
    mode: str
    delta: float
    log10_delta: float
    c: np.ndarray
    log10_c: np.ndarray

    def ck(self, k: int) -> float:
        if k < -1 or k >= self.nq:
            raise IndexError("ladder index out of range")
        return float(self.c[k + 1])

    def log10_ck(self, k: int) -> float:
        return float(self.log10_c[k + 1])

    @staticmethod
    def paper(nq: int, delta: float = None, log10_delta: float = None) -> "ConstantLadder":
        if (delta is None) == (log10_delta is None):
            raise LadderError("give exactly one of delta, log10_delta")
        if delta is not None:
            if not 0.0 < delta < 1.0:
                raise LadderError("delta must lie in (0, 1)")
            log10_delta = math.log10(delta)
        else:
            if log10_delta >= 0:
                raise LadderError("log10_delta must be negative")
            delta = 10.0 ** log10_delta if log10_delta > -300 else 0.0
        log10_c = np.array([log10_delta * 8.0 ** (k - nq) for k in range(-1, nq)])
        with np.errstate(under="ignore"):
            c = 10.0 ** log10_c
        ladder = ConstantLadder(nq=nq, mode="paper", delta=delta,
                                log10_delta=log10_delta, c=c, log10_c=log10_c)
        ladder._check_chain()
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
        ladder = ConstantLadder(nq=nq, mode="explicit", delta=delta,
                                log10_delta=math.log10(c0) * 8.0 ** nq, c=c,
                                log10_c=log10_c)
        ladder._check_chain()
        return ladder

    def _check_chain(self):
        if self.ck(0) >= 0.125:
            raise LadderError(f"c0 = {self.ck(0):.4g} >= 1/8: radial maps undefined")
        for k in range(-1, self.nq - 1):
            la, lb = self.log10_ck(k), self.log10_ck(k + 1)
            if not lb < la:
                raise LadderError("ladder must be strictly decreasing")
            if abs(lb - 8.0 * la) > 1e-9 * max(1.0, abs(lb)):
                raise LadderError(f"c_{k + 1} is not c_{k}^8")

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
    on_image_tol = 1e-7  # on-cone slack, relative to 1 + |x|

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
        single = np.asarray(pts, dtype=float).ndim == 1
        pts = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        if not assume_on_image:
            _, dist = self.lattice.nearest_point_batch(pts)
            scale = 1.0 + np.linalg.norm(pts, axis=1)
            bad = dist > self.on_image_tol * scale
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
            for rows, (_, near, znorm, margin) in faces.spans(pts):
                cr, cj = np.nonzero((znorm <= wide) & (margin >= -1e-10 * (1 + znorm)))
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
            fac = _phi_factor(np.linalg.norm(zc, axis=1), 2.0 * c_k)
            base[move] += fac[:, None] * zc
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
        x = np.asarray(x, dtype=float)[None]
        level = self._tube_levels(x, self.lattice.nearest_point_batch(x)[1])[0]
        return None if level < 0 else int(level)

    def _tube_levels(self, pts: np.ndarray, dq: np.ndarray) -> np.ndarray:
        """`tube_level` of each row, given its distance dq to the cone; -1
        marks a row outside every tube."""
        lat, d, nq = self.lattice, self.ladder.delta, self.ladder.nq
        level = np.full(len(pts), -1)
        todo = np.arange(len(pts))
        for lvl in range(nq):
            if not len(todo):
                return level
            inside = lat.skeleton_distance_batch(pts[todo], lvl) <= d ** (lvl + 1)
            level[todo[inside]] = lvl
            todo = todo[~inside]
        inside = dq[todo] <= d ** (nq + 1) * (1 + 1e-9) + 1e-15
        level[todo[inside]] = nq
        return level

    @staticmethod
    def _on_cone(pts: np.ndarray, dq: np.ndarray) -> np.ndarray:
        return dq <= 1e-12 * (1.0 + np.linalg.norm(pts, axis=1))

    def _locate(self, pts: np.ndarray):
        """Per row: nearest cone point, its distance and the tube level.  Rows
        on the cone inside the smallest tube skip the level search, which
        `_sharp` never reads for them, and report level nq."""
        nq = self.ladder.nq
        near, dq = self.lattice.nearest_point_batch(pts)
        level = np.full(len(pts), nq)
        search = ~(self._on_cone(pts, dq)
                   & (dq <= self.ladder.delta ** (nq + 1)))
        level[search] = self._tube_levels(pts[search], dq[search])
        return near, dq, level

    def rho_sharp(self, x: np.ndarray) -> np.ndarray:
        """One-row view for the tests; perfbench/tracer.py binds it."""
        x = np.asarray(x, dtype=float)[None]
        return self._sharp(x, *self._locate(x))[0]

    def _sharp(self, x, near, dq, level):
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
        # the row's face: the nearest of its level's dimension (the top faces
        # on the cone's own tube), which[row] there; p0 is x's point there
        which = np.full(len(x), -1)
        p0 = np.empty_like(x)
        gap = np.zeros(len(x), dtype=bool)
        scale = 1.0 + np.linalg.norm(x, axis=1)
        for lvl in range(1, nq + 1):
            rows = np.flatnonzero(~flat & (level == lvl))
            faces = lat.faces_of_dim(lvl)
            p0[rows], _, which[rows] = faces.nearest(x[rows])
            plane, margin = faces.own_span(x[rows], which[rows])
            region = margin > 1e-9 * scale[rows]
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
        8, base_s = max(2 dq, delta^(level+1), c_min(level, nq-1) / 16, 1e-9);
        a far anchor in the projection region of its face (else the nearest
        point again); and the nearby lower-skeleton points."""
        lat, lad, spec = self.lattice, self.ladder, self.spec
        nq, q, n = lad.nq, spec.dims.q, spec.dims.n
        lip = 1.0 + 4.0 * lad.ck(-1)
        base_s = np.max([2.0 * dq, lad.delta ** (level + 1),
                         lad.c[np.minimum(level, nq - 1) + 1] / 16.0,
                         np.full(len(x), 1e-9)], axis=0)
        stencil = np.concatenate([s * np.eye(q * n) for s in (
            1.0, -1.0, math.sqrt(8.0), -math.sqrt(8.0), 8.0, -8.0)])
        t0 = xi_inverse(lat, near, tol=1e-5).reshape(len(x), 1, q * n)
        around = xi_batch(spec, (t0 + base_s[:, None, None] * stencil)
                          .reshape(len(x), -1, q, n))
        far = near.copy()
        for k in np.unique(level):
            rows = np.flatnonzero(level == k)
            dlow = lat.skeleton_distance_batch(p0[rows], k - 1)
            rows, dlow = rows[dlow > 1e-9], dlow[dlow > 1e-9]
            far[rows] = p0[rows] * np.maximum(
                1.0, 2.0 * self.far_scale / dlow)[:, None]
        anchors = np.concatenate([near[:, None], around, far[:, None]], axis=1)
        # anchors on the nearby lower skeleton keep the gap consistent with
        # the values already prescribed there: (row, point) pairs in row order
        reach = np.array([4.0 * lad.delta ** lvl for lvl in range(nq + 1)])[level]
        lower = lat.faces_up_to(int(level.max()) - 1)
        bound = np.where(level[:, None] > lower.dims, reach[:, None], -np.inf)
        low_row, low_pts = lower.within(x, bound)
        fixed = anchors.reshape(-1, x.shape[1])
        # snap numerical fuzz onto the cone so anchor/value pairs are consistent
        pts = lat.nearest_point_batch(np.concatenate([fixed, low_pts]))[0]
        vals = self.rho_flat(pts, assume_on_image=True)
        m = len(fixed)
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
        q_pt, resid = lat.nearest_point_batch(out)
        off = resid > self.on_image_tol * (1.0 + np.linalg.norm(out, axis=1))
        if np.any(off):
            out[off] = self.rho_flat(q_pt[off], assume_on_image=True)
        return out

    # -- rho_star ------------------------------------------------------------

    def clamp_to_neighborhood(self, x: np.ndarray,
                              margin: float = 1e-6) -> np.ndarray:
        """Nearest point of the union of tubes (along the segment to the
        realizing skeleton point), pulled `margin` inside the boundary so the
        membership test stays stable under re-evaluation noise.  The rows of
        a 2-D x are clamped independently.

        A face of dim k lies in the skeleton S_k, whose tube has radius
        delta^(k+1) (the top faces carry the cone's own tube), so the nearest
        tube point comes from the face with the smallest closure distance
        minus radius.
        """
        single = np.asarray(x).ndim == 1
        pts = np.atleast_2d(np.asarray(x, dtype=float))
        faces = self.lattice.faces_up_to(self.ladder.nq)
        radius = np.array([self.ladder.delta ** (k + 1)
                           for k in range(self.ladder.nq + 1)])[faces.dims]
        point, dist, which = faces.nearest(pts, offset=radius)
        rad = radius[which]
        out = pts.copy()
        move = dist - rad > 0
        out[move] = point[move] + (pts[move] - point[move]) * (
            rad[move] * (1.0 - margin) / dist[move])[:, None]
        return out[0] if single else out

    def rho_star(self, x: np.ndarray) -> np.ndarray:
        return self.rho_star_batch(np.asarray(x, dtype=float)[None])[0]

    def rho_star_batch(self, pts: np.ndarray) -> np.ndarray:
        """rho_star of each row.  Rows outside every tube are clamped into
        the tubes first (a second time, with a wider margin, if the clamped
        point still grazes the boundary); then rho_sharp runs on the batch."""
        x = np.atleast_2d(np.asarray(pts, dtype=float)).copy()
        bad = ~np.all(np.isfinite(x), axis=1)
        if np.any(bad):
            raise ValueError(f"rho_star: {int(bad.sum())} of {len(x)} input "
                             "rows are not finite")
        loc = self._locate(x)
        rows = np.flatnonzero(loc[2] < 0)
        if len(rows):
            x[rows] = self.clamp_to_neighborhood(x[rows])
            sub = self._locate(x[rows])
            # boundary-grazing inputs: pull decisively into the tube
            again = (sub[2] < 0) & ~self._on_cone(x[rows], sub[1])
            if np.any(again):
                x[rows[again]] = self.clamp_to_neighborhood(x[rows[again]],
                                                            margin=1e-3)
                for whole, part in zip(sub, self._locate(x[rows[again]])):
                    whole[again] = part
            for whole, part in zip(loc, sub):
                whole[rows] = part
        return self._sharp(x, *loc)

    # -- diagnostics ----------------------------------------------------------

    def residual_on_image(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.lattice.nearest_point_batch(pts)[1]


_MACHINERY_CACHE: dict = {}


def default_machinery(n: int, q: int, c0: float = 0.1, delta: float = 0.1):
    """Embedding + lattice + explicit ladder + projection machine, cached."""
    key = (n, q, c0, delta)
    if key not in _MACHINERY_CACHE:
        spec = build_embedding(n, q, certificate_pairs=2000)
        lattice = face_lattice(spec)
        ladder = ConstantLadder.explicit(lattice.max_dim, c0=c0, delta=delta)
        _MACHINERY_CACHE[key] = AlmostProjection(spec, lattice, ladder)
    return _MACHINERY_CACHE[key]
