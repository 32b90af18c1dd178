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

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .coneproj import kirszbraun_value
from .embed import (EmbeddingSpec, FaceLattice, NotOnImageError,
                    build_embedding, face_lattice,
                    project_face_closure_line, xi, xi_batch, xi_inverse)
from .qspace import QPoint

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

    @staticmethod
    def from_values(nq: int, c: np.ndarray, delta: float) -> "ConstantLadder":
        c = np.asarray(c, dtype=float)
        if c.shape != (nq + 1,):
            raise LadderError("need nq + 1 values: c_{-1} through c_{nq-1}")
        with np.errstate(divide="ignore"):
            log10_c = np.log10(c)
        ladder = ConstantLadder(nq=nq, mode="explicit", delta=float(delta),
                                log10_delta=float(log10_c[1]) * 8.0 ** nq,
                                c=c, log10_c=log10_c)
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

    def to_json(self) -> dict:
        return {"mode": self.mode, "nq": self.nq, "delta": self.delta,
                "log10_delta": self.log10_delta, "c": [float(v) for v in self.c],
                "log10_c": [float(v) for v in self.log10_c]}

    @staticmethod
    def from_json(obj) -> "ConstantLadder":
        return ConstantLadder(nq=int(obj["nq"]), mode=obj["mode"],
                              delta=float(obj["delta"]),
                              log10_delta=float(obj["log10_delta"]),
                              c=np.asarray(obj["c"], dtype=float),
                              log10_c=np.asarray(obj["log10_c"], dtype=float))


# ---------------------------------------------------------------------------
# the machine


def project_face_closure(lattice: FaceLattice, face, x: np.ndarray) -> np.ndarray:
    """Nearest point of the closed face cone; exact isotonic fit when n = 1."""
    x = np.asarray(x, dtype=float)
    if lattice.spec.dims.n == 1 and lattice.spec.dims.h == 1:
        return project_face_closure_line(face, x)
    _, p = lattice.closure_distance(x, face, with_point=True)
    return p


class AlmostProjection:
    """Bundle of spec + lattice + ladder evaluating the three maps."""

    def __init__(self, spec: EmbeddingSpec, lattice: FaceLattice,
                 ladder: ConstantLadder, far_scale: float = 1.0,
                 on_image_tol: float = 1e-7):
        if ladder.nq != lattice.max_dim:
            raise LadderError("ladder length does not match the lattice grading")
        self.spec = spec
        self.lattice = lattice
        self.ladder = ladder
        self.far_scale = far_scale
        self.on_image_tol = on_image_tol
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
            best_z = np.full(len(pts), np.inf)
            best_face = np.full(len(pts), -1)
            best_base = np.zeros_like(pts)
            for f in lat.faces_of_dim(k):
                if f.dim == 0:
                    znorm = np.linalg.norm(pts, axis=1)
                    cand = znorm <= wide
                    if not np.any(cand):
                        continue
                    base = np.zeros_like(pts[cand])
                    ok = np.ones(int(cand.sum()), dtype=bool)
                else:
                    y = pts @ f.basis
                    base_all = y @ f.basis.T
                    znorm = np.linalg.norm(pts - base_all, axis=1)
                    cand = znorm <= wide
                    if f.cons.size:
                        cand &= (f.cons @ y.T).min(axis=0) >= -1e-10 * (1 + znorm)
                    if not np.any(cand):
                        continue
                    base = base_all[cand]
                    # membership needs the base away from the lower skeleton
                    dlow = lat.skeleton_distance_batch(base, k - 1)
                    ok = dlow >= c_km1 ** 2
                    ok &= znorm[cand] <= lat.tilde_c * dlow
                idx = np.flatnonzero(cand)[ok]
                better = znorm[idx] < best_z[idx]
                idx = idx[better]
                best_z[idx] = znorm[idx]
                best_face[idx] = f.index
                best_base[idx] = base[ok][better]
            for fi in np.unique(best_face[best_face >= 0]):
                f = lat.faces[fi]
                sel = np.flatnonzero(best_face == fi)
                snap = best_z[sel] <= c_k
                out = np.empty((len(sel), pts.shape[1]))
                out[snap] = best_base[sel[snap]]
                move = ~snap
                if np.any(move):
                    rows = sel[move]
                    zc = cur[rows] - (cur[rows] @ f.basis) @ f.basis.T
                    fac = _phi_factor(np.linalg.norm(zc, axis=1), 2.0 * c_k)
                    out[move] = best_base[rows] + fac[:, None] * zc
                cur[sel] = out
        return cur[0] if single else cur

    # -- rho_sharp -----------------------------------------------------------

    def tube_level(self, x: np.ndarray):
        """Smallest l with dist(x, S_l) <= delta^(l+1), counting the cone
        itself as level nq; None when x is outside every tube."""
        x = np.asarray(x, dtype=float)
        lat, d = self.lattice, self.ladder.delta
        for lvl in range(self.ladder.nq):
            if lat.skeleton_distance(x, lvl) <= d ** (lvl + 1):
                return lvl
        _, dq = lat.nearest_point(x)
        if dq <= d ** (self.ladder.nq + 1) * (1 + 1e-9) + 1e-15:
            return self.ladder.nq
        return None

    def rho_sharp(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        scale = 1.0 + float(np.linalg.norm(x))
        near, dq = self.lattice.nearest_point(x)
        if dq <= 1e-12 * scale:
            return self.rho_flat(near, assume_on_image=True)
        level = self.tube_level(x)
        if level is None:
            raise OutsideNeighborhoodError(
                f"point at distance {dq:.3e} from the cone, outside every tube")
        if level == 0:
            return np.zeros_like(x)
        if level == self.ladder.nq:
            face = min(self.lattice.top_faces,
                       key=lambda f: self.lattice.closure_distance(x, f))
        else:
            face = min(self.lattice.faces_of_dim(level),
                       key=lambda f: self.lattice.closure_distance(x, f))
        y = face.basis.T @ x
        plane = face.basis @ y
        in_open = face.cons.size == 0 or (face.cons @ y).min() > 1e-9 * scale
        if in_open and self.lattice.skeleton_distance(plane, face.dim - 1) >= self.far_scale:
            return plane  # the prescribed orthogonal-projection region
        return self._kirszbraun_gap(x, face, near, dq, level)

    def _kirszbraun_gap(self, x, face, near, dq, level):
        lat, lad = self.lattice, self.ladder
        lip = 1.0 + 4.0 * lad.ck(-1)
        rng = np.random.default_rng(np.frombuffer(
            np.asarray(x, dtype=float).tobytes(), dtype=np.uint64) % (2 ** 31))
        anchors = [near]
        tube = lad.delta ** (level + 1)
        eps_anchor = max(lad.ck(min(level, lad.nq - 1)) / 16.0, 1e-9)
        base_s = max(2.0 * dq, tube, eps_anchor)
        try:
            t0 = xi_inverse(self.spec, near, tol=1e-5)
            for s in (1.0, 2.0, 4.0, 8.0):
                jit = t0.points[None] + rng.normal(
                    size=(6, self.spec.dims.q, self.spec.dims.n)) * s * base_s
                anchors.extend(xi_batch(self.spec, jit))
        except (NotOnImageError, RuntimeError):
            pass
        # anchors on the nearby lower skeleton keep the gap consistent with
        # the values already prescribed there
        for f in lat.faces_up_to(level - 1):
            d, p = lat.closure_distance(x, f, with_point=True)
            if d <= 4.0 * lad.delta ** level:
                anchors.append(p)
        # one far anchor in the projection region of the face
        if face.dim > 0:
            _, p0 = lat.closure_distance(x, face, with_point=True)
            dlow = lat.skeleton_distance(p0, face.dim - 1)
            if dlow > 1e-9:
                anchors.append(p0 * max(1.0, 2.0 * self.far_scale / dlow))
        # snap numerical fuzz onto the cone so anchor/value pairs are consistent
        anchors = lat.nearest_point_batch(np.asarray(anchors))[0]
        values = self.rho_flat(anchors, assume_on_image=True)
        ybest, _level = kirszbraun_value(x, anchors, values, lip)
        out = project_face_closure(lat, face, ybest)
        q, resid = lat.nearest_point(out)
        if resid > self.on_image_tol * (1.0 + np.linalg.norm(out)):
            out = self.rho_flat(q, assume_on_image=True)
        return out

    # -- rho_star ------------------------------------------------------------

    def clamp_to_neighborhood(self, x: np.ndarray,
                              margin: float = 1e-6) -> np.ndarray:
        """Nearest point of the union of tubes (along the segment to the
        realizing skeleton point), pulled `margin` inside the boundary so the
        membership test stays stable under re-evaluation noise."""
        x = np.asarray(x, dtype=float)
        lat, d = self.lattice, self.ladder.delta
        best = (np.inf, None)
        for lvl in range(self.ladder.nq + 1):
            r = d ** (lvl + 1)
            if lvl == self.ladder.nq:
                p, dist = lat.nearest_point(x)
            else:
                dist, p = min(
                    (lat.closure_distance(x, f, with_point=True)
                     for f in lat.faces_up_to(lvl)),
                    key=lambda t: t[0])
            gap = dist - r
            if gap <= 0:
                return x
            if gap < best[0]:
                best = (gap, p + (x - p) * (r * (1.0 - margin) / dist))
        return best[1]

    def rho_star(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.tube_level(x) is None:
            x = self.clamp_to_neighborhood(x)
        try:
            return self.rho_sharp(x)
        except OutsideNeighborhoodError:
            # boundary-grazing input: pull decisively into the tube
            return self.rho_sharp(self.clamp_to_neighborhood(x, margin=1e-3))

    def rho_star_batch(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return np.stack([self.rho_star(p) for p in pts])

    # -- diagnostics ----------------------------------------------------------

    def residual_on_image(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return self.lattice.nearest_point_batch(pts)[1]


_MACHINERY_CACHE: dict = {}


def default_machinery(n: int, q: int, c0: float = 0.1, delta: float = 0.1,
                      seed: int = 0, m: int = 2):
    """Embedding + lattice + explicit ladder + projection machine, cached."""
    key = (n, q, c0, delta, seed, m)
    if key not in _MACHINERY_CACHE:
        from .embed import Dimensions
        spec = build_embedding(Dimensions(m, n, q, 1 if n == 1 else 3), seed=seed,
                               certificate_pairs=2000)
        lattice = face_lattice(spec)
        ladder = ConstantLadder.explicit(lattice.max_dim, c0=c0, delta=delta)
        _MACHINERY_CACHE[key] = AlmostProjection(spec, lattice, ladder)
    return _MACHINERY_CACHE[key]
