"""Bi-Lipschitz embedding of unordered Q-tuples and the face lattice of its image.

The embedding projects the tuple onto h unit directions forming a tight frame
(sum of outer products = (h/n) I), sorts each block of Q projections, and
scales by sqrt(n/h).  With that normalization the map is 1-Lipschitz from the
matching metric and preserves Dirichlet energy of fields exactly in the
continuum (per-direction sorted matching underestimates the global matching,
the tight frame restores the trace).

The image is a finite union of relatively open convex cones ("faces"), one per
realizable pattern of equalities/orderings of the block entries augmented with
a virtual zero entry.  The zero augmentation grades the lattice by the origin:
the 0-skeleton is exactly {0}, and distances to skeletons scale linearly.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .qspace import QPoint, metric_g, random_qpoint

_FEAS_TOL = 1e-7
_SPAN_TOL = 1e-9
# pairs per chunk of the face kernel's span pass (and of the pair-separation
# pass) and of its active-set enumeration: they bound the kernel temporaries
_SPAN_PAIRS = 1 << 14
_PROJECT_CHUNK = 256
_APERTURE_START, _APERTURE_SAMPLES = 0.5, 200  # calibration: first try, points
_FACE_TOL = 1e-7  # face_of_point: distance slack, relative to 1 + |v|
_EMBED_SEED = 0  # build_embedding: seed of the n >= 3 frames and the certificate


class NotOnImageError(ValueError):
    """Raised when a vector is not within tolerance of the embedded cone."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes: target dim n, multiplicity q, frame size h."""

    n: int
    q: int
    h: int

    def __post_init__(self):
        if min(self.n, self.q, self.h) < 1:
            raise ValueError("all dimensions must be positive")

    @property
    def big_n(self) -> int:
        return self.h * self.q

    @property
    def nq(self) -> int:
        return self.n * self.q


@dataclass(frozen=True)
class InjectivityCertificate:
    pairs: int
    hard_pairs: int
    min_gap_ratio: float
    seed: int

    @property
    def passed(self) -> bool:
        return self.min_gap_ratio > 1e-6


@dataclass(frozen=True)
class EmbeddingSpec:
    dims: Dimensions
    directions: np.ndarray  # (h, n) unit rows, tight frame
    scale: float  # sqrt(n / h)
    certificate: InjectivityCertificate

    def __post_init__(self):
        d = self.directions
        if d.shape != (self.dims.h, self.dims.n):
            raise ValueError("direction matrix shape mismatch")
        if np.abs(np.einsum("ij,ij->i", d, d) - 1.0).max() > 1e-9:
            raise ValueError("directions must be unit vectors")
        gram = d.T @ d
        target = (self.dims.h / self.dims.n) * np.eye(self.dims.n)
        if np.abs(gram - target).max() > 1e-9:
            raise ValueError("directions must form a tight frame")
        if abs(self.scale - np.sqrt(self.dims.n / self.dims.h)) > 1e-12:
            raise ValueError("scale must be sqrt(n/h)")

    @property
    def key(self):
        return (self.dims.n, self.dims.q, self.dims.h, self.certificate.seed)


# ---------------------------------------------------------------------------
# frames and the embedding map


def _frame(n: int, h: int) -> np.ndarray:
    if n == 1:
        return np.ones((1, 1))
    if n == 2:
        angles = np.arange(h) * np.pi / h
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # unions of orthonormal bases: h must be a multiple of n
    if h % n != 0:
        raise ValueError("for n >= 3 the frame size must be a multiple of n")
    rng = np.random.default_rng(_EMBED_SEED + 7919)
    blocks = [np.eye(n)]
    for _ in range(h // n - 1):
        a = rng.normal(size=(n, n))
        qmat, r = np.linalg.qr(a)
        qmat = qmat * np.sign(np.diag(r))
        blocks.append(qmat.T)
    return np.concatenate(blocks, axis=0)


def xi(spec: EmbeddingSpec, t: QPoint) -> np.ndarray:
    """Embed one tuple: blockwise sorted frame projections times sqrt(n/h)."""
    if (t.q, t.n) != (spec.dims.q, spec.dims.n):
        raise ValueError("tuple dimensions do not match the embedding")
    return xi_batch(spec, t.points)


def xi_batch(spec: EmbeddingSpec, pts: np.ndarray) -> np.ndarray:
    """Embed an array of tuples given as (..., q, n) raw point arrays."""
    return _sorted_projections(pts, spec.directions, spec.scale)


def _sorted_projections(pts, directions, scale) -> np.ndarray:
    """The map behind xi_batch, for a frame that has no spec yet."""
    proj = pts @ directions.T  # (..., q, h)
    srt = np.sort(proj, axis=-2)  # sort within each block
    big_n = directions.shape[0] * pts.shape[-2]
    return scale * np.swapaxes(srt, -1, -2).reshape(pts.shape[:-2] + (big_n,))


def _certificate(dims: Dimensions, directions, scale, pairs) -> InjectivityCertificate:
    rng = np.random.default_rng(_EMBED_SEED)
    hard = pairs // 2
    min_ratio = np.inf
    for i in range(pairs):
        if i < hard and dims.n > 1:
            # adversarial pairs: identical per-axis multisets, distinct tuples
            a = rng.normal(size=(dims.q, dims.n))
            b = a.copy()
            for c in range(dims.n):
                b[:, c] = rng.permutation(b[:, c])
        else:
            a = rng.normal(size=(dims.q, dims.n))
            b = rng.normal(size=(dims.q, dims.n)) * rng.choice([0.1, 1.0, 10.0])
        if _same_multiset(a, b):
            continue
        g = metric_g(QPoint(a), QPoint(b))
        if g == 0.0:
            continue
        gap = np.linalg.norm(_sorted_projections(a, directions, scale)
                             - _sorted_projections(b, directions, scale))
        min_ratio = min(min_ratio, gap / g)
    return InjectivityCertificate(pairs=pairs, hard_pairs=hard,
                                  min_gap_ratio=float(min_ratio), seed=_EMBED_SEED)


def _same_multiset(a, b) -> bool:
    return bool(np.array_equal(QPoint(a).points, QPoint(b).points))


_EMBED_CACHE: dict = {}


def build_embedding(n: int, q: int, certificate_pairs: int = 10_000) -> EmbeddingSpec:
    """Choose a tight direction frame passing the randomized injectivity test.

    Starts from the smallest frame (n = 1: the identity; n = 2: three
    equiangular directions; n >= 3: two stacked orthonormal bases) and grows
    it until no sampled pair of distinct tuples collides.
    """
    cache_key = (n, q, certificate_pairs)
    if cache_key in _EMBED_CACHE:
        return _EMBED_CACHE[cache_key]
    if n == 1:
        h_list = [1]
    elif n == 2:
        h_list = [3, 4, 5, 6, 8]
    else:
        h_list = [2 * n, 3 * n, 4 * n]
    last = None
    for h in h_list:
        dims = Dimensions(n, q, h)  # rejects n, q < 1
        directions = _frame(n, h)
        scale = float(np.sqrt(n / h))
        cert = _certificate(dims, directions, scale, certificate_pairs)
        last = EmbeddingSpec(dims=dims, directions=directions, scale=scale, certificate=cert)
        if cert.passed:
            _EMBED_CACHE[cache_key] = last
            return last
    raise RuntimeError(
        f"no frame up to h={h_list[-1]} passed the injectivity certificate "
        f"(best ratio {last.certificate.min_gap_ratio:.3e})"
    )


# ---------------------------------------------------------------------------
# face patterns

# A labeled block pattern assigns each of the q labels and the virtual zero to
# strictly increasing levels: (levels[j] for j in 0..q-1, z_level, n_levels).
# A face is an orbit of full patterns (one per block) under a common relabeling.


def _ordered_partitions(items: tuple):
    if not items:
        yield ()
        return
    first = items[0]
    rest = items[1:]
    for sub in _ordered_partitions(rest):
        # insert `first` into an existing group or as a new singleton group
        for i, grp in enumerate(sub):
            yield sub[:i] + (grp + (first,),) + sub[i + 1 :]
        for i in range(len(sub) + 1):
            yield sub[:i] + ((first,),) + sub[i:]


def _block_patterns(q: int):
    """All weak orders on q labels plus the zero symbol, encoded by levels."""
    items = tuple(range(q)) + ("z",)
    out = []
    seen = set()
    for parts in _ordered_partitions(items):
        levels = [0] * q
        zlevel = -1
        for lvl, grp in enumerate(parts):
            for g in grp:
                if g == "z":
                    zlevel = lvl
                else:
                    levels[g] = lvl
        enc = (tuple(levels), zlevel, len(parts))
        if enc not in seen:
            seen.add(enc)
            out.append(enc)
    return out


def _row(spec, k, j, nq):
    """Coefficient row of w^k_j = e_k . P_j over flattened P in R^{nq}."""
    r = np.zeros(nq)
    n = spec.dims.n
    r[j * n : (j + 1) * n] = spec.directions[k]
    return r


def _pattern_rows(spec, k, pattern):
    """(equality rows, strict rows) of one block pattern over R^{nq}."""
    levels, zlevel, nlevels = pattern
    nq = spec.dims.nq
    members = [[] for _ in range(nlevels)]
    for j, lvl in enumerate(levels):
        members[lvl].append(j)

    def value_row(lvl):
        if members[lvl]:
            return _row(spec, k, members[lvl][0], nq)
        return np.zeros(nq)  # zero-only level

    eq, strict = [], []
    for lvl in range(nlevels):
        mem = members[lvl]
        for a, b in zip(mem, mem[1:]):
            eq.append(_row(spec, k, a, nq) - _row(spec, k, b, nq))
        if zlevel == lvl and mem:
            eq.append(_row(spec, k, mem[0], nq))
    for lvl in range(nlevels - 1):
        strict.append(value_row(lvl + 1) - value_row(lvl))
    return eq, strict


def _feasible(eq_rows, strict_rows, nq) -> bool:
    if not strict_rows:
        return True  # equalities alone always admit P = 0
    ns = len(strict_rows)
    a_ub = np.concatenate([-np.asarray(strict_rows), np.ones((ns, 1))], axis=1)
    b_ub = np.zeros(ns)
    a_eq = None
    b_eq = None
    if eq_rows:
        a_eq = np.concatenate([np.asarray(eq_rows), np.zeros((len(eq_rows), 1))], axis=1)
        b_eq = np.zeros(len(eq_rows))
    c = np.zeros(nq + 1)
    c[-1] = -1.0
    bounds = [(-1.0, 1.0)] * nq + [(0.0, 1.0)]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
                  method="highs")
    return bool(res.status == 0 and -res.fun > _FEAS_TOL)


def _permute_pattern(full_pattern, perm):
    out = []
    for levels, zlevel, nlevels in full_pattern:
        out.append((tuple(levels[perm[j]] for j in range(len(levels))), zlevel, nlevels))
    return tuple(out)


def _canonical_pattern(full_pattern, q):
    return min(_permute_pattern(full_pattern, p) for p in itertools.permutations(range(q)))


def _label_slots(pattern) -> np.ndarray:
    """(q, h) array: the sorted position of label j in block k of a labeled
    pattern.  Labels sort by (level, label); tied labels share a value."""
    return np.array([np.argsort(np.argsort(levels, kind="stable"))
                     for levels, _z, _nl in pattern]).T


class FaceRecord:
    """One face: canonical labeled pattern plus its span and closure inequalities."""

    __slots__ = ("index", "pattern", "slots", "dim", "basis", "cons",
                 "projectors")

    def __init__(self, index, pattern, dim, basis, cons, projectors):
        self.index = index
        self.pattern = pattern
        self.slots = _label_slots(pattern)
        self.dim = dim
        self.basis = basis  # (N, dim) orthonormal
        self.cons = cons  # (n_strict, dim): closure = {basis @ y : cons @ y >= 0}
        # (K, dim, dim): orthogonal projectors onto null(cons[S]), one per
        # nonempty linearly independent row set S with |S| <= dim
        self.projectors = projectors

    def __repr__(self):
        return f"Face(dim={self.dim}, idx={self.index})"


def _active_set_projectors(cons: np.ndarray) -> np.ndarray:
    """Projectors onto null(cons[S]) for the nonempty independent row sets S.

    The Euclidean projection onto {y : cons @ y >= 0} lies in the relative
    interior of one face of that cone, and the face spans null(cons[S]) for a
    maximal independent subset S of its active rows; so the projection is one
    of y, y @ P_S.  (Rows are unit vectors; subsets are either dependent or
    have smallest singular value far above 1e-10.)
    """
    m, dim = cons.shape
    out = []
    for size in range(1, min(m, dim) + 1):
        for rows in itertools.combinations(range(m), size):
            _u, s, vt = np.linalg.svd(cons[list(rows)])
            if s[-1] > 1e-10:
                null = vt[size:]
                out.append(null.T @ null)
    return np.asarray(out, dtype=float).reshape(-1, dim, dim)


class FaceStack(list):
    """A list of faces with their geometry zero-padded into arrays: bases
    (F, N, D), unit constraint rows (F, M, D) and active-set projectors
    (F, K, D, D), `real` and `real_cons` marking the real projectors and
    constraint rows.  The face kernel treats every (row, face) pair of the
    list in a few array passes; padded entries contribute exact zeros."""

    def __init__(self, faces, big_n: int):
        super().__init__(faces)
        dim = max([f.dim for f in faces], default=0)
        m = max([len(f.cons) for f in faces], default=0)
        k = max([len(f.projectors) for f in faces], default=0)
        self.dims = np.array([f.dim for f in faces], dtype=int)
        self.basis = np.zeros((len(faces), big_n, dim))
        self.cons = np.zeros((len(faces), m, dim))
        self.projectors = np.zeros((len(faces), k, dim, dim))
        self.real = np.arange(k) < np.array([len(f.projectors) for f in faces], dtype=int)[:, None]
        self.real_cons = np.arange(m) < np.array([len(f.cons) for f in faces], dtype=int)[:, None]
        for i, f in enumerate(faces):
            self.basis[i, :, :f.dim] = f.basis
            self.cons[i, :len(f.cons), :f.dim] = f.cons
            self.projectors[i, :len(f.projectors), :f.dim, :f.dim] = f.projectors
        # the bases side by side, (N, F * D): a view of `basis` where numpy
        # can give one, so it sums in the same order as the (F, N, D) array
        self._flat_basis = self.basis.transpose(1, 0, 2).reshape(big_n, -1)

    def span(self, pts: np.ndarray):
        """Per (row, face): the span coordinates y, the span point, its
        distance and the smallest constraint margin min(0, cons @ y).

        Every product is an einsum, which rounds a row the same way whatever
        batch it comes in.  A BLAS product of one row can round differently
        from the same row inside a larger product, and rho_star's Kirszbraun
        step turns such last-bit differences into visible ones."""
        y = np.einsum("ri,ij->rj", pts, self._flat_basis).reshape(
            len(pts), len(self), self.basis.shape[2])
        near = np.einsum("rfd,fid->rfi", y, self.basis)
        dist = np.linalg.norm(pts[:, None] - near, axis=2)
        margin = np.einsum("rfd,fmd->rfm", y, self.cons).min(axis=2, initial=0.0)
        return y, near, dist, margin

    def spans(self, pts: np.ndarray):
        """Yields (rows, span(pts[rows])) per chunk of _SPAN_PAIRS pairs."""
        step = max(1, _SPAN_PAIRS // max(len(self), 1))
        for lo in range(0, len(pts), step):
            rows = slice(lo, lo + step)
            yield rows, self.span(pts[rows])

    def own_span(self, pts: np.ndarray, which: np.ndarray):
        """Per row, on its own face which[row]: the span point and the least
        margin cons @ y over the face's real constraint rows (inf for none;
        a padded row reads 0, so it is left out)."""
        basis, cons = self.basis[which], self.cons[which]
        y = np.einsum("ri,rid->rd", pts, basis)
        margin = np.where(self.real_cons[which], np.einsum("rd,rmd->rm", y, cons), np.inf)
        return np.einsum("rd,rid->ri", y, basis), margin.min(axis=1, initial=np.inf)

    def _project(self, y, span_d, tol, dist, near, r, f):
        """Project the pairs (r, f) exactly onto their closures, into dist and
        near: the nearest candidate y @ P_S meeting the constraints to tol."""
        for lo in range(0, len(r), _PROJECT_CHUNK):
            pr, pf = r[lo:lo + _PROJECT_CHUNK], f[lo:lo + _PROJECT_CHUNK]
            yp = y[pr, pf]
            cand = np.einsum("pd,pkde->pke", yp, self.projectors[pf])
            ok = np.einsum("pke,pme->pkm", cand, self.cons[pf]).min(
                axis=2, initial=0.0) >= -tol[pr, pf, None]
            gap = np.einsum("pkd,pkd->pk", cand - yp[:, None], cand - yp[:, None])
            gap[~(ok & self.real[pf])] = np.inf
            ystar = cand[np.arange(len(pr)), gap.argmin(axis=1)]
            dist[pr, pf] = np.sqrt(span_d[pr, pf] ** 2 + np.sum((yp - ystar) ** 2, axis=1))
            near[pr, pf] = np.einsum("pd,pid->pi", ystar, self.basis[pf])

    def _chunks(self, pts, offset, bound=None):
        """Yields (rows, dist (R, F), near (R, F, N)) per chunk of rows.

        A pair inside the closure (margin >= -tol) is its span projection.  An
        outside pair is at least hypot(span distance, -margin - tol) away (the
        constraint rows are unit vectors).  It is projected if that bound is
        at most bound[row, face] or, without a bound, if the bound minus
        offset[face] can reach the row's least distance minus offset (over
        its inside pairs, then its most promising outside pair); otherwise it
        keeps the lower bound.
        """
        for rows, (y, near, span_d, margin) in self.spans(pts):
            tol = _SPAN_TOL * (1.0 + np.linalg.norm(y, axis=2))
            inside = margin >= -tol
            dist = np.where(inside, span_d, np.hypot(span_d, np.minimum(margin + tol, 0.0)))
            args = (y, span_d, tol, dist, near)
            if bound is not None:
                self._project(*args, *np.nonzero(~inside & (dist <= bound[rows])))
            else:
                best = np.where(inside, dist - offset, np.inf).min(axis=1)
                todo = ~inside & (dist - offset <= best[:, None])
                first = np.where(todo, dist - offset, np.inf).argmin(axis=1)
                r = np.flatnonzero(todo[np.arange(len(first)), first])
                self._project(*args, r, first[r])
                todo[r, first[r]] = False
                best[r] = np.minimum(best[r], dist[r, first[r]] - offset[first[r]])
                self._project(*args, *np.nonzero(todo & (dist - offset <= best[:, None])))
            yield rows, dist, near

    def nearest(self, pts: np.ndarray, offset=0.0):
        """Per row of pts: the point of the union of the closures minimizing
        distance - offset[face], its distance, and the position of the first
        face realizing the minimum (-1 when the list is empty)."""
        pts = np.asarray(pts, dtype=float)
        out, dist, which = np.empty_like(pts), np.full(len(pts), np.inf), np.full(len(pts), -1)
        offset = np.broadcast_to(np.asarray(offset, dtype=float), (len(self),))
        for rows, d, near in self._chunks(pts, offset) if len(self) else ():
            j = (d - offset).argmin(axis=1)
            pick = np.arange(len(j))
            which[rows], dist[rows], out[rows] = j, d[pick, j], near[pick, j]
        return out, dist, which

    def project(self, pts: np.ndarray, which: np.ndarray) -> np.ndarray:
        """Per row: the nearest point of the closure of face which[row]."""
        bound = np.where(np.arange(len(self)) == which[:, None], np.inf, -np.inf)
        return self.within(pts, bound)[1]

    def within(self, pts: np.ndarray, bound: np.ndarray):
        """The (row, face) pairs whose closure distance is at most
        bound[row, face], in row-major order: their rows and nearest points."""
        pts = np.asarray(pts, dtype=float)
        rows, near_pts = [np.zeros(0, dtype=int)], [np.zeros((0, pts.shape[1]))]
        for sl, d, near in self._chunks(pts, 0.0, bound):
            r, f = np.nonzero(d <= bound[sl])
            rows.append(r + sl.start)
            near_pts.append(near[r, f])
        return np.concatenate(rows), np.concatenate(near_pts)


def _face_geometry(spec, pattern):
    """Span basis, closure inequalities and active-set projectors of one
    labeled face."""
    dims = spec.dims
    nq, big_n = dims.nq, dims.big_n
    eq_rows, strict_rows = [], []
    for k, blk in enumerate(pattern):
        e, s = _pattern_rows(spec, k, blk)
        eq_rows += e
        strict_rows += s
    if eq_rows:
        b = null_space(np.asarray(eq_rows), rcond=1e-12)
    else:
        b = np.eye(nq)
    dim = b.shape[1]

    # placement: label j's value in block k sits at its slot there
    lmat = np.zeros((big_n, nq))
    for (j, k), pos in np.ndenumerate(_label_slots(pattern)):
        lmat[k * dims.q + pos] = spec.scale * _row(spec, k, j, nq)

    if dim == 0:
        return np.zeros((big_n, 0)), np.zeros((0, 0)), np.zeros((0, 0, 0))
    raw = lmat @ b  # (N, dim), full column rank
    basis, s, _vt = np.linalg.svd(raw, full_matrices=False)
    if np.sum(s > 1e-10) != dim:
        raise RuntimeError("face span is rank deficient")
    # P(y) = b @ pinv(raw) @ basis @ y reconstructs a configuration from span coords
    pmap = b @ np.linalg.pinv(raw) @ basis  # (nq, dim)
    if strict_rows:
        g = np.asarray(strict_rows) @ pmap
        norms = np.linalg.norm(g, axis=1)
        keep = norms > 1e-12
        g = g[keep] / norms[keep, None]
        # deduplicate rows
        if len(g):
            _, idx = np.unique(np.round(g, 9), axis=0, return_index=True)
            g = g[np.sort(idx)]
    else:
        g = np.zeros((0, dim))
    return basis, g, _active_set_projectors(g)


class FaceLattice:
    """All faces of the embedded cone, graded by dimension."""

    def __init__(self, spec: EmbeddingSpec, faces: list, tilde_c: float,
                 pair_separation: dict):
        self.spec = spec
        self.faces = faces
        self.tilde_c = tilde_c
        self.pair_separation = pair_separation
        self.max_dim = max(f.dim for f in faces)
        grades, big_n = range(-1, self.max_dim + 1), spec.dims.big_n  # -1: no face
        self._by_dim = {k: FaceStack([f for f in faces if f.dim == k], big_n) for k in grades}
        # the up-to lists run in ascending dimension (rho_star's anchor order)
        ascending = sorted(faces, key=lambda f: f.dim)
        self._up_to = {k: FaceStack([f for f in ascending if f.dim <= k], big_n) for k in grades}

    def faces_of_dim(self, k: int) -> FaceStack:
        return self._by_dim.get(k, self._by_dim[-1])

    def faces_up_to(self, k: int) -> FaceStack:
        return self._up_to[min(max(k, -1), self.max_dim)]

    @property
    def top_faces(self) -> FaceStack:
        return self._by_dim[self.max_dim]

    # -- distances ---------------------------------------------------------

    def closure_distance(self, v, face, with_point=False):
        """Distance from v to the closure of face (and the nearest point).
        One-row view for the tests; perfbench/tracer.py binds it."""
        v, faces = np.asarray(v, dtype=float), self.faces_of_dim(face.dim)
        p = faces.project(v[None], np.array([faces.index(face)]))[0]
        d = float(np.linalg.norm(v - p))
        return (d, p) if with_point else d

    def skeleton_distance(self, v, k: int) -> float:
        """One-row view for the tests; perfbench/tracer.py binds it."""
        return float(self.skeleton_distance_batch(np.asarray(v, dtype=float)[None], k)[0])

    def skeleton_distance_batch(self, pts: np.ndarray, k: int) -> np.ndarray:
        """Distance from each row of pts to the union of faces of dim <= k."""
        return self.faces_up_to(k).nearest(pts)[1]

    def nearest_point(self, v):
        """Nearest point of the cone and its distance.  One-row view for the
        tests; perfbench/tracer.py binds it."""
        p, d = self.nearest_point_batch(np.asarray(v, dtype=float)[None])
        return p[0], float(d[0])

    def nearest_point_batch(self, pts: np.ndarray):
        return self.top_faces.nearest(pts)[:2]

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        """JSON form; test_lattice_snapshot_plane_two digests its "faces"."""
        return {
            "n": self.spec.dims.n,
            "q": self.spec.dims.q,
            "h": self.spec.dims.h,
            "seed": self.spec.certificate.seed,
            "tilde_c": self.tilde_c,
            "pair_separation": {str(k): v for k, v in self.pair_separation.items()},
            "faces": [
                {
                    "pattern": [[list(b[0]), b[1], b[2]] for b in f.pattern],
                    "dim": f.dim,
                }
                for f in self.faces
            ],
        }


_LATTICE_CACHE: dict = {}


def face_lattice(spec: EmbeddingSpec) -> FaceLattice:
    """Enumerate realizable zero-augmented patterns and assemble the lattice."""
    if spec.key in _LATTICE_CACHE:
        return _LATTICE_CACHE[spec.key]
    dims = spec.dims
    patterns = _block_patterns(dims.q)
    rows_cache = [[_pattern_rows(spec, k, p) for p in patterns] for k in range(dims.h)]

    # a common relabeling maps feasible patterns to feasible patterns, so
    # block 0 needs one representative per relabeling orbit
    block0 = [pi for pi, p in enumerate(patterns)
              if _canonical_pattern((p,), dims.q) == (p,)]
    found = set()

    def dfs(k, chosen, eq_rows, strict_rows):
        if k == dims.h:
            found.add(_canonical_pattern(tuple(chosen), dims.q))
            return
        for pi in block0 if k == 0 else range(len(patterns)):
            pat = patterns[pi]
            e, s = rows_cache[k][pi]
            if _feasible(eq_rows + e, strict_rows + s, dims.nq):
                dfs(k + 1, chosen + [pat], eq_rows + e, strict_rows + s)

    dfs(0, [], [], [])

    faces = []
    for i, pattern in enumerate(sorted(found)):
        basis, cons, projectors = _face_geometry(spec, pattern)
        faces.append(FaceRecord(i, pattern, basis.shape[1], basis, cons, projectors))

    lattice = FaceLattice(spec, faces, tilde_c=0.5, pair_separation={})
    lattice.pair_separation = _measure_pair_separation(lattice)
    lattice.tilde_c = _calibrate_aperture(lattice)
    _LATTICE_CACHE[spec.key] = lattice
    return lattice


def _face_samples(lattice, faces, count, seed):
    """Per face, points of the open face at unit distance from the next lower
    skeleton; all `faces` share one dimension.

    Tries up to 40 * count Gaussian span coordinates per face, drawn from the
    generator seeded `seed + face.index`, and keeps in draw order the first
    `count` that lie strictly inside the face closure.  (Projecting an outside
    draw onto the closure lands on its boundary, so such draws are rejected
    without projecting them.)  Each round measures the next `count` draws of
    every face still short of samples in one skeleton-distance call.
    """
    draws = []
    for f in faces:
        y = np.random.default_rng(seed + f.index).normal(size=(40 * count, f.dim))
        y = y[(y @ f.cons.T).min(axis=1, initial=np.inf)
              >= 1e-9 * (1.0 + np.linalg.norm(y, axis=1))]
        draws.append(y)
    out = [[] for _ in faces]
    for lo in range(0, 40 * count, count):
        short = [i for i in range(len(faces))
                 if len(out[i]) < count and lo < len(draws[i])]
        if not short:
            break
        pts = [draws[i][lo:lo + count] @ faces[i].basis.T for i in short]
        dist = lattice.skeleton_distance_batch(np.concatenate(pts), faces[0].dim - 1)
        dist = np.split(dist, np.cumsum([len(p) for p in pts])[:-1])
        for i, p, d in zip(short, pts, dist):
            ok = np.isfinite(d) & (d >= 1e-12)
            out[i].extend(p[ok] / d[ok, None])
    return [np.asarray(o[:count]).reshape(-1, faces[0].basis.shape[0]) for o in out]


def _measure_pair_separation(lattice) -> dict:
    """Per dimension, the measured min distance between samples of distinct
    faces taken at unit distance from the lower skeleton."""
    out = {}
    for k in range(1, lattice.max_dim):
        faces = lattice.faces_of_dim(k)
        if len(faces) < 2:
            continue
        samples = _face_samples(lattice, faces, 24, seed=101)
        owner = np.repeat(np.arange(len(faces)), [len(s) for s in samples])
        pts, best = np.concatenate(samples), np.inf
        # each sample against itself and every later one, in row chunks
        step = max(1, _SPAN_PAIRS // max(len(pts), 1))
        for lo in range(0, len(pts), step):
            d = np.linalg.norm(pts[lo:lo + step, None, :] - pts[None, lo:, :], axis=-1)
            d[owner[lo:lo + step, None] == owner[None, lo:]] = np.inf
            best = min(best, float(d.min()))
        if np.isfinite(best):
            out[k] = best
    return out


def _calibrate_aperture(lattice) -> float:
    """Largest aperture (halving from _APERTURE_START) for which sampled cone fibers
    of non-nested faces of equal dimension stay disjoint."""
    spec = lattice.spec
    rng = np.random.default_rng(2029)
    pts = xi_batch(spec, np.asarray([
        random_qpoint(rng, spec.dims.q, spec.dims.n,
                      cluster=float(rng.choice([0.0, 0.02, 0.3]))).points
        for _ in range(_APERTURE_SAMPLES)]))

    # per dimension and (point, face) pair: the distance |z| of the point to
    # the face's span, whether its span point is off the face itself and
    # inside the closure, and (for those pairs) that span point's distance to
    # the lower skeleton; none depends on the aperture
    fibers = []
    for k in range(1, lattice.max_dim):
        faces = lattice.faces_of_dim(k)
        if len(faces) < 2:
            continue
        _, base, absz, margin = faces.span(pts)
        ok = (absz > 1e-12) & (margin >= -1e-10)  # points on a face are unambiguous
        dlow = np.zeros(absz.shape)
        dlow[ok] = lattice.skeleton_distance_batch(base[ok], k - 1)
        fibers.append((absz, ok, dlow))

    # faces of equal dimension are never nested, so a point may lie in one
    # fiber per dimension
    c = _APERTURE_START
    for _ in range(8):
        if all(((ok & (absz <= c * dlow)).sum(axis=1) <= 1).all()
               for absz, ok, dlow in fibers):
            return c
        c *= 0.5
    return c


# ---------------------------------------------------------------------------
# face lookup and inverse


def face_of_point(lattice: FaceLattice, v: np.ndarray) -> FaceRecord:
    """The lowest-dimensional face whose closure lies within _FACE_TOL *
    (1 + |v|) of v; for a point of the cone, the face containing it.  Raises
    NotOnImageError when even the top faces are farther than that.  Kept as
    the tests' oracle: every face is recovered from a point of it."""
    v = np.asarray(v, dtype=float)[None]
    tol_abs = _FACE_TOL * (1.0 + float(np.linalg.norm(v)))
    for k in range(lattice.max_dim + 1):
        faces = lattice.faces_of_dim(k)
        _, d, which = faces.nearest(v)
        if d[0] <= tol_abs:
            return faces[which[0]]
    raise NotOnImageError(
        f"vector is not on the embedded cone (residual {d[0]:.3e}, "
        f"tolerance {tol_abs:.3e})", residual=float(d[0]))


def xi_inverse(lattice: FaceLattice, v: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """The tuples embedded at the rows of v (..., N), as (..., q, n) arrays in
    QPoint's lexicographic row order.

    A point of the cone lies in the closure of its nearest top face, and that
    face's pattern fixes which sorted entry of each block belongs to which
    label; one least-squares solve over every (row, label) then recovers the
    points.  Raises NotOnImageError when a row is farther than
    tol * (1 + |v|) from the cone.
    """
    spec = lattice.spec
    q, n, h, big_n = spec.dims.q, spec.dims.n, spec.dims.h, spec.dims.big_n
    v = np.asarray(v, dtype=float)
    if v.shape[-1:] != (big_n,):
        raise ValueError("vector length must be h*q")
    rows = v.reshape(-1, big_n)
    bad = ~np.isfinite(rows).all(axis=1)
    if bad.any():
        raise ValueError(f"{int(bad.sum())} row(s) are not finite")
    top = lattice.top_faces
    _, dist, which = top.nearest(rows)
    off = dist > tol * (1.0 + np.linalg.norm(rows, axis=1))
    if off.any():
        worst = float(dist[off].max())
        raise NotOnImageError(
            f"{int(off.sum())} of {len(rows)} row(s) are not on the embedded "
            f"cone (worst residual {worst:.3e}, tolerance {tol:.1e} * (1 + |v|))",
            residual=worst)
    w = rows.reshape(-1, h, q) / spec.scale
    out = np.empty((len(rows), q, n))
    for j in np.unique(which):
        sel = np.flatnonzero(which == j)
        # b[r, label, k]: the entry of block k at the label's slot
        b = w[sel][:, np.arange(h), top[j].slots]
        sol = np.linalg.lstsq(spec.directions, b.reshape(-1, h).T, rcond=None)[0]
        out[sel] = sol.T.reshape(len(sel), q, n)
    order = np.lexsort(np.moveaxis(out, -1, 0)[::-1], axis=-1)
    out = np.take_along_axis(out, order[..., None], axis=1)
    return out.reshape(v.shape[:-1] + (q, n))
