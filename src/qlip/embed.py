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
import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .coneproj import pava_pinned
from .qspace import QPoint, metric_g, random_qpoint

_FEAS_TOL = 1e-7
_SPAN_TOL = 1e-9
# rows per active-set enumeration; bounds the (rows, candidates, constraints)
# temporaries of the face kernel
_PROJECT_CHUNK = 1024


class NotOnImageError(ValueError):
    """Raised when a vector is not within tolerance of the embedded cone."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class Dimensions:
    """Problem sizes: domain dim m, target dim n, multiplicity q, frame size h."""

    m: int
    n: int
    q: int
    h: int

    def __post_init__(self):
        if min(self.m, self.n, self.q, self.h) < 1:
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


def _frame(n: int, h: int, seed: int) -> np.ndarray:
    if n == 1:
        return np.ones((1, 1))
    if n == 2:
        angles = np.arange(h) * np.pi / h
        return np.stack([np.cos(angles), np.sin(angles)], axis=1)
    # unions of orthonormal bases: h must be a multiple of n
    if h % n != 0:
        raise ValueError("for n >= 3 the frame size must be a multiple of n")
    rng = np.random.default_rng(seed + 7919)
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
    proj = t.points @ spec.directions.T  # (q, h)
    return spec.scale * np.sort(proj, axis=0).T.reshape(-1)


def xi_batch(spec: EmbeddingSpec, pts: np.ndarray) -> np.ndarray:
    """Embed an array of tuples given as (..., q, n) raw point arrays."""
    proj = pts @ spec.directions.T  # (..., q, h)
    srt = np.sort(proj, axis=-2)  # sort within each block
    return spec.scale * np.swapaxes(srt, -1, -2).reshape(pts.shape[:-2] + (spec.dims.big_n,))


def _certificate(dims: Dimensions, directions, scale, seed, pairs) -> InjectivityCertificate:
    rng = np.random.default_rng(seed)
    hard = pairs // 2
    min_ratio = np.inf
    spec_like = lambda p: scale * np.sort(p @ directions.T, axis=0).T.reshape(-1)
    for i in range(pairs):
        if i < hard and dims.n > 1:
            # adversarial pairs: identical per-axis multisets, distinct tuples
            a = rng.normal(size=(dims.q, dims.n))
            b = a.copy()
            for c in range(dims.n):
                b[:, c] = rng.permutation(b[:, c])
            if np.array_equal(np.sort(a, axis=0), np.sort(b, axis=0)) and _same_multiset(a, b):
                continue
        else:
            a = rng.normal(size=(dims.q, dims.n))
            b = rng.normal(size=(dims.q, dims.n)) * rng.choice([0.1, 1.0, 10.0])
        if _same_multiset(a, b):
            continue
        g = metric_g(QPoint(a), QPoint(b))
        if g == 0.0:
            continue
        gap = np.linalg.norm(spec_like(a) - spec_like(b))
        min_ratio = min(min_ratio, gap / g)
    return InjectivityCertificate(pairs=pairs, hard_pairs=hard,
                                  min_gap_ratio=float(min_ratio), seed=seed)


def _same_multiset(a, b) -> bool:
    return bool(np.array_equal(QPoint(a).points, QPoint(b).points))


_EMBED_CACHE: dict = {}


def build_embedding(dims: Dimensions, seed: int = 0, certificate_pairs: int = 10_000) -> EmbeddingSpec:
    """Choose a tight direction frame passing the randomized injectivity test.

    Starts from the smallest frame (n = 1: the identity; n = 2: three
    equiangular directions; n >= 3: two stacked orthonormal bases) and grows
    it until no sampled pair of distinct tuples collides.
    """
    cache_key = (dims.n, dims.q, seed, certificate_pairs)
    if cache_key in _EMBED_CACHE:
        return _EMBED_CACHE[cache_key]
    if dims.n == 1:
        h_list = [1]
    elif dims.n == 2:
        h_list = [3, 4, 5, 6, 8]
    else:
        h_list = [2 * dims.n, 3 * dims.n, 4 * dims.n]
    last = None
    for h in h_list:
        directions = _frame(dims.n, h, seed)
        scale = float(np.sqrt(dims.n / h))
        d2 = Dimensions(dims.m, dims.n, dims.q, h)
        cert = _certificate(d2, directions, scale, seed, certificate_pairs)
        last = EmbeddingSpec(dims=d2, directions=directions, scale=scale, certificate=cert)
        if cert.passed:
            _EMBED_CACHE[cache_key] = last
            return last
    raise RuntimeError(
        f"no frame up to h={h_list[-1]} passed the injectivity certificate "
        f"(best ratio {last.certificate.min_gap_ratio:.3e})"
    )


# ---------------------------------------------------------------------------
# inverse by consistent labeling


def xi_inverse(spec: EmbeddingSpec, v: np.ndarray, tol: float = 1e-7,
               max_leaves: int = 200_000) -> QPoint:
    """Recover the tuple whose embedding is v, by branch and bound over the
    per-block assignment of labels to sorted positions.

    Supported regime: q <= 4 and h <= 6 (the search is exponential in h and q!).
    Raises NotOnImageError when no labeling reproduces v within
    tol * (1 + |v|).  Ambiguities at equal residual resolve to the
    lexicographically least tuple.
    """
    dims = spec.dims
    if dims.q > 4 or dims.h > 6:
        raise ValueError("inverse supported for q <= 4 and h <= 6")
    v = np.asarray(v, dtype=float)
    if v.shape != (dims.big_n,):
        raise ValueError("vector length must be h*q")
    w = v.reshape(dims.h, dims.q) / spec.scale
    tol_abs = tol * (1.0 + float(np.linalg.norm(v)))
    prune = max(2.0 * tol_abs, 1e-6 * (1.0 + float(np.linalg.norm(v)))) ** 2 * 4.0

    q, h, n = dims.q, dims.h, dims.n
    dirs = spec.directions
    perms = list(itertools.permutations(range(q)))
    state = {"best": None, "best_res": np.inf, "leaves": 0}

    def leaf(pos_maps):
        state["leaves"] += 1
        if state["leaves"] > max_leaves:
            raise RuntimeError("labeling search exceeded the leaf budget")
        # per label j: solve the h x n least squares  dirs @ P_j = b_j
        b = np.empty((q, h))
        for k in range(h):
            b[:, k] = w[k, list(pos_maps[k])]
        sol, *_ = np.linalg.lstsq(dirs, b.T, rcond=None)
        t = QPoint(sol.T)
        res = float(np.linalg.norm(xi(spec, t) - v))
        if res < state["best_res"] - 1e-15:
            state["best"], state["best_res"] = t, res
        elif state["best"] is not None and abs(res - state["best_res"]) <= 1e-15:
            if t.points.tobytes() < state["best"].points.tobytes():
                state["best"] = t

    def descend(k, pos_maps, gram, rhs):
        # gram/rhs accumulate per-label normal equations over chosen blocks
        if k == h:
            leaf(pos_maps)
            return
        for perm in perms if k > 0 else [tuple(range(q))]:
            g2 = gram + np.outer(dirs[k], dirs[k])
            ok = True
            rhs2 = np.empty_like(rhs)
            partial = 0.0
            for j in range(q):
                rhs2[j] = rhs[j] + dirs[k] * w[k, perm[j]]
                if k >= n:
                    sol = np.linalg.lstsq(g2, rhs2[j], rcond=None)[0]
                    # residual of the projected system over blocks 0..k
                    vals = np.array([dirs[kk] @ sol for kk in range(k + 1)])
                    tgt = np.array([w[kk, pos_maps[kk][j] if kk < k else perm[j]]
                                    for kk in range(k + 1)])
                    partial += float(np.sum((vals - tgt) ** 2))
                    if partial > prune:
                        ok = False
                        break
            if ok:
                descend(k + 1, pos_maps + [perm], g2, rhs2)

    descend(0, [], np.zeros((n, n)), np.zeros((q, n)))
    if state["best"] is None or state["best_res"] > tol_abs:
        raise NotOnImageError(
            f"vector is not on the embedded cone (residual {state['best_res']:.3e}, "
            f"tolerance {tol_abs:.3e})",
            residual=state["best_res"],
        )
    return state["best"]


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


def _sorted_signature(full_pattern):
    sig = []
    for levels, zlevel, nlevels in full_pattern:
        counts = [0] * nlevels
        for lvl in levels:
            counts[lvl] += 1
        sig.append(tuple((counts[l], l == zlevel) for l in range(nlevels)))
    return tuple(sig)


@dataclass(frozen=True)
class FaceSignature:
    """Per-block weak order of the sorted entries and the virtual zero.

    Each block is a tuple of (multiplicity, holds_zero) pairs in increasing
    value order; a (0, True) entry is a zero level strictly between groups.
    """

    blocks: tuple

    def to_json(self):
        return [[[c, bool(z)] for c, z in blk] for blk in self.blocks]

    @staticmethod
    def from_json(obj):
        return FaceSignature(tuple(tuple((int(c), bool(z)) for c, z in blk) for blk in obj))


class FaceRecord:
    """One face: canonical labeled pattern plus its span and closure inequalities."""

    __slots__ = ("index", "pattern", "dim", "basis", "cons", "projectors",
                 "signature", "closure_of")

    def __init__(self, index, pattern, dim, basis, cons, projectors, signature):
        self.index = index
        self.pattern = pattern
        self.dim = dim
        self.basis = basis  # (N, dim) orthonormal
        self.cons = cons  # (n_strict, dim): closure = {basis @ y : cons @ y >= 0}
        # (K, dim, dim): orthogonal projectors onto null(cons[S]), one per
        # nonempty linearly independent row set S with |S| <= dim
        self.projectors = projectors
        self.signature = signature
        self.closure_of = frozenset()

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


def _project_cone_rows(face: FaceRecord, y: np.ndarray):
    """Exact projection of the rows of y onto {y : face.cons @ y >= 0}.

    Returns (rows, ystar): the indices of the rows outside the cone and their
    projections; every other row is its own projection.  An outside row's
    projection is its nearest candidate y @ P_S (see `_active_set_projectors`)
    satisfying the constraints to _SPAN_TOL * (1 + |y|).
    """
    cons = face.cons
    tol = _SPAN_TOL * (1.0 + np.linalg.norm(y, axis=1))
    rows = np.flatnonzero((y @ cons.T).min(axis=1, initial=np.inf) < -tol)
    k, dim = len(face.projectors), face.dim
    stacked = face.projectors.transpose(1, 0, 2).reshape(dim, k * dim)
    ystar = np.empty((len(rows), dim))
    for lo in range(0, len(rows), _PROJECT_CHUNK):
        sel = rows[lo:lo + _PROJECT_CHUNK]
        yb = y[sel]
        cand = (yb @ stacked).reshape(len(sel), k, dim)
        feasible = (cand @ cons.T).min(axis=2) >= -tol[sel, None]
        gap = np.einsum("pkd,pkd->pk", cand - yb[:, None], cand - yb[:, None])
        gap[~feasible] = np.inf
        ystar[lo:lo + len(sel)] = cand[np.arange(len(sel)), gap.argmin(axis=1)]
    return rows, ystar


def _face_distance(face: FaceRecord, pts: np.ndarray, bound):
    """Distance from each row of pts to the closure of face, and the nearest
    point there.  Rows whose distance to the face's span already reaches
    `bound` are not projected: they keep that lower bound and their point on
    the span."""
    y = pts @ face.basis
    near = y @ face.basis.T
    d = np.linalg.norm(pts - near, axis=1)
    todo = np.flatnonzero(d < bound)
    rows, ystar = _project_cone_rows(face, y[todo])
    if len(rows):
        rows = todo[rows]
        d[rows] = np.sqrt(d[rows] ** 2 + np.sum((y[rows] - ystar) ** 2, axis=1))
        near[rows] = ystar @ face.basis.T
    return d, near


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

    # placement: within block k sort labels by (level, label); ties share a value
    lmat = np.zeros((big_n, nq))
    for k, (levels, _z, _nl) in enumerate(pattern):
        order = sorted(range(dims.q), key=lambda j: (levels[j], j))
        for pos, j in enumerate(order):
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


def _closure_leq(pat_lo, pat_hi) -> bool:
    """True when pat_lo refines the equalities of pat_hi (lies in its closure)."""
    for (lev_g, zg, _), (lev_f, zf, _) in zip(pat_lo, pat_hi):
        q = len(lev_f)
        elems_f = list(lev_f) + [zf]
        elems_g = list(lev_g) + [zg]
        for a in range(q + 1):
            for b in range(q + 1):
                if elems_f[a] < elems_f[b] and elems_g[a] > elems_g[b]:
                    return False
                if elems_f[a] == elems_f[b] and elems_g[a] != elems_g[b]:
                    return False
    return True


class FaceLattice:
    """All faces of the embedded cone, graded by dimension."""

    def __init__(self, spec: EmbeddingSpec, faces: list, tilde_c: float,
                 pair_separation: dict):
        self.spec = spec
        self.faces = faces
        self.by_pattern = {f.pattern: f for f in faces}
        self.tilde_c = tilde_c
        self.pair_separation = pair_separation
        self.max_dim = max(f.dim for f in faces)
        self._by_dim = {}
        for f in faces:
            self._by_dim.setdefault(f.dim, []).append(f)

    def faces_of_dim(self, k: int) -> list:
        return self._by_dim.get(k, [])

    def faces_up_to(self, k: int) -> list:
        # ascending dimension: cheap low faces seed the running minimum early
        return sorted((f for f in self.faces if f.dim <= k), key=lambda f: f.dim)

    @property
    def top_faces(self) -> list:
        return self._by_dim[self.max_dim]

    # -- distances ---------------------------------------------------------

    def closure_distance(self, v, face, with_point=False):
        d, p = _face_distance(face, np.asarray(v, dtype=float)[None], np.inf)
        return (float(d[0]), p[0]) if with_point else float(d[0])

    def skeleton_distance(self, v, k: int) -> float:
        return float(self.skeleton_distance_batch(np.asarray(v, dtype=float)[None], k)[0])

    def skeleton_distance_batch(self, pts: np.ndarray, k: int) -> np.ndarray:
        """Distance from each row of pts to the union of faces of dim <= k."""
        pts = np.asarray(pts, dtype=float)
        best = np.full(pts.shape[0], np.inf)
        for f in self.faces_up_to(k):
            np.minimum(best, _face_distance(f, pts, best)[0], out=best)
        return best

    def nearest_point(self, v):
        """Nearest point of the embedded cone and its distance."""
        p, d = self.nearest_point_batch(np.asarray(v, dtype=float)[None])
        return p[0], float(d[0])

    def nearest_point_batch(self, pts: np.ndarray):
        pts = np.asarray(pts, dtype=float)
        out = np.empty_like(pts)
        dist = np.full(pts.shape[0], np.inf)
        for f in self.top_faces:
            d, cand = _face_distance(f, pts, dist)
            better = d < dist
            dist[better] = d[better]
            out[better] = cand[better]
        return out, dist

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
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
                    "closure_of": sorted(f.closure_of),
                }
                for f in self.faces
            ],
        }

    @staticmethod
    def from_json(spec: EmbeddingSpec, obj) -> "FaceLattice":
        faces = []
        for i, fo in enumerate(obj["faces"]):
            pattern = tuple((tuple(b[0]), int(b[1]), int(b[2])) for b in fo["pattern"])
            basis, cons, projectors = _face_geometry(spec, pattern)
            rec = FaceRecord(i, pattern, int(fo["dim"]), basis, cons, projectors,
                             FaceSignature(_sorted_signature(pattern)))
            rec.closure_of = frozenset(fo["closure_of"])
            faces.append(rec)
        return FaceLattice(spec, faces,
                           tilde_c=float(obj["tilde_c"]),
                           pair_separation={int(k): float(v)
                                            for k, v in obj["pair_separation"].items()})


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
    found = {}

    def dfs(k, chosen, eq_rows, strict_rows):
        if k == dims.h:
            canon = _canonical_pattern(tuple(chosen), dims.q)
            if canon not in found:
                found[canon] = True
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
        sig = FaceSignature(_sorted_signature(pattern))
        faces.append(FaceRecord(i, pattern, basis.shape[1], basis, cons, projectors, sig))

    # closure relation through pattern weakening up to a common relabeling
    perms = list(itertools.permutations(range(dims.q)))
    for lo in faces:
        rel = set()
        for hi in faces:
            if hi.dim <= lo.dim and hi is not lo:
                continue
            if hi is lo:
                continue
            if any(_closure_leq(_permute_pattern(lo.pattern, p), hi.pattern) for p in perms):
                rel.add(hi.index)
        lo.closure_of = frozenset(rel)

    lattice = FaceLattice(spec, faces, tilde_c=0.5, pair_separation={})
    lattice.pair_separation = _measure_pair_separation(lattice)
    lattice.tilde_c = _calibrate_aperture(lattice)
    _LATTICE_CACHE[spec.key] = lattice
    return lattice


def _face_samples(lattice, face, count, seed):
    """Points of the open face at unit distance from the next lower skeleton.

    Tries up to 40 * count Gaussian span coordinates in draw order and keeps
    the first `count` that lie strictly inside the face closure.  (Projecting
    an outside draw onto the closure lands on its boundary, so such draws are
    rejected without projecting them.)
    """
    rng = np.random.default_rng(seed)
    y = rng.normal(size=(40 * count, face.dim))
    if face.cons.size:
        margin = (y @ face.cons.T).min(axis=1)
        y = y[margin >= 1e-9 * (1.0 + np.linalg.norm(y, axis=1))]
    out = []
    for lo in range(0, len(y), count):
        p = y[lo:lo + count] @ face.basis.T
        d = lattice.skeleton_distance_batch(p, face.dim - 1)
        ok = np.isfinite(d) & (d >= 1e-12)
        out.extend(p[ok] / d[ok, None])
        if len(out) >= count:
            break
    return np.asarray(out[:count])


def _measure_pair_separation(lattice) -> dict:
    """Per dimension, the measured min distance between samples of distinct
    faces taken at unit distance from the lower skeleton."""
    out = {}
    for k in range(1, lattice.max_dim):
        faces = lattice.faces_of_dim(k)
        if len(faces) < 2:
            continue
        samples = [_face_samples(lattice, f, 24, seed=101 + f.index) for f in faces]
        best = np.inf
        for (ia, a), (ib, b) in itertools.combinations(enumerate(samples), 2):
            if len(a) == 0 or len(b) == 0:
                continue
            d = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1).min()
            best = min(best, float(d))
        if np.isfinite(best):
            out[k] = best
    return out


def _calibrate_aperture(lattice, start: float = 0.5, samples: int = 200) -> float:
    """Largest aperture (halving from `start`) for which sampled cone fibers
    of non-nested faces of equal dimension stay disjoint."""
    spec = lattice.spec
    rng = np.random.default_rng(2029)
    pts = []
    for _ in range(samples):
        t = random_qpoint(rng, spec.dims.q, spec.dims.n,
                          cluster=float(rng.choice([0.0, 0.02, 0.3])))
        pts.append(xi(spec, t))
    pts = np.asarray(pts)

    def claims(c_tilde):
        for k in range(1, lattice.max_dim):
            faces = lattice.faces_of_dim(k)
            if len(faces) < 2:
                continue
            owner = np.full(len(pts), -1)
            for f in faces:
                y = pts @ f.basis
                base = y @ f.basis.T
                absz = np.linalg.norm(pts - base, axis=1)
                ok = np.ones(len(pts), dtype=bool)
                if f.cons.size:
                    ok &= (f.cons @ y.T).min(axis=0) >= -1e-10
                dlow = lattice.skeleton_distance_batch(base, k - 1)
                ok &= absz <= c_tilde * dlow
                ok &= absz > 1e-12  # points on the face itself are unambiguous
                for i in np.flatnonzero(ok):
                    if owner[i] >= 0 and f.index not in lattice.faces[owner[i]].closure_of \
                            and owner[i] not in f.closure_of:
                        return False
                    owner[i] = f.index
        return True

    c = start
    for _ in range(8):
        if claims(c):
            return c
        c *= 0.5
    return c


# ---------------------------------------------------------------------------
# signatures and coordinates


def face_signature(spec: EmbeddingSpec, v: np.ndarray, tol: float = 1e-9) -> FaceSignature:
    """Zero-augmented sorted pattern of a vector with blockwise sorted entries."""
    v = np.asarray(v, dtype=float)
    eps = tol * (1.0 + float(np.linalg.norm(v)))
    blocks = v.reshape(spec.dims.h, spec.dims.q)
    sig = []
    for blk in blocks:
        if np.any(np.diff(blk) < -eps):
            raise NotOnImageError("block entries are not sorted")
        groups = []
        for val in blk:
            if groups and val - groups[-1][-1] <= eps:
                groups[-1].append(val)
            else:
                groups.append([val])
        entries = []
        z_placed = False
        for g in groups:
            mean = float(np.mean(g))
            if abs(mean) <= eps:
                entries.append((len(g), True))
                z_placed = True
            else:
                if mean > eps and not z_placed:
                    entries.append((0, True))
                    z_placed = True
                entries.append((len(g), False))
        if not z_placed:
            entries.append((0, True))
        sig.append(tuple(entries))
    return FaceSignature(tuple(sig))


def pattern_of_points(spec: EmbeddingSpec, t: QPoint, tol: float = 1e-9):
    """Labeled zero-augmented pattern of a tuple (labels = canonical order)."""
    proj = t.points @ spec.directions.T  # (q, h)
    scale_eps = tol * (1.0 + float(np.abs(proj).max(initial=0.0)))
    pattern = []
    for k in range(spec.dims.h):
        vals = list(proj[:, k]) + [0.0]
        order = sorted(range(len(vals)), key=lambda i: vals[i])
        levels_of = {}
        lvl = -1
        prev = None
        for idx in order:
            if prev is None or vals[idx] - prev > scale_eps:
                lvl += 1
            levels_of[idx] = lvl
            prev = vals[idx] if prev is None or vals[idx] > prev else prev
        levels = tuple(levels_of[j] for j in range(spec.dims.q))
        zlevel = levels_of[spec.dims.q]
        pattern.append((levels, zlevel, lvl + 1))
    return tuple(pattern)


def face_of_point(spec: EmbeddingSpec, lattice: FaceLattice, v: np.ndarray,
                  tol: float = 1e-7) -> FaceRecord:
    """The face containing a vector of the embedded cone."""
    t = xi_inverse(spec, v, tol=tol)
    pattern = _canonical_pattern(pattern_of_points(spec, t), spec.dims.q)
    rec = lattice.by_pattern.get(pattern)
    if rec is None:
        raise NotOnImageError("pattern not present in the lattice")
    return rec


def project_face_closure_line(face: FaceRecord, v: np.ndarray) -> np.ndarray:
    """n = 1 projection onto a face closure by pinned isotonic regression."""
    levels, zlevel, nlevels = face.pattern[0]
    q = len(levels)
    # placement groups positions by level in order
    order = sorted(range(q), key=lambda j: (levels[j], j))
    pos_level = [levels[j] for j in order]
    means, weights, pinned, members = [], [], [], []
    i = 0
    for lvl in range(nlevels):
        pos = [p for p, pl in enumerate(pos_level) if pl == lvl]
        if pos:
            means.append(float(np.mean(v[pos])))
            weights.append(float(len(pos)))
            pinned.append(lvl == zlevel)
            members.append(pos)
        else:
            means.append(0.0)
            weights.append(1.0)
            pinned.append(True)  # zero-only level
            members.append([])
    fit = pava_pinned(means, weights, pinned)
    out = np.empty_like(v)
    for val, pos in zip(fit, members):
        for p in pos:
            out[p] = val
    return out
