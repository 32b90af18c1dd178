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

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .qspace import QPoint, matched_diff_sq, random_qpoint

_FEAS_TOL = 1e-7  # least depth (_face_depths) of a sign pattern that is a face
# _face_depths: a residual this small, or a strict row this short, is no face
_LDP_RESIDUAL, _ROW_FLOOR = 1e-10, 1e-12
# _nnls_gram: least gradient and relative Schur complement of an entry that
# joins the active set; solves per variable before it raises
_NNLS_STOP, _NNLS_ITERS = 1e-12, 3
_FACE_BUDGET = 1000  # face_lattice: most faces it builds geometry for
_SPAN_TOL = 1e-9  # face-closure slack, relative to 1 + |y|: see _closure_tol
# pairs per chunk of the face kernel's span pass (and of the pair-separation
# pass), and children per _face_depths call of the face search: it bounds
# their temporaries
_SPAN_PAIRS = 1 << 14
_APERTURE_START, _APERTURE_SAMPLES = 0.5, 200  # calibration: first try, points
_ON_CONE_TOL = 1e-7  # on-cone slack of a decoded or retracted point, relative to 1 + |v|
_EMBED_SEED = 0  # build_embedding: seed of the n >= 3 frames and the certificate
_CERTIFICATE_PAIRS = 2000  # build_embedding: sampled pairs of the certificate


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
    a, b = np.empty((2, pairs, dims.q, dims.n))
    for i in range(pairs):  # the seeded draws in order, then one batched pass
        a[i] = rng.normal(size=a.shape[1:])
        if i < hard and dims.n > 1:
            # adversarial pairs: identical per-axis multisets, distinct tuples
            for c in range(dims.n):
                b[i, :, c] = rng.permutation(a[i, :, c])
        else:
            b[i] = rng.normal(size=a.shape[1:]) * rng.choice([0.1, 1.0, 10.0])
    g = np.sqrt(matched_diff_sq(a, b))
    gap = np.linalg.norm(_sorted_projections(a, directions, scale)
                         - _sorted_projections(b, directions, scale), axis=-1)
    ratio = gap[g > 0.0] / g[g > 0.0]
    return InjectivityCertificate(pairs=pairs, hard_pairs=hard, seed=_EMBED_SEED,
                                  min_gap_ratio=float(ratio.min(initial=np.inf)))


_EMBED_CACHE: dict = {}


def build_embedding(n: int, q: int) -> EmbeddingSpec:
    """Choose a tight direction frame passing the randomized injectivity test.

    Starts from the smallest frame (n = 1: the identity; n = 2: three
    equiangular directions; n >= 3: two stacked orthonormal bases) and grows
    it until none of _CERTIFICATE_PAIRS sampled pairs of distinct tuples
    collides.
    """
    cache_key = (n, q)
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
        cert = _certificate(dims, directions, scale, _CERTIFICATE_PAIRS)
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


@functools.cache
def _block_patterns(q: int, tied=()):
    """The weak orders on q labels plus the zero symbol, encoded by levels:
    the level tuples whose used levels are exactly 0..L-1, in lexicographic
    order, that keep each label j in `tied` at or above label j - 1.  A
    prefix grows only while the levels below its top that it skips fit in
    the slots left, and a tied label starts at the previous label's level."""
    out = []

    def grow(prefix, used, top, count):
        left = q + 1 - len(prefix)
        for lvl in range(prefix[-1] if len(prefix) in tied else 0, q + 1):
            ntop = max(top, lvl)
            ncount = count + (not used >> lvl & 1)
            if ntop + 1 - ncount >= left:  # skips more levels than slots left
                if lvl > top:
                    break
            elif left == 1:
                out.append((prefix, lvl, ntop + 1))
            else:
                grow(prefix + (lvl,), used | 1 << lvl, ntop, ncount)

    grow((), 0, -1, 0)
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


def _rank_split(rows):
    """Full SVD of a stack of row sets (..., E, nq): the right singular
    vectors vt (..., nq, nq) and the rank, singular values up to 1e-12 times
    the largest counting as zero.  vt[rank:] spans null(rows)."""
    _u, s, vt = np.linalg.svd(rows)
    return vt, np.sum(s > 1e-12 * s[..., :1], axis=-1)


def _face_depths(children) -> np.ndarray:
    """Per child (eq_rows, strict_rows): the largest min_i g_i . y over unit y
    in null(eq_rows), g_i the strict rows restricted there and scaled to unit
    length.  It is > 0 exactly when the open cone {P : eq_rows P = 0,
    strict_rows P > 0} is nonempty (inf without strict rows, where P = 0 will
    do; 0 when a strict row vanishes there, as all do on a point space).

    Gordan's alternative makes this a least-distance problem, min |x| subject
    to G x >= 1 (Lawson and Hanson 1974, ch. 23): a zero residual
    r = [G^T u; 1^T u - 1] at the NNLS solution u >= 0 is a certificate
    sum_i u_i g_i = 0 that the cone is empty, and otherwise x = -r[:-1] / r[-1]
    is a witness, whose depth min(G x) / |x| is returned.

    The children are decided in stacks, one per number of strict rows, with
    the equality rows zero-padded (zero rows leave a null space as it is):
    one batched SVD gives each child's projector I - Vr^T Vr onto
    null(eq_rows), and one batched _nnls_gram solves every least-distance
    problem of the stack.
    """
    depth = np.full(len(children), np.inf)
    n_eq = np.array([len(e) for e, _s in children], dtype=int)
    counts = np.array([len(s) for _e, s in children], dtype=int)
    for m in np.unique(counts[counts > 0]):
        idx = np.flatnonzero(counts == m)
        g = np.array([children[i][1] for i in idx], dtype=float)  # (B, m, nq)
        pad = max(1, n_eq[idx].max())
        eq = np.array([list(children[i][0]) + [np.zeros(g.shape[2])] * (pad - n_eq[i])
                       for i in idx])
        vt, rank = _rank_split(eq)
        vr = vt * (np.arange(vt.shape[1]) < rank[:, None])[..., None]
        g = g - np.einsum("bmi,bki,bkj->bmj", g, vr, vr)
        norms = np.linalg.norm(g, axis=2)
        live = norms.min(axis=1) > _ROW_FLOOR
        depth[idx[~live]] = 0.0
        g = g[live] / norms[live, :, None]
        u = _nnls_gram(np.einsum("bmi,bki->bmk", g, g) + 1.0, np.ones(g.shape[:2]))
        x = np.einsum("bm,bmi->bi", u, g)
        last = u.sum(axis=1) - 1.0
        empty = np.hypot(np.linalg.norm(x, axis=1), last) <= _LDP_RESIDUAL
        x = -x[~empty] / last[~empty, None]
        depth[idx[live][empty]] = 0.0
        depth[idx[live][~empty]] = np.maximum(0.0, np.einsum(
            "bmi,bi->bm", g[~empty], x).min(axis=1) / np.linalg.norm(x, axis=1))
    return depth


def _nnls_gram(h, b) -> np.ndarray:
    """Lawson and Hanson's active-set NNLS (1974, ch. 23) in Gram form, over a
    stack: per row, the u >= 0 minimizing u.h.u / 2 - b.u, for h (B, m, m)
    positive semidefinite; with h = A^T A and b = A^T c, the u >= 0 that
    minimizes |A u - c|.

    Each pass solves every row on its active set P (the identity elsewhere),
    for b and for the columns h[:, j].  A row whose solution stays positive
    on P moves to it, and then admits the free entry of largest gradient
    b - h u, among those whose gradient and Schur complement
    h_jj - h_jP h_PP^-1 h_Pj (relative to h_jj) exceed _NNLS_STOP: a
    complement near 0 marks a column that depends on P, such as a duplicate.
    Otherwise the row steps toward the solution until an active entry
    reaches zero, and that entry leaves.  A row at its optimum repeats it
    and takes the solution as it is (no step, so its last bit does not
    depend on how long the rest of its stack runs), until every row is
    there.  Raises RuntimeError when a row needs more than _NNLS_ITERS * m
    solves, as scipy's nnls does after 3 m iterations.
    """
    u, active = np.zeros(b.shape), np.zeros(b.shape, dtype=bool)
    settled, eye, diag = np.ones(len(b), dtype=bool), np.eye(b.shape[1]), np.einsum("bjj->bj", h)
    rhs = np.concatenate([b[..., None], h], axis=2)
    sol = np.zeros(rhs.shape)  # h_PP^-1 [b_P, h_P:] on the active rows, 0 off them
    for solves in itertools.count():
        w = np.where(active, -np.inf, b - np.einsum("bij,bj->bi", h, u))
        schur = diag - np.einsum("bji,bij->bj", h, sol[..., 1:])
        w[(w <= _NNLS_STOP) | (schur <= _NNLS_STOP * diag)] = -np.inf
        grow = settled & np.isfinite(w).any(axis=1)
        if not (grow | ~settled).any():
            return u
        if solves == _NNLS_ITERS * b.shape[1]:
            raise RuntimeError(f"NNLS did not converge in {solves} solves")
        active[np.flatnonzero(grow), w[grow].argmax(axis=1)] = True
        mat = np.where(active[:, :, None] & active[:, None, :], h, eye)
        sol = np.linalg.solve(mat, np.where(active[:, :, None], rhs, 0.0))
        s = sol[..., 0]
        cross = active & (s <= 0.0)
        # the step fraction at which each crossing entry reaches zero
        t = np.where(cross, u, np.inf) / np.where(cross & (u > s), u - s, 1.0)
        alpha = np.minimum(t.min(axis=1), 1.0)[:, None]
        u = np.where(alpha >= 1.0, s, u + alpha * (s - u))
        active &= (t > alpha) & (u > 0.0)
        u[~active] = 0.0
        settled = alpha[:, 0] >= 1.0


def _label_slots(pattern) -> np.ndarray:
    """(q, h) array: the sorted position of label j in block k of a labeled
    pattern.  Labels sort by (level, label); tied labels share a value."""
    return np.array([np.argsort(np.argsort(levels, kind="stable"))
                     for levels, _z, _nl in pattern]).T


class FaceRecord:
    """One face: canonical labeled pattern plus its span and closure inequalities."""

    __slots__ = ("index", "pattern", "slots", "dim", "basis", "cons")

    def __init__(self, index, pattern, basis, cons):
        self.index = index
        self.pattern = pattern
        self.slots = _label_slots(pattern)
        self.dim = basis.shape[1]
        self.basis = basis  # (N, dim) orthonormal
        self.cons = cons  # (n_strict, dim): closure = {basis @ y : cons @ y >= 0}

    def __repr__(self):
        return f"Face(dim={self.dim}, idx={self.index})"


def _closure_tol(y: np.ndarray) -> np.ndarray:
    """Slack of the face-closure test at span coordinates y (last axis; the
    span point itself has the same norm): a constraint margin >= -tol is
    inside the closure, a margin > tol strictly inside."""
    return _SPAN_TOL * (1.0 + np.linalg.norm(y, axis=-1))


class FaceStack(list):
    """The faces of one dimension D with their geometry in arrays: bases
    (F, N, D) and unit constraint rows (F, M, D), the latter zero-padded, with
    `real_cons` marking the real rows.  The face kernel treats every (row,
    face) pair of the list in a few array passes; padded rows contribute
    exact zeros, and the closure projection's NNLS never activates them.

    The span pass reads three flat matrices, each one contraction with the
    input rows: the bases side by side (N, F * D); the face projectors
    B_f B_f^T, (N, N * F); and the constraint rows pulled back to the
    ambient space, cons_f B_f^T, (N, M * F).  The last two are face-minor,
    indexed (i, f) and (m, f), so their reductions run over contiguous
    F-long slabs; `span` hands out the span points as a transposed
    (R, F, N) view."""

    def __init__(self, faces, big_n: int):
        super().__init__(faces)
        dim = max([f.dim for f in faces], default=0)
        m = max([len(f.cons) for f in faces], default=0)
        self.basis = np.zeros((len(faces), big_n, dim))
        self.cons = np.zeros((len(faces), m, dim))
        self.real_cons = np.arange(m) < np.array([len(f.cons) for f in faces], dtype=int)[:, None]
        for i, f in enumerate(faces):
            self.basis[i] = f.basis
            self.cons[i, :len(f.cons)] = f.cons
        # the bases side by side, (N, F * D): a view of `basis` where numpy
        # can give one, so it sums in the same order as the (F, N, D) array
        self._flat_basis = self.basis.transpose(1, 0, 2).reshape(big_n, -1)
        self._flat_proj = np.einsum("fjd,fid->jif", self.basis, self.basis).reshape(big_n, -1)
        self._flat_cons = np.einsum("fjd,fmd->jmf", self.basis, self.cons).reshape(big_n, -1)

    def span(self, pts: np.ndarray):
        """Per (row, face): the span coordinates y, the span point, its
        distance and the closure slack min(0, cons @ y) + _closure_tol(y),
        >= 0 inside the closure.  The span point and the margins come from
        pts through the face-minor flat matrices; the span point is a view.

        Every product is an einsum over rows, which rounds a row the same
        way whatever batch it comes in.  A BLAS product of one row can
        round differently from the same row inside a larger product, and
        rho_star's Kirszbraun step turns such last-bit differences into
        visible ones."""
        (rows, big_n), (faces, m, dim) = pts.shape, self.cons.shape
        y = np.einsum("ri,ij->rj", pts, self._flat_basis).reshape(rows, faces, dim)
        near = np.einsum("ri,ij->rj", pts, self._flat_proj).reshape(rows, big_n, faces)
        off = pts[:, :, None] - near
        dist = np.sqrt(np.einsum("rif,rif->rf", off, off))
        margin = np.einsum("ri,ij->rj", pts, self._flat_cons).reshape(
            rows, m, faces).min(axis=1, initial=0.0)
        return y, near.transpose(0, 2, 1), dist, margin + _closure_tol(y)

    def spans(self, pts: np.ndarray):
        """Yields (rows, span(pts[rows])) per chunk of _SPAN_PAIRS pairs."""
        step = max(1, _SPAN_PAIRS // max(len(self), 1))
        for lo in range(0, len(pts), step):
            rows = slice(lo, lo + step)
            yield rows, self.span(pts[rows])

    def own_span(self, pts: np.ndarray, which: np.ndarray):
        """Per row, on its own face which[row]: the span point, and whether
        it is strictly inside the closure: every real constraint margin
        cons @ y above _closure_tol(span point) (padded rows are left out)."""
        basis, cons = self.basis[which], self.cons[which]
        y = np.einsum("ri,rid->rd", pts, basis)
        margin = np.where(self.real_cons[which], np.einsum("rd,rmd->rm", y, cons), np.inf)
        plane = np.einsum("rd,rid->ri", y, basis)
        return plane, margin.min(axis=1, initial=np.inf) > _closure_tol(plane)

    def _project(self, y, span_d, dist, near, r, f):
        """Project the pairs (r, f) exactly onto their closures, into dist and
        near.  With G = cons[f], the nearest point of {G y >= 0} is
        y + G^T lam, lam >= 0 minimizing |y + G^T lam| (Moreau's
        decomposition): one batched _nnls_gram(G G^T, -G y)."""
        if not len(r):
            return
        yp, g = y[r, f], self.cons[f]
        lam = _nnls_gram(np.einsum("pmd,pkd->pmk", g, g), -np.einsum("pmd,pd->pm", g, yp))
        step = np.einsum("pm,pmd->pd", lam, g)
        dist[r, f] = np.sqrt(span_d[r, f] ** 2 + np.einsum("pd,pd->p", step, step))
        near[r, f] = np.einsum("pd,pid->pi", yp + step, self.basis[f])

    def _chunks(self, pts, bound=None):
        """Yields (rows, dist (R, F), near (R, F, N)) per chunk of rows.

        A pair inside the closure (slack >= 0) is its span projection.  An
        outside pair is at least hypot(span distance, slack) away (the
        constraint rows are unit vectors).  It is projected if that bound is
        at most bound[row, face] or, without a bound, if it can reach the
        row's least distance (over its inside pairs, then its most promising
        outside pair); otherwise it keeps the lower bound.
        """
        for rows, (y, near, span_d, slack) in self.spans(pts):
            inside = slack >= 0.0
            dist = np.where(inside, span_d, np.hypot(span_d, np.minimum(slack, 0.0)))
            args = (y, span_d, dist, near)
            if bound is not None:
                self._project(*args, *np.nonzero(~inside & (dist <= bound[rows])))
            else:
                best = np.where(inside, dist, np.inf).min(axis=1)
                todo = ~inside & (dist <= best[:, None])
                first = np.where(todo, dist, np.inf).argmin(axis=1)
                r = np.flatnonzero(todo[np.arange(len(first)), first])
                self._project(*args, r, first[r])
                todo[r, first[r]] = False
                best[r] = np.minimum(best[r], dist[r, first[r]])
                self._project(*args, *np.nonzero(todo & (dist <= best[:, None])))
            yield rows, dist, near

    def nearest(self, pts: np.ndarray):
        """Per row of pts: the nearest point of the union of the closures,
        its distance (inf when the list is empty) and the position of the
        first face realizing it (-1 when the list is empty)."""
        pts = np.asarray(pts, dtype=float)
        out, dist, which = np.empty_like(pts), np.full(len(pts), np.inf), np.full(len(pts), -1)
        for rows, d, near in self._chunks(pts) if len(self) else ():
            j = d.argmin(axis=1)
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
        for sl, d, near in self._chunks(pts, bound):
            r, f = np.nonzero(d <= bound[sl])
            rows.append(r + sl.start)
            near_pts.append(near[r, f])
        return np.concatenate(rows), np.concatenate(near_pts)


def _face_geometry(spec, pattern):
    """Span basis and closure inequalities of one labeled face."""
    dims = spec.dims
    nq, big_n = dims.nq, dims.big_n
    eq_rows, strict_rows = [], []
    for k, blk in enumerate(pattern):
        e, s = _pattern_rows(spec, k, blk)
        eq_rows += e
        strict_rows += s
    vt, rank = _rank_split(np.asarray(eq_rows)) if eq_rows else (np.eye(nq), 0)
    b = vt[rank:].T
    dim = b.shape[1]

    # placement: label j's value in block k sits at its slot there
    lmat = np.zeros((big_n, nq))
    for (j, k), pos in np.ndenumerate(_label_slots(pattern)):
        lmat[k * dims.q + pos] = spec.scale * _row(spec, k, j, nq)

    if dim == 0:
        return np.zeros((big_n, 0)), np.zeros((0, 0))
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
    return basis, g


class FaceLattice:
    """All faces of the embedded cone, graded by dimension, with their
    measured pair separations and aperture."""

    def __init__(self, spec: EmbeddingSpec, faces: list):
        self.spec = spec
        self.faces = faces
        self.max_dim = max(f.dim for f in faces)
        grades, big_n = range(-1, self.max_dim + 1), spec.dims.big_n  # -1: no face
        self._by_dim = {k: FaceStack([f for f in faces if f.dim == k], big_n) for k in grades}
        self.pair_separation = _measure_pair_separation(self)
        self.tilde_c = _calibrate_aperture(self)

    def faces_of_dim(self, k: int) -> FaceStack:
        return self._by_dim.get(k, self._by_dim[-1])

    @property
    def top_faces(self) -> FaceStack:
        return self._by_dim[self.max_dim]

    # -- distances ---------------------------------------------------------

    def closure_distance(self, v, face):
        """Distance from v to the closure of face, and the nearest point.
        One-row view for the tests; perfbench/tracer.py binds it."""
        v, faces = np.asarray(v, dtype=float), self.faces_of_dim(face.dim)
        p = faces.project(v[None], np.array([faces.index(face)]))[0]
        return float(np.linalg.norm(v - p)), p

    def skeleton_distance(self, v, k: int) -> float:
        """One-row view for the tests; perfbench/tracer.py binds it."""
        return float(self.skeleton_distance_batch(np.asarray(v, dtype=float)[None], k)[0])

    def skeleton_distance_batch(self, pts: np.ndarray, k: int) -> np.ndarray:
        """Distance from each row of pts to the union of faces of dim <= k
        (inf for k < 0): the least of the per-dimension distances."""
        dist = np.full(len(pts), np.inf)
        for lvl in range(min(k, self.max_dim) + 1):
            dist = np.minimum(dist, self.faces_of_dim(lvl).nearest(pts)[1])
        return dist

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
    """The lattice of the realizable zero-augmented patterns, built once per spec."""
    if spec.key not in _LATTICE_CACHE:
        faces = [FaceRecord(i, pattern, *_face_geometry(spec, pattern))
                 for i, pattern in enumerate(_face_patterns(spec))]
        _LATTICE_CACHE[spec.key] = FaceLattice(spec, faces)
    return _LATTICE_CACHE[spec.key]


def _face_patterns(spec: EmbeddingSpec) -> list:
    """The canonical patterns of the faces, sorted, found block by block.

    A face's canonical pattern is its least relabeling: its labels sorted by
    their columns of levels, block 0's first.  Its prefixes are canonical,
    and a canonical prefix extends to one exactly by the block patterns that
    keep each run of labels it ties in order (block 0, with every label
    tied, takes the sorted ones).  So level k extends every kept prefix by
    those patterns only, building each pattern's rows on first use, and
    keeps the children that _face_depths, given at most _SPAN_PAIRS at a
    time, finds realizable.  Every kept prefix extends to a face (a point of
    its open cone realizes some pattern of the next block, and sorting that
    pattern's tied labels keeps the prefix), and distinct prefixes extend to
    distinct faces: the search raises as soon as it keeps more than
    _FACE_BUDGET.
    """
    q = spec.dims.q
    kept = [((), [], [])]  # (chosen block patterns, eq rows, strict rows)
    for k in range(spec.dims.h):
        rows = functools.cache(functools.partial(_pattern_rows, spec, k))
        kids = ((chosen + (p,), eq + rows(p)[0], strict + rows(p)[1])
                for chosen, eq, strict in kept
                for p in _block_patterns(q, tuple(j for j in range(1, q) if all(
                    b[0][j - 1] == b[0][j] for b in chosen))))
        kept = []  # kids reads the previous level's list
        while batch := list(itertools.islice(kids, _SPAN_PAIRS)):
            depth = _face_depths([(e, s) for _chosen, e, s in batch])
            kept += [kid for kid, d in zip(batch, depth) if d > _FEAS_TOL]
            if len(kept) > _FACE_BUDGET:
                raise ValueError(
                    f"the (n, q) = ({spec.dims.n}, {q}) cone has more than "
                    f"{_FACE_BUDGET} faces, the budget that the lattice build "
                    "supports")
    return [chosen for chosen, _e, _s in kept]


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
        y = y[(y @ f.cons.T).min(axis=1, initial=np.inf) > _closure_tol(y)]
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
        _, base, absz, slack = faces.span(pts)
        ok = (absz > 1e-12) & (slack >= 0.0)  # points on a face are unambiguous
        # the origin lies in every lower skeleton, so dlow <= |base|: a pair
        # farther than _APERTURE_START * |base| from the span never counts
        ok &= absz <= _APERTURE_START * (1 + 1e-9) * np.linalg.norm(base, axis=2)
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
    """The lowest-dimensional face whose closure lies within _ON_CONE_TOL *
    (1 + |v|) of v; for a point of the cone, the face containing it.  Raises
    NotOnImageError when even the top faces are farther than that.  Kept as
    the tests' oracle: every face is recovered from a point of it."""
    v = np.asarray(v, dtype=float)[None]
    tol_abs = _ON_CONE_TOL * (1.0 + float(np.linalg.norm(v)))
    for k in range(lattice.max_dim + 1):
        faces = lattice.faces_of_dim(k)
        _, d, which = faces.nearest(v)
        if d[0] <= tol_abs:
            return faces[which[0]]
    raise NotOnImageError(
        f"vector is not on the embedded cone (residual {d[0]:.3e}, "
        f"tolerance {tol_abs:.3e})", residual=float(d[0]))


def xi_inverse(lattice: FaceLattice, v: np.ndarray) -> np.ndarray:
    """The tuples embedded at the rows of v (..., N), as (..., q, n) arrays in
    QPoint's lexicographic row order.

    A point of the cone lies in the closure of its nearest top face, and that
    face's pattern fixes which sorted entry of each block belongs to which
    label; one least-squares solve over every (row, label) then recovers the
    points.  Raises NotOnImageError when a row is farther than
    _ON_CONE_TOL * (1 + |v|) from the cone.
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
    off = dist > _ON_CONE_TOL * (1.0 + np.linalg.norm(rows, axis=1))
    if off.any():
        worst = float(dist[off].max())
        raise NotOnImageError(
            f"{int(off.sum())} of {len(rows)} row(s) are not on the embedded "
            f"cone (worst residual {worst:.3e}, tolerance {_ON_CONE_TOL:.1e} * (1 + |v|))",
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
