"""Small exact convex solvers shared by the embedding and retraction modules.

Three problem classes, all low dimensional:

* isotonic projection with equality groups and an exactly pinned zero level
  (the n = 1 face closures are order cones, so PAV applies; no production
  path calls it: every face closure, n = 1 included, goes through the
  stacked face kernel `embed.FaceStack`);
* Euclidean projection onto a polyhedral cone {z : G z >= 0}, solved through
  the Moreau decomposition with a nonnegative least squares dual.  This is
  the test oracle: the face closures of the embedded cone are projected
  exactly by active-set enumeration over precomputed projectors, for every
  (row, face) pair of a face list at once (`embed.FaceStack.nearest`), which
  the tests compare against it;
* Chebyshev-type extension values min_y max_i (|y - v_i| - r_i), solved by
  bisection over the level t with a ball-intersection feasibility test.  The
  test, min_y max_i (|y - v_i|^2 + s_i), also the oscillation's offset center,
  is LP-type: an exact active-set solve finds its support of <= d + 1 points.
"""
from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import lsq_linear

_CONE_TOL = 1e-11  # oracle: slack of the in-cone test, relative to 1 + |z|

# ---------------------------------------------------------------------------
# pool adjacent violators with pinned pools


def pava_pinned(means, weights, pinned=None) -> np.ndarray:
    """Nondecreasing fit minimizing sum w_i (t_i - m_i)^2; pinned pools sit at 0.

    A pool that absorbs a pinned element has value exactly 0 regardless of its
    data (infinite-weight limit).  It fits face closures on the real line,
    where the virtual zero level is a hard constraint, not a data point.
    Kept for its tests; perfbench/tracer.py binds it by name.
    """
    m = np.asarray(means, dtype=float)
    w = np.asarray(weights, dtype=float)
    if pinned is None:
        pinned = np.zeros(m.shape, dtype=bool)
    pinned = np.asarray(pinned, dtype=bool)
    if m.shape != w.shape or m.shape != pinned.shape:
        raise ValueError("means, weights, pinned must share a shape")
    if np.any(w <= 0):
        raise ValueError("weights must be positive")

    # each pool: [sum_w, sum_wm, count, is_pinned]
    pools: list[list] = []

    def value(p):
        return 0.0 if p[3] else p[1] / p[0]

    for mi, wi, pi in zip(m, w, pinned):
        pools.append([wi, wi * mi, 1, bool(pi)])
        # merge only on strict violation; equal adjacent pools are admissible
        while len(pools) > 1 and value(pools[-2]) > value(pools[-1]):
            b = pools.pop()
            a = pools.pop()
            pools.append([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] or b[3]])
    out = np.empty_like(m)
    i = 0
    for p in pools:
        out[i : i + p[2]] = value(p)
        i += p[2]
    return out


# ---------------------------------------------------------------------------
# projection onto {z : G z >= 0}


def project_polyhedral_cone(point, G):
    """Project onto {z : G z >= 0}.  Returns (projection, kkt_residual).

    Moreau: z* = z + P_C(-z) where C = cone{rows of G}; P_C is a nonnegative
    least squares problem, solved exactly by the bounded-variable active-set
    method on the unit vector z / |z| (the projection is positively
    homogeneous).  scipy's `nnls` is not used: on degenerate ties it returns
    non-optimal multipliers with a zero reported residual.  Kept as the
    tests' oracle for the face kernel; perfbench/tracer.py binds it by name.
    """
    z = np.asarray(point, dtype=float)
    G = np.asarray(G, dtype=float)
    if G.size == 0:
        return z.copy(), 0.0
    if np.all(G @ z >= -_CONE_TOL * (1.0 + np.linalg.norm(z))):
        return z.copy(), 0.0
    size = np.linalg.norm(z)
    mu = size * lsq_linear(G.T, -z / size, bounds=(0.0, np.inf), method="bvls",
                           tol=1e-15).x
    proj = z + G.T @ mu
    scale = 1.0 + np.linalg.norm(z)
    viol = float(max(0.0, -(G @ proj).min(initial=0.0)))
    comp = float(abs(mu @ (G @ proj)))
    return proj, max(viol, comp) / scale


# ---------------------------------------------------------------------------
# ball intersection by an exact active-set solve

_MAX_STEPS = 500
_BALL_TOL = 1e-13       # ball solve: stop test, relative to its scale
_KIRSZBRAUN_TOL = 1e-9  # Kirszbraun level: bisection width, relative


def ball_intersection_point(centers, sq_radii):
    """Feasibility of the intersection of balls |y - v_i|^2 <= rho2_i.

    Returns (y, gap) with gap = max_i F_i(y), F_i(y) = |y - v_i|^2 - rho2_i, at
    the minimizer y of max_i F_i; the intersection is nonempty iff gap <= 0.
    The problem is LP-type (Welzl 1991; Gaertner 1999) and is solved by an
    active set: from the center v_0 of the least ball, add the worst point v_w
    and solve exactly over the supports B (<= d + 1 points) of the working set
    that contain it.  On B, y = sum lam_j v_j with sum lam = 1 and F equal on
    B (the KKT system of the simplex dual, in differences u = v - v_w); B is
    accepted when lam >= 0 and no working-set point lies above the dual value
    sum lam_j F_j(y), a lower bound.  The solve stops when no point exceeds
    that bound by more than _BALL_TOL * scale, scale = 1 + max_i (|v_i - v_0|^2 +
    |rho2_i|); it raises RuntimeError when no support is accepted or after
    _MAX_STEPS steps.
    """
    V = np.asarray(centers, dtype=float)
    rho2 = np.asarray(sq_radii, dtype=float)
    i0 = int(np.argmin(rho2))
    y, value, supp = V[i0].copy(), float(-rho2[i0]), [i0]
    sq = np.einsum("ij,ij->i", V - y, V - y)
    F, scale = sq - rho2, 1.0 + float(np.max(sq + np.abs(rho2)))
    for _ in range(_MAX_STEPS):
        worst = int(np.argmax(F))
        if F[worst] <= value + _BALL_TOL * scale:
            return y, float(F[worst])
        work = np.array([*supp, worst])
        U = V[work] - V[worst]
        half = 0.5 * (np.einsum("ij,ij->i", U, U) - rho2[work] + rho2[worst])
        # candidate supports: v_w plus up to d other points, largest first
        for s in (list(c) for size in range(min(len(supp), V.shape[1]), -1, -1)
                  for c in itertools.combinations(range(len(supp)), size)):
            try:  # weights of the other points; v_w takes the rest
                lam = np.linalg.solve(U[s] @ U[s].T, half[s])
            except np.linalg.LinAlgError:
                continue
            z = lam @ U[s]
            s, lam = s + [len(supp)], np.append(lam, 1.0 - lam.sum())
            Fw = np.einsum("ij,ij->i", U - z, U - z) - rho2[work]
            if lam.min() >= 0.0 and Fw.max() <= lam @ Fw[s] + _BALL_TOL * scale:
                break
        else:
            break
        y, value = V[worst] + z, float(lam @ Fw[s])
        supp = [int(work[j]) for j, l in zip(s, lam) if l > 0.0]
        F = np.einsum("ij,ij->i", V - y, V - y) - rho2
    raise RuntimeError("ball_intersection_point: no certified point for "
                       "k=%d centers in d=%d" % V.shape)


def kirszbraun_value(x, anchors, values, lip: float):
    """A point y minimizing max_i (|y - v_i| - L |x - a_i|), to _KIRSZBRAUN_TOL.

    When the anchored data is L-Lipschitz the optimum is <= 0 and y extends
    the map at x without raising the constant against the anchors; otherwise
    the returned y is the least-violation value.  Returns (y, level).

    No workload reaches the bisection: on every `rho_star` gap row of the
    CLI jobs the pair lower bound meets the nearest-point anchor's upper
    bound, and one ball test returns that anchor's value.
    """
    A = np.asarray(anchors, dtype=float)
    V = np.asarray(values, dtype=float)
    x = np.asarray(x, dtype=float)
    r = lip * np.linalg.norm(A - x, axis=1)
    if len(V) == 1:
        return V[0].copy(), float(-r[0])

    dV = np.linalg.norm(V[:, None, :] - V[None, :, :], axis=-1)
    lo = float(np.max((dV - r[:, None] - r[None, :]) / 2.0))
    hi_candidates = np.max(dV - r[None, :], axis=1)
    hi = float(np.min(hi_candidates))
    lo = min(lo, hi)
    scale = 1.0 + float(np.max(r)) + float(np.max(np.abs(V)))
    y_best = None
    for _ in range(80):
        if hi - lo <= _KIRSZBRAUN_TOL * scale:
            break
        mid = 0.5 * (lo + hi)
        rho = np.maximum(mid + r, 0.0)
        y, gap = ball_intersection_point(V, rho * rho)
        if gap <= (_KIRSZBRAUN_TOL * scale) ** 2:
            hi = mid
            y_best = y
        else:
            lo = mid
    if y_best is None:
        rho = np.maximum(hi + r, 0.0)
        y_best, _ = ball_intersection_point(V, rho * rho)
    level = float(np.max(np.linalg.norm(V - y_best, axis=1) - r))
    return y_best, level


def offset_enclosing_center(centers, offsets, weight: float = 1.0):
    """min_p max_i (weight |p - c_i|^2 + s_i): returns (p, value).

    The ball test's solve, with the offsets as negative squared radii.
    """
    C = np.asarray(centers, dtype=float)
    s = np.asarray(offsets, dtype=float)
    y, gap = ball_intersection_point(C, -s / weight)
    # gap = min_p max_i (|p - c_i|^2 + s_i / w); rescale back
    value = weight * gap
    return y, float(value)
