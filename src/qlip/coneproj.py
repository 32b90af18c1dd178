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
  bisection over the level t with a ball-intersection feasibility test, which
  itself is a concave maximization over the simplex (all balls share the
  identity Hessian, so the inner minimum is closed form).
"""
from __future__ import annotations

import numpy as np
from scipy.optimize import lsq_linear


# ---------------------------------------------------------------------------
# pool adjacent violators with pinned pools


def pava_pinned(means, weights, pinned=None) -> np.ndarray:
    """Nondecreasing fit minimizing sum w_i (t_i - m_i)^2; pinned pools sit at 0.

    A pool that absorbs a pinned element has value exactly 0 regardless of its
    data (infinite-weight limit).  It fits face closures on the real line,
    where the virtual zero level is a hard constraint, not a data point.
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


def project_polyhedral_cone(point, G, tol: float = 1e-11):
    """Project onto {z : G z >= 0}.  Returns (projection, kkt_residual).

    Moreau: z* = z + P_C(-z) where C = cone{rows of G}; P_C is a nonnegative
    least squares problem, solved exactly by the bounded-variable active-set
    method on the unit vector z / |z| (the projection is positively
    homogeneous).  scipy's `nnls` is not used: on degenerate ties it returns
    non-optimal multipliers with a zero reported residual.
    """
    z = np.asarray(point, dtype=float)
    G = np.asarray(G, dtype=float)
    if G.size == 0:
        return z.copy(), 0.0
    if np.all(G @ z >= -tol * (1.0 + np.linalg.norm(z))):
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
# ball intersection through the simplex dual


def _simplex_project(v: np.ndarray) -> np.ndarray:
    v = v - v.max()  # invariant shift; keeps the cumsum test well conditioned
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    cond = u - css / ks > 0
    rho = ks[cond][-1]
    theta = css[rho - 1] / rho
    return np.maximum(v - theta, 0.0)


def ball_intersection_point(centers, sq_radii, iters: int = 2000, tol: float = 1e-13):
    """Feasibility of the intersection of balls |y - v_i|^2 <= rho2_i.

    Returns (y, gap) with gap = min_y max_i (|y - v_i|^2 - rho2_i); the
    intersection is nonempty iff gap <= 0.  Computed by maximizing the
    concave dual phi(lam) = sum lam_i(|v_i|^2 - rho2_i) - |sum lam_i v_i|^2
    over the simplex with accelerated projected gradient plus an exact polish
    on the identified support.
    """
    V = np.asarray(centers, dtype=float)
    rho2 = np.asarray(sq_radii, dtype=float)
    k = V.shape[0]
    if k == 1:
        return V[0].copy(), float(-rho2[0])
    c = np.einsum("ij,ij->i", V, V) - rho2

    def grad(lam):
        return c - 2.0 * (V @ (V.T @ lam))

    def phi(lam):
        y = V.T @ lam
        return float(lam @ c - y @ y)

    lip = 2.0 * np.linalg.norm(V, 2) ** 2 + 1e-30
    lam = np.full(k, 1.0 / k)
    vlam = lam.copy()
    theta = 1.0
    best = lam
    best_val = phi(lam)
    for _ in range(iters):
        lam_new = _simplex_project(vlam + grad(vlam) / lip)
        theta_new = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * theta * theta))
        vlam = lam_new + (theta - 1.0) / theta_new * (lam_new - lam)
        theta = theta_new
        lam = lam_new
        val = phi(lam)
        if val > best_val:
            if val - best_val < tol * (1.0 + abs(best_val)):
                best, best_val = lam, val
                break
            best, best_val = lam, val
    lam = best
    # exact polish on the support: solve the KKT system of the reduced problem
    supp = np.flatnonzero(lam > 1e-10)
    if 1 < supp.size <= V.shape[1] + 2:
        Vs = V[supp]
        A = np.zeros((supp.size + 1, supp.size + 1))
        A[:-1, :-1] = 2.0 * (Vs @ Vs.T)
        A[:-1, -1] = 1.0
        A[-1, :-1] = 1.0
        b = np.concatenate([c[supp], [1.0]])
        try:
            sol = np.linalg.solve(A, b)
            cand = np.zeros(k)
            cand[supp] = sol[:-1]
            if np.all(cand >= -1e-12):
                cand = _simplex_project(cand)
                if phi(cand) >= best_val:
                    lam = cand
        except np.linalg.LinAlgError:
            pass
    y = V.T @ lam
    gap = float(np.max(np.einsum("ij,ij->i", V - y, V - y) - rho2))
    return y, gap


def kirszbraun_value(x, anchors, values, lip: float, tol: float = 1e-9):
    """A point y minimizing max_i (|y - v_i| - L |x - a_i|) to within tol.

    When the anchored data is L-Lipschitz the optimum is <= 0 and y extends
    the map at x without raising the constant against the anchors; otherwise
    the returned y is the least-violation value.  Returns (y, level).
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
        if hi - lo <= tol * scale:
            break
        mid = 0.5 * (lo + hi)
        rho = np.maximum(mid + r, 0.0)
        y, gap = ball_intersection_point(V, rho * rho)
        if gap <= (tol * scale) ** 2:
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

    Same simplex dual as the ball test, with the offsets entering linearly.
    """
    C = np.asarray(centers, dtype=float)
    s = np.asarray(offsets, dtype=float)
    # max over simplex of  w sum lam|c|^2 - w |sum lam c|^2 + sum lam s
    y, gap = ball_intersection_point(C, -s / weight)
    # gap = min_p max_i (|p - c_i|^2 + s_i / w); rescale back
    value = weight * gap
    return y, float(value)
