"""Convex solvers: pinned isotonic regression, cone projection, min-max centers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from qlip import cli, coneproj, roproj
from qlip.coneproj import (ball_intersection_point, kirszbraun_value,
                           offset_enclosing_center, pava_pinned,
                           project_polyhedral_cone)


def _brute_chain_projection(v, pinned_levels, grid=None):
    """Oracle: project v onto {x : x_1 <= ... <= x_k, x_i = 0 for pinned i}
    where consecutive equal entries are free.  Solved as a cone projection."""
    k = len(v)
    rows = []
    for i in range(k - 1):
        r = np.zeros(k)
        r[i + 1], r[i] = 1.0, -1.0
        rows.append(r)
    for i in pinned_levels:
        r = np.zeros(k)
        r[i] = 1.0
        rows.append(r)
        rows.append(-r)
    x, kkt = project_polyhedral_cone(np.asarray(v, float), np.asarray(rows))
    assert kkt < 1e-9
    return x


def test_pava_plain_example():
    # unconstrained-by-zero monotone fit of (1.0, 0.5) pools to the average
    fit = pava_pinned([1.0, 0.5], [1.0, 1.0], [False, False])
    assert np.allclose(fit, [0.75, 0.75])


def test_pava_pinned_pulls_to_zero():
    # chain x1 <= 0 <= x2 with data (5, -3): both sides collapse onto the pin
    fit = pava_pinned([5.0, 0.0, -3.0], [1.0, 1.0, 1.0], [False, True, False])
    assert np.allclose(fit, [0.0, 0.0, 0.0])


def test_pava_pinned_one_sided():
    fit = pava_pinned([0.0, -3.0], [1.0, 1.0], [True, False])
    assert np.allclose(fit, [0.0, 0.0])
    fit = pava_pinned([0.0, 5.0], [1.0, 1.0], [True, False])
    assert np.allclose(fit, [0.0, 5.0])


def test_pava_matches_cone_oracle():
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 7))
        v = rng.normal(size=k) * 3
        pinned = [bool(rng.random() < 0.3) for _ in range(k)]
        fit = np.asarray(pava_pinned(v, np.ones(k), pinned))
        oracle = _brute_chain_projection(v, [i for i, p in enumerate(pinned) if p])
        assert np.allclose(fit, oracle, atol=1e-8), (v, pinned, fit, oracle)


def test_pava_weights():
    # heavier left pool wins the tug of war: (2*1 + 1*(-1)) / 3 = 1/3
    fit = pava_pinned([1.0, -1.0], [2.0, 1.0], [False, False])
    assert np.allclose(fit, [1.0 / 3.0, 1.0 / 3.0])


def test_cone_projection_orthant():
    rng = np.random.default_rng(9)
    g = np.eye(4)
    for _ in range(20):
        v = rng.normal(size=4)
        x, kkt = project_polyhedral_cone(v, g)
        assert np.allclose(x, np.maximum(v, 0.0), atol=1e-10)
        assert kkt < 1e-10


def test_cone_projection_properties():
    rng = np.random.default_rng(21)
    for _ in range(60):
        d = int(rng.integers(2, 6))
        nc = int(rng.integers(1, 7))
        g = rng.normal(size=(nc, d))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        v = rng.normal(size=d) * 2
        x, kkt = project_polyhedral_cone(v, g)
        assert kkt < 1e-9
        assert (g @ x).min() > -1e-9
        # idempotent on feasible points
        x2, _ = project_polyhedral_cone(x, g)
        assert np.allclose(x, x2, atol=1e-8)
        # no sampled feasible point is closer
        z = rng.normal(size=(200, d))
        feas = z[(g @ z.T).min(axis=0) >= 0]
        if len(feas):
            dists = np.linalg.norm(feas - v, axis=1)
            assert np.linalg.norm(x - v) <= dists.min() + 1e-9


def test_ball_intersection_touching():
    centers = np.array([[-1.0, 0.0], [1.0, 0.0]])
    y, gap = ball_intersection_point(centers, np.array([1.0, 1.0]))
    assert np.allclose(y, [0.0, 0.0], atol=1e-6)
    assert gap == pytest.approx(0.0, abs=1e-8)


def test_ball_intersection_disjoint():
    centers = np.array([[-2.0], [2.0]])
    y, gap = ball_intersection_point(centers, np.array([1.0, 1.0]))
    assert y[0] == pytest.approx(0.0, abs=1e-7)
    assert gap == pytest.approx(3.0, abs=1e-7)  # 2^2 - 1


def test_ball_intersection_interior():
    # one tiny ball inside a huge one: the point is the tiny center
    centers = np.array([[0.0, 0.0], [0.5, 0.0]])
    y, gap = ball_intersection_point(centers, np.array([100.0, 0.01]))
    assert np.allclose(y, [0.5, 0.0], atol=1e-5)
    assert gap == pytest.approx(-0.01, abs=1e-6)


def test_kirszbraun_single_anchor():
    y, level = kirszbraun_value(np.array([0.0]), np.array([[1.0]]),
                                np.array([[3.0, 4.0]]), lip=2.0)
    assert np.allclose(y, [3.0, 4.0], atol=1e-7)
    assert level == pytest.approx(-2.0, abs=1e-7)


def test_kirszbraun_midpoint():
    anchors = np.array([[0.0], [1.0]])
    values = np.array([[0.0], [1.0]])
    y, level = kirszbraun_value(np.array([0.5]), anchors, values, lip=1.0)
    assert y[0] == pytest.approx(0.5, abs=1e-7)
    assert level == pytest.approx(0.0, abs=1e-7)


def test_kirszbraun_extends_lipschitz_data():
    rng = np.random.default_rng(33)
    for _ in range(25):
        m, d = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        k = int(rng.integers(2, 6))
        a = rng.normal(size=(d, m))
        u, s, vt = np.linalg.svd(a, full_matrices=False)
        a = u @ np.diag(np.minimum(s, 1.0)) @ vt  # operator norm <= 1
        anchors = rng.normal(size=(k, m))
        values = anchors @ a.T
        x = rng.normal(size=m)
        y, level = kirszbraun_value(x, anchors, values, lip=1.0)
        assert level <= 1e-6
        gaps = np.linalg.norm(values - y, axis=1) - np.linalg.norm(anchors - x, axis=1)
        assert gaps.max() <= 1e-6


def test_kirszbraun_closed_bracket_returns_the_anchor(monkeypatch):
    # x sits on an anchor of 1-Lipschitz data: the pair bound (0) meets that
    # anchor's level (0), so the value is the anchor's, with no ball test
    rng = np.random.default_rng(5)
    anchors = rng.normal(size=(6, 2))
    values = anchors @ np.array([[0.6, 0.2], [-0.1, 0.5], [0.3, 0.3]]).T

    def no_ball_test(*args):
        raise AssertionError("a closed bracket needs no ball test")

    monkeypatch.setattr(coneproj, "ball_intersection_point", no_ball_test)
    y, level = kirszbraun_value(anchors[2], anchors, values, lip=1.0)
    assert np.array_equal(y, values[2]) and level == 0.0


def test_offset_enclosing_center():
    centers = np.array([[0.0], [2.0]])
    p, val = offset_enclosing_center(centers, np.array([0.0, 0.0]), weight=1.0)
    assert p[0] == pytest.approx(1.0, abs=1e-6)
    assert val == pytest.approx(1.0, abs=1e-6)
    # a large offset on one site moves the optimum onto balancing the two
    p, val = offset_enclosing_center(centers, np.array([4.0, 0.0]), weight=1.0)
    # solve (p-0)^2 + 4 = (p-2)^2  ->  p = 0, value 4
    assert p[0] == pytest.approx(0.0, abs=1e-5)
    assert val == pytest.approx(4.0, abs=1e-5)


def test_offset_enclosing_center_is_minimum():
    rng = np.random.default_rng(41)
    for _ in range(20):
        k, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        centers = rng.normal(size=(k, d))
        offsets = rng.uniform(0, 2, size=k)
        w = float(rng.uniform(0.5, 3.0))
        p, val = offset_enclosing_center(centers, offsets, w)
        obj = lambda z: (w * np.sum((z - centers) ** 2, axis=1) + offsets).max()
        assert val == pytest.approx(obj(p), abs=1e-7)
        for _ in range(100):
            z = p + rng.normal(size=d) * rng.choice([1e-3, 0.1, 1.0])
            assert obj(z) >= val - 1e-6


def _centers(kind, k, d, rng):
    """k centers in R^d: generic, duplicated, collinear or on a sphere."""
    if kind == "collinear":
        return rng.normal(size=(1, d)) + rng.normal(size=(k, 1)) * rng.normal(size=(1, d))
    if kind == "ties":  # +-e_j with equal offsets, all active at the origin
        return np.concatenate([np.eye(d), -np.eye(d), 0.5 * rng.uniform(-1, 1, size=(k, d)) / d])
    C = rng.normal(size=(k, d))
    return C[rng.integers(0, max(1, k // 3), size=k)] if kind == "dup" else C


def _epigraph_value(C, rho2):
    """max_i F_i at the point an independent SLSQP epigraph solve returns."""
    F = lambda y: np.sum((C - y) ** 2, axis=1) - rho2
    y0 = C.mean(axis=0)
    res = minimize(lambda z: z[-1], np.append(y0, F(y0).max()), method="SLSQP",
                   constraints=[{"type": "ineq", "fun": lambda z: z[-1] - F(z[:-1]),
                                 "jac": lambda z: np.hstack([2.0 * (z[:-1] - C),
                                                             np.ones((len(C), 1))])}],
                   options={"maxiter": 500, "ftol": 1e-15})
    return F(res.x[:-1]).max()


@settings(max_examples=60)
@given(kind=st.sampled_from(["generic", "k1", "dup", "collinear", "ties"]),
       d=st.integers(1, 6), big=st.booleans(), log_scale=st.floats(-3, 3),
       seed=st.integers(0, 2 ** 32 - 1))
def test_ball_solver_certificate(kind, d, big, log_scale, seed):
    """The returned value is max_i F_i(y), and no worse than an independent
    epigraph solve; offset_enclosing_center is the same solve reweighted."""
    rng = np.random.default_rng(seed)
    d = 2 if kind == "collinear" else d
    k = 1 if kind == "k1" else int(rng.integers(2000, 5001) if big else rng.integers(2, 40))
    scale = 10.0 ** log_scale
    C = _centers(kind, k, d, rng) * scale
    rho2 = rng.uniform(-1.0, 1.0, size=len(C)) * scale ** 2
    if kind == "ties":
        rho2[:] = scale ** 2
    elif kind == "dup":
        _, first = np.unique(C, axis=0, return_inverse=True)
        rho2 = rho2[first.ravel()]
    y, gap = ball_intersection_point(C, rho2)
    F = np.sum((C - y) ** 2, axis=1) - rho2
    unit = 1.0 + np.max(np.abs(np.sum((C - C[np.argmin(rho2)]) ** 2, axis=1) - rho2))
    assert gap == pytest.approx(F.max(), rel=0, abs=1e-13 * unit)
    assert gap <= _epigraph_value(C, rho2) + 1e-9 * unit
    if kind == "ties":
        assert np.abs(y).max() <= 1e-9 * scale
    w = float(rng.uniform(0.5, 3.0))
    p, val = offset_enclosing_center(C, -w * rho2, weight=w)
    yw, gapw = ball_intersection_point(C, w * rho2 / w)
    assert np.array_equal(p, yw) and val == w * gapw


def test_ball_solver_raises_when_uncertified(monkeypatch):
    monkeypatch.setattr(coneproj, "_MAX_STEPS", 1)
    C = np.random.default_rng(3).normal(size=(50, 3))
    with pytest.raises(RuntimeError, match="k=50 centers in d=3"):
        ball_intersection_point(C, np.zeros(50))


def _ball_projection_data(rng, m, k):
    """Anchors in R^m and values Q P_B(a) + b: a 1-Lipschitz map."""
    center, radius = rng.normal(size=m), rng.uniform(0.2, 2.0)
    A = rng.normal(size=(k, m)) * rng.uniform(0.5, 3.0)
    off = A - center
    norm = np.linalg.norm(off, axis=1, keepdims=True)
    proj = center + off * np.minimum(1.0, radius / norm)
    Q = np.linalg.qr(rng.normal(size=(m, m)))[0]
    return A, proj @ Q.T + rng.normal(size=m)


@settings(max_examples=200)
@given(m=st.integers(2, 6), k=st.integers(8, 30), log_eps=st.floats(-8, 0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_kirszbraun_level_nonpositive_on_lipschitz_data(m, k, log_eps, seed):
    """Kirszbraun: 1-Lipschitz data extends to any x without a positive level,
    x at distance about 10^log_eps from an anchor, as rho_star's points are."""
    rng = np.random.default_rng(seed)
    A, V = _ball_projection_data(rng, m, k)
    x = A[0] + rng.normal(size=m) * 10.0 ** log_eps
    _, level = kirszbraun_value(x, A, V, lip=1.0)
    r = np.linalg.norm(A - x, axis=1)
    assert level <= 2 * 1e-9 * (1.0 + r.max() + np.abs(V).max())


def test_rho_star_kirszbraun_levels_nonpositive(tmp_path, monkeypatch):
    """Every Kirszbraun level of the (2,2) rho-star-eval population is <= 0."""
    levels = []

    def record(*args):
        y, level = kirszbraun_value(*args)
        levels.append(level)
        return y, level

    monkeypatch.setattr(roproj, "kirszbraun_value", record)
    assert cli.main(["rho-star-eval", "--n", "2", "--q", "2", "--seed", "1",
                     "--samples", "10", "--out", str(tmp_path)]) == 0
    assert len(levels) > 0 and max(levels) <= 0.0
