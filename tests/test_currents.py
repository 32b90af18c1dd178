"""Currents: mass/excess quadrature, maximal function, the BV inequality,
the threshold-and-extend approximation, mass ratios, competitor.

Closed-form oracles:
  * two flat sheets over B_1: mass 2 pi, excess 0;
  * branched two-sheet graph (values +-sqrt(lam) w^{3/2}): per-sheet area
    integrand 1 + 2.25 lam |w|, so mass(C_r) = 2 pi r^2 + 3 pi lam r^3,
    excess ratio 3 lam r, energy 6 pi lam r^3, Taylor remainder 0 because the
    sheets are conformal;
  * tilted single plane slope A: excess density sqrt(1+|A|^2) - 1 constant;
  * point spike of excess eps: smallest enclosing ball of {y, z0} gives a
    maximal function about 4 eps / (pi d^2) at distance d;
  * ambient mass ratio of the branched graph: with s(rho) solving
    s^2 + s^3 = rho^2, ratio = pi (2 + 3 s) / (1 + s), increasing, to 2 pi.
"""
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from scipy.ndimage import maximum_filter
from scipy.optimize import brentq

from qlip import currents as cu
from qlip import qfield as qf
from qlip.embed import xi_inverse
from qlip.qspace import QPoint, metric_g


def test_flat_double_plane_mass():
    T = cu.flat_current(q=2, n=1, res=65, radius4=1.0)
    mass, rep = cu.mass_and_excess(T, ("ball", (0.0, 0.0), 1.0))
    assert abs(mass - 2 * math.pi) <= 1e-9
    assert abs(rep["excess"]) <= 1e-9
    assert abs(rep["remainder"]) <= 1e-9


def test_w32_excess_ratio_and_remainder():
    T = cu.w32_current(1.0, res=65, radius4=1.0)
    ex = cu.ExcessField(T)
    for r in (0.1, 0.2, 0.4):
        got = ex.excess_ratio(r)
        assert abs(got - 3 * r) <= 0.02 * 3 * r
        mass, rep = cu.mass_and_excess(T, ("ball", (0.0, 0.0), r))
        want = 2 * math.pi * r**2 + 3 * math.pi * r**3
        assert abs(mass - want) <= 0.02 * want
        assert abs(rep["remainder"]) <= 1e-9  # conformal sheets are exact


def test_w32_grid_path_mass():
    T = cu.w32_current(1.0, res=129, radius4=1.0)
    bare = cu.GraphCurrent(T.base, (0.0, 0.0), 1.0)  # no analytic callables
    mass, rep = cu.mass_and_excess(bare, ("ball", (0.0, 0.0), 0.5))
    want = 2 * math.pi * 0.25 + 3 * math.pi * 0.125
    assert abs(mass - want) <= 0.02 * want


def test_excess_two_ways_agree():
    T = cu.w32_current(1.0, res=65, radius4=1.0)
    first, second = cu.excess_two_ways(T, (0.25, 0.1), 0.3)
    assert first > 0
    assert abs(first - second) <= 0.01 * first


def test_excess_region_additivity():
    T = cu.w32_current(0.5, res=65, radius4=1.0)
    ex = cu.ExcessField(T)
    w1 = qf.disk_weights(T.base, (0.0, 0.0), 0.3)
    w2 = qf.disk_weights(T.base, (0.0, 0.0), 0.6) - w1
    total = ex.region_excess(w1) + ex.region_excess(w2)
    assert abs(total - ex.region_excess(w1 + w2)) <= 1e-12


def test_region_outside_cylinder_rejected():
    T = cu.w32_current(1.0, res=33, radius4=1.0)
    with pytest.raises(ValueError):
        cu.mass_and_excess(T, ("ball", (0.9, 0.0), 0.5))


def test_disk_overlap_values():
    assert abs(cu._disk_overlap(0.0, 0.2, 1.0) - math.pi * 0.04) <= 1e-12
    assert cu._disk_overlap(2.0, 1.0, 0.5) == 0.0
    half = cu._disk_overlap(1.0, 1.0, 1.0)
    lens = 2 * 1.0 * (math.acos(0.5) - math.sin(2 * math.acos(0.5)) / 2)
    assert abs(half - lens) <= 1e-12


def test_maximal_uniform_density():
    A = np.array([0.3, 0.4])

    def fn(p):
        return (p @ A)[..., None, None]

    base = qf.from_callable(qf.ball(1.0), 65, fn)
    T = cu.GraphCurrent(base, (0.0, 0.0), 1.0)
    rho0 = math.sqrt(1 + A @ A) - 1
    M, info = cu.maximal_excess(T)
    dist = np.linalg.norm(base.nodes(), axis=-1)
    sel = dist <= 0.5
    rel = np.abs(M[sel] / rho0 - 1)
    assert rel.max() <= 0.03
    # the maximal field dominates the finest-scale density
    assert np.all(M + 1e-12 >= info["finest"] - 1e-12)


@pytest.mark.parametrize("res", [33, 65, 129])
def test_footprint_max_matches_maximum_filter(res, monkeypatch):
    """The row-wise running maximum is bitwise maximum_filter on every disk
    footprint maximal_excess builds, on its quotients and on random data with
    -inf entries; a footprint with a split row is refused."""
    seen = []
    real = cu._footprint_max
    monkeypatch.setattr(cu, "_footprint_max",
                        lambda a, fp: seen.append((a, fp)) or real(a, fp))
    cu.maximal_excess(cu.w32_current(0.125, res=res))
    assert len(seen) >= 4 and all(np.isinf(a).any() for a, _ in seen)
    rng = np.random.default_rng(res)
    for a, fp in seen:
        b = np.where(rng.random(a.shape) < 0.3, -np.inf, rng.normal(size=a.shape))
        for arr in (a, b):
            want = maximum_filter(arr, footprint=fp, mode="constant", cval=-np.inf)
            assert np.array_equal(real(arr, fp), want)
    ring = fp.copy()
    ring[len(fp) // 2, len(fp) // 2] = False
    with pytest.raises(ValueError, match="centered intervals"):
        real(a, ring)


def test_maximal_spike_decay():
    z0 = np.array([0.3, 0.2])
    eps0 = 0.01
    sp = cu.Spike(tuple(z0), 0.02, eps0)
    T = cu.flat_current(q=2, n=1, res=65, radius4=2.0, spikes=(sp,))
    M, _ = cu.maximal_excess(T)
    nodes = T.base.nodes()
    for target in (0.15, 0.25, 0.4):
        d = np.linalg.norm(nodes - z0, axis=-1)
        idx = np.unravel_index(np.argmin(np.abs(d - target)), d.shape)
        dd = d[idx]
        ratio = M[idx] * math.pi * dd**2 / eps0
        # smallest-enclosing-ball value is 4, discretized family quantizes it
        assert 1.2 <= ratio <= 4.6


def test_bv_functional_odd_cancellation():
    T = cu.w32_current(1.0, res=65, radius4=1.0)

    def psi(y):
        y = np.asarray(y)
        return np.clip(y[..., 0], -0.1, 0.1)

    phi, reports = cu.bv_functional(T, psi)
    assert np.abs(phi).max() <= 1e-12  # odd sheets cancel
    for rep in reports:
        assert rep["tv"] <= 1e-12
        assert rep["margin"] >= -1e-12


def test_bv_functional_flat_equality():
    T = cu.flat_current(q=3, n=1, heights=[[0.2], [0.2], [0.2]], res=33)

    def psi(y):
        return np.asarray(y)[..., 0]

    phi, reports = cu.bv_functional(T, psi)
    assert np.allclose(phi, 0.6)
    for rep in reports:
        assert abs(rep["tv"]) <= 1e-12
        assert abs(rep["margin"]) <= 1e-9


def test_bv_functional_margins_random_regions():
    T = cu.w32_current(0.5, res=65, radius4=1.0)
    rng = np.random.default_rng(3)

    def psi(y):
        y = np.asarray(y)
        return np.sin(y[..., 0] * 0.8 + 0.3) * 0.9

    regions = []
    for _ in range(20):
        c = rng.uniform(-0.3, 0.3, size=2)
        s = rng.uniform(0.15, 0.6)
        regions.append(qf.disk_weights(T.base, c, s))
    _, reports = cu.bv_functional(T, psi, regions=regions)
    for rep in reports:
        assert rep["margin"] >= -1e-12


def test_bv_rejects_steep_psi():
    T = cu.flat_current(q=2, n=1, res=17)
    with pytest.raises(ValueError):
        cu.bv_functional(T, lambda y: 2.0 * np.asarray(y)[..., 0])


def test_lipschitz_approximation_trivial_regime():
    A = np.array([0.01, 0.02])

    def fn(p):
        return (p @ A)[..., None, None]

    base = qf.from_callable(qf.ball(1.0), 65, fn)
    T = cu.GraphCurrent(base, (0.0, 0.0), 1.0)
    u, K, rep = cu.lipschitz_approximation(T, delta11=0.1, strict=True)
    dist = np.linalg.norm(base.nodes(), axis=-1)
    ball3 = (dist <= 3 * T.r + 1e-12) & base.mask
    assert np.array_equal(K, ball3)
    assert np.array_equal(u.values[K], base.values[K])
    assert rep["graph_match_exact"]
    assert rep["area_bad"] == 0.0
    assert rep["hypothesis_ok"]


def test_lipschitz_approximation_spike_exclusion():
    z0 = (0.3, 0.2)
    eps0 = 0.008
    delta11 = 0.05
    sp = cu.Spike(z0, 0.05, eps0)
    T = cu.flat_current(q=2, n=1, res=129, radius4=4.0, spikes=(sp,))
    u, K, rep = cu.lipschitz_approximation(T, delta11)
    assert rep["hypothesis_ok"]
    nodes = T.base.nodes()
    d = np.linalg.norm(nodes - np.asarray(z0), axis=-1)
    # predicted exclusion radius 2 sqrt(eps0/(pi delta11)) ~ 0.45
    pred = 2 * math.sqrt(eps0 / (math.pi * delta11))
    inside = (d <= 0.5 * pred)
    outside = (d >= 2.0 * pred) & (d <= 0.9)
    assert not K[inside].any()
    assert K[outside].all()
    assert rep["graph_match_exact"]
    assert rep["area_bad"] <= 4.0 * rep["bad_bound"]
    assert rep["area_bad"] >= 0.25 * math.pi * (0.5 * pred) ** 2


def test_lipschitz_approximation_strict_raises():
    T = cu.w32_current(0.25, res=33, radius4=1.0)
    with pytest.raises(ValueError):
        cu.lipschitz_approximation(T, delta11=0.05, strict=True)


def test_lipschitz_approximation_w32():
    lam = 2.0 ** -5
    T = cu.w32_current(lam, res=65, radius4=1.0)
    E = cu.ExcessField(T).excess_ratio(1.0)
    delta11 = max(math.sqrt(E), 1.25 * 256 * E)
    u, K, rep = cu.lipschitz_approximation(T, delta11)
    assert rep["graph_match_exact"]
    assert 0 < rep["lip_u"] <= 3.0 * math.sqrt(delta11)


def test_height_values():
    flat = cu.flat_current(q=2, n=1, heights=[[0.5], [-0.5]], res=33)
    assert abs(cu.height(flat) - 1.0) <= 1e-12
    T = cu.w32_current(1.0, res=65, radius4=1.0)
    assert abs(cu.height(T) - 2.0) <= 0.05 * 2.0
    # flat clouds have no full-dimensional hull: their diameter is taken in
    # their affine hull, over every point
    two = cu.flat_current(q=2, n=2, heights=[[0, 0], [1, 0]], res=129)
    assert cu.height(two) == pytest.approx(1.0, rel=1e-12)
    three = cu.flat_current(q=3, n=2, heights=[[0, 0], [1, 1], [2, 2]],
                            res=129)
    assert cu.height(three) == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-12)
    assert cu.height(cu.flat_current(q=2, n=2, res=129)) == 0.0


def _mass_ratio_reference(T, radii, n_theta=64, n_rad=24):
    """The unbatched profile: one scalar brentq root and one quadrature
    call per (radius, direction, sheet)."""
    gt, gw = np.polynomial.legendre.leggauss(n_rad)
    th = (np.arange(n_theta) + 0.5) * (2 * math.pi / n_theta)
    dirs = np.stack([np.cos(th), np.sin(th)], axis=-1)
    z0 = T.sheet_values(T.center[None])[0].mean(axis=0)
    tmax = T.radius4 * 0.999

    def sheet_dist(t, u, j):
        vert = T.sheet_values(T.center + t * u)[j] - z0
        return math.hypot(t, float(np.linalg.norm(vert)))

    out = []
    for rho in sorted(radii):
        total = 0.0
        for u in dirs:
            for j in range(T.q):
                if sheet_dist(tmax, u, j) <= rho:
                    tstar = tmax
                elif sheet_dist(0.0, u, j) >= rho:
                    continue
                else:
                    # a relative stop, as in the batched solve (brentq
                    # needs xtol > 0)
                    tstar = brentq(lambda t: sheet_dist(t, u, j) - rho,
                                   0.0, tmax, xtol=np.finfo(float).tiny,
                                   rtol=1e-14)
                ts = 0.5 * tstar * (gt + 1.0)
                pts = T.center + ts[:, None] * u
                dens = T.sheet_area_density(pts)
                total += float(np.sum(dens[:, j] * ts * 0.5 * tstar * gw))
        out.append(total * (2 * math.pi / n_theta) / rho ** T.m)
    return out


@pytest.mark.parametrize("T, radii", [
    (cu.w32_current(0.125, res=129), np.linspace(0.98 / 25, 0.98, 25)),
    # about the sheets' mean 0, sheet 0 lies wholly inside the balls of
    # radius >= tmax, sheets 1 and 2 wholly outside those of radius < 0.5
    (cu.flat_current(q=3, n=2, heights=[[0, 0], [0.3, 0.4], [-0.3, -0.4]],
                     res=33),
     [0.1, 0.3, 0.6, 0.9, 0.9995, 1.0]),
    (cu.flat_current(q=2, n=2, heights=[[0, 0], [0.3, 0.4]], res=33),
     [0.1, 0.25, 0.3, 0.9]),
])
def test_mass_ratio_profile_matches_scalar_roots(T, radii):
    prof, worst = cu.mass_ratio_profile(T, radii)
    want = _mass_ratio_reference(T, radii)
    assert [rho for rho, _ in prof] == sorted(float(r) for r in radii)
    for (_, got), exp in zip(prof, want):
        assert got == pytest.approx(exp, rel=1e-12, abs=0.0)
    drop = max([0.0] + [a - b for a, b in zip(want, want[1:])])
    assert worst == pytest.approx(drop, rel=0.0, abs=1e-10)


def test_mass_ratio_profile_flat():
    T = cu.flat_current(q=2, n=1, res=33, radius4=1.0)
    prof, worst = cu.mass_ratio_profile(T, [0.1, 0.3, 0.5, 0.9])
    for rho, val in prof:
        assert abs(val - 2 * math.pi) <= 1e-6
    assert worst <= 1e-9


def test_mass_ratio_profile_w32():
    T = cu.w32_current(1.0, res=33, radius4=1.0)
    radii = np.linspace(0.02, 0.98, 50)
    prof, worst = cu.mass_ratio_profile(T, radii)
    rho0, v0 = prof[0]
    assert abs(v0 - 2 * math.pi) <= 0.011 * 2 * math.pi  # density 2 at branch
    for rho, val in prof:
        s = brentq(lambda t: t * t + t**3 - rho * rho, 0.0, 1.0)
        want = math.pi * (2 + 3 * s) / (1 + s)
        assert abs(val - want) <= 1e-3 * want
    assert worst <= 1e-6


def test_mass_ratio_profile_rejects_large_radius():
    T = cu.w32_current(1.0, res=33, radius4=1.0)
    with pytest.raises(ValueError):
        cu.mass_ratio_profile(T, [1.5])


def test_competitor_flat_identity():
    T = cu.flat_current(q=2, n=1, heights=[[0.35], [-0.35]], res=65,
                        radius4=1.0)
    g, rep = cu.build_competitor(T, beta1=0.1)
    assert rep["boundary_exact"]
    diffs = [metric_g(QPoint(a), QPoint(b))
             for a, b in zip(g.values[g.mask][:200], T.base.values[g.mask][:200])]
    assert max(diffs) <= 1e-8
    assert abs(rep["gap"]) <= 1e-8


def test_competitor_w32_runs_and_reports():
    T = cu.w32_current(2.0 ** -6, res=65, radius4=1.0)
    g, rep = cu.build_competitor(T, beta1=0.1)
    assert rep["boundary_exact"]
    assert np.isfinite(rep["energy"]) and np.isfinite(rep["gap"])
    assert rep["lip_g"] > 0
    r1, r2, r3 = rep["radii"]
    assert 0 < r1 < r2 < r3 <= 2 * T.r + 1e-12
    assert rep["eps"] <= rep["s"] + 1e-15


@pytest.mark.parametrize("k, digest, gap_rebuilt", [
    pytest.param(
        3, "a1d03022e10a89b82db3fc99ca431717ecc01540be936fca7e8e7398c01003fa",
        0.10844999000283165, id="k3"),
    pytest.param(
        5, "e4cd60c76528cdb5d3e4b9e14f191294239139615fbe140d438cc1b5d2a2997e",
        0.027112497500707912, id="k5"),
])
def test_competitor_w32_pinned(k, digest, gap_rebuilt):
    # the cone benchmark's competitor currents, pinned bitwise: the chosen
    # field's values, the rebuilt field's energy gap and the choice
    T = cu.w32_current(2.0 ** -k, res=65, radius4=1.0)
    g, rep = cu.build_competitor(T, beta1=0.1)
    got = hashlib.sha256(np.ascontiguousarray(g.values).tobytes()).hexdigest()
    assert (got, rep["gap_rebuilt"], rep["choice"]) == (digest, gap_rebuilt,
                                                         "kept")


def _spike_extension():
    # the CLI's `approx --current spike`: its Lipschitz extension decodes rows
    T = cu.flat_current(q=2, n=1, heights=None, res=129, radius4=4.0,
                        spikes=(cu.Spike((0.3, 0.2), 0.05, 0.008),))
    E = T.excess.excess_ratio(T.radius4)
    cu.lipschitz_approximation(T, max(E ** 0.2, 1.25 * 16 ** T.m * E, 1e-4))


@pytest.mark.parametrize("run", [
    pytest.param(lambda: cu.build_competitor(
        cu.w32_current(2.0 ** -3, res=65, radius4=1.0), beta1=0.1), id="k3"),
    pytest.param(lambda: cu.build_competitor(
        cu.w32_current(2.0 ** -5, res=65, radius4=1.0), beta1=0.1), id="k5"),
    pytest.param(_spike_extension, id="spike-extension"),
])
def test_decoded_rows_are_on_the_cone(monkeypatch, run):
    """Every row that the competitor and the Lipschitz extension decode with
    xi_inverse is on the cone within 1e-12 (1 + |v|), five orders below the
    slack `embed._ON_CONE_TOL` that xi_inverse allows."""
    seen = []

    def recorder(lattice, v, **kwargs):
        seen.append((lattice, v.reshape(-1, v.shape[-1])))
        return xi_inverse(lattice, v, **kwargs)

    monkeypatch.setattr(cu, "xi_inverse", recorder)
    monkeypatch.setattr(qf, "xi_inverse", recorder)
    run()
    assert seen
    for lattice, rows in seen:
        resid = lattice.nearest_point_batch(rows)[1]
        assert np.all(resid <= 1e-12 * (1.0 + np.linalg.norm(rows, axis=1)))


def test_excess_field_built_once(monkeypatch):
    # a current builds its excess field once: the approximation, the
    # competitor and the maximal function all read the same one
    built = []
    init = cu.ExcessField.__init__
    monkeypatch.setattr(cu.ExcessField, "__init__",
                        lambda self, T: built.append(T) or init(self, T))
    T = cu.flat_current(q=2, n=1, heights=[[0.35], [-0.35]], res=65,
                        radius4=1.0)
    cu.lipschitz_approximation(T, delta11=0.1)
    assert len(built) == 1
    cu.build_competitor(T, beta1=0.1)
    assert len(built) == 1


def test_current_and_its_excess_field_are_freed_without_the_collector():
    # the field a current keeps does not refer back to the current, so no
    # reference cycle holds the pair's arrays until the cyclic collector runs
    T = cu.w32_current(0.125, res=33)
    ref = weakref.ref(T)
    cu.lipschitz_approximation(T, delta11=0.5)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del T
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_current_json_smoke():
    sp = cu.Spike((0.1, 0.0), 0.05, 0.002)
    T = cu.flat_current(q=2, n=1, res=17, spikes=(sp,))
    obj = T.to_json()
    assert obj["radius4"] == 1.0
    assert len(obj["spikes"]) == 1
    assert obj["spikes"][0]["excess"] == 0.002
