"""Almost-projection maps: radial collapse, ladders, cascade, extension."""
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlip import cli
from qlip import currents as cu
from qlip.embed import NotOnImageError, xi, xi_batch
from qlip.qspace import QPoint, random_qpoint
from qlip.roproj import (AlmostProjection, ConstantLadder, LadderError,
                         OutsideNeighborhoodError, default_machinery, phi_tau)


def test_phi_tau_hand_values():
    tau = 0.16
    x = np.array([0.28, 0.0])
    out = phi_tau(x, tau)
    # sqrt(tau) * (|x| - tau) / (sqrt(tau) - tau) = 0.4 * 0.12 / 0.24 = 0.2
    assert np.linalg.norm(out) == pytest.approx(0.2, abs=1e-12)
    assert out[1] == 0.0 and out[0] > 0
    assert np.allclose(phi_tau(np.zeros(3), tau), 0.0)
    x = np.array([0.5])
    assert np.allclose(phi_tau(x, tau), x)  # |x| >= sqrt(tau) = 0.4
    assert np.allclose(phi_tau(np.array([0.1]), tau), 0.0)  # |x| <= tau


def test_phi_tau_displacement_and_lip():
    rng = np.random.default_rng(1)
    tau = 0.2
    pts = rng.normal(size=(100_000, 3)) * rng.uniform(0.01, 2, size=(100_000, 1))
    outs = np.array([phi_tau(p, tau) for p in pts[:500]])
    assert np.linalg.norm(outs - pts[:500], axis=1).max() <= tau + 1e-12
    # pairwise Lipschitz quotient on nearby pairs
    worst = 0.0
    for _ in range(2000):
        a = rng.normal(size=2) * rng.uniform(0.05, 1.5)
        b = a + rng.normal(size=2) * 1e-3
        num = np.linalg.norm(phi_tau(a, tau) - phi_tau(b, tau))
        den = np.linalg.norm(a - b)
        worst = max(worst, num / den)
    assert worst <= 1 + 2 * np.sqrt(tau) + 1e-9


def test_phi_tau_domain():
    with pytest.raises(ValueError):
        phi_tau(np.ones(2), 0.25)
    with pytest.raises(ValueError):
        phi_tau(np.ones(2), 0.0)


def test_ladder_explicit_values():
    lad = ConstantLadder.explicit(2, c0=0.1, delta=0.1)
    assert lad.ck(-1) == pytest.approx(0.1 ** 0.125, rel=1e-14)
    assert lad.ck(0) == pytest.approx(0.1)
    assert lad.ck(1) == pytest.approx(1e-8, rel=1e-12)
    assert lad.delta == 0.1


def test_ladder_paper_mode():
    lad = ConstantLadder.paper(2, delta=1e-100)
    assert lad.ck(0) == pytest.approx(10 ** (-100 / 64), rel=1e-12)
    assert lad.ck(1) == pytest.approx(10 ** (-100 / 8), rel=1e-12)
    assert lad.ck(1) == pytest.approx(lad.ck(0) ** 8, rel=1e-10)
    assert lad.ck(-1) > lad.ck(0) > lad.ck(1)


def test_ladder_paper_underflow():
    # chain validity survives float underflow through the stored logarithms
    lad = ConstantLadder.paper(4, log10_delta=-4000.0)
    assert lad.ck(3) == 0.0
    assert lad.log10_ck(3) == pytest.approx(-500.0)
    assert lad.ck(0) == pytest.approx(10 ** (-4000 / 4096), rel=1e-12)


def test_ladder_errors():
    with pytest.raises(LadderError):
        ConstantLadder.explicit(2, c0=0.2)  # >= 1/8
    with pytest.raises(LadderError):
        ConstantLadder.paper(2, delta=0.9)  # c0 too large
    with pytest.raises(LadderError):
        ConstantLadder.paper(2)


def test_margin_validation():
    mach = default_machinery(1, 2)
    report = mach.ladder.validate_margins(mach.lattice)
    assert report[1]["ok"]
    assert report[1]["lhs_log10"] == pytest.approx(np.log10(2) - 4.0)
    with pytest.raises(LadderError):
        AlmostProjection(mach.spec, mach.lattice, ConstantLadder.explicit(3))


def test_rho_flat_trace_identity_region():
    mach = default_machinery(1, 2)
    q = np.array([0.999, 1.001])
    # |z| to the diagonal is 1.41e-3 > 2 sqrt(c1) = 2e-4 and |q| > 2 sqrt(c0)
    assert np.array_equal(mach.rho_flat(q), q)


def test_rho_flat_trace_snap():
    mach = default_machinery(1, 2)
    q = np.array([1 - 5e-9, 1 + 5e-9])
    assert np.allclose(mach.rho_flat(q), [1.0, 1.0], atol=1e-12)
    assert np.allclose(mach.rho_flat(np.zeros(2)), 0.0)


def test_rho_flat_trace_radial_regime():
    mach = default_machinery(1, 2)
    q = np.array([1 - 1e-5, 1 + 1e-5])
    base = np.array([1.0, 1.0])
    expect = base + phi_tau(q - base, 2 * mach.ladder.ck(1))
    assert np.allclose(mach.rho_flat(q), expect, atol=1e-14)


def test_rho_flat_rejects_off_image():
    mach = default_machinery(1, 2)
    with pytest.raises(NotOnImageError):
        mach.rho_flat(np.array([1.0, 0.0]))


def test_rho_flat_image_and_displacement():
    rng = np.random.default_rng(7)
    for (n, q) in ((1, 2), (2, 2)):
        mach = default_machinery(n, q)
        pts = []
        for _ in range(200):
            t = random_qpoint(rng, q, n, cluster=float(rng.choice([0.0, 0.01, 1e-6])))
            pts.append(xi(mach.spec, t))
        pts = np.asarray(pts)
        out = mach.rho_flat(pts)
        resid = mach.residual_on_image(out)
        assert resid.max() < 1e-7 * (1 + np.linalg.norm(out, axis=1)).max()
        disp = np.linalg.norm(out - pts, axis=1)
        assert disp.max() <= 4.0 * mach.ladder.ck(0)


def test_rho_flat_fixes_far_points():
    rng = np.random.default_rng(9)
    mach = default_machinery(1, 2)
    c0, c1 = mach.ladder.ck(0), mach.ladder.ck(1)
    kept = 0
    for _ in range(200):
        v = xi(mach.spec, random_qpoint(rng, 2, 1))
        if (np.linalg.norm(v) > 2 * np.sqrt(c0)
                and mach.lattice.skeleton_distance(v, 1) > 2 * np.sqrt(c1)):
            kept += 1
            assert np.array_equal(mach.rho_flat(v), v)
    assert kept > 50


def test_rho_flat_small_tuples_collapse():
    mach = default_machinery(2, 2)
    t = QPoint([[0.02, 0.01], [-0.01, 0.03]])
    v = xi(mach.spec, t)
    assert np.linalg.norm(v) <= mach.ladder.ck(0)
    assert np.allclose(mach.rho_flat(v), 0.0)


def test_rho_flat_lipschitz_sample():
    rng = np.random.default_rng(11)
    mach = default_machinery(1, 2)
    c0 = mach.ladder.ck(0)
    worst = 0.0
    for _ in range(300):
        t = random_qpoint(rng, 2, 1)
        a = xi(mach.spec, t)
        b = xi(mach.spec, QPoint(t.points + rng.normal(size=(2, 1)) * 1e-3))
        d = np.linalg.norm(a - b)
        if d < 1e-12:
            continue
        worst = max(worst, np.linalg.norm(mach.rho_flat(a) - mach.rho_flat(b)) / d)
    assert worst <= 1 + 5 * np.sqrt(c0)


def test_rho_sharp_projection_case():
    mach = default_machinery(1, 2)
    out = mach.rho_sharp(np.array([1.0005, 0.9995]))
    assert np.allclose(out, [1.0, 1.0], atol=1e-10)


def test_rho_sharp_on_image_equals_flat():
    rng = np.random.default_rng(13)
    mach = default_machinery(1, 2)
    for _ in range(30):
        v = xi(mach.spec, random_qpoint(rng, 2, 1))
        assert np.allclose(mach.rho_sharp(v), mach.rho_flat(v), atol=1e-12)
    v = np.array([0.3, 1.2])
    assert np.array_equal(mach.rho_sharp(v), v)


def test_rho_sharp_zero_ball():
    mach = default_machinery(1, 2)
    out = mach.rho_sharp(np.array([0.05, -0.03]))  # off-cone but |x| <= delta
    assert np.array_equal(out, np.zeros(2))


def test_rho_sharp_outside_raises():
    mach = default_machinery(1, 2)
    with pytest.raises(OutsideNeighborhoodError):
        mach.rho_sharp(np.array([5.0, -5.0]))


def test_rho_sharp_gap_case():
    mach = default_machinery(1, 2)
    x = np.array([0.3001, 0.2999])  # off-cone, in the 1-skeleton tube,
    out = mach.rho_sharp(x)         # base too close to 0 for the plane case
    out2 = mach.rho_sharp(x)
    assert np.array_equal(out, out2)  # deterministic
    assert mach.residual_on_image(out)[0] < 1e-7
    ref = mach.rho_flat(np.array([0.3, 0.3]))
    assert np.linalg.norm(out - ref) < 0.01


def test_clamp_and_rho_star_far():
    mach = default_machinery(1, 2)
    x = np.array([10.0, -10.0])
    clamped = mach.clamp_to_neighborhood(x)
    # the widest tube is the delta-ball at the origin: clamp is radial and
    # lands a hair inside the boundary so membership re-tests stay stable
    r = np.linalg.norm(clamped)
    assert mach.ladder.delta * (1 - 1e-5) <= r <= mach.ladder.delta
    assert np.allclose(clamped / r, x / np.linalg.norm(x))
    out = mach.rho_star(x)
    assert mach.residual_on_image(out)[0] < 1e-7
    on = np.array([0.4, 0.9])
    assert np.array_equal(mach.clamp_to_neighborhood(on), on)


def test_rho_star_identities():
    mach = default_machinery(1, 2)
    assert np.allclose(mach.rho_star(np.zeros(2)), 0.0)
    rng = np.random.default_rng(17)
    pts = np.array([xi(mach.spec, random_qpoint(rng, 2, 1)) for _ in range(300)])
    out = mach.rho_star_batch(pts)
    disp = np.linalg.norm(out - pts, axis=1)
    assert disp.max() <= 10.0 * mach.ladder.ck(0)
    assert mach.residual_on_image(out).max() < 1e-6



def test_project_face_closure_examples():
    # the face closures rho_star projects onto, on the (1, 2) machinery
    lat = default_machinery(1, 2).lattice
    top = next(f for f in lat.faces if f.pattern == (((1, 2), 0, 3),))
    ray = next(f for f in lat.faces if f.pattern == (((1, 1), 0, 2),))
    _, p = lat.closure_distance(np.array([1.0, 0.5]), top, with_point=True)
    assert np.allclose(p, [0.75, 0.75])
    _, p = lat.closure_distance(np.array([-1.0, -1.0]), ray, with_point=True)
    assert np.allclose(p, [0.0, 0.0], atol=1e-12)
    inside = np.array([0.2, 0.7])
    d, p = lat.closure_distance(inside, top, with_point=True)
    assert d == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(p, inside)

# -- batched rho_flat ----------------------------------------------------------


def rho_flat_inputs(mach, rng, count):
    """xi images of tuples near every skeleton: each tuple is pulled toward
    its first point by a random factor per point and scaled by a random
    factor, so the snap, radial and identity regimes of each level occur."""
    n, q = mach.spec.dims.n, mach.spec.dims.q
    t = rng.normal(size=(count, q, n))
    t = t[:, :1] + 10.0 ** rng.uniform(-9.0, 0.0, size=(count, q, 1)) * (t - t[:, :1])
    return xi_batch(mach.spec, t * 10.0 ** rng.uniform(-1.5, 0.5, size=(count, 1, 1)))


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2)])
@settings(max_examples=4)
@given(data=st.data())
def test_rho_flat_batch_matches_one_row_and_permutation(n, q, data):
    mach = default_machinery(n, q)
    x = rho_flat_inputs(mach, np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1))), 16)
    batch = mach.rho_flat(x)
    assert np.array_equal(batch, np.stack([mach.rho_flat(v) for v in x]))
    perm = np.array(data.draw(st.permutations(range(len(x)))))
    assert np.array_equal(mach.rho_flat(x[perm]), batch[perm])


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2)])
@settings(max_examples=4)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rho_flat_lands_on_cone(n, q, seed):
    mach = default_machinery(n, q)
    x = rho_flat_inputs(mach, np.random.default_rng(seed), 16)
    out = mach.rho_flat(x)
    assert np.all(mach.residual_on_image(out) < 1e-7 * (1.0 + np.linalg.norm(x, axis=1)))
    assert np.linalg.norm(out - x, axis=1).max() <= 4.0 * mach.ladder.ck(0)


def test_rho_sharp_projection_region_of_a_padded_face(monkeypatch):
    """A dim-3 face of (2,2) with 4 constraint rows sits in a stack padded to
    5; the padded row must not count against the projection region, so the
    point takes the projection branch, not the Kirszbraun gap."""
    mach = default_machinery(2, 2)
    faces = mach.lattice.faces_of_dim(3)
    face = next(f for f in faces if len(f.cons) == 4)
    assert faces.cons.shape[1] == 5
    rng = np.random.default_rng(3)
    y = max(rng.normal(size=(200, 3)), key=lambda y: (face.cons @ y).min() / np.linalg.norm(y))
    assert (face.cons @ y).min() > 0.0
    p = face.basis @ y
    p *= 2.0 * mach.far_scale / mach.lattice.skeleton_distance(p, 2)
    z = rng.normal(size=p.shape)
    z -= face.basis @ (face.basis.T @ z)
    x = p + 1e-5 * z / np.linalg.norm(z)
    assert mach.tube_level(x) == 3
    assert mach.residual_on_image(x)[0] > 1e-9
    monkeypatch.setattr(mach, "_kirszbraun_gap", None)  # a gap row would fail
    assert np.allclose(mach.rho_sharp(x), face.basis @ (face.basis.T @ x),
                       rtol=0.0, atol=1e-14)


# -- batched rho_star ----------------------------------------------------------


def rho_star_inputs(mach, rng, count):
    """The four rho-star-eval populations: xi images moved along a random unit
    direction by 0, half the smallest tube, delta / 2 and 2 delta."""
    n, q = mach.spec.dims.n, mach.spec.dims.q
    delta = mach.ladder.delta
    rows = []
    for sigma in (0.0, 0.5 * delta ** (n * q + 1), 0.5 * delta, 2.0 * delta):
        on = xi_batch(mach.spec, rng.normal(size=(count, q, n)))
        noise = rng.normal(size=on.shape)
        rows.append(on + sigma * noise / np.linalg.norm(noise, axis=1, keepdims=True))
    return np.concatenate(rows)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2)])
@settings(max_examples=4)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rho_star_batch_matches_one_row(n, q, seed):
    mach = default_machinery(n, q)
    x = rho_star_inputs(mach, np.random.default_rng(seed), 3)
    batch = mach.rho_star_batch(x)
    one = np.stack([mach.rho_star(v) for v in x])
    tol = 1e-12 * (1.0 + np.linalg.norm(x, axis=1))
    assert np.all(np.linalg.norm(batch - one, axis=1) <= tol)


@pytest.mark.parametrize("n,q", [(1, 3), (2, 2)])
@settings(max_examples=4)
@given(data=st.data())
def test_rho_star_batch_commutes_with_row_permutation(n, q, data):
    mach = default_machinery(n, q)
    seed = data.draw(st.integers(0, 2 ** 32 - 1))
    x = rho_star_inputs(mach, np.random.default_rng(seed), 4)
    perm = np.array(data.draw(st.permutations(range(len(x)))))
    assert np.array_equal(mach.rho_star_batch(x[perm]), mach.rho_star_batch(x)[perm])


def gap_inputs(mach, rng, count):
    """Points 1e-5 to 3e-2 off the cone along the outward normal at the
    nearest point of a randomly moved cone point (rows the move left on the
    cone stay there): mostly near faces of lower dimension, inside their
    tubes, where many rows take the Kirszbraun gap."""
    n, q = mach.spec.dims.n, mach.spec.dims.q
    y = xi_batch(mach.spec, rng.normal(size=(count, q, n)))
    y += rng.normal(size=y.shape)
    near = mach.lattice.nearest_point_batch(y)[0]
    out = y - near
    sigma = 10.0 ** rng.uniform(-5.0, -1.5, size=(count, 1))
    return near + sigma * out / np.maximum(np.linalg.norm(out, axis=1, keepdims=True), 1e-300)


def record_gap_rows(monkeypatch, mach):
    """Patch mach so every row its Kirszbraun gap receives is kept in the
    returned list."""
    seen, gap = [], mach._kirszbraun_gap

    def recorder(x, *args):
        seen.append(x.copy())
        return gap(x, *args)

    monkeypatch.setattr(mach, "_kirszbraun_gap", recorder)
    return seen


def test_rho_star_gap_draws_no_random_numbers(monkeypatch):
    mach = default_machinery(2, 2)
    x = rho_star_inputs(mach, np.random.default_rng(1), 10)
    seen = record_gap_rows(monkeypatch, mach)

    def refuse(*args, **kwargs):
        raise AssertionError("rho_star drew random numbers")

    monkeypatch.setattr(np.random, "default_rng", refuse)
    out = mach.rho_star_batch(x)
    assert sum(map(len, seen)) > 0
    assert np.all(mach.residual_on_image(out) < 1e-7)


@pytest.mark.parametrize("n,q", [(1, 2), (1, 3), (2, 2)])
@settings(max_examples=4)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_rho_star_gap_on_cone_and_stable(n, q, seed):
    """On inputs that reach the gap, rho_star lands on the cone within
    criterion 04's displacement 10 c0, and a 1e-14 relative perturbation of
    the gap rows moves their images by at most 1e-10 relative."""
    mach = default_machinery(n, q)
    rng = np.random.default_rng(seed)
    x = gap_inputs(mach, rng, 64)
    with pytest.MonkeyPatch.context() as mp:
        seen = record_gap_rows(mp, mach)
        out = mach.rho_star_batch(x)
    assert np.all(mach.residual_on_image(out) < 1e-7)
    assert np.linalg.norm(out - x, axis=1).max() <= 10.0 * mach.ladder.ck(0)
    gap = np.concatenate(seen)
    assert len(gap)
    base = mach.rho_star_batch(gap)
    moved = mach.rho_star_batch(gap * (1.0 + 1e-14 * rng.uniform(-1.0, 1.0, gap.shape)))
    tol = 1e-10 * (1.0 + np.linalg.norm(base, axis=1))
    assert np.all(np.linalg.norm(moved - base, axis=1) <= tol)


def test_rho_star_batch_rejects_non_finite_rows():
    mach = default_machinery(1, 2)
    x = np.array([[0.3, 0.4], [np.nan, 0.1], [np.inf, 0.0]])
    with pytest.raises(ValueError, match="2 of 3 input rows are not finite"):
        mach.rho_star_batch(x)
    with pytest.raises(ValueError, match="not finite"):
        mach.rho_star(np.array([-np.inf, 1.0]))


# sigma, max_input_dist, max_residual, max_displacement, mean_displacement
RHO_STAR_EVAL_22 = [
    (0.0, 6.532886618304434e-16, 4.981836190663649e-16, 6.532886618304434e-16,
     3.46475476778195e-16),
    (5.000000000000001e-06, 4.676331995115975e-06, 6.294154347968077e-16,
     4.676331995128318e-06, 2.8287298691693155e-06),
    (0.05, 0.04318008765692402, 5.566117825975771e-16, 0.04318008765692406,
     0.0302947235423414),
    (0.2, 0.17936616272229455, 8.331297329690976e-16, 0.17936616272229458,
     0.10937129266616415),
]
# the same columns on (1,3), seed 1, 40 samples per population
RHO_STAR_EVAL_13 = [
    (0.0, 0.0, 0.0, 0.0, 0.0),
    (5.000000000000001e-05, 0.0, 0.0, 0.0, 0.0),
    (0.05, 0.030323997187676904, 0.0, 0.030323997187676824, 0.0017140907135242815),
    (0.2, 0.09588988717716619, 0.0, 0.09588988717716623, 0.004715659160279968),
]
# gap, E of build_competitor(w32_current(2 ** -3, res=65, radius4=1), beta1=0.1)
COMPETITOR_K3 = (0.0, 0.3750000000000002)
# lhs, near, far, C_far
ENERGY_SPLIT_22 = [
    (1.375327112943233, 1.3753271129432332, 0.0, 0.0),
    (1.3753791617762967, 0.00709426235347565, 1.3682859174380586, 0.9219858582705756),
]


def test_rho_star_snapshot_plane_two(tmp_path):
    """rho-star-eval and energy-split rows on (2,2), seed 1.  Values at the
    rounding level (residuals, on-cone distances) are pinned absolutely."""
    def check(rows, want, keys):
        assert len(rows) == len(want)
        for row, ref in zip(rows, want):
            for key, value in zip(keys, ref):
                assert row[key] == pytest.approx(value, rel=1e-12, abs=1e-14)

    assert cli.main(["rho-star-eval", "--n", "2", "--q", "2", "--seed", "1",
                     "--samples", "10", "--out", str(tmp_path / "r")]) == 0
    rows = json.loads((tmp_path / "r" / "rho-star.json").read_text())["rows"]
    check(rows, RHO_STAR_EVAL_22, ("sigma", "max_input_dist", "max_residual",
                                   "max_displacement", "mean_displacement"))
    assert cli.main(["probe", "energy-split", "--n", "2", "--q", "2", "--res", "9",
                     "--seed", "1", "--out", str(tmp_path / "e")]) == 0
    blob = json.loads((tmp_path / "e" / "probe-energy-split.json").read_text())
    check(blob["report"]["rows"], ENERGY_SPLIT_22, ("lhs", "near", "far", "C_far"))


def _check_rows(rows, want, keys):
    assert len(rows) == len(want)
    for row, ref in zip(rows, want):
        for key, value in zip(keys, ref):
            assert row[key] == pytest.approx(value, rel=1e-12, abs=1e-14)


def test_rho_star_snapshot_line_three(tmp_path):
    assert cli.main(["rho-star-eval", "--n", "1", "--q", "3", "--seed", "1",
                     "--samples", "40", "--out", str(tmp_path)]) == 0
    rows = json.loads((tmp_path / "rho-star.json").read_text())["rows"]
    _check_rows(rows, RHO_STAR_EVAL_13, ("sigma", "max_input_dist", "max_residual",
                                         "max_displacement", "mean_displacement"))


def test_competitor_snapshot_k3():
    T = cu.w32_current(2.0 ** -3, res=65, radius4=1.0)
    rep = cu.build_competitor(T, beta1=0.1)[1]
    _check_rows([rep], [COMPETITOR_K3], ("gap", "E"))
