"""Alternating Dirichlet solver benchmarks and the estimate probes.

Closed-form anchors: the harmonic extension of Re z has energy pi on B_1;
the two-valued square-root branch has energy 2 pi (integral of 1/|z|); the
low-density integrand of the branched dilation family scales like the
excess power predicted by its explicit densities.
"""
import math

import numpy as np
import pytest

from conftest import constant_field

from qlip import currents as cu
from qlip import probes as pb
from qlip import qfield as qf
from qlip.embed import xi_batch
from qlip.qspace import QPoint
from qlip.roproj import default_machinery


def _sqrt_trace(p):
    w = complex(p[0], p[1])
    v = w ** 0.5
    return np.array([[v.real, v.imag], [-v.real, -v.imag]])


def test_dirmin_constant_boundary():
    f, rep = pb.solve_dir_minimizer(
        lambda p: np.array([[0.3], [-0.4]]), res=33, q=2, n=1, starts=3)
    assert rep["energy"] <= 1e-18
    assert rep["converged"]
    assert np.allclose(f.values[..., 0, 0], 0.3)


def test_dirmin_harmonic_re_z():
    f, rep = pb.solve_dir_minimizer(
        lambda p: np.array([[p[0]]]), res=65, q=1, n=1)
    assert abs(rep["energy"] - math.pi) <= 0.02 * math.pi
    assert rep["converged"]


def test_dirmin_sqrt_branch():
    f, rep = pb.solve_dir_minimizer(_sqrt_trace, res=65, q=2, n=2)
    assert abs(rep["energy"] - 2 * math.pi) <= 0.05 * 2 * math.pi
    # the sheets collide at the grid origin: branch pinned to the center cell
    assert rep["branch_offset"] < 2 * rep["spacing"]
    # at least two starts reach the same basin: the minimum is reproduced,
    # while individual random starts may stall higher
    two_best = sorted(rep["start_energies"])[:2]
    assert two_best[1] - two_best[0] <= 1e-9
    hist = rep["history"]
    assert all(a - b >= -1e-12 for a, b in zip(hist, hist[1:]))


def _cube_root_trace(p):
    w = complex(p[0], p[1]) ** (1.0 / 3.0)
    return np.array([[(w * np.exp(2j * np.pi * k / 3)).real] for k in range(3)])


@pytest.mark.parametrize("trace, q, n", [(_sqrt_trace, 2, 2),
                                         (_cube_root_trace, 3, 1)])
def test_dirmin_energy_is_the_matched_energy(trace, q, n):
    """The sweep scores each rematch by its edge costs; that score is the
    matched Dirichlet energy of the returned field."""
    f, rep = pb.solve_dir_minimizer(trace, res=33, q=q, n=n, starts=3)
    want = qf.dirichlet_energy(f, rep["weights"])
    assert rep["energy"] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep["history"][-1] == rep["energy"]


def test_dirmin_relabeling_invariance():
    def swapped(p):
        return _sqrt_trace(p)[::-1]

    _, rep0 = pb.solve_dir_minimizer(_sqrt_trace, res=33, q=2, n=2, starts=2)
    _, rep1 = pb.solve_dir_minimizer(swapped, res=33, q=2, n=2, starts=2)
    assert abs(rep0["energy"] - rep1["energy"]) <= 1e-9


def test_dirmin_local_optimality():
    f, rep = pb.solve_dir_minimizer(_sqrt_trace, res=33, q=2, n=2, starts=4)
    worst, base = pb.local_optimality_trials(
        f, rep["pinned"], rep["weights"], trials=40, seed=5)
    assert worst >= -1e-10
    assert abs(base - rep["energy"]) <= 1e-12


def test_reverse_holder_constant():
    f = constant_field(qf.square(1.2), 49, QPoint([[0.1, 0.2]]))
    rep = pb.reverse_holder_probe(f, radius=1.2)
    assert rep.passed
    assert rep.fits["C"] == 1.0


def test_reverse_holder_harmonic_and_branch():
    f, _ = pb.solve_dir_minimizer(lambda p: np.array([[p[0]]]),
                                  res=65, q=1, n=1)
    rep = pb.reverse_holder_probe(f)
    assert 0.8 <= rep.fits["C"] <= 1.2

    g65, _ = pb.solve_dir_minimizer(_sqrt_trace, res=65, q=2, n=2, starts=4)
    r65 = pb.reverse_holder_probe(g65)
    g33, _ = pb.solve_dir_minimizer(_sqrt_trace, res=33, q=2, n=2, starts=4)
    r33 = pb.reverse_holder_probe(g33)
    assert r65.fits["C"] <= 3.0 and r33.fits["C"] <= 3.0
    assert abs(r65.fits["C"] - r33.fits["C"]) <= 0.4 * r33.fits["C"]


def test_reverse_holder_centres_follow_the_domain():
    # the same node values on a ball moved off the origin give the same rows
    f = qf.from_callable(qf.ball(1.0), 33,
                         lambda p: np.array([[p[0] ** 2 + 0.5 * p[1]]]),
                         q=1, n=1)
    moved = qf.QGridFunction(qf.ball(1.0, center=(0.5, 0.0)), 33, f.values)
    assert np.array_equal(moved.mask, f.mask)
    rows = pb.reverse_holder_probe(f).rows
    assert [row["centers"] for row in rows] == [149]
    assert pb.reverse_holder_probe(moved).rows == rows


def test_reverse_holder_fits_populated_rows_only():
    f = qf.from_callable(qf.square(1.0), 65,
                         lambda p: np.array([[p[0] ** 4]]), q=1, n=1)
    rep = pb.reverse_holder_probe(f)
    assert [row["radius"] for row in rep.rows] == [0.125, 0.25]
    assert all(row["centers"] > 0 for row in rep.rows)
    assert rep.fits["C"] == max(row["max_ratio"] for row in rep.rows)
    assert 0.9 < rep.fits["C"] < 0.95
    # a radius whose 2r-balls all leave the domain keeps no centre
    with pytest.raises(ValueError, match="centre"):
        pb.reverse_holder_probe(f, radii=[0.5])


def test_reverse_holder_empty_row_has_no_ratio():
    f = qf.from_callable(qf.ball(1.0), 65,
                         lambda p: np.array([[p[0] ** 4]]), q=1, n=1)
    rep = pb.reverse_holder_probe(f, radii=[0.125, 0.5])
    assert rep.rows[1] == {"radius": 0.5, "max_ratio": None, "centers": 0}
    assert rep.rows[0]["centers"] > 0
    assert rep.fits["C"] == rep.rows[0]["max_ratio"]


def test_reverse_holder_rejects_big_radius():
    f = constant_field(qf.square(1.0), 33, QPoint([[0.0]]))
    with pytest.raises(ValueError):
        pb.reverse_holder_probe(f, radii=[0.8], radius=1.0)
    # with h = 1/8 even the smallest default radius 4h = 1/2 has
    # 2r + h > 1, so the grid, not a radius, is named as the cause
    coarse = constant_field(qf.square(1.0), 17, QPoint([[0.0]]))
    with pytest.raises(ValueError) as err:
        pb.reverse_holder_probe(coarse)
    assert str(err.value) == ("grid too coarse for the default radii 4h, 8h, "
                              "16h: h = 0.125, and even 4h needs 2r + h <= "
                              "radius = 1")


def test_gradient_lp_probe_w32():
    rep = pb.gradient_lp_probe(res=65)
    assert rep.passed
    assert rep.fits["ratio_spread"] <= 1.5
    assert abs(rep.fits["lhs_exponent"] - 1.25) <= 0.15
    assert all(row["lhs"] > 0 for row in rep.rows)


def test_gradient_lp_probe_flat_vacuous():
    rep = pb.gradient_lp_probe(
        scales=(0.1, 0.2, 0.3, 0.4),
        factory=lambda lam: cu.flat_current(q=2, n=1, res=33, radius4=4.0))
    assert rep.passed
    assert all(row["ratio"] == 1.0 for row in rep.rows)


def test_probe_exponents_come_from_the_config():
    rep = pb.gradient_lp_probe(
        scales=(0.1, 0.2, 0.3, 0.4),
        factory=lambda lam: cu.flat_current(q=2, n=1, res=33, radius4=4.0),
        config=pb.ProbeConfig(p1=1.4))
    assert rep.fits["p1"] == 1.4
    f = qf.from_callable(qf.square(1.0), 33,
                         lambda p: np.array([[p[0] ** 4]]), q=1, n=1)
    default = pb.reverse_holder_probe(f)
    rep = pb.reverse_holder_probe(f, config=pb.ProbeConfig(p11=1.2))
    assert rep.fits["p11"] == 1.2 and default.fits["p11"] == 1.5
    assert rep.rows != default.rows
    with pytest.raises(ValueError, match="p11"):
        pb.reverse_holder_probe(f, config=pb.ProbeConfig(p11=2.5))


def test_excess_probes_w32():
    T = cu.w32_current(2.0 ** -6, res=65, radius4=1.0)
    rep = pb.excess_probes(T)
    assert rep.passed
    assert rep.fits["weak_max_ratio"] <= 0.2
    assert rep.fits["gamma"] > 0.0
    assert rep.fits["C"] < math.inf


def test_excess_probes_spike_negative_control():
    sp = cu.Spike((0.2, 0.1), 0.03, 0.05)
    T = cu.flat_current(q=2, n=1, res=65, radius4=1.0, spikes=(sp,))
    rep = pb.excess_probes(T)
    assert not rep.passed
    assert rep.fits["weak_max_ratio"] > 0.2
    assert "negative control" in rep.notes
    kinds = {row["kind"] for row in rep.rows}
    assert "spike-control" in kinds


def test_harmonic_probe_flat_zero():
    rep = pb.harmonic_approx_probe(
        scales=(0.1, 0.2),
        factory=lambda lam: cu.flat_current(q=2, n=1, res=49, radius4=1.0))
    assert rep.passed
    for row in rep.rows:
        assert row["g2_norm"] <= 1e-12
        assert row["gradgap_norm"] <= 1e-12
        assert row["mean_norm"] <= 1e-12


def test_harmonic_probe_w32_sweep():
    rep49 = pb.harmonic_approx_probe(scales=(2.0 ** -4, 2.0 ** -6), res=49)
    assert rep49.passed
    for row in rep49.rows:
        assert row["g2_norm"] <= 0.1
    # the residual is discretization, not estimate failure: refine and shrink
    rep97 = pb.harmonic_approx_probe(scales=(2.0 ** -4,), res=97)
    assert (rep97.fits["worst_normalized"]
            <= 0.6 * rep49.fits["worst_normalized"])


def test_persistence_probe_w32():
    rep = pb.persistence_probe(s_list=(0.05, 0.1, 0.2))
    assert rep.passed
    for row in rep.rows:
        want = 4 * math.pi * row["s"] ** 5 / 5
        assert abs(row["lhs"] - want) <= 0.03 * want
    assert rep.fits["s_exponent"] >= 4.0


def test_persistence_probe_density_guard():
    # a double flat sheet at distinct heights has no full-density point
    def factory(radius4):
        return cu.flat_current(q=2, n=1, heights=[[0.3], [-0.3]],
                               res=49, radius4=radius4)

    with pytest.raises(ValueError):
        pb.persistence_probe(s_list=(0.1,), factory=factory)


def test_energy_split_probe():
    # (n, q) = (2, 2): the image cone has positive codimension, so the
    # perturbed field genuinely leaves it and the far bucket is exercised
    mach = default_machinery(2, 2)

    def fn(p):
        a = 0.2 * math.sin(2.0 * p[0]) + 0.1 * p[1]
        return np.array([[a, 0.1 * p[1]],
                         [a + 0.5, 0.2 + 0.1 * math.cos(p[0])]])

    f = qf.from_callable(qf.square(1.0), 25, fn, q=2, n=2)
    emb = xi_batch(mach.spec, f.values.reshape(-1, 2, 2))
    emb = emb.reshape(25, 25, -1)
    h = f.spacing
    x, y = np.meshgrid(*f.axes(), indexing="ij")
    wob = np.stack([np.sin((i + 2.0) * x + i) * np.cos((i % 3 + 1.0) * y)
                    for i in range(emb.shape[-1])], axis=-1)
    thresh = mach.ladder.delta ** 5
    fields = [(emb, h, None), (emb + 3.0 * thresh * wob, h, None)]
    rep = pb.energy_split_probe(mach, fields)
    assert rep.passed
    assert rep.rows[0]["far"] <= 1e-12
    assert rep.rows[1]["far"] > 0


def test_probe_config_validation():
    pb.ProbeConfig().validate()
    with pytest.raises(ValueError):
        pb.ProbeConfig(p1=1.6).validate()
    with pytest.raises(ValueError):
        pb.ProbeConfig(p11=0.8).validate()
    with pytest.raises(ValueError):
        pb.ProbeConfig(beta=0.3).validate()
    with pytest.raises(ValueError):
        pb.ProbeConfig(scales=(0.1, 0.2)).validate()


def test_probe_report_serialization():
    rep = pb.ProbeReport("demo", [{"scale": 0.5, "lhs": 1.0, "rhs": 2.0}],
                         {"C": 0.5}, True, "note")
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "scale,lhs,rhs"
    assert len(csv.splitlines()) == 2
