"""Snapshot of the grid and current maths: matched energies, energy
density, the embedded energy, the grid-path excess field, mass and excess
with spikes, the BV functional and the Dirichlet solver history.

The values were computed before the matching, edge-walk, cell-average and
spike-overlap code was folded into one helper each; a refactor of those
helpers must reproduce them to rel 1e-13.

The disk averages (maximal function, reverse-Hoelder means, mollification)
are pinned exactly: they were computed before the disk kernel, the masked
kernel mean and the convolution call were each folded into one routine.
"""
import hashlib

import numpy as np
import pytest

from conftest import _sqrt_trace
from qlip import currents as cu
from qlip import probes as pb
from qlip import qfield as qf
from qlip.embed import xi_batch
from qlip.roproj import default_machinery

REL = 1e-13


def _close(got, want):
    assert got == pytest.approx(want, rel=REL, abs=0.0)


def _sheets(seed, q, n, res):
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(np.linspace(-1, 1, res), np.linspace(-1, 1, res),
                       indexing="ij")
    vals = np.empty((res, res, q, n))
    for j in range(q):
        for i in range(n):
            c = rng.normal(size=4)
            vals[..., j, i] = (c[0] + c[1] * x + c[2] * y
                               + 0.3 * np.sin(c[3] * x * y + j))
    return vals


def test_matched_energy_snapshot():
    bank = qf.QGridFunction(qf.ball(1.0), 17, _sheets(1, 3, 2, 17))
    fallback = qf.QGridFunction(qf.square(1.0), 9, _sheets(2, 7, 1, 9))
    w = qf.disk_weights(bank, (0.1, -0.2), 0.7)
    _close(qf.dirichlet_energy(bank), 11.616080258595211)
    _close(qf.dirichlet_energy(bank, weights=w), 6.227211220525795)
    _close(qf.dirichlet_energy(fallback), 34.193567801147914)
    _close(float(qf.energy_density(bank).sum()), 815.2158311539908)
    _close(float(qf.energy_density(fallback).sum()), 697.2266141755689)


def test_embedded_energy_snapshot():
    spec = default_machinery(1, 2).spec
    f = qf.QGridFunction(qf.ball(1.0), 17, _sheets(3, 2, 1, 17))
    w = qf.disk_weights(f, (0.1, -0.2), 0.7)
    emb = xi_batch(spec, f.values)
    _close(qf.dirichlet_energy_embedded(emb, f.spacing, mask=f.mask),
           29.86883471169494)
    _close(qf.dirichlet_energy_embedded(emb, f.spacing, mask=f.mask,
                                        weights=w), 15.853051415846668)
    _close(qf.dirichlet_energy(f), 29.86883471169494)


def _psi(v):
    return 0.6 * np.abs(v[..., 0]) + 0.8 * np.sqrt(v[..., 1] ** 2 + 0.01)


def _planar_spike_current():
    T = cu.w32_current(0.25, res=33, radius4=1.0)
    spikes = (cu.Spike((0.3, 0.2), 0.05, 0.008),
              cu.Spike((-0.25, 0.1), 0.02, 0.003,
                       values=((0.1, 0.0), (-0.1, 0.2))))
    return cu.GraphCurrent(T.base, (0.0, 0.0), 1.0, spikes=spikes)


def test_planar_current_snapshot():
    G = _planar_spike_current()
    ex = cu.ExcessField(G)
    _close(float(ex.density.sum()), 526.8331851049206)
    _close(float((ex.density ** 2).sum()), 396.83522759854907)
    _close(float(ex.graph_density.sum()), 524.0171851049206)

    _, rep = cu.mass_and_excess(G)
    for key, want in (("mass", 7.7580059963465535),
                      ("excess", 1.4748206891669673),
                      ("energy", 4.081581724442959),
                      ("remainder", -0.5659701730545121),
                      ("spike_mass", 0.011)):
        _close(rep[key], want)
    _, rep = cu.mass_and_excess(G, ("ball", (0.2, 0.1), 0.45))
    for key, want in (("mass", 1.5297649563948368),
                      ("excess", 0.25741993169097044),
                      ("energy", 0.49779164093411415),
                      ("spike_mass", 0.009466833717848958)):
        _close(rep[key], want)
    _, rep = cu.mass_and_excess(G, qf.disk_weights(G.base, (0.0, 0.1), 0.6))
    for key, want in (("mass", 2.7897750169627815),
                      ("area", 1.1298828125),
                      ("excess", 0.5300093919627815),
                      ("energy", 1.0383039423243585),
                      ("spike_mass", 0.011)):
        _close(rep[key], want)
    first, second = cu.excess_two_ways(G, (0.1, 0.1), 0.36)
    _close(first, 0.13058723406460793)
    _close(second, 0.13058723406460793)

    _, reports = cu.bv_functional(G, _psi)
    for rep, want in zip(reports, (0.07795430840036244, 0.4958124556893492,
                                   1.496279763758217, 2.8595896924220243)):
        _close(rep["tv"], want)


def test_line_current_snapshot():
    res = 33
    xs = np.linspace(-1, 1, res)
    vals = np.stack([np.stack([0.3 * xs ** 2, np.sin(xs)], -1),
                     np.stack([-0.2 * xs, 0.1 + 0.0 * xs], -1)], axis=1)
    base = qf.QGridFunction(qf.GridDomain("square", (0.0,), 1.0), res, vals)
    G = cu.GraphCurrent(base, (0.0,), 1.0,
                        spikes=(cu.Spike((0.2,), 0.05, 0.004),))
    _, rep = cu.mass_and_excess(G, np.ones(res))
    _close(rep["mass"], 4.755248708038791)
    _close(rep["excess"], 0.6302487080387911)
    _close(rep["energy"], 1.7575833943277313)
    first, second = cu.excess_two_ways(G, (0.0,), 0.5)
    _close(first, 0.4148393687543515)
    _close(second, 0.41483936875435157)
    _, reports = cu.bv_functional(
        G, _psi, regions=[np.ones(res), np.linspace(0, 1, res)])
    _close(reports[0]["tv"], 1.795827404495256)
    _close(reports[1]["tv"], 0.897913702247628)


def test_dirichlet_solver_snapshot():
    _, rep = pb.solve_dir_minimizer(_sqrt_trace, res=17, starts=2, seed=0)
    # start 0, the self-start, ends lowest; start 1 is seed 0's random draw
    want = [5.8322604272773475, 5.8322604272773475]
    assert len(rep["history"]) == len(want)
    for got, exp in zip(rep["history"], want):
        _close(got, exp)
    for got, exp in zip(rep["start_energies"],
                        [5.8322604272773475, 7.243460616999068]):
        _close(got, exp)


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype="<f8").tobytes())
    return h.hexdigest()


def _two_sheets(p):
    x, y = p[..., 0], p[..., 1]
    return np.stack([np.sin(2 * x) + 0.5 * y, 2.0 + np.cos(x + y)],
                    axis=-1)[..., None]


def test_maximal_excess_pinned():
    M, info = cu.maximal_excess(cu.w32_current(0.125, res=65))
    assert M.shape == (65, 65)
    assert info["radii"] == [0.03125 * k for k in range(1, 9)] + [0.5]
    assert _digest(M) == (
        "b355f3eca8462f02301a4a6ed710163861b17d3b7272b5f1e05c9cddd76e80a9")
    assert _digest(info["finest"]) == (
        "be01760db8835a5da8262c56ea84e7e985aada2774565e7b12ddae3925f43f04")


def test_reverse_holder_rows_pinned():
    f = qf.from_callable(qf.ball(1.0), 65, _two_sheets)
    rep = pb.reverse_holder_probe(f)
    assert rep.rows == [
        {"radius": 0.125, "max_ratio": 1.0178215431153752, "centers": 1653},
        {"radius": 0.25, "max_ratio": 1.0653234448447773, "centers": 709}]


def test_mollify_embedded_pinned():
    f = qf.from_callable(qf.square(1.0), 49, _two_sheets)
    emb, w = qf.mollify_embedded(f, 4 * f.spacing, default_machinery(1, 2))
    assert emb.shape == (49, 49, 2)
    assert _digest(emb) == (
        "75fa26240378c4276ac9160d8c9a8ee313649a2c9e6edc3c1b5710bbd92d954f")
    assert _digest(w) == (
        "dde77f959d23e81ffe552c8ff957c14d5cd1211d8f288d40f94b1a973cbe84e2")
