"""Alternating Dirichlet solver benchmarks and the estimate probes.

Closed-form anchors: the harmonic extension of Re z has energy pi on B_1;
the two-valued square-root branch has energy 2 pi (integral of 1/|z|); the
low-density integrand of the branched dilation family scales like the
excess power predicted by its explicit densities.
"""
import math
import warnings

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
    v = np.sqrt(p[..., 0] + 1j * p[..., 1])
    sheet = np.stack([v.real, v.imag], axis=-1)
    return np.stack([sheet, -sheet], axis=-2)


def test_dirmin_constant_boundary():
    f, rep = pb.solve_dir_minimizer(
        lambda p: np.broadcast_to([[0.3], [-0.4]], p.shape[:-1] + (2, 1)),
        res=33, starts=3)
    assert rep["energy"] <= 1e-18
    assert rep["converged"]
    assert np.allclose(f.values[..., 0, 0], 0.3)


def test_dirmin_harmonic_re_z():
    f, rep = pb.solve_dir_minimizer(lambda p: p[..., None, :1], res=65)
    assert abs(rep["energy"] - math.pi) <= 0.02 * math.pi
    assert rep["converged"]


def test_dirmin_sqrt_branch():
    f, rep = pb.solve_dir_minimizer(_sqrt_trace, res=65, starts=4)
    assert abs(rep["energy"] - 2 * math.pi) <= 0.05 * 2 * math.pi
    # the sheets collide at the grid origin: branch pinned to the center cell
    assert rep["branch_offset"] < 2 * rep["spacing"]
    # the self-start (start 0) ties or beats every random start
    energies = rep["start_energies"]
    assert energies[0] <= min(energies) + pb._SWEEP_TOL
    hist = rep["history"]
    assert all(a - b >= -1e-12 for a, b in zip(hist, hist[1:]))


def test_dirmin_extra_starts_keep_the_self_start():
    """Random starts that land in the self-start's basin end lower by a few
    ulps at most; they must not replace it, so the field is the same at
    every seed."""
    f1, _ = pb.solve_dir_minimizer(_sqrt_trace, res=49)
    for seed in range(6):
        f4, _ = pb.solve_dir_minimizer(_sqrt_trace, res=49, starts=4,
                                       seed=seed)
        assert np.array_equal(f4.values, f1.values)


def _cube_roots(p):
    w = (p[..., 0] + 1j * p[..., 1]) ** (1.0 / 3.0)
    return w[..., None] * np.exp(2j * np.pi * np.arange(3) / 3)


def _cube_root_trace(p):
    return _cube_roots(p).real[..., None]


def _complex_cube_root_trace(p):
    w = _cube_roots(p)
    return np.stack([w.real, w.imag], axis=-1)


def test_dirmin_complex_cube_root():
    """The three complex cube roots (q = 3, n = 2) have energy 2 pi on B_1,
    as the square roots do; a start that misses the branched basin ends
    near 10.9 at this res."""
    f, rep = pb.solve_dir_minimizer(_complex_cube_root_trace, res=65)
    assert (f.q, f.n) == (3, 2)
    assert rep["energy"] <= 5.8364
    assert abs(rep["energy"] - 2 * math.pi) <= 0.1 * 2 * math.pi
    assert rep["converged"]


@pytest.mark.parametrize("trace, q, n", [(_sqrt_trace, 2, 2),
                                         (_cube_root_trace, 3, 1)])
def test_dirmin_energy_is_the_matched_energy(trace, q, n):
    """The sweep scores each rematch by its edge costs; that score is the
    matched Dirichlet energy of the returned field, whose q and n are read
    off the trace's values."""
    f, rep = pb.solve_dir_minimizer(trace, res=33, starts=3)
    assert (f.q, f.n) == (q, n)
    want = qf.dirichlet_energy(f, rep["weights"])
    assert rep["energy"] == pytest.approx(want, rel=1e-12, abs=0.0)
    assert rep["history"][-1] == rep["energy"]


def test_dirmin_relabeling_invariance():
    def swapped(p):
        return _sqrt_trace(p)[..., ::-1, :]

    _, rep0 = pb.solve_dir_minimizer(_sqrt_trace, res=33, starts=2)
    _, rep1 = pb.solve_dir_minimizer(swapped, res=33, starts=2)
    assert abs(rep0["energy"] - rep1["energy"]) <= 1e-9


def test_dirmin_local_optimality():
    f, rep = pb.solve_dir_minimizer(_sqrt_trace, res=33, starts=4)
    worst, base = pb.local_optimality_trials(f, rep["pinned"], rep["weights"])
    assert worst >= -1e-10
    assert abs(base - rep["energy"]) <= 1e-12


def _covering_graph_solve(vals, pinned, a, b, w, pmat):
    """Reference: the frozen-matching solve over all q·N (node, sheet)
    unknowns.  Row (e, j) of the covering graph's signed incidence matrix
    joins sheet j at node a[e] (+1) to sheet pmat[e, j] at node b[e] (-1)."""
    from scipy import sparse
    from scipy.sparse.linalg import spsolve

    npts, q, n = vals.shape
    free = np.repeat(~pinned, q)
    rows = np.arange(len(a) * q)
    heads = (a[:, None] * q + np.arange(q)).ravel()
    tails = (b[:, None] * q + pmat).ravel()
    inc = sparse.csr_matrix(
        (np.repeat([1.0, -1.0], len(rows)),
         (np.tile(rows, 2), np.concatenate([heads, tails]))),
        shape=(len(rows), npts * q))
    lap = (inc.T @ sparse.diags(np.repeat(w, q)) @ inc).tocsr()[free]
    flat = vals.reshape(-1, n)
    sol = spsolve(lap[:, free].tocsc(), -(lap[:, ~free] @ flat[~free]))
    out = flat.copy()
    out[free] = np.reshape(sol, (-1, n))
    return out.reshape(vals.shape)


@pytest.mark.parametrize("q, n", [(1, 1), (2, 2), (3, 2)])
def test_split_solve_matches_the_covering_graph(q, n):
    """The mean solve plus the sum-zero solve under random matchings give
    the covering-graph solution on a res-17 disk."""
    rng = np.random.default_rng(10 * q + n)
    f = qf.from_callable(qf.square(1.375), 17,
                         lambda p: rng.normal(size=p.shape[:-1] + (q, n)))
    vals = f.values.reshape(-1, q, n)
    pinned = np.linalg.norm(f.nodes().reshape(-1, 2), axis=-1) >= 1.0
    weights = qf.disk_weights(f, (0.0, 0.0), 1.0)
    a, b, w = (np.concatenate(col)
               for col in zip(*qf.grid_edges(f.mask, weights, f.spacing)))
    eperm = rng.integers(math.factorial(q), size=len(a))
    want = _covering_graph_solve(vals, pinned, a, b, w,
                                 pb._perm_bank(q)[eperm])

    basis, rots = pb._sheet_basis(q)
    coords = np.einsum("ij,pjn->pin", basis, vals)
    coords[:, :1] = pb._solve_given_matchings(
        coords[:, :1], pinned, a, b, w, np.ones((len(a), 1, 1)))
    coords[:, 1:] = pb._solve_given_matchings(
        coords[:, 1:], pinned, a, b, w, rots[eperm])
    got = pb._from_sheet_coords(vals, ~pinned, basis, coords)
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + np.abs(want)))
    assert np.array_equal(got[pinned], vals[pinned])


@pytest.mark.parametrize("q", [1, 2, 3, 4])
def test_sheet_basis_splits_off_the_mean(q):
    basis, rots = pb._sheet_basis(q)
    assert np.allclose(basis @ basis.T, np.eye(q), atol=1e-15)
    assert np.allclose(basis[0], 1.0 / math.sqrt(q))
    perms = pb._perm_bank(q)
    hz = basis[1:]
    for perm, rot in zip(perms, rots):
        # P u has sum-zero coordinates R z when u has z
        pmat = np.eye(q)[perm]
        assert np.allclose(rot, hz @ pmat @ hz.T, atol=1e-15)
    assert np.array_equal(rots[0], np.eye(q - 1))  # bank row 0: identity


def _offset_sqrt_trace(p):
    shift = np.stack([p[..., 0] ** 2 - 0.5 * p[..., 1], p[..., 0] * p[..., 1]],
                     axis=-1)
    return _sqrt_trace(p) + shift[..., None, :]


def test_dirmin_mean_is_the_harmonic_extension_of_the_trace_mean():
    """The average of the minimizer is the scalar harmonic extension of the
    trace's average, and no start changes it."""
    f1, _ = pb.solve_dir_minimizer(_offset_sqrt_trace, res=33)
    scalar, _ = pb.solve_dir_minimizer(
        lambda p: _offset_sqrt_trace(p).mean(axis=-2, keepdims=True), res=33)
    mean = f1.values.mean(axis=-2)
    want = scalar.values[..., 0, :]
    assert np.all(np.abs(mean - want) <= 1e-12 * (1.0 + np.abs(want)))
    f4, _ = pb.solve_dir_minimizer(_offset_sqrt_trace, res=33, starts=4,
                                   seed=3)
    assert np.array_equal(f4.values.mean(axis=-2), mean)


def _always_resolving_minimizer(trace, res, starts, seed):
    """Reference: `solve_dir_minimizer`'s sweeps as they ran before the stop
    on an unchanged matching, solving again until the energy test stops
    them.  Returns (values, report, repeats): repeats counts the starts
    whose last sweep solved with the matching of the sweep before."""
    half = 1.0 + 3.0 * 2.0 / (res - 1)
    f = qf.from_callable(qf.square(half), res, trace)
    q, n = f.q, f.n
    nodes = f.nodes().reshape(-1, 2)
    pinned = np.linalg.norm(nodes, axis=-1) >= 1.0
    weights = qf.disk_weights(f, (0.0, 0.0), 1.0)
    a, b, w = (np.concatenate(col)
               for col in zip(*qf.grid_edges(f.mask, weights, f.spacing)))
    basis, rots = pb._sheet_basis(q)
    rng = np.random.default_rng(seed)
    trace_vals = f.values.reshape(-1, q, n)
    coords = np.einsum("ij,pjn->pin", basis, trace_vals)
    coords[:, :1] = pb._solve_given_matchings(coords[:, :1], pinned, a, b, w,
                                              np.ones((len(a), 1, 1)))
    best, start_energies, repeats = None, [], 0
    for start in range(starts):
        eperm = (rng.integers(len(rots), size=len(a)) if start
                 else pb.least_pairing(trace_vals[a], trace_vals[b])[1])
        history, solved, prev, converged = [], [], math.inf, False
        for _ in range(pb._MAX_SWEEPS):
            solved.append(eperm)
            coords[:, 1:] = pb._solve_given_matchings(
                coords[:, 1:], pinned, a, b, w, rots[eperm])
            vals = pb._from_sheet_coords(trace_vals, ~pinned, basis, coords)
            cost, eperm = pb.least_pairing(vals[a], vals[b])
            history.append(float(w @ cost))
            if prev - history[-1] < pb._SWEEP_TOL:
                converged = True
                break
            prev = history[-1]
        repeats += len(solved) > 1 and np.array_equal(solved[-1], solved[-2])
        if best is None or history[-1] < best[0] - pb._SWEEP_TOL:
            best = (history[-1], vals, history, converged)
        start_energies.append(history[-1])
    report = {"energy": best[0], "history": best[2],
              "start_energies": start_energies, "converged": best[3]}
    return best[1].reshape(f.values.shape), report, repeats


@pytest.mark.parametrize("trace, starts, seed", [
    (_sqrt_trace, 4, 3), (_complex_cube_root_trace, 2, 0)])
def test_stop_on_an_unchanged_matching_is_exact(trace, starts, seed,
                                                monkeypatch):
    """Stopping when rematching returns the matching just solved with gives
    the field and report of solving that sweep again, bit for bit, with one
    sparse solve fewer for each start that ends that way."""
    calls = []
    solve = pb.spsolve
    monkeypatch.setattr(pb, "spsolve",
                        lambda A, rhs: calls.append(1) or solve(A, rhs))
    want_vals, want, repeats = _always_resolving_minimizer(trace, 33, starts,
                                                           seed)
    want_calls = len(calls)
    calls.clear()
    f, rep = pb.solve_dir_minimizer(trace, res=33, starts=starts, seed=seed)
    assert np.array_equal(f.values, want_vals)
    for key, value in want.items():
        assert rep[key] == value, key
    assert repeats > 0
    assert len(calls) == want_calls - repeats


@pytest.mark.parametrize("q", [2, 3, 4])
def test_spd_solve_matches_the_general_solve(q, monkeypatch):
    """probes.spsolve (SPD: minimum-degree order of A + A^T, diagonal
    pivots) solves the mean and sum-zero Laplacians of random matchings on a
    res-33 disk as scipy's general sparse solve does, without a warning."""
    from scipy.sparse.linalg import spsolve as general_solve

    rng = np.random.default_rng(q)
    f = qf.from_callable(qf.square(1.1875), 33,
                         lambda p: rng.normal(size=p.shape[:-1] + (q, 2)))
    pinned = np.linalg.norm(f.nodes().reshape(-1, 2), axis=-1) >= 1.0
    weights = qf.disk_weights(f, (0.0, 0.0), 1.0)
    a, b, w = (np.concatenate(col)
               for col in zip(*qf.grid_edges(f.mask, weights, f.spacing)))
    basis, rots = pb._sheet_basis(q)
    coords = np.einsum("ij,pjn->pin", basis, f.values.reshape(-1, q, 2))
    systems = []
    solve = pb.spsolve
    monkeypatch.setattr(pb, "spsolve", lambda A, rhs:
                        systems.append((A, rhs)) or solve(A, rhs))
    pb._solve_given_matchings(coords[:, :1], pinned, a, b, w,
                              np.ones((len(a), 1, 1)))
    eperm = rng.integers(len(rots), size=len(a))
    pb._solve_given_matchings(coords[:, 1:], pinned, a, b, w, rots[eperm])
    assert [A.shape[0] for A, _ in systems] == [(~pinned).sum(),
                                               (q - 1) * (~pinned).sum()]
    for A, rhs in systems:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = solve(A, rhs)
        want = general_solve(A, rhs)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))


def test_spd_solve_raises_on_a_singular_system():
    from scipy import sparse

    with pytest.raises(RuntimeError, match="exactly singular"):
        pb.spsolve(sparse.csc_matrix(np.ones((2, 2))), np.ones(2))


def test_reverse_holder_constant():
    f = constant_field(qf.square(1.2), 49, QPoint([[0.1, 0.2]]))
    rep = pb.reverse_holder_probe(f, radius=1.2)
    assert rep.passed
    assert rep.fits["C"] == 1.0


def test_reverse_holder_harmonic_and_branch():
    f, _ = pb.solve_dir_minimizer(lambda p: p[..., None, :1], res=65)
    rep = pb.reverse_holder_probe(f)
    assert 0.8 <= rep.fits["C"] <= 1.2

    g65, _ = pb.solve_dir_minimizer(_sqrt_trace, res=65, starts=4)
    r65 = pb.reverse_holder_probe(g65)
    g33, _ = pb.solve_dir_minimizer(_sqrt_trace, res=33, starts=4)
    r33 = pb.reverse_holder_probe(g33)
    assert r65.fits["C"] <= 3.0 and r33.fits["C"] <= 3.0
    assert abs(r65.fits["C"] - r33.fits["C"]) <= 0.4 * r33.fits["C"]


def test_reverse_holder_centres_follow_the_domain():
    # the same node values on a ball moved off the origin give the same rows
    f = qf.from_callable(
        qf.ball(1.0), 33,
        lambda p: (p[..., 0] ** 2 + 0.5 * p[..., 1])[..., None, None])
    moved = qf.QGridFunction(qf.GridDomain("ball", (0.5, 0.0), 1.0), 33,
                             f.values)
    assert np.array_equal(moved.mask, f.mask)
    rows = pb.reverse_holder_probe(f).rows
    assert [row["centers"] for row in rows] == [149]
    assert pb.reverse_holder_probe(moved).rows == rows


def test_reverse_holder_fits_populated_rows_only():
    f = qf.from_callable(qf.square(1.0), 65,
                         lambda p: p[..., None, :1] ** 4)
    rep = pb.reverse_holder_probe(f)
    assert [row["radius"] for row in rep.rows] == [0.125, 0.25]
    assert all(row["centers"] > 0 for row in rep.rows)
    assert rep.fits["C"] == max(row["max_ratio"] for row in rep.rows)
    assert 0.9 < rep.fits["C"] < 0.95
    # res 20 has no node at the centre, and its one radius 4h = 8/19 keeps
    # only the nodes within 1 - 9h = 1/19 of it, less than the nearest
    # node's h / sqrt(2): no row has a centre
    no_centre = qf.from_callable(qf.square(1.0), 20,
                                 lambda p: p[..., None, :1] ** 4)
    with pytest.raises(ValueError, match="centre"):
        pb.reverse_holder_probe(no_centre)


def test_reverse_holder_empty_row_has_no_ratio():
    # res 36: h = 2/35, so r = 4h keeps centres, r = 8h keeps only nodes
    # within 1 - 17h = h / 2 of the centre, where there is none (the nearest
    # is h / sqrt(2) away), and 16h has 2r + h > 1
    f = qf.from_callable(qf.ball(1.0), 36,
                         lambda p: p[..., None, :1] ** 4)
    rep = pb.reverse_holder_probe(f)
    h = f.spacing
    assert rep.rows[1] == {"radius": 8 * h, "max_ratio": None, "centers": 0}
    assert rep.rows[0]["radius"] == 4 * h and rep.rows[0]["centers"] > 0
    assert len(rep.rows) == 2
    assert rep.fits["C"] == rep.rows[0]["max_ratio"]


def test_reverse_holder_rejects_big_radius():
    # with h = 1/8 even the smallest radius 4h = 1/2 has 2r + h > 1, so the
    # grid, not a radius, is named as the cause
    coarse = constant_field(qf.square(1.0), 17, QPoint([[0.0]]))
    with pytest.raises(ValueError) as err:
        pb.reverse_holder_probe(coarse)
    assert str(err.value) == ("grid too coarse for the radii 4h, 8h, 16h: "
                              "h = 0.125, and even 4h needs 2r + h <= "
                              "radius = 1")


def test_gradient_lp_probe_w32():
    rep = pb.gradient_lp_probe(res=65)
    assert rep.passed
    assert rep.fits["ratio_spread"] <= 1.5
    assert abs(rep.fits["lhs_exponent"] - 1.25) <= 0.15
    assert all(row["lhs"] > 0 for row in rep.rows)


def test_gradient_lp_probe_flat_vacuous():
    # the w32 current of scale 0 is a flat double plane
    rep = pb.gradient_lp_probe(scales=(0.0,), res=33)
    assert rep.passed
    assert all(row["ratio"] == 1.0 for row in rep.rows)


def test_probe_exponents_come_from_the_config():
    rep = pb.gradient_lp_probe(scales=(0.0,), res=33,
                               config=pb.ProbeConfig(p1=1.4))
    assert rep.fits["p1"] == 1.4
    f = qf.from_callable(qf.square(1.0), 33,
                         lambda p: p[..., None, :1] ** 4)
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
    # the w32 current of scale 0 is a flat double plane
    rep = pb.harmonic_approx_probe(scales=(0.0,), res=49)
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


def test_harmonic_probe_ignores_the_seed():
    """The probe's minimizer draws no random numbers, so its rows do not
    depend on the seed."""
    rows = [pb.harmonic_approx_probe(res=49,
                                     config=pb.ProbeConfig(seed=s)).rows
            for s in (0, 4)]
    assert rows[0] == rows[1]


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
        x, y = p[..., 0], p[..., 1]
        a = 0.2 * np.sin(2.0 * x) + 0.1 * y
        return np.stack([a, 0.1 * y, a + 0.5, 0.2 + 0.1 * np.cos(x)],
                        axis=-1).reshape(x.shape + (2, 2))

    f = qf.from_callable(qf.square(1.0), 25, fn)
    emb = xi_batch(mach.spec, f.values.reshape(-1, 2, 2))
    emb = emb.reshape(25, 25, -1)
    h = f.spacing
    x, y = np.meshgrid(*f.axes(), indexing="ij")
    wob = np.stack([np.sin((i + 2.0) * x + i) * np.cos((i % 3 + 1.0) * y)
                    for i in range(emb.shape[-1])], axis=-1)
    thresh = mach.ladder.delta ** 5
    fields = [(emb, h), (emb + 3.0 * thresh * wob, h)]
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


def test_probe_report_serialization():
    rep = pb.ProbeReport("demo", [{"scale": 0.5, "lhs": 1.0, "rhs": 2.0}],
                         {"C": 0.5}, True, "note")
    csv = rep.to_csv()
    assert csv.splitlines()[0] == "scale,lhs,rhs"
    assert len(csv.splitlines()) == 2
