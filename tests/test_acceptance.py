"""Acceptance gate: twelve end-to-end checks, one printed summary line each.

Every expected value is either a closed form on an explicit benchmark
(branched two-sheet current, square-root minimizer, flat planes) or a
property the construction guarantees (metric axioms, short embeddings,
retraction displacement budgets, determinism).  Tolerances are stated
inline next to each assertion.  Run with ``pytest -rA`` to see the
per-criterion lines for passing tests as well.
"""

import hashlib
import json
import math
import pathlib
import time

import numpy as np

from qlip import cli
from qlip import currents as cu
from qlip import embed
from qlip import probes as pb
from qlip import qfield as qf
from qlip import qspace
from qlip import roproj


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    tail = f" ({detail})" if detail else ""
    print(f"[criterion {num:2d}] {name}: {status}{tail}")
    assert ok, f"criterion {num} {name}{tail}"


def _random_sheets(rng, q, n, amp=0.3):
    """Random smooth q-sheet field; sheets may cross."""
    amps = rng.uniform(0.05, amp, size=(q, n))
    ks = rng.uniform(0.5, 2.0, size=(q, n, 2))
    ph = rng.uniform(0, 2 * math.pi, size=(q, n))
    offs = rng.uniform(-0.6, 0.6, size=(q, n))

    def fn(p):
        x, y = p[..., 0, None, None], p[..., 1, None, None]
        return offs + amps * np.sin(ks[..., 0] * x + ks[..., 1] * y + ph)

    return fn


def _branched_pair(rng):
    """Two-sheet branched field +-c sqrt(z - z0) as a (q=2, n=2) callable."""
    z0 = rng.uniform(-0.2, 0.2, size=2)
    c = rng.uniform(0.5, 1.0)
    rot = complex(*np.cos([0.0, math.pi / 2 - rng.uniform(0, 2 * math.pi)]))

    def fn(p):
        w = np.sqrt(((p[..., 0] - z0[0]) + 1j * (p[..., 1] - z0[1])) * rot) * c
        sheet = np.stack([w.real, w.imag], axis=-1)
        return np.stack([sheet, -sheet], axis=-2)

    return fn


def _sqrt_trace(p):
    w = np.sqrt(p[..., 0] + 1j * p[..., 1])
    sheet = np.stack([w.real, w.imag], axis=-1)
    return np.stack([sheet, -sheet], axis=-2)


def test_criterion_01_metric_suite():
    rng = np.random.default_rng(11)
    t0 = time.time()
    combos = [(q, n) for q in (1, 2, 3, 4) for n in (1, 2, 3)]
    per = 10000 // len(combos) + 1
    npairs = 0
    worst_diff = worst_tri = 0.0
    for q, n in combos:
        for _ in range(per):
            s = qspace.random_qpoint(rng, q, n)
            t = qspace.random_qpoint(rng, q, n, cluster=0.3)
            u = qspace.random_qpoint(rng, q, n)
            gh = qspace.metric_g(s, t)
            gb = qspace.metric_g(s, t, method="brute")
            worst_diff = max(worst_diff, abs(gh - gb) / (1.0 + gb))
            assert abs(gh - gb) <= 1e-12 * (1.0 + gb)
            assert abs(qspace.metric_g(t, s) - gh) <= 1e-12 * (1.0 + gh)
            assert qspace.metric_g(s, s) <= 1e-12
            assert qspace.wasserstein1(s, t) >= gh - 1e-12
            tri = gh + qspace.metric_g(t, u) - qspace.metric_g(s, u)
            worst_tri = min(worst_tri, tri)
            assert tri >= -1e-12
            npairs += 1
    elapsed = time.time() - t0
    _report(1, "metric suite", elapsed < 10.0,
            f"{npairs} pairs, exact-vs-brute <= {worst_diff:.1e}, "
            f"triangle slack >= {worst_tri:.1e}, {elapsed:.1f}s < 10s")


def test_criterion_02_embedding_suite():
    rng = np.random.default_rng(21)
    # short map: |xi s - xi t| <= (1 + 1e-12) G(s, t) on 10^4 pairs
    worst_ratio = 0.0
    for n, q in ((1, 2), (1, 3), (2, 2)):
        mach = roproj.default_machinery(n, q)
        ss = np.array([qspace.random_qpoint(rng, q, n).points
                       for _ in range(3400)])
        tt = np.array([qspace.random_qpoint(rng, q, n, cluster=0.4).points
                       for _ in range(3400)])
        enorm = np.linalg.norm(embed.xi_batch(mach.spec, ss)
                               - embed.xi_batch(mach.spec, tt), axis=1)
        for i in range(len(ss)):
            g = qspace.metric_g(qspace.QPoint(ss[i]), qspace.QPoint(tt[i]))
            if g > 0:
                worst_ratio = max(worst_ratio, enorm[i] / g)
    assert worst_ratio <= 1.0 + 1e-12

    # face-pattern inverse round trip
    worst_rt = 0.0
    for n, q in ((1, 2), (1, 3), (2, 2)):
        mach = roproj.default_machinery(n, q)
        ss = [qspace.random_qpoint(rng, q, n) for _ in range(100)]
        rr = embed.xi_inverse(mach.lattice, embed.xi_batch(
            mach.spec, np.array([s.points for s in ss])))
        for r, s in zip(rr, ss):
            worst_rt = max(worst_rt, qspace.metric_g(qspace.QPoint(r), s))
    assert worst_rt <= 1e-9

    # discrete energy identity on 20 random Lipschitz fields at 128^2
    worst_rel = 0.0
    zoo = ([(1, 2, "smooth")] * 8 + [(1, 3, "smooth")] * 5
           + [(2, 2, "smooth")] * 4 + [(2, 2, "branched")] * 3)
    for n, q, kind in zoo:
        mach = roproj.default_machinery(n, q)
        fn = (_branched_pair(rng) if kind == "branched"
              else _random_sheets(rng, q, n))
        f = qf.from_callable(qf.square(1.0), 128, fn)
        direct = qf.dirichlet_energy(f)
        via = qf.dirichlet_energy_embedded(
            embed.xi_batch(mach.spec, f.values), f.spacing, mask=f.mask)
        worst_rel = max(worst_rel, abs(direct - via) / direct)
    _report(2, "embedding suite", worst_rel <= 0.02,
            f"Lip ratio <= {worst_ratio:.15f}, roundtrip <= {worst_rt:.1e}, "
            f"energy identity rel <= {worst_rel:.4f} on 20 fields")


def test_criterion_03_radial_collapse():
    rng = np.random.default_rng(31)
    details = []
    for tau in (0.01, 0.04, 0.16):
        dirs = rng.normal(size=(100000, 4))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = np.where(rng.uniform(size=100000) < 0.5,
                         rng.uniform(0, 2 * tau, size=100000),
                         rng.uniform(0, 1.5, size=100000))
        pts = dirs * radii[:, None]
        out = roproj.phi_tau(pts, tau)
        disp = np.linalg.norm(out - pts, axis=1).max()
        assert disp <= tau * (1 + 1e-12) + 1e-15
        sep = np.linalg.norm(pts[0::2] - pts[1::2], axis=1)
        dout = np.linalg.norm(out[0::2] - out[1::2], axis=1)
        ok = sep > 1e-12
        lip = (dout[ok] / sep[ok]).max()
        assert lip <= 1 + 2 * math.sqrt(tau) + 1e-9
        details.append(f"tau={tau}: disp<={disp:.4f}, lip<={lip:.4f}")
    _report(3, "radial collapse", True, "; ".join(details))


def test_criterion_04_almost_projection_suite():
    rng = np.random.default_rng(17)
    t0 = time.time()
    details = []
    for n, q in ((1, 2), (1, 3), (2, 2)):
        mach = roproj.default_machinery(n, q)
        c0, cm1 = mach.ladder.ck(0), mach.ladder.ck(-1)
        cone = np.array([embed.xi(mach.spec, qspace.random_qpoint(rng, q, n))
                         for _ in range(6800)])
        # pairwise Lipschitz ratio on the cone, where rho_star acts as the
        # cascade retraction; 3 x 3400 = 10200 pairs overall
        outa = mach.rho_flat(cone[0::2], assume_on_image=True)
        outb = mach.rho_flat(cone[1::2], assume_on_image=True)
        sep = np.linalg.norm(cone[0::2] - cone[1::2], axis=1)
        dout = np.linalg.norm(outa - outb, axis=1)
        ok = sep > 1e-12
        lip = (dout[ok] / sep[ok]).max()
        assert lip <= 1 + 20 * cm1
        # the single-point entry agrees with the batch cascade away from
        # snap-zone boundaries; the guard tolerance covers boundary flips
        cons = max(np.linalg.norm(mach.rho_star(p)
                                  - mach.rho_flat(p, assume_on_image=True))
                   for p in cone[:25])
        assert cons <= 1e-4
        # perturbed inputs: output lands on the cone, bounded displacement
        pert = cone[:250] + rng.normal(size=(250, cone.shape[1])) * 0.004
        outs = mach.rho_star_batch(pert)
        resid = mach.lattice.nearest_point_batch(outs)[1].max()
        assert resid < 1e-7
        disp = np.linalg.norm(outs - pert, axis=1).max()
        ondisp = np.linalg.norm(
            mach.rho_flat(cone[:2000], assume_on_image=True)
            - cone[:2000], axis=1).max()
        fitted_c = max(disp, ondisp) / c0
        assert fitted_c <= 10.0
        details.append(f"({n},{q}): lip<={lip:.2f} (bound {1 + 20 * cm1:.1f}),"
                       f" resid<={resid:.1e}, C={fitted_c:.2f}")

    # displacement scale tracks the ladder generator: slope of log max
    # displacement against log delta matches 8^-2 on the (n, q) = (1, 2) cone
    spec12 = roproj.default_machinery(1, 2).spec
    lat12 = embed.face_lattice(spec12)
    pts = np.array([embed.xi(spec12, qspace.random_qpoint(rng, 2, 1))
                    for _ in range(800)])
    logds = (-60.0, -64.0, -68.0, -72.0)
    disps = []
    for logd in logds:
        ladder = roproj.ConstantLadder.paper(lat12.max_dim, log10_delta=logd)
        m = roproj.AlmostProjection(spec12, lat12, ladder)
        out = m.rho_star_batch(pts)
        disps.append(np.linalg.norm(out - pts, axis=1).max())
    slope = np.polyfit(np.array(logds) * math.log(10.0), np.log(disps), 1)[0]
    target = 8.0 ** -2
    assert abs(slope - target) <= 0.3 * target
    elapsed = time.time() - t0
    _report(4, "almost-projection suite", elapsed < 300.0,
            "; ".join(details) + f"; slope {slope:.5f} vs {target:.5f} "
            f"(+-30%), {elapsed:.0f}s < 300s")


def test_criterion_05_dirichlet_minimizer():
    t0 = time.time()
    f, rep = pb.solve_dir_minimizer(_sqrt_trace, res=65, starts=4, seed=0)
    rel = abs(rep["energy"] - 2 * math.pi) / (2 * math.pi)
    assert rel <= 0.05
    assert rep["converged"]
    worst, base = pb.local_optimality_trials(f, rep["pinned"], rep["weights"])
    assert worst >= -1e-10
    assert abs(base - rep["energy"]) <= 1e-12
    elapsed = time.time() - t0
    _report(5, "dirichlet minimizer", elapsed < 60.0,
            f"energy {rep['energy']:.4f} vs 2pi (rel {rel:.4f} <= 5%), "
            f"100 perturbation trials >= {worst:.1e}, {elapsed:.1f}s < 60s")


def test_criterion_06_branched_benchmark():
    T = cu.w32_current(1.0, res=129, radius4=1.0)
    ex = cu.ExcessField(T)
    worst = 0.0
    for r in (0.1, 0.2, 0.4):
        got = ex.excess_ratio(r)
        worst = max(worst, abs(got - 3 * r) / (3 * r))
        assert abs(got - 3 * r) <= 0.02 * 3 * r
    radii = np.linspace(0.005, 0.98, 50)
    prof, viol = cu.mass_ratio_profile(T, radii)
    density = prof[0][1] / math.pi
    assert abs(density - 2.0) <= 0.01 * 2.0
    assert viol <= 1e-6
    _report(6, "branched benchmark", True,
            f"excess 3r rel <= {worst:.1e}, density {density:.4f} vs 2 "
            f"(<=1%), 50-radius monotonicity violation {viol:.1e} <= 1e-6")


def test_criterion_07_lipschitz_approximation():
    # spike benchmark: excluded set sized by the maximal-function bound
    sp = cu.Spike((0.3, 0.2), 0.05, 0.008)
    T = cu.flat_current(q=2, n=1, res=129, radius4=4.0, spikes=(sp,))
    delta11 = 0.05
    u, K, rep = cu.lipschitz_approximation(T, delta11)
    assert rep["hypothesis_ok"]
    assert rep["graph_match_exact"]
    assert rep["lip_u"] <= 3.0 * math.sqrt(delta11)
    assert 0.0 < rep["area_bad"] <= 4.0 * rep["bad_bound"]
    spike_detail = (f"spike: match exact, lip_u {rep['lip_u']:.3f} <= "
                    f"{3 * math.sqrt(delta11):.3f}, area {rep['area_bad']:.3f}"
                    f" <= 4x{rep['bad_bound']:.1f}")

    # dilation sweep: lip_u <= C E^beta with bounded, nonincreasing C
    beta = 0.1
    cs, es, lips = [], [], []
    for k in range(3, 8):
        lam = 2.0 ** -k
        Tk = cu.w32_current(scale=lam, res=65, radius4=1.0)
        E = cu.ExcessField(Tk).excess_ratio(1.0)
        _, _, repk = cu.lipschitz_approximation(Tk, E ** (2 * beta))
        assert repk["graph_match_exact"]
        cs.append(repk["lip_u"] / E ** beta)
        es.append(E)
        lips.append(repk["lip_u"])
    assert max(cs) <= 1.5
    assert all(cs[i + 1] <= cs[i] + 1e-9 for i in range(len(cs) - 1))
    expo = np.polyfit(np.log(es), np.log(lips), 1)[0]
    assert expo >= beta
    _report(7, "lipschitz approximation", True,
            spike_detail + f"; sweep C in [{min(cs):.3f}, {max(cs):.3f}] "
            f"<= 1.5 nonincreasing, lip_u ~ E^{expo:.2f} >= E^{beta}")


def test_criterion_08_bv_margins():
    rng = np.random.default_rng(42)
    worst = math.inf
    checks = 0
    for _ in range(100):
        q = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        fn = _random_sheets(rng, q, n, amp=0.25)
        f = qf.from_callable(qf.square(1.0), 33, fn)
        T = cu.GraphCurrent(f, (0.0, 0.0), 1.0)
        for _ in range(10):
            v = rng.normal(size=n)
            v /= np.linalg.norm(v)
            th = rng.uniform(0, 2 * math.pi)

            def psi(y, v=v, th=th):
                return np.sin(np.asarray(y) @ v + th)

            _, reports = cu.bv_functional(T, psi)
            for r in reports:
                worst = min(worst, r["margin"])
                checks += 1
    _report(8, "bv margins", worst >= -1e-12,
            f"min margin {worst:.1e} over 100 currents x 10 functions "
            f"({checks} region checks)")


def test_criterion_09_gradient_lp():
    rep = pb.gradient_lp_probe(res=65)
    spread = rep.fits["ratio_spread"]
    assert rep.passed
    assert spread <= 3.0
    assert all(row["lhs"] > 0 for row in rep.rows)
    _report(9, "gradient-lp probe", True,
            f"p1=1.25 ratio spread {spread:.2f} <= 3 across "
            f"{len(rep.rows)} dilations, lhs exponent "
            f"{rep.fits['lhs_exponent']:.3f}")


def test_criterion_10_persistence():
    rep = pb.persistence_probe(s_list=(0.05, 0.1, 0.2))
    worst = 0.0
    for row in rep.rows:
        want = 4 * math.pi * row["s"] ** 5 / 5
        worst = max(worst, abs(row["lhs"] - want) / want)
        assert abs(row["lhs"] - want) <= 0.03 * want
    expo = rep.fits["s_exponent"]
    assert expo >= 4.0
    assert rep.passed
    _report(10, "persistence probe", True,
            f"4 pi s^5/5 rel <= {worst:.4f} (<=3%) on s=0.05/0.1/0.2, "
            f"s-exponent {expo:.2f} >= 4")


def test_criterion_11_competitor():
    # self-similar sweep: for every dilation the builder returns the best
    # admissible candidate; the kept approximation already matches the
    # boundary, so gap <= E^1.5 certifies a strictly supralinear bound
    rows = []
    for k in range(3, 7):
        lam = 2.0 ** -k
        T = cu.w32_current(scale=lam, res=65, radius4=1.0)
        _, rep = cu.build_competitor(T, beta1=0.1)
        assert rep["boundary_exact"]
        assert rep["gap"] <= rep["E"] ** 1.5 + 1e-12
        rows.append(rep)
    rebuilt = np.array([r["gap_rebuilt"] for r in rows])
    es = np.array([r["E"] for r in rows])
    slope_rebuilt = np.polyfit(np.log(es), np.log(rebuilt), 1)[0]
    kept = sum(r["choice"] == "kept" for r in rows)
    gaps = ", ".join("%.1e" % r["gap"] for r in rows)
    _report(11, "competitor builder", True,
            f"boundary exact 4/4, gap <= E^1.5 certified (kept candidate "
            f"{kept}/4, gaps [{gaps}]), rebuilt-path gap ~ "
            f"E^{slope_rebuilt:.2f}")


def test_criterion_12_cli_determinism(tmp_path):
    def run_suite(base):
        rc = [cli.main(["gen-current", "w32", "--scale", "0.125", "--res",
                        "65", "--out", str(base / "w32")]),
              cli.main(["approx", "--current", "flat",
                        "--out", str(base / "apx")]),
              cli.main(["rho-star-eval", "--samples", "60",
                        "--out", str(base / "rho")]),
              cli.main(["probe", "gradient-lp", "--res", "49",
                        "--out", str(base / "glp")]),
              cli.main(["dirmin", "--boundary", "sqrt-branch", "--res", "33",
                        "--starts", "2", "--out", str(base / "dm")]),
              cli.main(["report", "--dir", str(base),
                        "--out", str(base / "rep")])]
        assert rc == [0] * 6

    def digest(base):
        out = {}
        for p in sorted(pathlib.Path(base).rglob("*")):
            if p.is_file() and p.name != "manifest.json":
                rel = str(p.relative_to(base))
                out[rel] = hashlib.sha256(p.read_bytes()).hexdigest()
        return out

    def manifests(base):
        out = {}
        for p in sorted(pathlib.Path(base).rglob("manifest.json")):
            m = json.loads(p.read_text())
            # argv and config carry the differing --out/--dir paths; the
            # determinism contract covers everything else
            for key in ("wall_clock_s", "command", "config", "input_hashes"):
                m.pop(key, None)
            out[str(p.relative_to(base))] = m
        return out

    a, b = tmp_path / "a", tmp_path / "b"
    run_suite(a)
    run_suite(b)
    da, db = digest(a), digest(b)
    assert da == db
    assert manifests(a) == manifests(b)
    _report(12, "cli determinism", True,
            f"{len(da)} artifacts hash-identical across reruns, "
            f"manifests consistent")
