"""Discrete Dirichlet minimization and the empirical estimate probes.

The minimizer alternates two exact steps: with per-edge sheet matchings
frozen, the energy is a quadratic form and one sparse solve gives its global
minimum; with values frozen, re-matching each edge independently is optimal.
Both steps are non-increasing, so the scheme terminates; it starts from the
cheapest matching of the sampled trace.  A sheet permutation fixes a tuple's
mean, so the energy splits into the mean's, a harmonic function solved once
per call, and the sum-zero part's, on q - 1 coordinates per node, which is
all that each sweep solves.

Probes evaluate integral inequalities on constructed currents and report
lhs/rhs tables with fitted constants.  Constants are always outputs of the
run, never hidden inputs; pass verdicts compare fitted values against the
configured slack factors only.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qfield as qf
from . import currents as cu
from .qspace import _perm_bank, least_pairing

_MAX_SWEEPS, _SWEEP_TOL = 40, 1e-10  # Dirichlet sweeps per start; least drop
_WEAK_TRIALS = 10  # random weak small sets of the excess probe
_BUMP_TRIALS, _BUMP_SEED = 100, 7  # local_optimality_trials: bumps, their seed


@dataclass
class ProbeConfig:
    """Exponents and seed (fields); sweep layout and verdict thresholds
    (constants)."""
    p1: float = 1.25
    p11: float = 1.5
    seed: int = 0
    beta = 0.1             # excess, harmonic: delta11 >= E^(2 beta)
    scales = (2.0 ** -3, 2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7)
    ratio_factor = 3.0     # gradient-lp: largest ratio spread over the sweep
    weak_slack = 0.2       # excess: largest weak small-set ratio
    area_fraction = 0.01   # excess: largest weak-set area, share of B_s
    holder_slack = 5.0     # reverse-holder: largest fitted C
    harmonic_tol = 0.25    # harmonic: largest normalized distance
    split_slack = 30.0     # energy-split: far-energy factor
    density_tol = 0.015    # persistence: density deviation from Q at p
    ambient_bound = 0.0    # A: the currents here sit in flat space

    def validate(self, m: int = 2) -> None:
        if not 1.0 < self.p1 < 1.0 + 1.0 / m:
            raise ValueError("p1 out of range")
        if not 2.0 * (m - 1) / m < self.p11 < 2.0:
            raise ValueError("p11 out of range")


@dataclass
class ProbeReport:
    """One probe run: per-scale rows, fitted constants, verdict."""
    name: str
    rows: list
    fits: dict
    passed: bool
    notes: str = ""

    def to_json(self) -> dict:
        return {"name": self.name, "rows": self.rows, "fits": self.fits,
                "passed": bool(self.passed), "notes": self.notes}

    def to_csv(self) -> str:
        if not self.rows:
            return ""
        cols = list(self.rows[0].keys())
        lines = [",".join(cols)]
        for row in self.rows:
            lines.append(",".join(repr(row.get(c, "")) for c in cols))
        return "\n".join(lines) + "\n"


def _loglog_slope(x, y):
    """Least-squares slope of log y against log x; nan when degenerate."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    good = (x > 0) & (y > 0)
    if good.sum() < 2 or np.ptp(np.log(x[good])) < 1e-9:
        return float("nan")
    return float(np.polyfit(np.log(x[good]), np.log(y[good]), 1)[0])


# ---------------------------------------------------------------------------
# Dirichlet minimization: the harmonic mean and the sum-zero sheets


def spsolve(A, b):
    """Solve A x = b for a sparse symmetric positive definite A (CSC).

    SuperLU factors A as SPD: columns in minimum-degree order of A + A^T,
    applied symmetrically, and diagonal pivots with no row interchanges.
    Every frozen-matching L_ff is SPD (each free node has a positive-weight
    edge and the pinned collar is not empty), so no pivot is needed; a
    singular A raises "Factor is exactly singular".  scipy is imported on
    the first call; a module-level name, so perfbench/tracer.py can bind it.
    """
    from scipy.sparse.linalg import splu

    return splu(A, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                options={"SymmetricMode": True}).solve(b)


def _sheet_basis(q: int):
    """(basis, rots) of a node's q sheets.  basis is orthonormal (q, q): row
    0 is the mean direction (1, ..., 1)/sqrt(q), and row i >= 1 the Helmert
    row (1, ..., 1, -i, 0, ..., 0)/sqrt(i (i + 1)), so rows 1.. (H) span
    the sum-zero tuples.  Every sheet permutation P fixes (1, ..., 1), so
    it acts on the sum-zero coordinates alone, by rots[r] = H P_r H^T for
    bank row r; rots is built from the integer rows, so the identity gives
    exactly I."""
    g = np.tril(np.ones((q, q)), -1)
    g[0] = 1.0
    g[np.arange(1, q), np.arange(1, q)] = -np.arange(1, q)
    sq = (g ** 2).sum(axis=1)
    hz = g[1:]
    rots = hz @ hz.T[_perm_bank(q)] / np.sqrt(np.outer(sq[1:], sq[1:]))
    return g / np.sqrt(sq)[:, None], rots


def _solve_given_matchings(vals, pinned, a, b, w, rot):
    """Minimize the frozen-matching quadratic form; one sparse solve.

    vals holds k coordinates of n values per node, (npts, k, n).  Row (e, i)
    of the incidence matrix B is x(a[e])_i - (rot[e] x(b[e]))_i, so the
    energy is |B x|^2 weighted by w and its Laplacian is L = B^T diag(w) B
    over the (node, coordinate) unknowns.  Split into free (f) and pinned
    (p) columns, the free values solve L_ff x_f = -L_fp x_p."""
    from scipy import sparse

    npts, k, n = vals.shape
    free = np.repeat(~pinned, k)
    if not free.any():
        return vals
    rows = np.arange(len(a) * k)
    comp = np.arange(k)
    heads = (a[:, None] * k + comp).ravel()
    tails = np.broadcast_to(b[:, None, None] * k + comp, rot.shape).ravel()
    inc = sparse.csr_matrix(
        (np.concatenate([np.ones(len(rows)), -rot.ravel()]),
         (np.concatenate([rows, np.repeat(rows, k)]),
          np.concatenate([heads, tails]))),
        shape=(len(rows), npts * k))
    lap = (inc.T @ sparse.diags(np.repeat(w, k)) @ inc).tocsr()[free]
    flat = vals.reshape(-1, n)
    sol = spsolve(lap[:, free].tocsc(), -(lap[:, ~free] @ flat[~free]))
    out = flat.copy()
    out[free] = np.reshape(sol, (-1, n))
    return out.reshape(vals.shape)


def _from_sheet_coords(vals, free, basis, coords):
    """vals with each free node's tuple rebuilt from its basis coordinates
    (npts, q, n); pinned nodes keep their values bit for bit."""
    out = vals.copy()
    out[free] = np.einsum("ji,pjn->pin", basis, coords[free])
    return out


def solve_dir_minimizer(trace, res: int = 65, radius: float = 1.0,
                        starts: int = 1, seed: int = 0, half: float = None):
    """Minimize the matched discrete energy over the disk with pinned trace.

    `trace` maps points (..., 2) to values (..., q, n), which set q and n;
    its values on a collar of nodes outside the open disk are the boundary
    condition.  Returns (field, report); the reported energy uses the disk
    coverage weights, so it approximates the energy over the round disk.
    `half` overrides the grid half-width when the caller needs node alignment
    with another grid.  Start 0 matches each edge to its cheapest permutation
    on the sampled values; starts 1, 2, ... draw random matchings from `seed`.

    In the `_sheet_basis` coordinates the matched energy splits into the
    mean's graph energy, which no matching changes, and the sum-zero part's,
    whose edges carry the rotation of their permutation.  So the mean is
    solved once, as a harmonic function, and each sweep solves only the
    q - 1 sum-zero coordinates (none for q = 1), by one SPD `spsolve`.

    A start stops when a sweep lowers the energy by less than `_SWEEP_TOL`,
    or when rematching returns the matching that sweep solved with: the
    next sweep would repeat the solve bit for bit, so its energy is
    recorded in `history` (twice, as that sweep would) without solving.
    """
    if res < 2:
        raise ValueError("a grid needs res >= 2 nodes per axis")
    if starts < 1:
        raise ValueError("a minimization needs starts >= 1")
    if half is None:
        half = radius + 3.0 * 2.0 * radius / (res - 1)
    dom = qf.square(half)
    f = qf.from_callable(dom, res, trace)
    q, n, h = f.q, f.n, f.spacing
    nodes = f.nodes().reshape(-1, 2)
    dist = np.linalg.norm(nodes, axis=-1)
    pinned_flat = dist >= radius
    weights = qf.disk_weights(f, (0.0, 0.0), radius)
    a, b, w = (np.concatenate(col)
               for col in zip(*qf.grid_edges(f.mask, weights, h)))
    basis, rots = _sheet_basis(q)
    rng = np.random.default_rng(seed)
    trace_vals = f.values.reshape(-1, q, n)
    coords = np.einsum("ij,pjn->pin", basis, trace_vals)
    coords[:, :1] = _solve_given_matchings(coords[:, :1], pinned_flat, a, b,
                                           w, np.ones((len(a), 1, 1)))

    best = None
    start_energies = []
    for start in range(starts):
        eperm = (rng.integers(len(rots), size=len(a)) if start
                 else least_pairing(trace_vals[a], trace_vals[b])[1])
        history = []
        prev = math.inf
        converged = False
        for sweep in range(_MAX_SWEEPS):
            solved = eperm
            coords[:, 1:] = _solve_given_matchings(
                coords[:, 1:], pinned_flat, a, b, w, rots[solved])
            vals = _from_sheet_coords(trace_vals, ~pinned_flat, basis, coords)
            # rematch each edge to its cheapest permutation; the matched
            # cost of the new values is then the energy
            cost, eperm = least_pairing(vals[a], vals[b])
            energy = float(w @ cost)
            history.append(energy)
            if prev - energy < _SWEEP_TOL:
                converged = True
                break
            if sweep + 1 < _MAX_SWEEPS and np.array_equal(eperm, solved):
                # the next sweep would solve the same system (its right-hand
                # side reads only pinned values) to the same bits, and stop
                history.append(energy)
                converged = True
                break
            prev = energy
        if best is None or history[-1] < best[0] - _SWEEP_TOL:
            best = (history[-1], vals, history, converged)
        start_energies.append(history[-1])

    energy, vals, history, converged = best
    out = f.copy()
    out.values = vals.reshape(f.values.shape)
    # sheet collision point: the free node where the tuple is most
    # collapsed; a branching minimizer pins it near the true branch point
    gaps = vals[:, :, None, :] - vals[:, None, :, :]
    diams = np.sqrt((gaps ** 2).sum(-1)).max(axis=(1, 2))
    tight = int(np.argmin(np.where(pinned_flat, np.inf, diams)))
    report = {
        "energy": float(energy),
        "history": [float(e) for e in history],
        "start_energies": [float(e) for e in start_energies],
        "converged": bool(converged),
        "center_diameter": float(diams[np.argmin(dist)]),
        "branch_offset": float(dist[tight]),
        "spacing": float(h),
        "pinned": pinned_flat.reshape(f.values.shape[:2]),
        "weights": weights,
    }
    return out, report


def local_optimality_trials(f: qf.QGridFunction, pinned: np.ndarray,
                            weights: np.ndarray):
    """_BUMP_TRIALS random one-node bumps of size 0.3 h; returns the worst
    energy decrease and the energy."""
    rng = np.random.default_rng(_BUMP_SEED)
    base = qf.dirichlet_energy(f, weights)
    inner = np.argwhere(~pinned & f.mask)
    worst = 0.0
    for _ in range(_BUMP_TRIALS):
        ij = tuple(inner[rng.integers(len(inner))])
        g = f.copy()
        g.values[ij] += rng.normal(scale=0.3 * f.spacing, size=g.values[ij].shape)
        worst = min(worst, qf.dirichlet_energy(g, weights) - base)
    return worst, base


# ---------------------------------------------------------------------------
# Estimate probes


def reverse_holder_probe(u: qf.QGridFunction, radius: float = 1.0,
                         config: ProbeConfig = None) -> ProbeReport:
    """Ratio of the B_r quadratic mean of |Du| to the B_2r config.p11-mean,
    for the radii r among 4h, 8h, 16h with 2r + h <= radius.

    A row's centres are the masked nodes within radius - 2r - h of the
    domain's centre; a row without any reports max_ratio None.  C is the
    worst ratio over the rows that have centres, and a ValueError is raised
    when none has."""
    config = config or ProbeConfig()
    config.validate(u.m)
    p11 = config.p11
    h = u.spacing
    radii = [r for r in (4 * h, 8 * h, 16 * h) if 2 * r + h <= radius]
    if not radii:
        raise ValueError(f"grid too coarse for the radii 4h, 8h, 16h: "
                         f"h = {h:.4g}, and even 4h needs 2r + h <= "
                         f"radius = {radius:.4g}")
    dens = qf.energy_density(u)
    dist = np.linalg.norm(u.nodes() - np.asarray(u.domain.center), axis=-1)

    def ball_means(a, s):
        kern = qf.disk_kernel(h, s)
        return qf.masked_kernel_mean(a, u.mask, kern, 1e-12)[0]

    rows = []
    for r in radii:
        lhs = np.sqrt(ball_means(dens, r))
        rhs = ball_means(dens ** (p11 / 2.0), 2 * r) ** (1 / p11)
        sel = (dist <= radius - 2 * r - h) & u.mask
        ratio = np.ones_like(lhs)
        ok = rhs > 1e-14
        ratio[ok] = lhs[ok] / rhs[ok]
        worst = float(ratio[sel].max()) if sel.any() else None
        rows.append({"radius": float(r), "max_ratio": worst,
                     "centers": int(sel.sum())})
    fitted = [row["max_ratio"] for row in rows if row["centers"]]
    if not fitted:
        raise ValueError("no radius keeps a centre whose 2r-ball lies in "
                         "the domain")
    cfit = max(fitted)
    return ProbeReport("reverse_holder", rows,
                       {"C": cfit, "p11": p11},
                       passed=cfit <= config.holder_slack)


def gradient_lp_probe(scales=None, res: int = 65,
                      config: ProbeConfig = None) -> ProbeReport:
    """Planar low-density integral of d^p1 on B_2 against E^{p1-1}(E + A^2),
    on the w32 currents of the given scales over B_4."""
    config = config or ProbeConfig()
    config.validate()
    p1 = config.p1
    if scales is None:
        scales = config.scales
    rows = []
    for lam in scales:
        T = cu.w32_current(lam, res=res, radius4=4.0)
        ex = T.excess
        h = T.base.spacing
        w2 = qf.disk_weights(T.base, T.center, T.radius4 / 2.0)
        low = (ex.density <= 1.0) & T.base.mask
        lhs = float(np.sum(np.abs(ex.density) ** p1 * w2 * low) * h ** T.m)
        E = ex.excess_ratio(T.radius4)
        rhs = E ** (p1 - 1.0) * (E + config.ambient_bound ** 2)
        ratio = 1.0 if (lhs <= 1e-15 and rhs <= 1e-15) else lhs / max(rhs, 1e-300)
        rows.append({"scale": float(lam), "lhs": lhs, "rhs": float(rhs),
                     "ratio": float(ratio)})
    ratios = [row["ratio"] for row in rows]
    spread = max(ratios) / max(min(ratios), 1e-300)
    fits = {
        "C": float(np.exp(np.mean(np.log(np.maximum(ratios, 1e-300))))),
        "lhs_exponent": _loglog_slope([r["scale"] for r in rows],
                                      [r["lhs"] for r in rows]),
        "ratio_spread": float(spread),
        "p1": p1,
    }
    return ProbeReport("gradient_lp", rows, fits,
                       passed=spread <= config.ratio_factor)


def excess_probes(T: cu.GraphCurrent, config: ProbeConfig = None) -> ProbeReport:
    """Small-set excess against E s^m (weak) and a fitted power law (strong)."""
    config = config or ProbeConfig()
    s = 2.0 * T.r
    E = max(T.excess.excess_ratio(T.radius4), cu._EXCESS_FLOOR)
    h = T.base.spacing
    nodes = T.base.nodes()
    dist = np.linalg.norm(nodes - np.asarray(T.center), axis=-1)
    pool = np.argwhere((dist <= s) & T.base.mask)
    rng = np.random.default_rng(config.seed)
    rows = []

    def measure(kind, ind):
        e = max(T.excess.region_excess(ind), 0.0)
        rows.append({"kind": kind, "area": float(ind.sum() * h ** 2),
                     "excess": float(e), "ratio": float(e / (E * s ** T.m))})
        return rows[-1]

    def random_set(frac):
        count = max(1, int(frac * math.pi * s ** 2 / h ** 2))
        pick = pool[rng.choice(len(pool), size=min(count, len(pool)),
                               replace=False)]
        ind = np.zeros(T.base.mask.shape)
        ind[tuple(pick.T)] = 1.0
        return ind

    weak = [measure("weak", random_set(config.area_fraction
                                       * rng.uniform(0.2, 1.0)))
            for _ in range(_WEAK_TRIALS)]
    for sp in T.spikes:  # deterministic control: a set covering one spike
        d = np.linalg.norm(nodes - np.asarray(sp.center), axis=-1)
        weak.append(measure("spike-control",
                            (d <= max(2.0 * sp.radius, 2.0 * h)).astype(float)))
    weak_max = max([0.0] + [row["ratio"] for row in weak])
    strong = [measure("strong", random_set(frac))
              for frac in (0.002, 0.005, 0.01, 0.02, 0.05)]
    areas = [row["area"] for row in strong]
    excesses = [row["excess"] for row in strong]
    gamma = _loglog_slope(areas, excesses)
    gamma = 0.0 if not np.isfinite(gamma) else max(0.0, min(gamma, 1.0))
    denom = [(E ** gamma + a ** gamma) * (E + config.ambient_bound ** 2)
             for a in areas]
    cfit = max((e / max(d, 1e-300) for e, d in zip(excesses, denom)),
               default=0.0)
    passed = weak_max <= config.weak_slack
    notes = "" if passed else (
        "weak ratio above slack: excess concentrates on a small set, the "
        "small-excess hypothesis fails here (negative control)")
    return ProbeReport("excess", rows,
                       {"weak_max_ratio": float(weak_max),
                        "gamma": float(gamma), "C": float(cfit),
                        "E": float(E)},
                       passed=passed, notes=notes)


def harmonic_approx_probe(scales=None, res: int = 65,
                          config: ProbeConfig = None) -> ProbeReport:
    """Distance from the approximation to its own Dirichlet minimizer,
    normalized by E r^m, along an excess sweep of w32 currents over B_1."""
    config = config or ProbeConfig()
    if scales is None:
        scales = config.scales[:3]
    rows = []
    for lam in scales:
        T = cu.w32_current(lam, res=res, radius4=1.0)
        E = max(T.excess.excess_ratio(T.radius4), cu._EXCESS_FLOOR)
        delta11 = max(E ** (2 * config.beta), 1.25 * 16 ** T.m * E)
        u, K, rep = cu.lipschitz_approximation(T, delta11)
        r = T.r
        # align the solver lattice with u's nodes so sampled gradients are
        # free of resampling staircase noise
        hu = u.spacing
        half = (math.ceil(r / hu) + 2) * hu
        res_w = int(round(2 * half / hu)) + 1
        w, wrep = solve_dir_minimizer(u.nearest_values, res=res_w, radius=r,
                                      half=half)
        usamp = qf.from_callable(w.domain, w.res, u.nearest_values)
        wd = wrep["weights"]
        h = w.spacing
        g2 = float(np.sum(qf.matched_diff_sq(usamp.values, w.values) * wd)
                   * h ** 2)
        du = np.sqrt(qf.energy_density(usamp))
        dw = np.sqrt(qf.energy_density(w))
        q2 = float(np.sum((du - dw) ** 2 * wd) * h ** 2)
        eta_u = usamp.values.mean(axis=-2)
        eta_w = w.values.mean(axis=-2)
        q3 = qf.dirichlet_energy_embedded(eta_u - eta_w, h, weights=wd)
        norm = max(E * r ** T.m, 1e-30)
        rows.append({"scale": float(lam), "E": float(E),
                     "g2_norm": g2 / r ** 2 / norm,
                     "gradgap_norm": q2 / norm,
                     "mean_norm": q3 / norm})
    worst = max(max(r["g2_norm"], r["gradgap_norm"], r["mean_norm"])
                for r in rows)
    rate = _loglog_slope([r["E"] for r in rows],
                         [max(r["g2_norm"], 1e-300) for r in rows])
    return ProbeReport("harmonic_approx", rows,
                       {"worst_normalized": float(worst), "g2_rate": rate},
                       passed=worst <= config.harmonic_tol)


def persistence_probe(s_list=(0.05, 0.1, 0.2), factory=None,
                      config: ProbeConfig = None) -> ProbeReport:
    """Second moment of the separation from the mean sheet near the current's
    centre (a full-density point), re-windowed so every ball is resolved:
    factory(4 s) builds the current for ball radius s (default: w32 at scale
    1 and its default res 129)."""
    config = config or ProbeConfig()
    if factory is None:
        factory = lambda radius4: cu.w32_current(1.0, radius4=radius4)
    rows = []
    for s in s_list:
        T = factory(4.0 * s)
        prof, _ = cu.mass_ratio_profile(T, [T.radius4 / 50.0])
        dens = prof[0][1] / (cu._OMEGA[T.m] * T.q)
        if abs(dens - 1.0) > config.density_tol:
            raise ValueError("density at the probe point is not Q")
        E = max(T.excess.excess_ratio(T.radius4), cu._EXCESS_FLOOR)
        delta11 = max(E ** (2 * config.beta), 4.0 * 16 ** T.m * E)
        u, K, rep = cu.lipschitz_approximation(T, delta11)
        h = u.spacing
        mean = u.values.mean(axis=-2, keepdims=True)
        sep2 = np.sum((u.values - mean) ** 2, axis=(-2, -1))
        wball = qf.disk_weights(u, T.center, s)
        lhs = float(np.sum(sep2 * wball * u.mask) * h ** T.m)
        shape = s ** T.m * 1.0 ** (T.m + 2) * E
        rows.append({"s": float(s), "lhs": lhs, "shape": float(shape),
                     "ratio": float(lhs / max(shape, 1e-300)),
                     "graph_match": bool(rep["graph_match_exact"])})
    expo = _loglog_slope([r["s"] for r in rows], [r["lhs"] for r in rows])
    passed = bool(np.isfinite(expo) and expo >= T.m + 2 - 0.2
                  and all(r["graph_match"] for r in rows))
    return ProbeReport("persistence", rows,
                       {"s_exponent": float(expo)}, passed=passed)


def energy_split_probe(machinery, fields, config: ProbeConfig = None
                       ) -> ProbeReport:
    """Energy of the retracted field against the near/far split of the input.

    `fields` is a list of (emb, h) pairs, emb of shape (res, res, N).
    Near nodes sit within the snap distance of the image cone; the retraction
    may inflate their energy only marginally, while far nodes admit a plain
    Lipschitz-squared factor.
    """
    config = config or ProbeConfig()
    thresh = machinery.ladder.tube(machinery.ladder.nq)
    near_slack = (1.0 + 4.0 * machinery.ladder.ck(-1)) ** 2 - 1.0 + 0.05
    rows = []
    ok = True
    for emb, h in fields:
        flat = emb.reshape(-1, emb.shape[-1])
        ret = machinery.rho_star_batch(flat).reshape(emb.shape)
        _, dist = machinery.lattice.nearest_point_batch(flat)
        near = (dist.reshape(emb.shape[:-1]) <= thresh)
        lhs = qf.dirichlet_energy_embedded(ret, h)
        e_near = qf.dirichlet_energy_embedded(emb, h, near)
        e_tot = qf.dirichlet_energy_embedded(emb, h)
        e_far = max(e_tot - e_near, 0.0)
        bound = (1.0 + near_slack) * e_near + config.split_slack * e_far
        cfit = 0.0
        if e_far > 1e-14:
            cfit = max(0.0, (lhs - (1.0 + near_slack) * e_near) / e_far)
        ok = ok and lhs <= bound + 1e-12
        rows.append({"lhs": float(lhs), "near": float(e_near),
                     "far": float(e_far), "C_far": float(cfit)})
    cmax = max((r["C_far"] for r in rows), default=0.0)
    return ProbeReport("energy_split", rows,
                       {"C_far": float(cmax),
                        "near_slack": float(near_slack),
                        "threshold": float(thresh)},
                       passed=ok)
