"""Grid fields: energy quadrature, Lipschitz/oscillation, extension,
mollification.

Hand oracles used below:
  * affine single-valued field on the full square: energy -> |A|_F^2 * area,
    exact for the trapezoid-weighted matched differences;
  * two-branch square root on the unit disk: |Df|^2 = 1/|w|, integral 2*pi;
  * pair {x, -x} on [-1, 1]: Lipschitz sqrt(2), oscillation sqrt(2) (the
    optimal center is 0 and the worst spread is 2 at the endpoints).
"""
import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import constant_field

from qlip.qspace import QPoint, metric_g
from qlip.embed import build_embedding, xi_batch
from qlip.roproj import default_machinery
from qlip import qfield as qf
from qlip import qspace as qs


def _affine_field(res=33, q=1):
    A = np.array([[0.7, -0.3], [0.2, 1.1]])
    b = np.array([1.0, 0.5])

    def fn(p):
        base = p @ A.T
        if q == 1:
            return base[..., None, :]
        return np.stack([base + b, base - b], axis=-2)

    f = qf.from_callable(qf.square(1.0), res, fn)
    return f, A


def test_energy_affine_exact():
    f, A = _affine_field(q=1)
    area = 4.0
    expect = float(np.sum(A**2)) * area
    got = qf.dirichlet_energy(f)
    assert abs(got - expect) <= 1e-10 * expect


def test_energy_affine_two_sheets():
    f, A = _affine_field(q=2)
    expect = 2.0 * float(np.sum(A**2)) * 4.0
    got = qf.dirichlet_energy(f)
    assert abs(got - expect) <= 1e-10 * expect


def test_energy_line_segment():
    dom = qf.GridDomain("square", (0.0,), 1.0)
    f = qf.from_callable(dom, 41, lambda p: p[..., None, :])
    got = qf.dirichlet_energy(f)
    assert abs(got - 2.0) <= 1e-12


def _sqrt_field(res=64):
    def fn(p):
        v = np.sqrt(p[..., 0] + 1j * p[..., 1])
        sheet = np.stack([v.real, v.imag], axis=-1)
        return np.stack([sheet, -sheet], axis=-2)

    return qf.from_callable(qf.ball(1.0), res, fn)


def test_energy_sqrt_branch():
    f = _sqrt_field(64)
    w = qf.disk_weights(f, (0.0, 0.0), 1.0)
    d = np.linalg.norm(f.nodes(), axis=-1)
    w[d < f.spacing] = 0.0  # excise the branch-point cell
    got = qf.dirichlet_energy(f, weights=w)
    assert abs(got - 2 * math.pi) <= 0.05 * 2 * math.pi


def test_disk_weights_area():
    f = _sqrt_field(64)
    w = qf.disk_weights(f, (0.0, 0.0), 0.8)
    area = w.sum() * f.spacing ** 2
    assert abs(area - math.pi * 0.64) <= 0.01 * math.pi * 0.64


def test_energy_density_shape_and_mass():
    f, A = _affine_field(q=1)
    dens = qf.energy_density(f)
    assert dens.shape == (33, 33)
    inner = dens[1:-1, 1:-1]
    assert np.allclose(inner, np.sum(A**2), rtol=1e-9)


def test_lip_and_osc_pair():
    dom = qf.GridDomain("square", (0.0,), 1.0)
    f = qf.from_callable(dom, 81, lambda p: np.stack([p, -p], axis=-2))
    lip, osc = qf.lipschitz_and_osc(f)
    assert abs(lip - math.sqrt(2)) <= 1e-9
    assert abs(osc - math.sqrt(2)) <= 1e-6


def test_lip_and_osc_constant():
    f = constant_field(qf.square(1.0), 17, QPoint([[0.3, -0.2]]))
    lip, osc = qf.lipschitz_and_osc(f)
    assert lip == 0.0
    assert osc == 0.0


def test_osc_of_a_nearly_constant_pair():
    """Two flat sheets at +-5e-5: the spread is 2 (5e-5)^2 at every node, so
    the oscillation is 5e-5 sqrt(2), however close the field is to a
    constant."""
    f = constant_field(qf.square(1.0), 9, QPoint([[5e-5], [-5e-5]]))
    lip, osc = qf.lipschitz_and_osc(f)
    assert lip == 0.0
    assert osc == pytest.approx(5e-5 * math.sqrt(2.0), rel=1e-9)


def test_mcshane_line_is_exact():
    dom = qf.GridDomain("square", (0.5,), 0.5)
    f = qf.from_callable(dom, 41, lambda p: p[..., None, :])
    keep = np.zeros(41, dtype=bool)
    keep[0] = keep[-1] = True
    g = qf.lipschitz_extend(f, keep, lip=1.0)
    xs = f.axes()[0]
    assert np.allclose(g.values[:, 0, 0], xs, atol=1e-9)
    assert g.values.min() >= -1e-12 and g.values.max() <= 1.0 + 1e-12
    assert g.values[0, 0, 0] == f.values[0, 0, 0]
    assert g.values[-1, 0, 0] == f.values[-1, 0, 0]


def test_extension_preserves_anchors_and_lands_on_cone():
    mach = default_machinery(1, 2)
    dom = qf.GridDomain("square", (0.0,), 1.0)
    f = qf.from_callable(dom, 33, lambda p: np.stack([p, -p], axis=-2))
    keep = np.abs(f.axes()[0]) > 0.4
    g = qf.lipschitz_extend(f, keep, lip=2.0)
    assert np.array_equal(g.values[keep], f.values[keep])
    emb = xi_batch(mach.spec, g.values)
    _, resid = mach.lattice.nearest_point_batch(emb)
    assert resid.max() <= 1e-6
    lip, _ = qf.lipschitz_and_osc(g)
    assert lip <= 2.0 * math.sqrt(2) + 1e-6


def test_mollify_constant_invariant():
    mach = default_machinery(1, 2)
    f = constant_field(qf.square(1.0), 33, QPoint([[0.2], [0.9]]))
    emb, w = qf.mollify_embedded(f, 3 * f.spacing, mach)
    target = xi_batch(mach.spec, f.values[0, 0][None])[0]
    good = w > 0.5
    assert np.abs(emb[good] - target).max() <= 1e-12


def test_mollify_energy_non_increase():
    def fn(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([np.sin(2 * x) + 0.5 * y, 2.0 + np.cos(x + y)],
                        axis=-1)[..., None]

    f = qf.from_callable(qf.square(1.0), 49, fn)
    base = qf.dirichlet_energy(f)
    emb, w = qf.mollify_embedded(f, 4 * f.spacing, default_machinery(1, 2))
    interior = w > 1 - 1e-9
    got = qf.dirichlet_energy_embedded(emb, f.spacing, weights=interior.astype(float))
    assert got <= base * (1 + 1e-9)


def test_mollify_rejects_small_radius():
    f = constant_field(qf.square(1.0), 17, QPoint([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        qf.mollify_embedded(f, 0.5 * f.spacing, default_machinery(1, 2))


def test_embedded_energy_matches_tuple_energy():
    mach = default_machinery(1, 2)

    def fn(p):
        x, y = p[..., 0], p[..., 1]
        return np.stack([np.sin(x) + 0.3 * y, 2.5 + 0.2 * np.cos(2 * y)],
                        axis=-1)[..., None]

    f = qf.from_callable(qf.square(1.0), 65, fn)
    direct = qf.dirichlet_energy(f)
    emb = xi_batch(mach.spec, f.values)
    via = qf.dirichlet_energy_embedded(emb, f.spacing, mask=f.mask)
    assert abs(direct - via) <= 1e-10 * direct


def test_empty_region_has_zero_energy():
    mach = default_machinery(1, 2)
    f = qf.from_callable(qf.square(1.0), 9,
                         lambda p: (p * [1.0, 2.0])[..., None])
    emb = xi_batch(mach.spec, f.values)
    empty = np.zeros(f.mask.shape, dtype=bool)
    zero = np.zeros(f.mask.shape)
    g = qf.QGridFunction(f.domain, f.res, f.values, empty)
    assert qf.dirichlet_energy(g) == 0.0
    assert qf.dirichlet_energy(f, weights=zero) == 0.0
    assert qf.dirichlet_energy_embedded(emb, f.spacing, mask=empty) == 0.0
    assert qf.dirichlet_energy_embedded(emb, f.spacing, mask=f.mask,
                                        weights=zero) == 0.0


@settings(max_examples=40)
@given(n=st.integers(1, 2), q=st.integers(1, 3), m=st.integers(1, 2),
       res=st.integers(2, 40), seed=st.integers(0, 2 ** 32 - 1))
def test_energy_identity_on_parallel_affine_sheets(n, q, m, res, seed):
    """q parallel sheets x -> A x + b_j with distinct offsets never cross:
    the identity pairing is optimal on every edge and each direction of
    the embedding sorts the sheets the same way at every node, so the
    matched and the embedded energies agree for any node weights, and
    both are q |A|^2 (2r)^m on the full square."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, m))
    A *= rng.uniform(0.5, 2.0) / np.linalg.norm(A)
    offsets = rng.normal(size=n) + np.arange(q)[:, None] * rng.normal(size=n)
    r = rng.uniform(0.5, 2.0)
    dom = qf.GridDomain("square", (0.0,) * m, r)
    nodes = constant_field(dom, res, QPoint(np.zeros((1, m)))).nodes()
    f = qf.QGridFunction(dom, res, (nodes @ A.T)[..., None, :] + offsets)
    w = rng.uniform(0.0, 1.0, size=f.mask.shape)
    w[rng.uniform(size=w.shape) < 0.3] = 0.0
    emb = xi_batch(build_embedding(n, q), f.values)

    direct = qf.dirichlet_energy(f, w)
    via = qf.dirichlet_energy_embedded(emb, f.spacing, f.mask, w)
    assert abs(direct - via) <= 1e-12 * direct
    exact = q * float(np.sum(A ** 2)) * (2.0 * r) ** m
    for got in (qf.dirichlet_energy(f),
                qf.dirichlet_energy_embedded(emb, f.spacing, f.mask)):
        assert abs(got - exact) <= 1e-12 * exact


def test_readme_example():
    # the README's Python example runs as written and prints its numbers
    text = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(code, scope)
    assert round(scope["e_matched"], 3) == 6.218
    assert round(scope["e_embedded"], 3) == 6.155


@settings(max_examples=30)
@given(m=st.integers(1, 2), q=st.integers(1, 3), n=st.integers(1, 3),
       res=st.integers(2, 12), seed=st.integers(0, 2 ** 32 - 1))
def test_from_callable_samples_every_node_in_one_call(m, q, n, res, seed):
    """fn sees the whole node array once; its values are the per-node
    values bit for bit, with q and n read off them, and a broadcast view is
    stored as an owned, writable copy."""
    rng = np.random.default_rng(seed)
    a, b, c = rng.normal(size=(3, q, n))
    dom = qf.GridDomain(("square", "ball")[m - 1], tuple(rng.normal(size=m)),
                        float(rng.uniform(0.5, 2.0)))
    calls = []

    def fn(p):
        calls.append(p)
        x, y = p[..., :1, None], p[..., -1:, None]
        return a * x ** 2 + b * y + c

    f = qf.from_callable(dom, res, fn)
    axes = [np.linspace(ci - dom.radius, ci + dom.radius, res)
            for ci in dom.center]
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    assert len(calls) == 1 and calls[0].shape == (res,) * m + (m,)
    assert np.array_equal(calls[0], nodes)
    assert (f.q, f.n) == (q, n)
    each = np.stack([fn(p) for p in nodes.reshape(-1, m)])
    assert np.array_equal(f.values, each.reshape(f.values.shape))

    g = qf.from_callable(dom, res,
                         lambda p: np.broadcast_to(c, p.shape[:-1] + (q, n)))
    assert g.values.flags.writeable and g.values.flags.owndata
    g.values += 1.0
    assert np.array_equal(g.values[(0,) * m], c + 1.0)


def test_grid_json_roundtrip():
    f = _sqrt_field(16)
    g = qf.QGridFunction.from_json(f.to_json())
    assert g.domain == f.domain
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.mask, f.mask)


def test_grid_accessors():
    f = _sqrt_field(16)
    assert f.m == 2 and f.q == 2 and f.n == 2
    assert abs(f.spacing - 2.0 / 15) <= 1e-15
    assert f.mask[0, 0] == (np.linalg.norm(f.nodes()[0, 0]) <= 1.0 + 1e-12)


def test_grid_rejects_bad_res_and_non_finite_values():
    for res in (0, 1):
        with pytest.raises(ValueError, match="res >= 2"):
            qf.QGridFunction(qf.square(1.0), res, np.zeros((res, res, 2, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        vals = np.zeros((5, 5, 2, 1))
        vals[2, 3, 1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            qf.QGridFunction(qf.square(1.0), 5, vals)


def _tuple_pairs(seed, count, q, n, tie):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(count, q, n))
    b = rng.normal(size=(count, q, n))
    if tie and q > 1:  # coincident sheets: several optimal pairings
        b[:, -1] = b[:, 0]
        a[:, 1] = a[:, 0]
    return a, b


@settings(max_examples=60)
@given(q=st.integers(1, 6), n=st.integers(1, 3),
       seed=st.integers(0, 2 ** 32 - 1), tie=st.booleans())
def test_perm_bank_matching_is_metric_g(q, n, seed, tie):
    a, b = (x.reshape(3, 4, q, n) for x in _tuple_pairs(seed, 12, q, n, tie))
    costs = qs._perm_costs(a, b)
    assert costs.shape == (math.factorial(q), 3, 4)
    best = costs.min(axis=0)
    want = np.array([metric_g(QPoint(s), QPoint(t)) ** 2
                     for s, t in zip(a.reshape(-1, q, n), b.reshape(-1, q, n))
                     ]).reshape(3, 4)
    assert np.all(np.abs(best - want) <= 1e-12 * (1.0 + want))
    assert np.array_equal(qf.matched_diff_sq(a, b), best)
    cost, row = qs.least_pairing(a, b)
    assert np.array_equal(cost, best)
    assert np.array_equal(row, np.argmin(costs, axis=0))  # the first minimum
    aligned = qs._align(a, b)
    assert np.array_equal(aligned, np.take_along_axis(
        b, qs._perm_bank(q)[row][..., None], axis=-2))
    assert np.array_equal(qs._perm_costs(a, aligned)[0], best)  # identity row
    assert np.array_equal(np.sort(aligned, axis=-2), np.sort(b, axis=-2))


def _summed_perm_costs(a, b):
    """The kernel as first written: gather each bank row of b, square the
    gaps and np.sum them over the two trailing axes."""
    return np.stack([np.sum((a - b[..., p, :]) ** 2, axis=(-2, -1))
                     for p in qs._perm_bank(a.shape[-2])])


def _kernel_cases(q, n, tie):
    """(a, b, reference pair) over batch shapes (), (1,) and (5, 3), shifted
    views of one grid and broadcast pairs; with `tie`, sheets 0 and q - 1 of
    every b coincide.  Where a broadcasts, numpy lays the gathered gaps out
    in the gather's sheet-major order and sums them in another order, so the
    reference of such a pair is its C-ordered copy."""
    rng = np.random.default_rng(10 * q + n)
    grid = rng.normal(size=(7, 6, q, n))
    pairs = [(rng.normal(size=s + (q, n)), rng.normal(size=s + (q, n)))
             for s in ((), (1,), (5, 3))]
    if tie:
        grid[..., -1, :] = grid[..., 0, :]
        for _, b in pairs:
            b[..., -1, :] = b[..., 0, :]
    pairs += [(grid[1:, :-2], grid[:-1, 2:]),
              (grid[:-1:2, ::-1], grid[1::2, ::-1]), (grid, grid[2, 3])]
    broadcast = [(grid[:, :1], grid), (grid[:, :1], grid[:1])]
    return [(a, b, (a, b)) for a, b in pairs] + [
        (a, b, [np.ascontiguousarray(x) for x in np.broadcast_arrays(a, b)])
        for a, b in broadcast]


@pytest.mark.parametrize("q,n", [(q, n) for q in range(1, 7) for n in range(1, 5)])
def test_perm_costs_keep_the_summed_costs(q, n):
    """Bitwise the summed costs while q n < 8, where numpy sums in order; to
    rounding above.  Coincident sheets of b tie exactly, so the argmin keeps
    the first of the two rows."""
    bank = qs._perm_bank(q)
    swap = np.arange(q)
    swap[[0, -1]] = swap[[-1, 0]]
    index = {tuple(p): k for k, p in enumerate(bank)}
    partner = np.array([index[tuple(swap[p])] for p in bank])
    for tie in (False, True):
        for a, b, ref in _kernel_cases(q, n, tie):
            got = qs._perm_costs(a, b)
            want = _summed_perm_costs(*ref)
            assert got.shape == want.shape
            if q * n < 8:
                assert np.array_equal(got, want)
            else:
                assert np.all(np.abs(got - want) <= 1e-15 * (1.0 + want))
            if tie and q > 1:
                assert np.array_equal(got, got[partner])
                row = np.argmin(got, axis=0)
                assert np.all(row < partner[row])


@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1), tie=st.booleans())
def test_large_q_fallback_matches_brute_force(seed, tie):
    a, b = _tuple_pairs(seed, 2, 7, 1, tie)
    got = qf.matched_diff_sq(a, b)
    want = np.array([metric_g(QPoint(s), QPoint(t), method="brute") ** 2
                     for s, t in zip(a, b)])
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + want))


def test_perm_bank_refuses_q_above_its_limit():
    # the bank stops at q = 6, before enumerating 7! rows; the q = 7
    # matched energy takes the Hungarian fallback instead
    a, b = _tuple_pairs(0, 2, 7, 1, False)
    with pytest.raises(ValueError, match="q = 7"):
        qs._align(a, b)
    with pytest.raises(ValueError, match="q <= 6"):
        qs._perm_bank(7)
    assert qf.matched_diff_sq(a, b).shape == (2,)


def _uncropped_lipschitz_and_osc(f):
    """lipschitz_and_osc as first written: the stencil over the whole grid."""
    from qlip.coneproj import offset_enclosing_center

    lip_sq = 0.0
    for off in itertools.product(range(-qf._LIP_STENCIL, qf._LIP_STENCIL + 1),
                                 repeat=f.m):
        if all(o == 0 for o in off) or off < tuple(-o for o in off):
            continue
        src = [slice(max(0, -o), f.res - max(0, o)) for o in off]
        dst = [slice(max(0, o), f.res + min(0, o)) for o in off]
        both = f.mask[tuple(src)] & f.mask[tuple(dst)]
        if not np.any(both):
            continue
        cost = qs.matched_diff_sq(f.values[tuple(src)], f.values[tuple(dst)])
        d2 = (f.spacing ** 2) * sum(o * o for o in off)
        lip_sq = max(lip_sq, float(cost[both].max()) / d2)
    valid = f.values[f.mask]
    eta = valid.mean(axis=-2)
    spread = np.sum((valid - eta[..., None, :]) ** 2, axis=(-2, -1))
    _, worst = offset_enclosing_center(eta.reshape(-1, f.n), spread.reshape(-1),
                                       weight=float(f.q))
    return math.sqrt(lip_sq), math.sqrt(max(worst, 0.0))


def _crop_masks(m, res):
    """Named masks on a res^m grid: full, disk, annulus, one node, a single
    row and column, a block on the grid's edge and seeded sparse sets."""
    r2 = np.sum(qf.GridDomain("square", (0.0,) * m, 1.0).nodes(res) ** 2,
                axis=-1)
    masks = {"full": np.ones((res,) * m, dtype=bool), "disk": r2 <= 0.5,
             "annulus": (r2 >= 0.2) & (r2 <= 0.7)}
    masks["one node"] = np.zeros_like(masks["full"])
    masks["one node"][(res // 3,) * m] = True
    masks["edge"] = np.zeros_like(masks["full"])
    masks["edge"][-3:] = True
    if m == 2:
        masks["row"] = np.zeros_like(masks["full"])
        masks["row"][4, 1:-2] = True
        masks["column"] = masks["row"].T.copy()
        masks["edge"][:, :2] = True
    for seed in (1, 2, 3):
        masks[f"sparse {seed}"] = np.random.default_rng(seed).random(
            (res,) * m) < 0.15
    return masks


@pytest.mark.parametrize("m,res,q,n", [(2, 11, 2, 2), (2, 9, 3, 1),
                                       (1, 13, 2, 1), (1, 6, 2, 3)])
def test_cropped_stencil_matches_the_whole_grid(m, res, q, n):
    values = np.random.default_rng(res).normal(size=(res,) * m + (q, n))
    for name, mask in _crop_masks(m, res).items():
        f = qf.QGridFunction(qf.GridDomain("square", (0.0,) * m, 1.0), res,
                             values, mask)
        assert qf.lipschitz_and_osc(f) == _uncropped_lipschitz_and_osc(f), name


def test_lipschitz_and_osc_rejects_an_empty_mask():
    f = qf.QGridFunction(qf.square(1.0), 5, np.zeros((5, 5, 2, 1)),
                         np.zeros((5, 5), dtype=bool))
    with pytest.raises(ValueError, match="empty mask"):
        qf.lipschitz_and_osc(f)
