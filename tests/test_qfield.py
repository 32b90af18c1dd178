"""Grid fields: energy quadrature, Lipschitz/oscillation, extension,
mollification.

Hand oracles used below:
  * affine single-valued field on the full square: energy -> |A|_F^2 * area,
    exact for the trapezoid-weighted matched differences;
  * two-branch square root on the unit disk: |Df|^2 = 1/|w|, integral 2*pi;
  * pair {x, -x} on [-1, 1]: Lipschitz sqrt(2), oscillation sqrt(2) (the
    optimal center is 0 and the worst spread is 2 at the endpoints).
"""
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


def _affine_field(res=33, q=1):
    A = np.array([[0.7, -0.3], [0.2, 1.1]])
    b = np.array([1.0, 0.5])

    def fn(p):
        base = A @ p
        if q == 1:
            return base[None, :]
        return np.stack([base + b, base - b])

    f = qf.from_callable(qf.square(1.0), res, fn, q=q, n=2)
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
    f = qf.from_callable(dom, 41, lambda p: p[None, :], q=1, n=1)
    got = qf.dirichlet_energy(f)
    assert abs(got - 2.0) <= 1e-12


def _sqrt_field(res=64):
    def fn(p):
        v = complex(p[0], p[1]) ** 0.5
        return np.array([[v.real, v.imag], [-v.real, -v.imag]])

    return qf.from_callable(qf.ball(1.0), res, fn, q=2, n=2)


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
    f = qf.from_callable(dom, 81, lambda p: np.array([[p[0]], [-p[0]]]), q=2, n=1)
    lip, osc = qf.lipschitz_and_osc(f)
    assert abs(lip - math.sqrt(2)) <= 1e-9
    assert abs(osc - math.sqrt(2)) <= 1e-6


def test_lip_and_osc_constant():
    f = constant_field(qf.square(1.0), 17, QPoint([[0.3, -0.2]]))
    lip, osc = qf.lipschitz_and_osc(f)
    assert lip == 0.0
    assert osc == 0.0


def test_mcshane_line_is_exact():
    dom = qf.GridDomain("square", (0.5,), 0.5)
    f = qf.from_callable(dom, 41, lambda p: p[None, :], q=1, n=1)
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
    f = qf.from_callable(dom, 33, lambda p: np.array([[p[0]], [-p[0]]]), q=2, n=1)
    keep = np.abs(f.axes()[0]) > 0.4
    g = qf.lipschitz_extend(f, keep, lip=2.0, machinery=mach)
    assert np.array_equal(g.values[keep], f.values[keep])
    emb = xi_batch(mach.spec, g.values)
    _, resid = mach.lattice.nearest_point_batch(emb)
    assert resid.max() <= 1e-6
    lip, _ = qf.lipschitz_and_osc(g)
    assert lip <= 2.0 * math.sqrt(2) + 1e-6


def test_mollify_constant_invariant():
    mach = default_machinery(1, 2)
    f = constant_field(qf.square(1.0), 33, QPoint([[0.2], [0.9]]))
    emb, w = qf.mollify_embedded(f, eps=3 * f.spacing)
    target = xi_batch(mach.spec, f.values[0, 0][None])[0]
    good = w > 0.5
    assert np.abs(emb[good] - target).max() <= 1e-12


def test_mollify_energy_non_increase():
    def fn(p):
        return np.array([[math.sin(2 * p[0]) + 0.5 * p[1]],
                         [2.0 + math.cos(p[0] + p[1])]])

    f = qf.from_callable(qf.square(1.0), 49, fn, q=2, n=1)
    base = qf.dirichlet_energy(f)
    emb, w = qf.mollify_embedded(f, eps=4 * f.spacing)
    interior = w > 1 - 1e-9
    got = qf.dirichlet_energy_embedded(emb, f.spacing, weights=interior.astype(float))
    assert got <= base * (1 + 1e-9)


def test_mollify_rejects_small_radius():
    f = constant_field(qf.square(1.0), 17, QPoint([[0.0], [1.0]]))
    with pytest.raises(ValueError):
        qf.mollify_embedded(f, eps=0.5 * f.spacing)


def test_embedded_energy_matches_tuple_energy():
    mach = default_machinery(1, 2)

    def fn(p):
        return np.array([[math.sin(p[0]) + 0.3 * p[1]],
                         [2.5 + 0.2 * math.cos(2 * p[1])]])

    f = qf.from_callable(qf.square(1.0), 65, fn, q=2, n=1)
    direct = qf.dirichlet_energy(f)
    emb = xi_batch(mach.spec, f.values)
    via = qf.dirichlet_energy_embedded(emb, f.spacing, mask=f.mask)
    assert abs(direct - via) <= 1e-10 * direct


def test_empty_region_has_zero_energy():
    mach = default_machinery(1, 2)
    f = qf.from_callable(qf.square(1.0), 9, lambda p: np.array([[p[0]], [2.0 * p[1]]]),
                         q=2, n=1)
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
    # the certificate size default_machinery uses, so its specs are shared
    emb = xi_batch(build_embedding(n, q, certificate_pairs=2000), f.values)

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
    a, b = _tuple_pairs(seed, 4, q, n, tie)
    costs = qf._perm_costs(a, b)
    assert costs.shape == (math.factorial(q), 4)
    best = costs.min(axis=0)
    want = np.array([metric_g(QPoint(s), QPoint(t)) ** 2
                     for s, t in zip(a, b)])
    assert np.all(np.abs(best - want) <= 1e-12 * (1.0 + want))
    assert np.array_equal(qf.matched_diff_sq(a, b), best)
    aligned = qf._align(a, b)
    assert np.array_equal(np.sum((a - aligned) ** 2, axis=(-2, -1)), best)
    assert np.array_equal(np.sort(aligned, axis=-2), np.sort(b, axis=-2))


@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1), tie=st.booleans())
def test_large_q_fallback_matches_brute_force(seed, tie):
    a, b = _tuple_pairs(seed, 2, 7, 1, tie)
    got = qf.matched_diff_sq(a, b)
    want = np.array([metric_g(QPoint(s), QPoint(t), method="brute") ** 2
                     for s, t in zip(a, b)])
    assert np.all(np.abs(got - want) <= 1e-12 * (1.0 + want))
