"""Embedding and face lattice: isometry defect, inverse, lattice structure."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from qlip.embed import (NotOnImageError, _label_slots, build_embedding,
                        face_lattice, face_of_point, xi, xi_batch, xi_inverse)
from qlip.qspace import QPoint, metric_g, random_qpoint


def spec12():
    return build_embedding(1, 2, certificate_pairs=400)


def spec13():
    return build_embedding(1, 3, certificate_pairs=400)


def spec22():
    return build_embedding(2, 2, certificate_pairs=2000)


def test_line_embedding_is_isometry():
    # n = 1: sorting is the optimal matching, so the map preserves the metric
    spec = spec12()
    assert spec.dims.h == 1 and spec.scale == pytest.approx(1.0)
    rng = np.random.default_rng(2)
    for _ in range(50):
        s = random_qpoint(rng, 2, 1)
        t = random_qpoint(rng, 2, 1)
        assert np.linalg.norm(xi(spec, s) - xi(spec, t)) == pytest.approx(
            metric_g(s, t), rel=1e-12, abs=1e-12)


def test_plane_embedding_hand_value():
    spec = spec22()
    assert spec.dims.h == 3
    # directions at angles 0, 60, 120 degrees; scale sqrt(2/3)
    t = QPoint([[1.0, 0.0], [0.0, 1.0]])
    r3 = np.sqrt(3.0)
    expect = np.sqrt(2.0 / 3.0) * np.array(
        [0.0, 1.0, 0.5, r3 / 2.0, -0.5, r3 / 2.0])
    assert np.allclose(xi(spec, t), expect, atol=1e-12)


def test_embedding_is_short_and_injective():
    spec = spec22()
    assert spec.certificate.passed
    rng = np.random.default_rng(4)
    worst = np.inf
    for _ in range(300):
        s = random_qpoint(rng, 2, 2, cluster=float(rng.choice([0.0, 0.05])))
        t = random_qpoint(rng, 2, 2)
        g = metric_g(s, t)
        gap = np.linalg.norm(xi(spec, s) - xi(spec, t))
        assert gap <= g * (1 + 1e-10) + 1e-12
        if g > 1e-12:
            worst = min(worst, gap / g)
    assert worst > 1e-6


SPECS = {"12": spec12, "13": spec13, "22": spec22}


def qtuples(spec):
    """Tuples of the spec's shape; small integers and exact zeros make
    coincident points and points on the lower faces common."""
    coords = st.one_of(st.integers(-2, 2).map(float),
                       st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False))
    return hnp.arrays(np.float64, (spec.dims.q, spec.dims.n), elements=coords)


@pytest.mark.parametrize("key", sorted(SPECS))
@settings(max_examples=40)
@given(data=st.data())
def test_xi_is_short_and_exactly_invertible(key, data):
    spec = SPECS[key]()
    s, t = data.draw(qtuples(spec)), data.draw(qtuples(spec))
    vs, vt = xi_batch(spec, s), xi_batch(spec, t)
    g = metric_g(QPoint(s), QPoint(t))
    assert np.linalg.norm(vs - vt) <= g * (1 + 1e-10) + 1e-12
    back = xi_inverse(face_lattice(spec), vt)
    assert metric_g(QPoint(back), QPoint(t)) <= 1e-12 * (1 + np.linalg.norm(vt))


def test_gradient_identity():
    # for tuple-valued affine maps the embedded Jacobian has the same
    # Frobenius norm as the raw one; this pins the sqrt(n/h) normalization
    rng = np.random.default_rng(8)
    for m, n, q in ((2, 1, 2), (2, 2, 2), (3, 3, 2)):
        spec = build_embedding(n, q, certificate_pairs=200)
        for _ in range(10):
            a = rng.normal(size=(q, n, m))
            b = rng.normal(size=(q, n))
            x0 = rng.normal(size=m)
            step = 1e-6
            cols = []
            for i in range(m):
                dx = np.zeros(m)
                dx[i] = step
                fp = xi(spec, QPoint(a @ (x0 + dx) + b))
                fm = xi(spec, QPoint(a @ (x0 - dx) + b))
                cols.append((fp - fm) / (2 * step))
            jac = np.stack(cols, axis=1)
            assert np.sum(jac ** 2) == pytest.approx(np.sum(a ** 2), rel=1e-5)


def test_xi_batch_agrees():
    spec = spec22()
    rng = np.random.default_rng(10)
    pts = rng.normal(size=(20, 2, 2))
    batch = xi_batch(spec, pts)
    for i in range(20):
        assert np.allclose(batch[i], xi(spec, QPoint(pts[i])))


def spec14():
    return build_embedding(1, 4, certificate_pairs=400)


def spec15():
    return build_embedding(1, 5, certificate_pairs=400)


def tuples(rng, spec, count, exponent, repeat, zero):
    """`count` tuples at scale 10**exponent.  `repeat` doubles the first point
    in even rows; `zero` zeroes the first coordinate of the first and last
    points in odd rows, a tie that the first block cannot order."""
    t = rng.normal(size=(count, spec.dims.q, spec.dims.n)) * 10.0 ** exponent
    if repeat:
        t[::2, 1] = t[::2, 0]
    if zero:
        t[1::2, [0, -1], 0] = 0.0
    return t


def test_label_slots_hand_value():
    # block 0: labels at levels (2, 0, 1) sort as 1, 2, 0; block 1 ties
    # labels 0 and 1, which keep label order
    slots = _label_slots((((2, 0, 1), 3, 4), ((0, 0, 1), 2, 3)))
    assert slots.tolist() == [[2, 0], [0, 1], [1, 2]]


@settings(max_examples=12)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-3, 3),
       repeat=st.booleans(), zero=st.booleans())
def test_inverse_roundtrip(seed, exponent, repeat, zero):
    rng = np.random.default_rng(seed)
    for spec in (spec12(), spec13(), spec14(), spec15(), spec22()):
        t = tuples(rng, spec, 24, exponent, repeat, zero)
        v = xi_batch(spec, t)
        r = xi_inverse(face_lattice(spec), v)
        assert r.shape == t.shape
        for a, b, w in zip(r, t, v):
            assert np.array_equal(QPoint(a).points, a)
            assert metric_g(QPoint(a), QPoint(b)) <= 1e-13 * (1 + np.linalg.norm(w))


@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1), exponent=st.integers(-3, 3))
def test_inverse_batch_matches_rows(seed, exponent):
    # embedded tuples with ties, and nearest cone points of random vectors
    # (mostly on lower faces); a row's tuple does not depend on its batch
    spec = spec22()
    lat = face_lattice(spec)
    rng = np.random.default_rng(seed)
    v = np.concatenate([
        xi_batch(spec, tuples(rng, spec, 12, exponent, True, True)),
        lat.nearest_point_batch(rng.normal(size=(12, spec.dims.big_n))
                                * 10.0 ** exponent)[0]])
    r = xi_inverse(lat, v, tol=1e-5)
    assert np.array_equal(r, np.array([xi_inverse(lat, w, tol=1e-5) for w in v]))
    perm = rng.permutation(len(v))
    assert np.array_equal(xi_inverse(lat, v[perm], tol=1e-5), r[perm])


def test_inverse_rejects_off_image():
    with pytest.raises(NotOnImageError):
        xi_inverse(face_lattice(spec12()), np.array([1.0, 0.0]))  # unsorted block
    spec2 = spec22()
    rng = np.random.default_rng(14)
    t = random_qpoint(rng, 2, 2)
    v = xi(spec2, t)
    # a generic normal perturbation leaves the 4-dimensional image inside R^6
    w = v + 0.3 * rng.normal(size=6)
    with pytest.raises(NotOnImageError) as err:
        xi_inverse(face_lattice(spec2), np.stack([v, w]))
    assert "1 of 2 row(s)" in str(err.value)
    assert err.value.residual > 0.1


def test_inverse_rejects_nonfinite_rows():
    lat = face_lattice(spec22())
    v = np.zeros((4, 6))
    v[1, 2] = np.nan
    v[3, 0] = np.inf
    with pytest.raises(ValueError, match="2 row"):
        xi_inverse(lat, v)


def test_inverse_of_empty_batch():
    assert xi_inverse(face_lattice(spec22()), np.zeros((0, 6))).shape == (0, 2, 2)


def test_face_count_line_two():
    # hand count over weak orders of {a, b, 0} merged under the label swap:
    # 1 vertex, 4 edges ([a<b=0], [0<a=b], [a=b<0], [a=0<b]), 3 chambers
    lat = face_lattice(spec12())
    assert len(lat.faces) == 8
    by_dim = {k: len(lat.faces_of_dim(k)) for k in range(3)}
    assert by_dim == {0: 1, 1: 4, 2: 3}


def test_face_count_line_three():
    # Burnside over S_3 acting on ordered partitions of {a, b, c, 0}:
    # (75 + 3*13 + 2*3) / 6 = 20
    lat = face_lattice(spec13())
    assert len(lat.faces) == 20
    assert {k: len(lat.faces_of_dim(k)) for k in range(4)} == {0: 1, 1: 6, 2: 9, 3: 4}
    assert lat.max_dim == 3
    assert lat.tilde_c == 0.25


def test_lattice_snapshot_plane_two():
    # pins the (2, 2) build: faces, aperture and separations
    lat = face_lattice(spec22())
    assert len(lat.faces) == 253
    assert {k: len(lat.faces_of_dim(k)) for k in range(5)} == {
        0: 1, 1: 18, 2: 75, 3: 108, 4: 51}
    blob = json.dumps(lat.to_json()["faces"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "a6b61094f6e2764d33d13430de0f5bcbcd8f58c8c6c8c962c66056d9f5fa54e2")
    assert lat.tilde_c == 0.25
    expect = {1: 0.7071067811865472, 2: 0.6986736317740696, 3: 0.7679706585688186}
    assert lat.pair_separation.keys() == expect.keys()
    for k, sep in expect.items():
        assert abs(lat.pair_separation[k] - sep) <= 1e-12


def test_lattice_grading_and_vertex():
    for spec in (spec12(), spec22()):
        lat = face_lattice(spec)
        verts = lat.faces_of_dim(0)
        assert len(verts) == 1
        assert lat.max_dim == spec.dims.nq
        assert lat.tilde_c > 0 and lat.tilde_c <= 0.5
        for k, sep in lat.pair_separation.items():
            assert sep > 0


def test_face_of_point_dimensions():
    spec = spec22()
    lat = face_lattice(spec)
    rng = np.random.default_rng(18)
    # generic tuples land on top-dimensional faces
    for _ in range(10):
        t = random_qpoint(rng, 2, 2)
        f = face_of_point(lat, xi(spec, t))
        assert f.dim == spec.dims.nq
    # a doubled point away from zero lands on the diagonal face (dim = n)
    t = QPoint([[0.7, -0.4], [0.7, -0.4]])
    f = face_of_point(lat, xi(spec, t))
    assert f.dim == spec.dims.n
    # the zero tuple is the vertex
    f = face_of_point(lat, np.zeros(spec.dims.big_n))
    assert f.dim == 0


def relative_interior_point(face, rng):
    """A point of the open face: the deepest point of its closure in the unit
    box (one LP), moved half its depth in a random direction."""
    m = len(face.cons)
    y0, depth = np.zeros(face.dim), 1.0
    if m:
        c = np.zeros(face.dim + 1)
        c[-1] = -1.0
        res = linprog(c, A_ub=np.concatenate([-face.cons, np.ones((m, 1))], axis=1),
                      b_ub=np.zeros(m), bounds=[(-1, 1)] * face.dim + [(0, 1)],
                      method="highs")
        y0, depth = res.x[:-1], res.x[-1]
    u = rng.normal(size=face.dim)
    return face.basis @ (y0 + 0.5 * depth * u / np.linalg.norm(u))


@pytest.mark.parametrize("key", ["12", "13", "22"])
@settings(max_examples=2)
@given(seed=st.integers(0, 2 ** 32 - 1), shift=st.integers(0, 2))
def test_face_of_point_recovers_every_face(key, seed, shift):
    # every face comes back from a point of its relative interior at one of
    # the scales 1e-3, 1, 1e3 (cycled over the faces); the whole cone is
    # searched, not only the faces of the expected dimension
    spec = {"12": spec12, "13": spec13, "22": spec22}[key]()
    lat = face_lattice(spec)
    rng = np.random.default_rng(seed)
    top = None
    for f in lat.faces:
        if f.dim == 0:
            assert face_of_point(lat, np.zeros(spec.dims.big_n)) is f
            continue
        v = relative_interior_point(f, rng)
        assert face_of_point(lat, 10.0 ** (3 * ((f.index + shift) % 3 - 1)) * v) is f
        if f.dim == lat.max_dim:
            top = v
    # reversing every sorted block of a top-face point leaves the cone
    off = top.reshape(spec.dims.h, spec.dims.q)[:, ::-1].reshape(-1)
    with pytest.raises(NotOnImageError) as err:
        face_of_point(lat, off)
    assert err.value.residual > 1e-3 * np.linalg.norm(off)


def test_homogeneity_of_skeleton_distance():
    spec = spec22()
    lat = face_lattice(spec)
    rng = np.random.default_rng(22)
    v = xi(spec, random_qpoint(rng, 2, 2))
    for k in range(0, 3):
        d1 = lat.skeleton_distance(v, k)
        d2 = lat.skeleton_distance(2.5 * v, k)
        assert d2 == pytest.approx(2.5 * d1, rel=1e-9)
    assert lat.skeleton_distance(v, 0) == pytest.approx(np.linalg.norm(v), rel=1e-12)


def test_skeleton_distance_batch_matches_loop():
    spec = spec22()
    lat = face_lattice(spec)
    rng = np.random.default_rng(24)
    pts = rng.normal(size=(15, spec.dims.big_n))
    for k in (0, 1, 2, 3):
        batch = lat.skeleton_distance_batch(pts, k)
        loop = np.array([lat.skeleton_distance(p, k) for p in pts])
        assert np.allclose(batch, loop, atol=1e-10)


def test_nearest_point_line_hand_value():
    lat = face_lattice(spec12())
    p, d = lat.nearest_point(np.array([1.0, 0.0]))
    assert np.allclose(p, [0.5, 0.5], atol=1e-10)
    assert d == pytest.approx(np.sqrt(0.5), abs=1e-10)
    # points on the image are fixed
    v = np.array([-0.3, 1.1])
    p, d = lat.nearest_point(v)
    assert np.allclose(p, v, atol=1e-12)
    assert d == pytest.approx(0.0, abs=1e-12)


def test_nearest_point_batch_matches_loop():
    spec = spec22()
    lat = face_lattice(spec)
    rng = np.random.default_rng(26)
    pts = rng.normal(size=(12, spec.dims.big_n)) * 1.5
    bp, bd = lat.nearest_point_batch(pts)
    for i in range(12):
        p, d = lat.nearest_point(pts[i])
        assert bd[i] == pytest.approx(d, abs=1e-10)
        assert np.linalg.norm(bp[i] - pts[i]) == pytest.approx(d, abs=1e-9)
    # projections land on the image
    t = xi_inverse(lat, bp, tol=1e-5)
    assert np.all(np.linalg.norm(xi_batch(spec, t) - bp, axis=1) < 1e-5 * (1 + bd))


def test_line_face_projection_example():
    lat = face_lattice(spec12())
    chamber = next(f for f in lat.faces if f.pattern == (((1, 2), 0, 3),))
    # the chamber 0 < x1 < x2 has closure {0 <= x1 <= x2}; projecting
    # (1.0, 0.5) pools the inversion to 0.75 and keeps the zero constraint slack
    _, p = lat.closure_distance(np.array([1.0, 0.5]), chamber, with_point=True)
    assert np.allclose(p, [0.75, 0.75])
