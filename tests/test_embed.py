"""Embedding and face lattice: isometry defect, inverse, lattice structure."""
import hashlib
import json

import numpy as np
import pytest

from qlip.embed import (Dimensions, FaceSignature, NotOnImageError,
                        build_embedding, face_lattice, face_of_point,
                        face_signature, pattern_of_points,
                        project_face_closure_line, xi, xi_batch, xi_inverse)
from qlip.qspace import QPoint, metric_g, random_qpoint


def spec12():
    return build_embedding(Dimensions(2, 1, 2, 1), certificate_pairs=400)


def spec13():
    return build_embedding(Dimensions(2, 1, 3, 1), certificate_pairs=400)


def spec22():
    return build_embedding(Dimensions(2, 2, 2, 3), certificate_pairs=2000)


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


def test_gradient_identity():
    # for tuple-valued affine maps the embedded Jacobian has the same
    # Frobenius norm as the raw one; this pins the sqrt(n/h) normalization
    rng = np.random.default_rng(8)
    for dims in (Dimensions(2, 1, 2, 1), Dimensions(2, 2, 2, 3), Dimensions(3, 3, 2, 6)):
        spec = build_embedding(dims, certificate_pairs=200)
        m = dims.m
        for _ in range(10):
            a = rng.normal(size=(dims.q, dims.n, m))
            b = rng.normal(size=(dims.q, dims.n))
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


def test_inverse_roundtrip():
    rng = np.random.default_rng(12)
    for spec in (spec12(), spec13(), spec22()):
        for _ in range(25):
            t = random_qpoint(rng, spec.dims.q, spec.dims.n,
                              cluster=float(rng.choice([0.0, 0.01])))
            v = xi(spec, t)
            s = xi_inverse(spec, v)
            assert metric_g(s, t) < 1e-8 * (1 + np.linalg.norm(v))


def test_inverse_rejects_off_image():
    spec = spec12()
    with pytest.raises(NotOnImageError):
        xi_inverse(spec, np.array([1.0, 0.0]))  # unsorted block
    spec2 = spec22()
    rng = np.random.default_rng(14)
    t = random_qpoint(rng, 2, 2)
    v = xi(spec2, t)
    # a generic normal perturbation leaves the 4-dimensional image inside R^6
    w = v + 0.3 * rng.normal(size=6)
    try:
        s = xi_inverse(spec2, w)
        assert np.linalg.norm(xi(spec2, s) - w) < 1e-6  # lucky landing only
    except NotOnImageError as err:
        assert err.residual > 1e-6


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
    # pins the (2, 2) build: faces, closure relation, aperture and separations
    lat = face_lattice(spec22())
    assert len(lat.faces) == 253
    assert {k: len(lat.faces_of_dim(k)) for k in range(5)} == {
        0: 1, 1: 18, 2: 75, 3: 108, 4: 51}
    blob = json.dumps(lat.to_json()["faces"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == (
        "8026081813255fe72c821a6b08ef994fd5a53372f0b136514e7523ec9bf3ddc4")
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
        # the origin lies in the closure of every other face
        others = {f.index for f in lat.faces if f.dim > 0}
        assert verts[0].closure_of == frozenset(others)
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
        f = face_of_point(spec, lat, xi(spec, t))
        assert f.dim == spec.dims.nq
    # a doubled point away from zero lands on the diagonal face (dim = n)
    t = QPoint([[0.7, -0.4], [0.7, -0.4]])
    f = face_of_point(spec, lat, xi(spec, t))
    assert f.dim == spec.dims.n
    # the zero tuple is the vertex
    f = face_of_point(spec, lat, np.zeros(spec.dims.big_n))
    assert f.dim == 0


def test_signature_consistency():
    spec = spec22()
    lat = face_lattice(spec)
    rng = np.random.default_rng(20)
    for _ in range(20):
        t = random_qpoint(rng, 2, 2, cluster=float(rng.choice([0.0, 0.02])))
        v = xi(spec, t)
        f = face_of_point(spec, lat, v)
        assert face_signature(spec, v) == f.signature
    sig = face_signature(spec, xi(spec, random_qpoint(rng, 2, 2)))
    assert FaceSignature.from_json(sig.to_json()) == sig


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
    for i in range(12):
        t = xi_inverse(spec, bp[i], tol=1e-5)
        assert np.linalg.norm(xi(spec, t) - bp[i]) < 1e-5 * (1 + bd[i])


def test_line_face_projection_example():
    spec = spec12()
    lat = face_lattice(spec)
    # the chamber 0 < x1 < x2 has closure {0 <= x1 <= x2}; fitting (1.0, 0.5)
    # pools the inversion to 0.75 and keeps the zero constraint slack
    target = None
    for f in lat.faces_of_dim(2):
        if f.signature.blocks == (((0, True), (1, False), (1, False)),):
            target = f
    assert target is not None
    out = project_face_closure_line(target, np.array([1.0, 0.5]))
    assert np.allclose(out, [0.75, 0.75])


def test_line_face_projection_matches_cone():
    spec = spec13()
    lat = face_lattice(spec)
    rng = np.random.default_rng(28)
    for f in lat.faces:
        if f.dim == 0:
            continue
        for _ in range(10):
            v = rng.normal(size=3) * 2
            out = project_face_closure_line(f, v)
            d_pava = np.linalg.norm(out - v)
            d_cone = lat.closure_distance(v, f)
            assert d_pava == pytest.approx(d_cone, abs=1e-8)


def test_pattern_of_points_roundtrip():
    spec = spec22()
    lat = face_lattice(spec)
    rng = np.random.default_rng(30)
    for f in lat.faces:
        if f.dim == 0:
            continue
        # sample a relative interior point and confirm it reproduces the pattern
        y = None
        for trial in range(50):
            cand = rng.normal(size=f.dim)
            if f.cons.size == 0 or (f.cons @ cand).min() > 1e-6:
                y = cand
                break
        if y is None:
            continue
        v = f.basis @ y
        t = xi_inverse(spec, v, tol=1e-6)
        from qlip.embed import _canonical_pattern
        assert _canonical_pattern(pattern_of_points(spec, t), 2) == f.pattern


def test_lattice_json_roundtrip():
    spec = spec22()
    lat = face_lattice(spec)
    blob = json.loads(json.dumps(lat.to_json()))
    lat2 = lat.from_json(spec, blob)
    assert len(lat2.faces) == len(lat.faces)
    assert lat2.tilde_c == lat.tilde_c
    assert lat2.pair_separation == lat.pair_separation
    for a, b in zip(lat.faces, lat2.faces):
        assert a.pattern == b.pattern and a.dim == b.dim
        assert a.closure_of == b.closure_of
        assert np.allclose(a.basis @ a.basis.T, b.basis @ b.basis.T, atol=1e-10)
