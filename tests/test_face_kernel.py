"""Face-closure kernel: exact active-set projection against the NNLS oracle."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlip import embed
from qlip.coneproj import project_polyhedral_cone
from qlip.embed import Dimensions, build_embedding, face_lattice, xi_batch

LATTICES = {
    "12": (Dimensions(2, 1, 2, 1), 400),
    "13": (Dimensions(2, 1, 3, 1), 400),
    "22": (Dimensions(2, 2, 2, 3), 2000),
}
KINDS = ("random", "image", "boundary", "scaled")


def lattice(key):
    dims, pairs = LATTICES[key]
    return face_lattice(build_embedding(dims, certificate_pairs=pairs))


def oracle_distance(face, v):
    ystar, _ = project_polyhedral_cone(face.basis.T @ v, face.cons)
    return float(np.linalg.norm(v - face.basis @ ystar))


def images(lat, rng, count):
    """Exact xi images, some on lower faces (coincident or zero points)."""
    q, n = lat.spec.dims.q, lat.spec.dims.n
    pts = rng.normal(size=(count, q, n))
    for t, mode in zip(pts, rng.integers(0, 4, size=count)):
        if mode == 1:
            t[1:] = t[0]
        elif mode == 2:
            t[0] = 0.0
        elif mode == 3:
            t[-1] = t[0]
    return xi_batch(lat.spec, pts)


def boundary_points(lat, rng, count):
    """Oracle projections of points pushed outside one closure constraint."""
    faces = [f for f in lat.faces if f.cons.size]
    out = []
    for f in rng.choice(len(faces), size=count):
        face = faces[f]
        c = face.cons[rng.integers(len(face.cons))]
        y = rng.normal(size=face.dim)
        y -= 2.0 * max(0.0, c @ y) * c + 0.1 * c
        ystar, _ = project_polyhedral_cone(y, face.cons)
        out.append(face.basis @ ystar)
    return np.asarray(out)


def points(lat, kind, rng, count):
    big_n = lat.spec.dims.big_n
    if kind == "random":
        return rng.normal(size=(count, big_n))
    if kind == "image":
        return images(lat, rng, count)
    if kind == "boundary":
        return boundary_points(lat, rng, count)
    return rng.normal(size=(count, big_n)) * 10.0 ** rng.uniform(-6, 6, size=(count, 1))


@pytest.mark.parametrize("key", sorted(LATTICES))
@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_closure_distance_matches_oracle(key, seed):
    lat = lattice(key)
    rng = np.random.default_rng(seed)
    for v in np.concatenate([points(lat, kind, rng, 2) for kind in KINDS]):
        tol = 1e-12 * (1.0 + np.linalg.norm(v))
        for f in lat.faces:
            d, p = lat.closure_distance(v, f, with_point=True)
            assert abs(d - oracle_distance(f, v)) <= tol
            assert abs(np.linalg.norm(v - p) - d) <= tol


@pytest.mark.parametrize("key", sorted(LATTICES))
@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_batch_matches_one_row(key, seed):
    lat = lattice(key)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([points(lat, kind, rng, 3) for kind in KINDS])
    tol = 1e-14 * (1.0 + np.linalg.norm(pts, axis=1))
    for k in range(lat.max_dim + 1):
        batch = lat.skeleton_distance_batch(pts, k)
        one = np.array([lat.skeleton_distance(v, k) for v in pts])
        assert np.all(np.abs(batch - one) <= tol)
    near, dist = lat.nearest_point_batch(pts)
    for v, p, d, t in zip(pts, near, dist, tol):
        p1, d1 = lat.nearest_point(v)
        assert abs(d - d1) <= t
        assert np.all(np.abs(p - p1) <= t)


@pytest.mark.parametrize("key", sorted(LATTICES))
@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_images_have_no_residual(key, seed):
    lat = lattice(key)
    v = images(lat, np.random.default_rng(seed), 20)
    near, dist = lat.nearest_point_batch(v)
    scale = 1.0 + np.linalg.norm(v, axis=1)
    assert np.all(dist <= 1e-12 * scale)
    assert np.all(np.linalg.norm(near - v, axis=1) <= 1e-12 * scale)


def test_chunked_enumeration_matches_one_row(monkeypatch):
    # more rows outside a face than one chunk holds
    lat = lattice("22")
    pts = np.random.default_rng(5).normal(size=(40, lat.spec.dims.big_n))
    whole = [lat.skeleton_distance_batch(pts, k) for k in range(lat.max_dim)]
    monkeypatch.setattr(embed, "_PROJECT_CHUNK", 3)
    for k in range(lat.max_dim):
        assert np.allclose(lat.skeleton_distance_batch(pts, k), whole[k],
                           rtol=0.0, atol=1e-14 * (1.0 + np.abs(whole[k]).max()))
    _, dist = lat.nearest_point_batch(pts)
    for v, d in zip(pts, dist):
        assert abs(d - lat.nearest_point(v)[1]) <= 1e-14 * (1.0 + np.linalg.norm(v))
