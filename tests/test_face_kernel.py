"""Face-closure kernel: its NNLS closure projection against the scipy NNLS
oracle and against exact enumeration over active sets."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qlip import embed
from qlip.coneproj import project_polyhedral_cone
from qlip.embed import build_embedding, face_lattice, xi_batch

LATTICES = {"12": (1, 2), "13": (1, 3), "22": (2, 2)}
KINDS = ("random", "image", "boundary", "scaled")


def lattice(key):
    return face_lattice(build_embedding(*LATTICES[key]))


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
            d, p = lat.closure_distance(v, f)
            assert abs(d - oracle_distance(f, v)) <= tol
            assert abs(np.linalg.norm(v - p) - d) <= tol


@pytest.mark.parametrize("key", sorted(LATTICES))
@settings(max_examples=6)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_batch_matches_one_row(key, seed):
    lat = lattice(key)
    rng = np.random.default_rng(seed)
    # bitwise: rho_star seeds its Kirszbraun jitters from these values
    pts = np.concatenate([points(lat, kind, rng, 3) for kind in KINDS])
    for k in range(lat.max_dim + 1):
        batch = lat.skeleton_distance_batch(pts, k)
        one = np.array([lat.skeleton_distance(v, k) for v in pts])
        assert np.array_equal(batch, one)
    near, dist = lat.nearest_point_batch(pts)
    for v, p, d in zip(pts, near, dist):
        p1, d1 = lat.nearest_point(v)
        assert d == d1
        assert np.array_equal(p, p1)


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


def enumeration_projection(face, v):
    """The exact closure projection by enumeration: y itself when it meets
    the constraints to the kernel's slack, else the nearest y @ P_S that
    does, P_S the projector onto null(cons[S]) over the nonempty independent
    row sets S (the projection lies in the relative interior of one face of
    the closure, which spans null(cons[S]) for such an S)."""
    y = face.basis.T @ v
    tol = embed._closure_tol(y)
    if (face.cons @ y).min(initial=0.0) >= -tol:
        return face.basis @ y
    best = None
    for size in range(1, min(face.cons.shape) + 1):
        for rows in itertools.combinations(range(len(face.cons)), size):
            _u, s, vt = np.linalg.svd(face.cons[list(rows)])
            if s[-1] > 1e-10:
                cand = y @ vt[size:].T @ vt[size:]
                if (face.cons @ cand).min() >= -tol and (
                        best is None or np.sum((cand - y) ** 2) < np.sum((best - y) ** 2)):
                    best = cand
    return face.basis @ best


def pushed_outside(lat, rng, count):
    """Per input, a face and a point near its span pushed just outside two
    of its closure constraints (one where the face has a single one), at
    offsets from 1e-8 to 1e-2: those where the nearest candidate set is
    closest to ambiguous."""
    faces = [f for f in lat.faces if f.cons.size]
    which, out = [], []
    for f in rng.choice(len(faces), size=count):
        face = faces[f]
        c = face.cons[rng.choice(len(face.cons), size=min(2, len(face.cons)), replace=False)]
        y = rng.normal(size=face.dim)
        y -= np.linalg.lstsq(c, c @ y + 10.0 ** rng.uniform(-8, -2, size=len(c)), rcond=None)[0]
        lift = rng.normal(size=lat.spec.dims.big_n) * 10.0 ** rng.uniform(-8, -2)
        which.append(face)
        out.append(face.basis @ y + lift)
    return which, np.asarray(out)


@pytest.mark.parametrize("key", ["13", "22"])
def test_projection_matches_enumeration(key):
    # the kernel's NNLS projection against the enumeration it replaced, on
    # random points and on points just outside two constraints
    lat = lattice(key)
    rng = np.random.default_rng(7)
    faces = [f for f in lat.faces if f.cons.size]
    which = [faces[i] for i in rng.choice(len(faces), size=500)]
    pts = rng.normal(size=(500, lat.spec.dims.big_n))
    near_faces, near_pts = pushed_outside(lat, rng, 1000)
    which, pts = which + near_faces, np.concatenate([pts, near_pts])
    dims = np.array([f.dim for f in which])
    for k in np.unique(dims):
        stack, sel = lat.faces_of_dim(k), np.flatnonzero(dims == k)
        got = stack.project(pts[sel], np.array([stack.index(which[i]) for i in sel]))
        for i, p in zip(sel, got):
            ref = enumeration_projection(which[i], pts[i])
            assert np.linalg.norm(p - ref) <= 1e-13 * np.linalg.norm(pts[i])


def just_outside(lat, rng, count):
    """Points near a face span, just outside one closure constraint: the
    lower bound hypot(span distance, violation) prunes close to them.  (The
    offsets stay above 1e-6: the kernel counts violations below 1e-9 as
    inside, and the oracle's own error reaches 1e-8 when two constraints
    are that close to active.)"""
    faces = [f for f in lat.faces if f.cons.size]
    out = []
    for f in rng.choice(len(faces), size=count):
        face = faces[f]
        c = face.cons[rng.integers(len(face.cons))]
        y = rng.normal(size=face.dim)
        y -= (c @ y + 10.0 ** rng.uniform(-6, -2)) * c
        lift = rng.normal(size=lat.spec.dims.big_n) * 10.0 ** rng.uniform(-6, -2)
        out.append(face.basis @ y + lift)
    return np.asarray(out)


@pytest.mark.parametrize("key", sorted(LATTICES))
@settings(max_examples=2)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_face_lists_match_oracle(key, seed):
    # every face list the code reduces over: the distance is the least
    # oracle distance, the point lies at it, and `which` is the first face
    # realizing it; the skeleton distance is the least over dims <= k
    lat = lattice(key)
    rng = np.random.default_rng(seed)
    pts = np.concatenate([points(lat, kind, rng, 2) for kind in KINDS]
                         + [just_outside(lat, rng, 4)])
    oracle = np.array([[oracle_distance(f, v) for f in lat.faces] for v in pts])
    tol = 1e-12 * (1.0 + np.linalg.norm(pts, axis=1))
    for faces in [lat.top_faces] + [lat.faces_of_dim(k) for k in range(lat.max_dim + 1)]:
        near, dist, which = faces.nearest(pts)
        ref = oracle[:, [f.index for f in faces]]
        assert np.all(np.abs(dist - ref.min(axis=1)) <= tol)
        assert np.all(np.abs(np.linalg.norm(pts - near, axis=1) - dist) <= tol)
        for i, j in enumerate(which):
            assert abs(ref[i, j] - dist[i]) <= tol[i]
            assert np.all(ref[i, :j] >= dist[i] - tol[i])
    for k in range(lat.max_dim + 1):
        ref = oracle[:, [f.index for f in lat.faces if f.dim <= k]].min(axis=1)
        assert np.all(np.abs(lat.skeleton_distance_batch(pts, k) - ref) <= tol)
    assert np.all(np.isinf(lat.skeleton_distance_batch(pts, -1)))
    _, dist, which = lat.faces_of_dim(-1).nearest(pts)
    assert np.all(np.isinf(dist)) and np.all(which == -1)


def reference_span(stack, pts):
    """The span pass through the span coordinates: y, then the span point
    and the margins from y by the 3-index contractions."""
    y = np.einsum("ri,fid->rfd", pts, stack.basis)
    near = np.einsum("rfd,fid->rfi", y, stack.basis)
    dist = np.linalg.norm(pts[:, None] - near, axis=2)
    margin = np.einsum("rfd,fmd->rfm", y, stack.cons).min(axis=2, initial=0.0)
    return y, near, dist, margin


@pytest.mark.parametrize("key", ["13", "22"])
def test_flat_span_matches_reference(key):
    # the flat contractions from pts against the path through y, on random
    # rows, cone images and rows pushed 1e-8 to 1e-2 outside one or two
    # closure constraints
    lat = lattice(key)
    rng = np.random.default_rng(11)
    pts = np.concatenate([points(lat, "random", rng, 100), images(lat, rng, 100),
                          pushed_outside(lat, rng, 300)[1]])
    scale = (1.0 + np.linalg.norm(pts, axis=1))[:, None]
    for k in range(lat.max_dim + 1):
        stack = lat.faces_of_dim(k)
        y, near, dist, slack = stack.span(pts)
        ref_y, ref_near, ref_dist, ref_margin = reference_span(stack, pts)
        ref_tol = embed._closure_tol(ref_y)
        assert np.all(np.abs(near - ref_near).max(axis=2) <= 1e-14 * scale)
        assert np.all(np.abs(dist - ref_dist) <= 1e-14 * scale)
        assert np.all(np.abs(slack - (ref_margin + ref_tol)) <= 1e-14 * scale)
        assert np.array_equal(slack >= 0.0, ref_margin >= -ref_tol)
        # bitwise: a row spanned alone rounds as it does inside the batch
        for i in rng.choice(len(pts), size=20, replace=False):
            one = stack.span(pts[i:i + 1])
            for got, batch in zip(one, (y, near, dist, slack)):
                assert np.array_equal(got[0], batch[i])
