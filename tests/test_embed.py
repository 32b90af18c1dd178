"""Embedding and face lattice: isometry defect, inverse, lattice structure."""
import hashlib
import itertools
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from qlip import embed
from qlip.embed import (NotOnImageError, _label_slots, build_embedding,
                        face_lattice, face_of_point, xi, xi_batch, xi_inverse)
from qlip.qspace import QPoint, metric_g, random_qpoint


def spec12():
    return build_embedding(1, 2)


def spec13():
    return build_embedding(1, 3)


def spec22():
    return build_embedding(2, 2)


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


@pytest.mark.parametrize("n, q, h, ratio", [
    (1, 2, 1, 1.0),
    (2, 2, 3, 0.5773502691896069),
    (1, 3, 1, 0.9999999999999998),
    (2, 3, 3, 0.5022161785314823),
])
def test_embedding_certificate_pinned(n, q, h, ratio):
    # the frame size and the seeded certificate's least gap ratio
    spec = build_embedding(n, q)
    assert spec.dims.h == h
    assert spec.certificate.passed
    assert abs(spec.certificate.min_gap_ratio - ratio) <= 1e-12


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
        spec = build_embedding(n, q)
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
    return build_embedding(1, 4)


def spec15():
    return build_embedding(1, 5)


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
    r = xi_inverse(lat, v)
    assert np.array_equal(r, np.array([xi_inverse(lat, w) for w in v]))
    perm = rng.permutation(len(v))
    assert np.array_equal(xi_inverse(lat, v[perm]), r[perm])


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


def test_face_count_line_four_and_five():
    lat = face_lattice(spec14())
    assert len(lat.faces) == 48
    assert {k: len(lat.faces_of_dim(k)) for k in range(5)} == {
        0: 1, 1: 8, 2: 18, 3: 16, 4: 5}
    assert lat.tilde_c == 0.25
    lat = face_lattice(spec15())
    assert len(lat.faces) == 112
    assert {k: len(lat.faces_of_dim(k)) for k in range(6)} == {
        0: 1, 1: 10, 2: 30, 3: 40, 4: 25, 5: 6}
    assert lat.tilde_c == 0.125


# (eq_rows, strict_rows) in the plane and the depth each has
HAND_DEPTHS = [
    # the chamber 0 < x1 < x2 opens 45 degrees: its depth is sin(22.5 deg)
    (([], [np.array([1.0, 0.0]), np.array([-1.0, 1.0])]), np.sin(np.pi / 8)),
    # on the line x1 = x2 the row (1, 0) restricts to a unit row
    (([np.array([1.0, -1.0])], [np.array([1.0, 0.0])]), 1.0),
    # opposite rows, a row vanishing on the equality space, a point space
    (([], [np.array([1.0, 0.0]), np.array([-2.0, 0.0])]), 0.0),
    (([np.array([1.0, 0.0])], [np.array([1.0, 0.0])]), 0.0),
    (([np.eye(2)[0], np.eye(2)[1]], [np.array([1.0, 1.0])]), 0.0),
    # no strict rows: the open cone holds P = 0
    (([np.array([1.0, 0.0])], []), np.inf),
]


def test_face_depth_hand_values():
    # each child alone, then all in one call: the stacks of one strict-row
    # count mix equality-row counts, and a row's depth is its own
    children, want = zip(*HAND_DEPTHS)
    alone = np.concatenate([embed._face_depths([c]) for c in children])
    together = embed._face_depths(list(children))
    for got in (alone, together):
        assert got == pytest.approx(np.array(want), abs=1e-12)
        assert (got[np.array(want) == 0.0] == 0.0).all()
    assert np.array_equal(alone, together)


def nnls_stacks():
    """(A, c) stacks for the NNLS reference: random, rank-deficient (more
    columns than rows, and rank 3 of 8 columns) and with a duplicated column,
    the degenerate ties of coneproj.project_polyhedral_cone."""
    rng, rows = np.random.default_rng(2), 200
    out = [(rng.normal(size=(rows, 7, 4)), rng.normal(size=(rows, 7))),
           (rng.normal(size=(rows, 3, 6)), rng.normal(size=(rows, 3))),
           (rng.normal(size=(rows, 6, 3)) @ rng.normal(size=(rows, 3, 8)),
            rng.normal(size=(rows, 6)))]
    a = rng.normal(size=(rows, 3, 6))
    out.append((a[:, :, [0, 1, 2, 3, 4, 0]], rng.normal(size=(rows, 3))))
    # the face test's own form: unit rows of G (one repeated), a row of ones,
    # c = e_last
    g = rng.normal(size=(rows, 4, 3))[:, [0, 1, 1, 2, 3]]
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    lhs = np.concatenate([g.transpose(0, 2, 1), np.ones((rows, 1, 5))], axis=1)
    out.append((lhs, np.broadcast_to(np.eye(4)[-1], (rows, 4))))
    return out


@pytest.mark.parametrize("stack", range(5))
def test_nnls_gram_matches_scipy(stack):
    from scipy.optimize import nnls

    a, c = nnls_stacks()[stack]
    u = embed._nnls_gram(np.einsum("bim,bik->bmk", a, a), np.einsum("bim,bi->bm", a, c))
    assert (u >= 0.0).all()
    for a_i, c_i, u_i in zip(a, c, u):
        ref = nnls(a_i, c_i)[0]
        obj, obj_ref = (np.sum((a_i @ x - c_i) ** 2) for x in (u_i, ref))
        assert abs(obj - obj_ref) <= 1e-12 * max(obj_ref, 1.0)
        # KKT: the gradient A^T (c - A u) is <= 0, and 0 where u > 0
        grad = a_i.T @ (c_i - a_i @ u_i)
        assert grad.max() <= 1e-10
        assert np.abs(grad[u_i > 0.0]).max(initial=0.0) <= 1e-10


def test_nnls_gram_raises_at_its_iteration_cap(monkeypatch):
    # the chamber's problem needs both columns, so two solves; a cap of one
    # solve (0.5 per variable) raises
    g = np.array([[[1.0, 0.0], [-1.0, 1.0]]]) / np.array([1.0, np.sqrt(2.0)])[:, None]
    h, b = np.einsum("bmi,bki->bmk", g, g) + 1.0, np.ones((1, 2))
    assert (embed._nnls_gram(h, b) > 0.0).all()
    monkeypatch.setattr(embed, "_NNLS_ITERS", 0.5)
    with pytest.raises(RuntimeError, match="did not converge in 1 solves"):
        embed._nnls_gram(h, b)


def test_nnls_gram_rows_do_not_depend_on_their_stack():
    # bitwise: a row that has settled keeps its solution while slower rows
    # of its stack still run, so the face kernel's closure projections round
    # a row the same way whatever batch it comes in
    rng = np.random.default_rng(0)
    g = rng.normal(size=(400, 6, 4))
    g /= np.linalg.norm(g, axis=2, keepdims=True)
    h, b = np.einsum("bmd,bkd->bmk", g, g), -np.einsum("bmd,bd->bm", g, rng.normal(size=(400, 4)))
    stacked = embed._nnls_gram(h, b)
    for i in range(len(b)):
        assert np.array_equal(embed._nnls_gram(h[i:i + 1], b[i:i + 1])[0], stacked[i])


def lp_slack(eq_rows, strict_rows):
    """The oracle for the face test: the largest t <= 1 with strict_rows P >= t
    and eq_rows P = 0 over the box |P_i| <= 1, by one LP."""
    if not strict_rows:
        return 1.0
    strict = np.asarray(strict_rows)
    m, nq = strict.shape
    a_eq = b_eq = None
    if eq_rows:
        a_eq = np.concatenate([np.asarray(eq_rows), np.zeros((len(eq_rows), 1))], axis=1)
        b_eq = np.zeros(len(eq_rows))
    c = np.zeros(nq + 1)
    c[-1] = -1.0
    res = linprog(c, A_ub=np.concatenate([-strict, np.ones((m, 1))], axis=1),
                  b_ub=np.zeros(m), A_eq=a_eq, b_eq=b_eq,
                  bounds=[(-1, 1)] * nq + [(0, 1)], method="highs")
    assert res.status == 0
    return -res.fun


def test_face_test_agrees_with_lp_oracle(monkeypatch):
    # every decision of cold (1, 2), (1, 3) and (1, 4) builds, where every
    # pattern tried is a face, and every third block after one pair of (2, 2)
    # chambers, where most are not, matches the LP, with a wide margin
    depths, calls = embed._face_depths, []

    def record(children):
        got = depths(children)
        calls.extend((e, s, d) for (e, s), d in zip(children, got))
        return got

    monkeypatch.setattr(embed, "_LATTICE_CACHE", {})
    monkeypatch.setattr(embed, "_face_depths", record)
    for spec in (spec12(), spec13(), spec14()):
        face_lattice(spec)
    assert len(calls) == 8 + 20 + 48
    spec, chamber, kids = spec22(), ((0, 1), 2, 3), []
    for b, c in itertools.product(embed._block_patterns(2), repeat=2):
        rows = [embed._pattern_rows(spec, k, p) for k, p in enumerate((chamber, b, c))]
        kids.append((sum([e for e, _ in rows], []), sum([s for _, s in rows], [])))
    record(kids)
    faces = 0
    for eq_rows, strict_rows, depth in calls:
        slack = lp_slack(eq_rows, strict_rows)
        assert (depth > embed._FEAS_TOL) == (slack > embed._FEAS_TOL)
        if depth > embed._FEAS_TOL:
            faces += 1
            assert depth >= 0.1
        else:
            assert slack <= 1e-12
    assert (faces, len(calls) - faces) == (76 + 49, 120)


@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_block_patterns_are_the_product_filter(q):
    """The pruned recursion lists exactly the level tuples whose used levels
    are 0..L-1, in the product's lexicographic order."""
    want = [(lv[:q], lv[q], max(lv) + 1)
            for lv in itertools.product(range(q + 1), repeat=q + 1)
            if len(set(lv)) == max(lv) + 1]
    assert embed._block_patterns(q) == want


def test_lattice_over_budget_raises(monkeypatch):
    monkeypatch.setattr(embed, "_LATTICE_CACHE", {})
    monkeypatch.setattr(embed, "_FACE_BUDGET", 47)
    with pytest.raises(ValueError, match=r"\(1, 4\) cone has more than 47 faces"):
        face_lattice(spec14())


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


@pytest.mark.parametrize("spec, digest", [
    (spec12, "dd3868e2123b1402ef04252cea0ce0668d5d57eaa78f8e3824c5b2c92446e982"),
    (spec13, "7104bca1fa64ec7181089eeea1724fb349bcd4b499cd9cdc0593f135e624ff0a"),
    (spec14, "17531b6529d85f91205804e943e8cbd3ff5271743bab094dfad88ddd284c84b9"),
])
def test_lattice_faces_digest_line(spec, digest):
    # pins the faces of the (1, 2), (1, 3) and (1, 4) builds
    blob = json.dumps(face_lattice(spec()).to_json()["faces"], sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == digest


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
    t = xi_inverse(lat, bp)
    assert np.all(np.linalg.norm(xi_batch(spec, t) - bp, axis=1) < 1e-5 * (1 + bd))


def test_line_face_projection_example():
    lat = face_lattice(spec12())
    chamber = next(f for f in lat.faces if f.pattern == (((1, 2), 0, 3),))
    # the chamber 0 < x1 < x2 has closure {0 <= x1 <= x2}; projecting
    # (1.0, 0.5) pools the inversion to 0.75 and keeps the zero constraint slack
    _, p = lat.closure_distance(np.array([1.0, 0.5]), chamber)
    assert np.allclose(p, [0.75, 0.75])
