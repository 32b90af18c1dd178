"""Unordered tuple space: metric, separation, canonical form."""
import numpy as np
import pytest

from qlip.qspace import (QPoint, metric_g, random_qpoint, separation_diameter,
                         wasserstein1)


def test_canonical_order_and_equality():
    a = QPoint([[1.0, 0.0], [0.0, 1.0]])
    b = QPoint([[0.0, 1.0], [1.0, 0.0]])
    assert a == b
    assert hash(a) == hash(b)
    assert np.array_equal(a.points, b.points)
    # canonical order is lexicographic by coordinates
    assert a.points[0, 0] <= a.points[1, 0]


def test_points_are_write_locked():
    a = QPoint([[0.0], [1.0]])
    with pytest.raises(ValueError):
        a.points[0] = 5.0


def test_metric_hand_value():
    # two particles on a line against a fused pair: optimal matching moves
    # each particle by 1/2, so the metric is sqrt(2)/2
    s = QPoint([[0.0], [1.0]])
    t = QPoint([[0.5], [0.5]])
    assert metric_g(s, t) == pytest.approx(np.sqrt(2.0) / 2.0, abs=1e-12)


def test_metric_singletons_reduce_to_euclid():
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, r = rng.normal(size=2), rng.normal(size=2)
        s = QPoint(np.tile(p, (3, 1)))
        t = QPoint(np.tile(r, (3, 1)))
        assert metric_g(s, t) == pytest.approx(np.sqrt(3) * np.linalg.norm(p - r), rel=1e-12)


def test_metric_hungarian_matches_brute():
    rng = np.random.default_rng(7)
    for _ in range(50):
        q = int(rng.integers(1, 6))
        n = int(rng.integers(1, 4))
        s = random_qpoint(rng, q, n)
        t = random_qpoint(rng, q, n)
        gh = metric_g(s, t, method="hungarian")
        gb = metric_g(s, t, method="brute")
        assert gh == pytest.approx(gb, rel=1e-12, abs=1e-12)


def test_metric_axioms():
    rng = np.random.default_rng(11)
    for _ in range(30):
        q, n = 3, 2
        s, t, u = (random_qpoint(rng, q, n) for _ in range(3))
        assert metric_g(s, s) == pytest.approx(0.0, abs=1e-12)
        assert metric_g(s, t) == pytest.approx(metric_g(t, s), rel=1e-12)
        assert metric_g(s, u) <= metric_g(s, t) + metric_g(t, u) + 1e-10


def test_wasserstein1_bounds():
    rng = np.random.default_rng(13)
    s = QPoint([[0.0], [1.0]])
    t = QPoint([[0.5], [0.5]])
    assert wasserstein1(s, t) == pytest.approx(1.0, abs=1e-12)  # 1/2 + 1/2
    for _ in range(30):
        q = int(rng.integers(1, 6))
        s = random_qpoint(rng, q, 2)
        t = random_qpoint(rng, q, 2)
        w1 = wasserstein1(s, t)
        g = metric_g(s, t)
        assert g <= w1 + 1e-12
        assert w1 <= np.sqrt(q) * g + 1e-12


def test_separation_and_diameter():
    s = QPoint([[0.0], [0.0], [3.0], [7.0]])
    sep, diam = separation_diameter(s)
    assert sep == pytest.approx(3.0)  # smallest gap between distinct values
    assert diam == pytest.approx(7.0)
    sep0, diam0 = separation_diameter(QPoint(np.tile(np.zeros(2), (3, 1))))
    assert sep0 == np.inf and diam0 == 0.0
