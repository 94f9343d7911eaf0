"""CF-tree clustering tests: statistics identities and planted-blob recovery."""

from __future__ import annotations

import numpy as np
import pytest

from comdet.birch import BirchConfig, _radius, birch_cluster
from comdet.graph import Partition

from conftest import ClusteringFeature


def _cf_of(points: np.ndarray) -> ClusteringFeature:
    return ClusteringFeature(points.shape[0], points.sum(axis=0),
                             float((points ** 2).sum()))


def test_cf_additivity():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(5, 4))
    b = rng.normal(size=(8, 4))
    merged = _cf_of(a) + _cf_of(b)
    whole = _cf_of(np.vstack([a, b]))
    assert merged.n == whole.n
    assert np.allclose(merged.ls, whole.ls, atol=1e-12)
    assert merged.ss == pytest.approx(whole.ss, abs=1e-12)


def test_cf_radius_matches_direct_recomputation():
    rng = np.random.default_rng(5)
    for trial in range(20):
        pts = rng.normal(size=(int(rng.integers(1, 30)), 3))
        radius = _radius(pts.shape[0], pts.sum(axis=0), float((pts ** 2).sum()))
        direct = np.sqrt(np.mean(np.sum((pts - pts.mean(axis=0)) ** 2, axis=1)))
        assert radius == pytest.approx(float(direct), abs=1e-9)
        assert np.allclose(_cf_of(pts).centroid, pts.mean(axis=0), atol=1e-12)


def test_cf_single_point_radius_zero():
    x = np.array([0.3, -0.7])
    assert _radius(1, x, float(x @ x)) == 0.0


def test_identical_rows_single_community():
    x = np.tile([0.2, 0.8], (40, 1))
    p = birch_cluster(x)
    assert p.k == 1


def test_single_row_singleton():
    p = birch_cluster(np.array([[1.0, 2.0]]))
    assert p.k == 1 and p.n == 1


def test_two_blob_recovery():
    rng = np.random.default_rng(11)
    a = rng.normal(loc=(0.0, 0.0), scale=0.02, size=(60, 2))
    b = rng.normal(loc=(5.0, 5.0), scale=0.02, size=(60, 2))
    x = np.vstack([a, b])
    order = rng.permutation(120)
    p = birch_cluster(x[order], BirchConfig(threshold_radius=0.5))
    assert p.k == 2
    planted = np.array([0] * 60 + [1] * 60)[order]
    assert p.equivalent_to(Partition(planted))


def test_three_blob_recovery_small_branching():
    # branching factor 3 forces many node splits; recovery must survive them
    rng = np.random.default_rng(13)
    blobs = [rng.normal(loc=(4.0 * i, 0.0), scale=0.05, size=(30, 2))
             for i in range(3)]
    x = np.vstack(blobs)
    order = rng.permutation(90)
    p = birch_cluster(x[order], BirchConfig(threshold_radius=0.5, branching_factor=3))
    planted = np.repeat([0, 1, 2], 30)[order]
    assert p.k == 3
    assert p.equivalent_to(Partition(planted))


def test_threshold_sweep_monotone():
    rng = np.random.default_rng(17)
    x = rng.normal(size=(150, 3))
    counts = [birch_cluster(x, BirchConfig(threshold_radius=t)).k
              for t in (0.05, 0.1, 0.2, 0.4, 0.8, 1.6, 3.2)]
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] > counts[-1]


def test_tiny_threshold_all_singletons():
    rng = np.random.default_rng(19)
    x = rng.normal(size=(25, 2))  # distinct rows with probability 1
    p = birch_cluster(x, BirchConfig(threshold_radius=1e-9))
    assert p.k == 25


def test_partition_is_valid_dense_cover():
    rng = np.random.default_rng(23)
    for trial in range(10):
        n = int(rng.integers(1, 80))
        x = rng.normal(size=(n, 4))
        p = birch_cluster(x, BirchConfig(threshold_radius=0.7, branching_factor=4))
        assert p.n == n
        assert np.bincount(p.assignment, minlength=p.k).min() > 0


def test_deterministic_given_row_order():
    rng = np.random.default_rng(29)
    x = rng.normal(size=(70, 3))
    p1 = birch_cluster(x, BirchConfig(threshold_radius=0.3, branching_factor=4))
    p2 = birch_cluster(x.copy(), BirchConfig(threshold_radius=0.3, branching_factor=4))
    assert p1 == p2


def test_single_child_split_half_keeps_its_own_statistics():
    # with branching factor 2 the third subcluster splits the root leaf into
    # halves of one and two; rows 1.0 and 2.0 then fit one subcluster of
    # radius 0.5, which needs the one-subcluster half's CF counted once
    x = np.array([[10.0], [1.0], [6.0], [4.0], [2.0]])
    p = birch_cluster(x, BirchConfig(threshold_radius=1.0, branching_factor=2))
    assert p.assignment.tolist() == [0, 2, 1, 3, 2]


def test_seeded_partition_is_pinned():
    # 180 points form 119 subclusters, so at the default branching factor the
    # root leaf splits and the root ends with four leaves under it
    x = np.random.default_rng(37).uniform(0.0, 24.0, size=(180, 2))
    assert birch_cluster(x).assignment.tolist() == [
        0, 64, 65, 1, 27, 2, 28, 3, 66, 67, 95, 96, 29, 30, 4, 97, 31, 68, 98,
        32, 5, 6, 69, 99, 98, 29, 28, 33, 34, 7, 35, 8, 100, 9, 69, 70, 71, 36,
        10, 72, 73, 10, 37, 38, 0, 101, 11, 66, 102, 12, 4, 39, 40, 41, 13, 7,
        103, 27, 74, 28, 42, 75, 104, 43, 44, 105, 76, 106, 77, 107, 78, 100,
        79, 43, 103, 108, 95, 109, 80, 45, 28, 14, 100, 97, 75, 15, 46, 81, 47,
        82, 110, 111, 66, 83, 48, 84, 85, 16, 49, 17, 31, 112, 110, 83, 50, 86,
        18, 51, 52, 87, 88, 18, 113, 89, 114, 78, 83, 97, 115, 98, 46, 36, 15,
        77, 19, 33, 90, 88, 45, 115, 96, 91, 53, 92, 20, 33, 21, 54, 43, 93, 11,
        64, 38, 55, 22, 113, 108, 23, 24, 56, 94, 75, 40, 57, 65, 58, 19, 79,
        116, 59, 117, 74, 25, 118, 83, 3, 60, 98, 14, 80, 92, 19, 93, 61, 94,
        14, 26, 62, 63, 99]


def test_config_validation():
    with pytest.raises(ValueError):
        BirchConfig(threshold_radius=0.0)
    with pytest.raises(ValueError):
        BirchConfig(branching_factor=1)
    for bad in (True, 2.5, 3.0, "3"):
        with pytest.raises(ValueError, match=f"branching_factor must be an integer, got {bad!r}"):
            BirchConfig(branching_factor=bad)
    assert BirchConfig(branching_factor=np.int64(3)).branching_factor == 3
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"threshold_radius must be a number, got {bad}"):
            BirchConfig(threshold_radius=bad)
    with pytest.raises(ValueError):
        birch_cluster(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        birch_cluster(np.array([[np.nan, 1.0]]))
