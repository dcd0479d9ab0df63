"""Grid unit tests with hand-computed goldens (FIXTURES.md section 3.1).

Mirrors the reference's exact-value unit-test style
(the reference's tests/test_conversion.py:27-57).
"""

import numpy as np
import pytest

from data_model_ray import grid


class TestGeoCell:
    def test_hand_computed_cells(self):
        # res 0: 4 lat rows x 8 lon cols; (0.0, 0.0) -> row 2, col 4
        c = grid.geocell_encode(np.array([0.0]), np.array([0.0]), 0)
        assert int(c[0]) == (0 << 56) | (2 << 28) | 4
        # (-90, -180) is the first cell
        c = grid.geocell_encode(np.array([-90.0]), np.array([-180.0]), 0)
        assert int(c[0]) == 0
        # res 1: 8 rows x 16 cols; (50, 10) -> row floor(140/180*8)=6, col floor(190/360*16)=8
        c = grid.geocell_encode(np.array([50.0]), np.array([10.0]), 1)
        assert int(c[0]) == (1 << 56) | (6 << 28) | 8
        # lat=90 clamps into the last row
        c = grid.geocell_encode(np.array([90.0]), np.array([0.0]), 0)
        assert (int(c[0]) >> 28) & ((1 << 28) - 1) == 3

    def test_lon_wrap(self):
        a = grid.geocell_encode(np.array([10.0]), np.array([185.0]), 3)
        b = grid.geocell_encode(np.array([10.0]), np.array([-175.0]), 3)
        assert a[0] == b[0]

    def test_parent_is_2x2_block(self):
        # all 4 children of a cell map back to it
        parent = grid.geocell_encode(np.array([42.0]), np.array([7.0]), 6)[0]
        ch = grid.geocell_children(int(parent))
        assert len(ch) == 4
        assert np.all(grid.geocell_parent(ch, 6) == parent)

    def test_parent_matches_direct_encode(self):
        rng = np.random.default_rng(7)
        lat = rng.uniform(-89, 89, 500)
        lon = rng.uniform(-180, 180, 500)
        for res, pres in [(7, 5), (7, 0), (12, 7)]:
            fine = grid.geocell_encode(lat, lon, res)
            assert np.all(
                grid.geocell_parent(fine, pres) == grid.geocell_encode(lat, lon, pres)
            )

    def test_center_roundtrip(self):
        rng = np.random.default_rng(11)
        lat = rng.uniform(-89, 89, 500)
        lon = rng.uniform(-180, 180, 500)
        c = grid.geocell_encode(lat, lon, 7)
        clat, clon = grid.geocell_center(c)
        assert np.all(grid.geocell_encode(clat, clon, 7) == c)

    def test_neighbors_ring(self):
        c = grid.geocell_encode(np.array([40.0]), np.array([0.0]), 7)[0]
        ring1 = grid.geocell_neighbors(int(c), 1)
        assert len(ring1) == 9 and c in ring1
        ring2 = grid.geocell_neighbors(int(c), 2)
        assert len(ring2) == 25
        assert set(ring1).issubset(set(ring2))

    def test_neighbors_wrap_antimeridian(self):
        c = grid.geocell_encode(np.array([0.0]), np.array([-179.99]), 5)[0]
        ring = grid.geocell_neighbors(int(c), 1)
        assert len(ring) == 9  # lon wraps, no clipping

    def test_neighbors_clamped_at_pole(self):
        c = grid.geocell_encode(np.array([89.9]), np.array([0.0]), 5)[0]
        ring = grid.geocell_neighbors(int(c), 1)
        assert len(ring) == 6  # top row: no row above

    def test_bounds_contains_center(self):
        c = int(grid.geocell_encode(np.array([12.3]), np.array([45.6]), 7)[0])
        lat_min, lon_min, lat_max, lon_max = grid.geocell_bounds(c)
        clat, clon = grid.geocell_center(np.array([c], dtype=np.uint64))
        assert lat_min < clat[0] < lat_max and lon_min < clon[0] < lon_max
        assert lat_min <= 12.3 < lat_max and lon_min <= 45.6 < lon_max


class TestS2:
    def test_known_leaf_origin(self):
        # (0, 0) -> face 0 center leaf: hand-derived 0x1000000000000001
        leaf = grid.s2_from_face_ij(
            np.array([0]), np.array([1 << 29]), np.array([1 << 29])
        )
        assert int(leaf[0]) == 0x1000000000000001

    def test_face_assignment(self):
        # cardinal directions hit the six faces
        pts = [
            (0.0, 0.0, 0),     # +x
            (0.0, 90.0, 1),    # +y
            (90.0, 0.0, 2),    # +z
            (0.0, 180.0, 3),   # -x
            (0.0, -90.0, 4),   # -y
            (-90.0, 0.0, 5),   # -z
        ]
        for lat, lon, want in pts:
            cell = grid.s2_encode(np.array([lat]), np.array([lon]), 12)
            assert int(cell[0] >> np.uint64(61)) == want, (lat, lon)

    def test_level(self):
        rng = np.random.default_rng(3)
        lat = rng.uniform(-89, 89, 300)
        lon = rng.uniform(-180, 180, 300)
        for lvl in (0, 5, 12, 30):
            c = grid.s2_encode(lat, lon, lvl)
            assert np.all(grid.s2_level(c) == lvl)

    def test_parent_matches_direct(self):
        rng = np.random.default_rng(5)
        lat = rng.uniform(-89, 89, 300)
        lon = rng.uniform(-180, 180, 300)
        c12 = grid.s2_encode(lat, lon, 12)
        assert np.all(grid.s2_parent(c12, 8) == grid.s2_encode(lat, lon, 8))

    def test_center_roundtrip(self):
        rng = np.random.default_rng(9)
        lat = rng.uniform(-89, 89, 500)
        lon = rng.uniform(-180, 180, 500)
        c = grid.s2_encode(lat, lon, 12)
        clat, clon = grid.s2_center_latlon(c)
        assert np.all(grid.s2_encode(clat, clon, 12) == c)

    def test_nearby_points_share_coarse_cell(self):
        lat = np.array([48.8566, 48.8570])
        lon = np.array([2.3522, 2.3530])
        assert grid.s2_encode(lat, lon, 8)[0] == grid.s2_encode(lat, lon, 8)[1]
        # antipodal points never share a cell
        a = grid.s2_encode(np.array([45.0]), np.array([10.0]), 2)
        b = grid.s2_encode(np.array([-45.0]), np.array([-170.0]), 2)
        assert a[0] != b[0]
