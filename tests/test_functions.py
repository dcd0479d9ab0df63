"""F-group pure-function tests (affine, planning, codec, schema contracts)
with hand-computed goldens, mirroring the reference's unit tests
(the reference's tests/test_conversion.py:59-146)."""

import numpy as np
import pyarrow as pa
import pytest

from data_model_ray.functions.affine import (
    affine_from_bounds,
    aligned_chunk_size,
    apply_affine,
    calculate_overview_levels,
    gdal_geotransform,
    invert_affine,
    linspace_coords,
    shard_dimension,
    xy_to_pixel,
    zoom_level_for_width,
)
from data_model_ray.functions.scale_offset import (
    decode_scale_offset,
    encode_scale_offset,
    make_codec_stage,
)
from data_model_ray.functions.schema import (
    CELL_STATS_CONTRACT,
    PAGES_CONTRACT,
    SchemaContract,
    SchemaViolation,
    classify,
)


class TestAffine:
    def test_from_bounds_golden(self):
        t = affine_from_bounds(-180, -90, 180, 90, 360, 180)
        assert t == (1.0, 0.0, -180.0, 0.0, -1.0, 90.0)
        # pixel (0,0) corner = NW corner
        x, y = apply_affine(t, 0, 0)
        assert (x, y) == (-180.0, 90.0)
        x, y = apply_affine(t, 360, 180)
        assert (x, y) == (180.0, -90.0)

    def test_roundtrip(self):
        t = affine_from_bounds(10, 40, 12, 42, 1000, 800)
        cols = np.array([0.0, 500.0, 999.0])
        rows = np.array([0.0, 400.0, 799.0])
        x, y = apply_affine(t, cols, rows)
        c2, r2 = xy_to_pixel(t, x, y)
        np.testing.assert_allclose(c2, cols, atol=1e-9)
        np.testing.assert_allclose(r2, rows, atol=1e-9)

    def test_gdal_ordering(self):
        t = affine_from_bounds(-180, -90, 180, 90, 360, 180)
        assert gdal_geotransform(t) == "-180.0 1.0 0.0 90.0 0.0 -1.0"

    def test_linspace_centers(self):
        c = linspace_coords(0.0, 10.0, 5)
        np.testing.assert_allclose(c, [1.0, 3.0, 5.0, 7.0, 9.0])


class TestPlanners:
    def test_overview_levels_golden(self):
        # 10980 px at min 256: factors 2,4,8,16,32 (10980/32=343 >= 256,
        # 10980/64=171 < 256 stops)
        lv = calculate_overview_levels(10980, 10980, min_dimension=256)
        assert [l["factor"] for l in lv] == [2, 4, 8, 16, 32]
        assert lv[-1]["width"] == 10980 // 32

    def test_aligned_chunk_divisor(self):
        assert aligned_chunk_size(10980, 4096) == 3660  # 10980 = 3660 * 3
        assert aligned_chunk_size(1024, 4096) == 1024  # dim <= target
        assert aligned_chunk_size(4096, 1024) == 1024  # exact divisor

    def test_shard_dimension(self):
        assert shard_dimension(10980, 3660) == 10980
        assert shard_dimension(10981, 3660) == 10980
        assert shard_dimension(100, 256) == 256  # floor at one chunk

    def test_zoom_level(self):
        assert zoom_level_for_width(256) == 0
        assert zoom_level_for_width(512) == 1
        assert zoom_level_for_width(10980) == 6  # ceil(log2(42.9)) = 6


class TestScaleOffset:
    def test_roundtrip_property(self):
        # the reference's round-trip test (tests/test_scale_offset.py:17-40)
        rng = np.random.default_rng(4)
        vals = pa.array(np.round(rng.uniform(0, 1, 1000), 4))
        enc = encode_scale_offset(vals, scale_factor=1e-4, add_offset=0.0)
        dec = decode_scale_offset(enc, scale_factor=1e-4, add_offset=0.0)
        np.testing.assert_allclose(
            dec.to_numpy(zero_copy_only=False),
            vals.to_numpy(zero_copy_only=False),
            atol=1e-9,
        )

    def test_null_sentinel(self):
        vals = pa.array([0.5, None, 0.25])
        enc = encode_scale_offset(vals, scale_factor=0.25, fill_value=-9999)
        assert enc.to_pylist() == [2, -9999, 1]
        dec = decode_scale_offset(enc, scale_factor=0.25, fill_value=-9999)
        assert dec.to_pylist() == [0.5, None, 0.25]

    def test_codec_stage(self):
        t = pa.table({"a": pa.array([1.0, 2.0]), "b": pa.array([10.0, 20.0])})
        enc = make_codec_stage(
            {"a": {"scale_factor": 0.5}, "b": {"scale_factor": 10.0}}
        )(t)
        assert enc["a"].to_pylist() == [2, 4]
        assert enc["b"].to_pylist() == [1, 2]
        dec = make_codec_stage(
            {"a": {"scale_factor": 0.5}, "b": {"scale_factor": 10.0}},
            mode="decode",
        )(enc)
        assert dec["a"].to_pylist() == [1.0, 2.0]


class TestSchemaContracts:
    def test_pages_contract_exact(self):
        from data_model_ray import fixtures

        t = fixtures.pages_batch(np.arange(10))
        PAGES_CONTRACT.validate(t)  # no raise
        with pytest.raises(SchemaViolation, match="schema mismatch"):
            PAGES_CONTRACT.validate(t.drop_columns(["lang"]))

    def test_subset_contract(self):
        c = SchemaContract(
            "x", pa.schema([("a", pa.int64())]), mode="subset"
        )
        c.validate(pa.table({"a": pa.array([1]), "extra": pa.array(["y"])}))
        with pytest.raises(SchemaViolation, match="missing column 'a'"):
            c.validate(pa.table({"b": pa.array([1])}))
        with pytest.raises(SchemaViolation, match="type"):
            c.validate(pa.table({"a": pa.array(["not int"])}))

    def test_invariant_bbox(self):
        t = pa.table(
            {
                "cell": pa.array([1], type=pa.uint64()),
                "pages": pa.array([1], type=pa.int64()),
                "lat_min": pa.array([5.0]),
                "lat_max": pa.array([1.0]),  # inverted!
                "lon_min": pa.array([0.0]),
                "lon_max": pa.array([1.0]),
            }
        )
        with pytest.raises(SchemaViolation, match="lat_min > lat_max"):
            CELL_STATS_CONTRACT.validate(t)

    def test_classify(self):
        from data_model_ray import fixtures

        t = fixtures.pages_batch(np.arange(5))
        other = SchemaContract("docs", pa.schema([("doc_id", pa.int64())]))
        assert classify(t, [other, PAGES_CONTRACT]) == "pages"
        assert classify(pa.table({"z": pa.array([1])}), [other, PAGES_CONTRACT]) is None
