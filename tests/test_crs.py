"""Multi-encoding CRS (proj:code/wkt2/projjson), PROJJSON structural
validation, vocabulary membership, and full TMS metadata tests — shaped like
the reference's tests/test_data_api/test_projjson.py + test_geoproj."""

import json

import pyarrow as pa
import pytest

from data_model_ray.functions.crs import (
    proj_encodings,
    projjson_for,
    validate_proj_attrs,
    validate_projjson,
    wkt2_for,
)
from data_model_ray.functions.schema import (
    LANG_VOCAB,
    PAGES_CONTRACT,
    SchemaContract,
    SchemaViolation,
    vocabulary_invariant,
)
from data_model_ray.pipelines.rasterize import tile_matrix


class TestProjEncodings:
    def test_all_three_encodings_present(self):
        p = proj_encodings("EPSG:4326")
        assert p["proj:code"] == "EPSG:4326"
        assert p["proj:wkt2"].startswith("GEOGCRS")
        assert p["proj:projjson"]["type"] == "GeographicCRS"
        assert validate_proj_attrs(p) == []

    @pytest.mark.parametrize("code", ["EPSG:4326", "EPSG:3857", "EPSG:32633"])
    def test_projjson_valid_and_json_serializable(self, code):
        pj = projjson_for(code)
        assert validate_projjson(pj) == []
        json.dumps(pj)  # must round-trip through JSON

    def test_utm_wkt2_carries_zone_params(self):
        w = wkt2_for("EPSG:32633")
        assert "UTM zone 33N" in w and '"Longitude of natural origin",15,' in w
        assert w.count("[") == w.count("]")

    def test_at_least_one_encoding_required(self):
        # the Proj model's core invariant (reference geoproj.py:27-34)
        assert validate_proj_attrs({}) != []
        assert validate_proj_attrs({"proj:code": "EPSG:4326"}) == []
        assert validate_proj_attrs({"proj:wkt2": wkt2_for("EPSG:3857")}) == []

    def test_bad_code_and_bad_wkt_flagged(self):
        assert validate_proj_attrs({"proj:code": "utm33"}) != []
        assert validate_proj_attrs({"proj:wkt2": "POINT[1 2]"}) != []


class TestProjjsonValidator:
    def test_rejects_missing_datum(self):
        pj = projjson_for("EPSG:4326")
        del pj["datum_ensemble"]
        assert any("datum" in p for p in validate_projjson(pj))

    def test_rejects_datum_and_ensemble_together(self):
        pj = projjson_for("EPSG:4326")
        pj["datum"] = {"name": "x"}
        assert any("exactly one" in p for p in validate_projjson(pj))

    def test_rejects_bad_axis_direction(self):
        pj = projjson_for("EPSG:4326")
        pj["coordinate_system"]["axis"][0]["direction"] = "sideways"
        assert any("illegal direction" in p for p in validate_projjson(pj))

    def test_rejects_id_ids_conflict(self):
        pj = projjson_for("EPSG:4326")
        pj["ids"] = [pj["id"]]
        assert any("both" in p for p in validate_projjson(pj))

    def test_projected_requires_base_and_conversion(self):
        pj = projjson_for("EPSG:32633")
        del pj["conversion"]
        assert any("conversion" in p for p in validate_projjson(pj))


class TestVocabularyInvariant:
    def test_contract_rejects_off_vocabulary_batch(self):
        contract = SchemaContract(
            "langs",
            pa.schema([("lang", pa.string())]),
            invariants=[vocabulary_invariant("lang", LANG_VOCAB)],
        )
        ok = pa.table({"lang": pa.array(["en", "de", "und"])})
        assert contract.check(ok) == []
        bad = pa.table({"lang": pa.array(["en", "xx", "xx", None])})
        msgs = contract.check(bad)
        assert msgs and "xx" in msgs[0] and "3 rows" in msgs[0]

    def test_allow_null(self):
        inv = vocabulary_invariant("lang", ("en",), allow_null=True)
        assert inv(pa.table({"lang": pa.array(["en", None])})) is None

    def test_pages_contract_has_lang_vocab(self):
        import numpy as np

        from data_model_ray.fixtures import pages_batch

        t = pages_batch(np.arange(50, dtype=np.uint64))
        PAGES_CONTRACT.validate(t)
        bad = t.set_column(
            t.schema.get_field_index("lang"),
            "lang",
            pa.array(["klingon"] * t.num_rows),
        )
        with pytest.raises(SchemaViolation, match="vocabulary"):
            PAGES_CONTRACT.validate(bad)


class TestTileMatrix:
    def test_fields_and_dims(self):
        m = tile_matrix(7, tile_size=256)
        assert m["id"] == "7"
        assert m["matrixWidth"] == 4  # 8<<7 = 1024 cols / 256
        assert m["matrixHeight"] == 2  # 4<<7 = 512 rows / 256
        assert m["pointOfOrigin"] == [-180.0, 90.0]
        assert m["cellSize"] == pytest.approx(360.0 / 1024)

    def test_scale_denominator_halves_per_level(self):
        a, b = tile_matrix(5), tile_matrix(6)
        assert a["scaleDenominator"] == pytest.approx(2 * b["scaleDenominator"])
        # OGC formula: cellSize(m) / 0.28mm
        assert b["scaleDenominator"] == pytest.approx(
            b["cellSize"] * (2 * 3.141592653589793 * 6378137 / 360) / 0.00028
        )


class TestReferentialInvariants:
    def test_foreign_key_catches_dangling_granule(self):
        from data_model_ray.functions.schema import foreign_key_invariant

        inv = foreign_key_invariant("mgrs", ["T33UAA", "T33UAB", ""], referent_name="granule")
        ok = pa.table({"mgrs": pa.array(["T33UAA", "", None])})
        assert inv(ok) is None
        bad = pa.table({"mgrs": pa.array(["T33UAA", "T99ZZZ"])})
        msg = inv(bad)
        assert msg and "T99ZZZ" in msg and "granule" in msg

    def test_mgrs_zone_dependency(self):
        from data_model_ray.functions.schema import mgrs_zone_dependency

        inv = mgrs_zone_dependency()
        ok = pa.table(
            {
                "mgrs": pa.array(["T33UAA", "T32TBB", ""]),
                "utm_zone": pa.array([33, 32, -1], pa.int64()),
            }
        )
        assert inv(ok) is None
        bad = pa.table(
            {
                "mgrs": pa.array(["T33UAA", "T32TBB"]),
                "utm_zone": pa.array([33, 31], pa.int64()),
            }
        )
        assert "utm_zone == zone(mgrs)" in inv(bad)

    def test_cell_level_dependency(self):
        import numpy as np

        from data_model_ray import grid
        from data_model_ray.functions.schema import cell_level_dependency

        cells = grid.geocell_encode(np.array([45.0, 10.0]), np.array([7.0, 7.0]), 6)
        inv = cell_level_dependency()
        ok = pa.table({"cell": pa.array(cells), "level": pa.array([6, 6], pa.int32())})
        assert inv(ok) is None
        bad = pa.table({"cell": pa.array(cells), "level": pa.array([6, 5], pa.int32())})
        assert inv(bad) is not None

    def test_enriched_contract_end_to_end(self):
        # the live flagship batch passes; a corrupted granule ref fails
        import numpy as np

        from data_model_ray.fixtures import admin_polygons, mgrs_granules, pages_batch
        from data_model_ray.functions.schema import ENRICHED_CONTRACT
        from data_model_ray.stages.enrich import Enrich

        t = Enrich(mgrs_granules(), admin_polygons())(
            pages_batch(np.arange(200, dtype=np.uint64))
        )
        ENRICHED_CONTRACT.validate(t)
        i = t.schema.get_field_index("mgrs")
        bad = t.set_column(i, "mgrs", pa.array(["T99XXX"] * t.num_rows))
        with pytest.raises(SchemaViolation, match="granule"):
            ENRICHED_CONTRACT.validate(bad)


class TestProjjsonReferenceFixtures:
    """The deepened validator must accept every PROJJSON document shape the
    reference's typed model tree accepts, and reject the same malformed
    shapes its models reject. The documents are the in-repo set under
    tests/data/projjson/: seven PROJJSON v0.7 documents, one per shape,
    written by hand in the layout of PROJ's ``projinfo -o PROJJSON`` with
    values from the EPSG definition of the named object (see that
    directory's README.md)."""

    FIXTURE_DIR = "data/projjson"  # relative to this file

    def _load(self, name):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parent / self.FIXTURE_DIR / f"{name}.json"
        with open(path, encoding="utf-8") as f:
            return json.load(f)

    @pytest.mark.parametrize(
        "name",
        [
            "bound_crs",
            "compound_crs",
            "datum_ensemble",
            "explicit_prime_meridian",
            "implicit_prime_meridian",
            "projected_crs",
            "transformation",
        ],
    )
    def test_fixture_validates_and_roundtrips(self, name):
        import json

        d = self._load(name)
        assert validate_projjson(d) == []
        # validation is read-only: a serialize/parse round-trip yields an
        # identical document that still validates
        back = json.loads(json.dumps(d))
        assert back == d and validate_projjson(back) == []

    def test_tampered_ellipsoid_rejected(self):
        d = self._load("projected_crs")
        del d["base_crs"]["datum"]["ellipsoid"]["semi_major_axis"]
        assert any("ellipsoid" in p for p in validate_projjson(d))

    def test_tampered_axis_direction_rejected(self):
        d = self._load("projected_crs")
        d["coordinate_system"]["axis"][0]["direction"] = "sideways"
        assert any("illegal direction" in p for p in validate_projjson(d))

    def test_tampered_datum_ensemble_rejected(self):
        d = self._load("datum_ensemble")
        del d["datum_ensemble"]["accuracy"]
        assert any("accuracy" in p for p in validate_projjson(d))
        d2 = self._load("datum_ensemble")
        d2["datum_ensemble"]["members"] = []
        assert any("members" in p for p in validate_projjson(d2))

    def test_tampered_bound_crs_rejected(self):
        d = self._load("bound_crs")
        del d["transformation"]["parameters"]
        assert any("parameters" in p for p in validate_projjson(d))
        d2 = self._load("bound_crs")
        del d2["source_crs"]
        assert any("source_crs" in p for p in validate_projjson(d2))

    def test_id_ids_mutual_exclusion(self):
        d = self._load("compound_crs")
        d["ids"] = [dict(d["id"])]
        assert any("both 'id' and 'ids'" in p for p in validate_projjson(d))

    def test_datum_xor_ensemble(self):
        d = self._load("explicit_prime_meridian")
        d["datum_ensemble"] = self._load("datum_ensemble")["datum_ensemble"]
        assert any("exactly one" in p for p in validate_projjson(d))

    def test_unknown_unit_type_rejected(self):
        d = self._load("projected_crs")
        d["coordinate_system"]["axis"][0]["unit"] = {
            "type": "FrobnicationUnit",
            "name": "frob",
            "conversion_factor": 1,
        }
        assert any("unknown unit type" in p for p in validate_projjson(d))

    def test_standalone_transformation_accepted(self):
        # Transformation is a top-level ProjJSON document type, not a CRS
        d = self._load("transformation")
        assert d["type"] == "Transformation"
        assert validate_projjson(d) == []
