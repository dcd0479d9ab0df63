"""CLI end-to-end smoke (subprocess, as the reference tests its CLI:
the reference's tests/test_cli_e2e.py:21-60)."""

import json
import subprocess
import sys
from pathlib import Path

REPO = str(Path(__file__).resolve().parent.parent)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "data_model_ray", *args],
        capture_output=True,
        text=True,
        cwd=REPO,
        timeout=500,
    )


class TestCli:
    def test_run_info_validate(self, tmp_path):
        out = str(tmp_path / "pyr")
        r = run_cli("run", "--rows", "2000", "--out", out, "--cpus", "4")
        assert r.returncode == 0, r.stderr[-2000:]
        summary = json.loads(r.stdout.strip().splitlines()[-1])
        assert summary["input_rows"] == 2000
        assert summary["cells"] > 0
        assert summary["levels"][0]["level"] == 7

        i = run_cli("info", "--out", out)
        assert i.returncode == 0
        manifest = json.loads(i.stdout)
        assert manifest["kind"] == "geocell-pyramid"

        v = run_cli("validate", "--out", out)
        assert v.returncode == 0, v.stdout
        assert json.loads(v.stdout.strip())["is_valid"] is True

    def test_validate_detects_missing(self, tmp_path):
        v = run_cli("validate", "--out", str(tmp_path / "nothing"))
        assert v.returncode == 1

    def test_validate_rejects_missing_crs_and_bad_tms(self, tmp_path):
        # build a small pyramid + raster without Ray (pure library calls)
        import numpy as np
        import pyarrow as pa

        from data_model_ray import grid
        from data_model_ray.pipelines.pyramid import build_pyramid
        from data_model_ray.pipelines.rasterize import rasterize_pyramid

        rng = np.random.default_rng(3)
        cells = np.unique(
            grid.geocell_encode(rng.uniform(30, 50, 300), rng.uniform(-10, 25, 300), 6)
        )
        n = len(cells)
        t = pa.table(
            {
                "cell": pa.array(cells),
                "pages": pa.array(np.arange(1, n + 1, dtype=np.int64)),
                "lat_min": pa.array(np.full(n, 30.0)),
                "lat_max": pa.array(np.full(n, 50.0)),
                "lon_min": pa.array(np.full(n, -10.0)),
                "lon_max": pa.array(np.full(n, 25.0)),
            }
        )
        pyr = str(tmp_path / "pyr")
        build_pyramid(t, pyr, base_res=6)
        rasterize_pyramid(str(tmp_path / "raster"), pyr)

        # both dirs valid as written
        for target in (pyr, str(tmp_path / "raster")):
            v = run_cli("validate", "--out", target)
            assert v.returncode == 0, v.stdout

        # strip every CRS encoding -> the Proj >=1-encoding invariant fails
        mp = Path(pyr) / "manifest.json"
        m = json.loads(mp.read_text())
        m["proj"] = {}
        mp.write_text(json.dumps(m))
        v = run_cli("validate", "--out", pyr)
        assert v.returncode == 1
        assert "at least one of proj:code" in v.stdout

        # out-of-matrix TMS limits -> fails
        tp = tmp_path / "raster" / "tms_manifest.json"
        tms = json.loads(tp.read_text())
        key = next(iter(tms["tile_matrix_limits"]))
        tms["tile_matrix_limits"][key]["maxTileCol"] = 10**6
        tp.write_text(json.dumps(tms))
        v = run_cli("validate", "--out", str(tmp_path / "raster"))
        assert v.returncode == 1
        assert "outside matrix dims" in v.stdout

    def test_info_html_repr(self, tmp_path):
        import numpy as np
        import pyarrow as pa

        from data_model_ray import grid
        from data_model_ray.functions.html_repr import ManifestView, manifest_to_html
        from data_model_ray.pipelines.pyramid import build_pyramid

        rng = np.random.default_rng(4)
        cells = np.unique(
            grid.geocell_encode(rng.uniform(30, 50, 200), rng.uniform(-10, 25, 200), 6)
        )
        n = len(cells)
        t = pa.table(
            {
                "cell": pa.array(cells),
                "pages": pa.array(np.arange(1, n + 1, dtype=np.int64)),
                "lat_min": pa.array(np.full(n, 30.0)),
                "lat_max": pa.array(np.full(n, 50.0)),
                "lon_min": pa.array(np.full(n, -10.0)),
                "lon_max": pa.array(np.full(n, 25.0)),
            }
        )
        out = str(tmp_path / "pyr")
        manifest = build_pyramid(t, out, base_res=6)

        html_str = manifest_to_html(manifest)
        assert "<details" in html_str and "level 6" in html_str
        assert "EPSG:4326" in html_str and "proj:projjson" in html_str
        # notebook protocol
        assert ManifestView(manifest)._repr_html_() == html_str
        # values are escaped
        evil = {"kind": "<script>alert(1)</script>", "levels": []}
        assert "<script>" not in manifest_to_html(evil)

        r = run_cli("info", "--out", out, "--html")
        assert r.returncode == 0 and "<details" in r.stdout
