"""Pyramid rollup tests with hand-computed goldens per aggregation type.

Mirrors the reference's exact-value resampling tests
(the reference's tests/test_s2_resampling.py, test_conversion.py:27-57:
block mean of a 4x4 = [[3.5,5.5],[11.5,13.5]]).
"""

import numpy as np
import pyarrow as pa

from data_model_ray import grid
from data_model_ray.pipelines.pyramid import (
    build_pyramid,
    plan_levels,
    rollup_level,
)


def make_level_table(cells, **cols):
    base = {
        "cell": pa.array(np.asarray(cells, dtype=np.uint64)),
        "pages": pa.array(cols.get("pages", np.ones(len(cells), dtype=np.int64))),
        "text_bytes": pa.array(
            cols.get("text_bytes", np.zeros(len(cells), dtype=np.int64))
        ),
        "token_sum": pa.array(
            cols.get("token_sum", np.zeros(len(cells), dtype=np.int64))
        ),
        "mean_text_len": pa.array(
            cols.get("mean_text_len", np.zeros(len(cells), dtype=np.float64))
        ),
        "score_mean": pa.array(
            cols.get("score_mean", np.zeros(len(cells), dtype=np.float64))
        ),
        "flag_max": pa.array(
            cols.get("flag_max", np.zeros(len(cells), dtype=np.uint8))
        ),
        "lang_first": pa.array(cols.get("lang_first", ["en"] * len(cells))),
        "lat_min": pa.array(cols.get("lat_min", np.zeros(len(cells)))),
        "lat_max": pa.array(cols.get("lat_max", np.zeros(len(cells)))),
        "lon_min": pa.array(cols.get("lon_min", np.zeros(len(cells)))),
        "lon_max": pa.array(cols.get("lon_max", np.zeros(len(cells)))),
    }
    return pa.table(base)


class TestRollupSemantics:
    def setup_method(self):
        # one parent at res 3 with all 4 children present (hand-placed)
        parent = grid.geocell_encode(np.array([10.0]), np.array([10.0]), 3)[0]
        self.parent = parent
        self.children = grid.geocell_children(int(parent))  # ordered (di, dj)

    def test_sum_mean_max_first_clip(self):
        # children in cell-local order 0..3
        t = make_level_table(
            self.children,
            pages=np.array([1, 2, 3, 4], dtype=np.int64),
            mean_text_len=np.array([2.0, 4.0, 6.0, 8.0]),
            score_mean=np.array([0.5, 1.0, 1.0, 1.0]),
            flag_max=np.array([0, 4, 1, 0], dtype=np.uint8),
            lang_first=["fr", "en", "de", "zh"],
        )
        out = rollup_level(t).to_pandas().set_index("cell")
        row = out.loc[int(self.parent)]
        assert row["pages"] == 10  # sum
        assert row["mean_text_len"] == 5.0  # UNWEIGHTED mean of means
        assert row["score_mean"] == 0.875  # mean then clip (under 1.0 here)
        assert row["flag_max"] == 4  # max = any-set mask semantics
        # first = child with smallest local (i_lat, i_lon) rank == children[0]
        assert row["lang_first"] == "fr"

    def test_first_is_order_not_arrival(self):
        # shuffle the row order — "first" must not change
        t = make_level_table(
            self.children[::-1],
            lang_first=["zh", "de", "en", "fr"],  # reversed to match
        )
        out = rollup_level(t).to_pandas().set_index("cell")
        assert out.loc[int(self.parent)]["lang_first"] == "fr"

    def test_partial_children(self):
        # only children 2 and 3 present -> first is child 2's value
        t = make_level_table(
            self.children[2:],
            pages=np.array([5, 7], dtype=np.int64),
            mean_text_len=np.array([1.0, 3.0]),
            lang_first=["ja", "ru"],
        )
        out = rollup_level(t).to_pandas().set_index("cell")
        row = out.loc[int(self.parent)]
        assert row["pages"] == 12
        assert row["mean_text_len"] == 2.0
        assert row["lang_first"] == "ja"

    def test_clip_applied(self):
        t = make_level_table(
            self.children,
            score_mean=np.array([1.0, 1.0, 1.0, 1.5]),  # bad upstream value
        )
        out = rollup_level(t).to_pandas().set_index("cell")
        assert out.loc[int(self.parent)]["score_mean"] == 1.0

    def test_bbox_union(self):
        t = make_level_table(
            self.children,
            lat_min=np.array([1.0, 2.0, 0.5, 3.0]),
            lat_max=np.array([4.0, 9.0, 5.0, 6.0]),
            lon_min=np.array([-3.0, -1.0, 0.0, 2.0]),
            lon_max=np.array([1.0, 2.0, 3.0, 8.0]),
        )
        out = rollup_level(t).to_pandas().set_index("cell")
        row = out.loc[int(self.parent)]
        assert (row["lat_min"], row["lat_max"]) == (0.5, 9.0)
        assert (row["lon_min"], row["lon_max"]) == (-3.0, 8.0)

    def test_two_parents_stay_separate(self):
        p2 = grid.geocell_encode(np.array([-40.0]), np.array([100.0]), 3)[0]
        cells = np.concatenate([self.children[:2], grid.geocell_children(int(p2))[:1]])
        t = make_level_table(cells, pages=np.array([1, 1, 9], dtype=np.int64))
        out = rollup_level(t).to_pandas().set_index("cell")
        assert out.loc[int(self.parent)]["pages"] == 2
        assert out.loc[int(p2)]["pages"] == 9


class TestCustomAggRegistry:
    def test_callable_reducer(self):
        """User-extension surface: register a custom reducer per column
        (resampling_methods analogue, s2_resampling.py:206-212)."""
        parent = grid.geocell_encode(np.array([10.0]), np.array([10.0]), 3)[0]
        children = grid.geocell_children(int(parent))
        t = make_level_table(
            children, mean_text_len=np.array([1.0, 100.0, 2.0, 3.0])
        )
        registry = dict(
            pages="sum",
            mean_text_len=lambda s: s.median(),  # custom: median downsample
        )
        out = rollup_level(t, registry=registry).to_pandas().set_index("cell")
        assert out.loc[int(parent)]["mean_text_len"] == 2.5


class TestBackfillJoin:
    def test_inject_from_finer(self):
        from data_model_ray.pipelines.pyramid import backfill_from_finer

        parent = grid.geocell_encode(np.array([10.0]), np.array([10.0]), 3)[0]
        children = grid.geocell_children(int(parent))
        lonely = grid.geocell_encode(np.array([-40.0]), np.array([100.0]), 3)[0]
        coarse = pa.table(
            {
                "cell": pa.array(np.array([parent, lonely], dtype=np.uint64)),
                "pages": pa.array([10, 3], type=pa.int64()),
            }
        )
        fine = pa.table(
            {
                "cell": pa.array(children[:2]),  # only 2 children have data
                "extra_metric": pa.array([2.0, 4.0]),
            }
        )
        out = backfill_from_finer(coarse, fine, ["extra_metric"], agg="mean")
        df = out.to_pandas().set_index("cell")
        assert df.loc[int(parent)]["extra_metric"] == 3.0  # mean of children
        assert np.isnan(df.loc[int(lonely)]["extra_metric"])  # no finer data
        assert df.loc[int(parent)]["pages"] == 10  # target columns untouched


class TestMegaCellSkew:
    def test_combiner_bounds_shuffle_rows(self, ray_session):
        """A mega cell (80% of rows in one cell) must not dominate the
        shuffle: partials emit <= 1 row per cell per batch (SURVEY 7.4)."""
        import pandas as pd
        import ray.data as rd

        from data_model_ray.pipelines.pyramid import _partial_cell_stats

        n = 20_000
        rng = np.random.default_rng(8)
        mega = grid.geocell_encode(np.array([48.85]), np.array([2.35]), 7)[0]
        other = grid.geocell_encode(
            rng.uniform(-60, 60, n), rng.uniform(-170, 170, n), 7
        )
        cells = np.where(rng.uniform(size=n) < 0.8, mega, other)
        df = pd.DataFrame(
            {
                "h3_7": cells,
                "url": [f"u{i}" for i in range(n)],
                "text_len": rng.integers(10, 500, n),
                "token_count": rng.integers(1, 100, n),
                "score": rng.uniform(0, 1, n),
                "flag": rng.integers(0, 4, n).astype(np.uint8),
                "lat": rng.uniform(-60, 60, n),
                "lon": rng.uniform(-170, 170, n),
                "lang": rng.choice(["en", "de"], n),
            }
        )
        partial = _partial_cell_stats(df, "h3_7").to_pandas()
        # one output row per distinct cell, regardless of skew
        assert partial["cell"].is_unique
        assert len(partial) == len(np.unique(cells))
        # end-to-end aggregate correct under skew
        from data_model_ray.pipelines.pyramid import cell_aggregate

        cells_ds = cell_aggregate(
            rd.from_pandas(df).repartition(8), cell_col="h3_7", num_buckets=8
        ).to_pandas()
        got_mega = cells_ds.set_index("cell").loc[int(mega)]
        assert got_mega["pages"] == int((cells == mega).sum())


class TestPlanAndManifest:
    def test_plan_levels_ladder(self):
        # COG ladder: stop when estimated cells < min_cells
        # 4096 -> 1024 -> 256 -> 64 -> 16 (= min_cells, still built) -> stop
        assert plan_levels(7, 4096, min_cells=16) == [6, 5, 4, 3]
        assert plan_levels(7, 15, min_cells=16) == []
        assert plan_levels(2, 10_000_000, min_cells=16) == [1, 0]

    def test_build_pyramid_manifest(self, tmp_path):
        rng = np.random.default_rng(1)
        lat = rng.uniform(30, 45, 400)
        lon = rng.uniform(-10, 20, 400)
        cells = np.unique(grid.geocell_encode(lat, lon, 7))
        t = make_level_table(
            cells,
            pages=np.ones(len(cells), dtype=np.int64),
            lat_min=grid.geocell_center(cells)[0],
            lat_max=grid.geocell_center(cells)[0],
            lon_min=grid.geocell_center(cells)[1],
            lon_max=grid.geocell_center(cells)[1],
        )
        out_dir = str(tmp_path / "pyr")
        manifest = build_pyramid(t, out_dir, base_res=7, min_cells=4)
        levels = manifest["levels"]
        assert levels[0]["level"] == 7 and levels[0]["derived_from"] is None
        for a, b in zip(levels, levels[1:]):
            assert b["level"] == a["level"] - 1
            assert b["derived_from"] == f"part=level{a['level']}"
            assert b["scale"] == 2
            # pyramid ratio: each level has fewer cells, at most /1 .. /4
            assert b["cells"] <= a["cells"]
        # total page count preserved at every level (sum semantics)
        import pyarrow.parquet as pq

        for lv in levels:
            tab = pq.read_table(f"{out_dir}/{lv['asset']}")
            assert tab["pages"].to_pandas().sum() == len(cells)
        # manifest on disk
        import json

        with open(f"{out_dir}/manifest.json") as f:
            on_disk = json.load(f)
        assert on_disk["levels"] == levels
        lo = manifest["spatial:bbox"]
        assert lo[0] < lo[2] and lo[1] < lo[3]

    def test_pyramid_resume_skips_valid_levels(self, tmp_path):
        from data_model_ray.state.lineage import LineageLog

        rng = np.random.default_rng(2)
        lat = rng.uniform(10, 20, 200)
        lon = rng.uniform(10, 20, 200)
        cells = np.unique(grid.geocell_encode(lat, lon, 7))
        t = make_level_table(cells, pages=np.ones(len(cells), dtype=np.int64))
        out_dir = str(tmp_path / "pyr_resume")
        m1 = build_pyramid(t, out_dir, base_res=7, min_cells=4)
        n_levels = len(m1["levels"])
        # rerun: every level must be skipped_valid, output identical
        m2 = build_pyramid(t, out_dir, base_res=7, min_cells=4)
        assert m2["levels"] == m1["levels"]
        recs = LineageLog(out_dir).records()
        skipped = [r for r in recs if r["status"] == "skipped_valid"]
        assert len(skipped) == n_levels
        # changed base -> full recompute (fingerprint mismatch)
        t2 = make_level_table(cells, pages=np.full(len(cells), 2, dtype=np.int64))
        m3 = build_pyramid(t2, out_dir, base_res=7, min_cells=4)
        recs = LineageLog(out_dir).records()
        done_after = [r for r in recs if r["status"] == "done"]
        assert len(done_after) == 2 * n_levels  # first run + recompute run


class TestDatasetRollupParity:
    """Dataset-mode rollup (res-9/10 path) is bit-identical to the driver
    kernel — the r4 verdict directive-3 parity pin."""

    def _synthetic_base(self, res=9, n=30_000, seed=5):
        import pandas as pd

        rng = np.random.default_rng(seed)
        lat = rng.uniform(-60.0, 60.0, n)
        lon = rng.uniform(-170.0, 170.0, n)
        cells = np.unique(grid.geocell_encode(lat, lon, res))
        m = len(cells)
        return make_level_table(
            cells,
            pages=rng.integers(1, 50, m).astype(np.int64),
            text_bytes=rng.integers(0, 10_000, m).astype(np.int64),
            mean_text_len=np.round(rng.uniform(10, 5000, m), 3),
            score_mean=np.round(rng.uniform(0.0, 1.2, m), 4),
            flag_max=rng.integers(0, 5, m).astype(np.uint8),
            lang_first=list(rng.choice(["en", "fr", "de", "zh", "und"], m)),
            lat_min=np.round(rng.uniform(-60, 60, m), 5),
            lat_max=np.round(rng.uniform(-60, 60, m), 5),
            lon_min=np.round(rng.uniform(-170, 170, m), 5),
            lon_max=np.round(rng.uniform(-170, 170, m), 5),
        )

    def test_ds_rollup_bit_identical(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from data_model_ray.pipelines.pyramid import _gather_level, rollup_level_ds

        base = self._synthetic_base(res=9)
        assert base.num_rows > 25_000  # a real res-9-scale level table
        want = (
            rollup_level(base)
            .to_pandas()
            .sort_values("cell", kind="mergesort")
            .reset_index(drop=True)
        )
        got = _gather_level(
            rollup_level_ds(rd.from_arrow(base).repartition(16), num_buckets=32)
        ).to_pandas().reset_index(drop=True)
        pd.testing.assert_frame_equal(got[want.columns.tolist()], want, check_exact=True)

    def test_ds_rollup_bucket_count_invariant(self, ray_session):
        import pandas as pd
        import ray.data as rd

        from data_model_ray.pipelines.pyramid import _gather_level, rollup_level_ds

        base = self._synthetic_base(res=8, n=5_000, seed=9)
        outs = []
        for nb in (7, 64):
            outs.append(
                _gather_level(
                    rollup_level_ds(rd.from_arrow(base).repartition(4), num_buckets=nb)
                ).to_pandas().reset_index(drop=True)
            )
        pd.testing.assert_frame_equal(outs[0], outs[1], check_exact=True)

    def test_build_pyramid_auto_switch_parity(self, ray_session, tmp_path):
        import json
        import pandas as pd
        import pyarrow.parquet as pq

        base = self._synthetic_base(res=9, n=20_000, seed=7)
        m_drv = build_pyramid(
            base, str(tmp_path / "drv"), base_res=9, rollup_row_budget=10**9
        )
        m_ds = build_pyramid(
            base, str(tmp_path / "ds"), base_res=9, rollup_row_budget=0
        )
        assert m_drv["levels"] == m_ds["levels"]
        assert m_drv["spatial:bbox"] == m_ds["spatial:bbox"]
        for lvl in m_drv["levels"]:
            a = pq.read_table(str(tmp_path / "drv" / lvl["asset"] / "data.parquet"))
            b = pq.read_table(str(tmp_path / "ds" / lvl["asset"] / "data.parquet"))
            da = a.to_pandas().sort_values("cell", kind="mergesort").reset_index(drop=True)
            db = b.to_pandas().sort_values("cell", kind="mergesort").reset_index(drop=True)
            pd.testing.assert_frame_equal(da, db[da.columns.tolist()], check_exact=True)
