"""Raw-format converters, exercised on small synthetic fixture files."""

import numpy as np
import pytest

from faultcast.adapters import convert_activity_dat, convert_plant_csv
from faultcast.data import DatasetError, save_dataset, load_dataset


@pytest.fixture
def plant_files(tmp_path):
    """60 ticks, 2 sensors, 1 environment reading, 2 setpoints, 3 faults."""
    signals = tmp_path / "signals.csv"
    rows = ["time,S1,S2,E1,R1,R2"]
    for t in range(60):
        s1 = 0.1 * t
        s2 = np.sin(t / 5.0)
        e1 = 20.0
        r1 = 1.0 if t < 30 else 2.0
        r2 = 0.5
        cell = "" if t == 17 else f"{s2:.6f}"  # one missing sensor cell
        rows.append(f"{t},{s1:.6f},{cell},{e1},{r1},{r2}")
    signals.write_text("\n".join(rows) + "\n")
    faults = tmp_path / "faults.csv"
    faults.write_text(
        "start,end,code\n"
        "10,14,1\n"
        "40,44,2\n"
        "52,58,1\n"
    )
    return signals, faults


class TestPlantConverter:
    def test_columns_classified_by_prefix(self, plant_files):
        signals, faults = plant_files
        meta, samples = convert_plant_csv(
            signals, faults, n_samples=5, tau=8, horizon=4, n_labels=2, seed=0
        )
        assert meta.dims.d_obs == 3  # S1, S2, E1
        assert meta.dims.d_ctx == 2  # R1, R2
        assert meta.dims.tau == 8 and meta.dims.horizon == 4
        assert len(samples) == 5
        for s in samples:
            assert s.obs.shape == (8, 3)
            assert s.ctx.shape == (12, 2)
            assert np.isfinite(s.obs).all()

    def test_fault_windows_labeled(self, plant_files):
        signals, faults = plant_files
        # every admissible window, via no-overlap off and a fixed seed
        meta, samples = convert_plant_csv(
            signals, faults, n_samples=49, tau=8, horizon=4, n_labels=2, seed=1
        )
        starts = sorted(range(49))
        by_start = dict(zip(starts, samples))
        # window starting at 0 forecasts ticks 8..11: fault 1 covers 10-14
        np.testing.assert_array_equal(by_start[0].labels, [1.0, 0.0])
        np.testing.assert_array_equal(by_start[0].step_labels[:, 0], [0, 0, 1, 1])
        # window starting at 20 forecasts 28..31: no fault
        np.testing.assert_array_equal(by_start[20].labels, [0.0, 0.0])
        # window starting at 30 forecasts 38..41: fault 2 covers 40-44
        np.testing.assert_array_equal(by_start[30].labels, [0.0, 1.0])

    def test_consistency_identity_and_save(self, plant_files, tmp_path):
        signals, faults = plant_files
        meta, samples = convert_plant_csv(
            signals, faults, n_samples=6, tau=8, horizon=4, n_labels=2, seed=2
        )
        out = tmp_path / "plant.jsonl"
        save_dataset(out, meta, samples)
        meta2, samples2 = load_dataset(out)
        assert meta2.source == "phm_adapter"
        assert len(samples2) == 6

    def test_no_overlap_policy(self, plant_files):
        signals, faults = plant_files
        meta, samples = convert_plant_csv(
            signals, faults, n_samples=3, tau=8, horizon=4, n_labels=2,
            seed=0, allow_overlap=False,
        )
        assert len(samples) == 3
        starts = [samples[i].obs[0, 0] / 0.1 for i in range(3)]  # S1 = 0.1 * t
        spans = sorted((round(s), round(s) + 12) for s in starts)
        for (_, end), (nxt, _) in zip(spans, spans[1:]):
            assert end <= nxt
        with pytest.raises(DatasetError, match="windows available"):
            convert_plant_csv(
                signals, faults, n_samples=6, tau=8, horizon=4, n_labels=2,
                seed=0, allow_overlap=False,
            )

    def test_deterministic(self, plant_files):
        signals, faults = plant_files
        a = convert_plant_csv(signals, faults, n_samples=5, tau=8, horizon=4,
                              n_labels=2, seed=3)[1]
        b = convert_plant_csv(signals, faults, n_samples=5, tau=8, horizon=4,
                              n_labels=2, seed=3)[1]
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.obs, sb.obs)
            np.testing.assert_array_equal(sa.labels, sb.labels)

    def test_bad_code_rejected(self, plant_files, tmp_path):
        signals, _ = plant_files
        bad = tmp_path / "bad_faults.csv"
        bad.write_text("start,end,code\n5,6,9\n")
        with pytest.raises(DatasetError, match="code 9"):
            convert_plant_csv(signals, bad, n_samples=2, tau=8, horizon=4, n_labels=2)

    def test_non_numeric_signal_cell_names_file_row_and_column(self, plant_files):
        signals, faults = plant_files
        lines = signals.read_text().splitlines()
        lines[5] = lines[5].replace(",20.0,", ",warm,", 1)  # tick 4's E1 cell, file row 6
        signals.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as info:
            convert_plant_csv(signals, faults, n_samples=2, tau=8, horizon=4, n_labels=2)
        assert str(info.value) == f"{signals}: row 6, column 'E1': 'warm' is not a number"

    def test_ragged_signal_row_names_file_row_and_column(self, plant_files):
        signals, faults = plant_files
        lines = signals.read_text().splitlines()
        lines[9] = lines[9].rsplit(",", 1)[0]  # tick 8, file row 10, loses its R2 cell
        signals.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match=r"row 10, column 'R2': 5 cells, header") as info:
            convert_plant_csv(signals, faults, n_samples=2, tau=8, horizon=4, n_labels=2)
        assert str(info.value).startswith(f"{signals}: ")

    @pytest.mark.parametrize("record, column", [
        ("x,6,1", "start"), ("5,six,1", "end"), ("5,6,1.5", "code"),
    ])
    def test_non_numeric_fault_field_names_file_row_and_column(
        self, plant_files, tmp_path, record, column
    ):
        signals, _ = plant_files
        bad = tmp_path / "bad_faults.csv"
        bad.write_text(f"start,end,code\n10,14,1\n{record}\n")
        with pytest.raises(DatasetError, match=f"row 3, column '{column}'") as info:
            convert_plant_csv(signals, bad, n_samples=2, tau=8, horizon=4, n_labels=2)
        assert str(info.value).startswith(f"{bad}: ")

    def test_unclassifiable_columns_rejected(self, plant_files):
        signals, faults = plant_files
        with pytest.raises(DatasetError, match="classify"):
            convert_plant_csv(
                signals, faults, n_samples=2, tau=8, horizon=4, n_labels=2,
                ctx_prefixes=("Q",),
            )


@pytest.fixture
def activity_files(tmp_path):
    """Two recordings: time, 4 sensors, activity code, motion, object."""
    rng = np.random.default_rng(5)
    paths = []
    for k in range(2):
        rows = []
        for t in range(90):
            sensors = rng.normal(size=4)
            activity = 101 if t < 45 else 102
            motion = 401 if 30 <= t < 50 else (402 if t >= 70 else 0)
            obj = 501 if 35 <= t < 40 else 0
            rows.append(
                f"{t * 33} "
                + " ".join(f"{v:.5f}" for v in sensors)
                + f" {activity} {motion} {obj}"
            )
        p = tmp_path / f"rec{k}.dat"
        p.write_text("\n".join(rows) + "\n")
        paths.append(p)
    return paths


class TestActivityConverter:
    def test_one_hot_layout(self, activity_files):
        meta, samples = convert_activity_dat(
            activity_files, n_samples=6, obs_cols=(1, 4), ctx_col=5,
            motion_col=6, object_col=7, tau=20, horizon=10, seed=0,
        )
        assert meta.dims.d_obs == 4
        assert meta.dims.d_ctx == 2  # activities 101, 102
        assert meta.dims.n_labels == 3  # motions 401, 402 + object 501
        assert meta.label_names == ("motion_401", "motion_402", "object_501")
        assert len(samples) == 6
        for s in samples:
            assert set(np.unique(s.ctx)) <= {0.0, 1.0}
            assert s.ctx.sum(axis=1).max() <= 1.0

    def test_known_window_labels(self, activity_files):
        meta, samples = convert_activity_dat(
            activity_files[:1], n_samples=61, obs_cols=(1, 4), ctx_col=5,
            motion_col=6, object_col=7, tau=20, horizon=10, seed=0,
        )
        by_start = dict(zip(sorted(range(61)), samples))
        # start 0: forecast ticks 20..29, motion 401 starts at 30: all zero
        np.testing.assert_array_equal(by_start[0].labels, [0.0, 0.0, 0.0])
        # start 15: forecast 35..44: motion 401 active, object 501 active
        np.testing.assert_array_equal(by_start[15].labels, [1.0, 0.0, 1.0])
        # start 45: forecast 65..74: motion 402 from 70
        np.testing.assert_array_equal(by_start[45].labels, [0.0, 1.0, 0.0])

    def test_pinned_code_maps(self, activity_files):
        meta, _ = convert_activity_dat(
            activity_files, n_samples=4, obs_cols=(1, 4), ctx_col=5,
            motion_col=6, object_col=7, tau=20, horizon=10, seed=0,
            motion_codes=[401, 402, 403], object_codes=[501, 502],
        )
        assert meta.dims.n_labels == 5
        assert "motion_403" in meta.label_names

    def test_split_across_recordings(self, activity_files):
        meta, samples = convert_activity_dat(
            activity_files, n_samples=7, obs_cols=(1, 4), ctx_col=5,
            motion_col=6, object_col=7, tau=20, horizon=10, seed=0,
        )
        assert len(samples) == 7

    def test_column_bounds_checked(self, activity_files):
        with pytest.raises(DatasetError, match="column"):
            convert_activity_dat(
                activity_files, n_samples=2, obs_cols=(1, 4), ctx_col=99,
                motion_col=6, object_col=7, tau=20, horizon=10,
            )

    def test_nan_marks_a_missing_reading(self, activity_files):
        # a NaN reading is filled from the tick before, as if it had been there
        path = activity_files[0]
        lines = path.read_text().splitlines()
        cells = lines[10].split()
        filled = lines[9].split()[2]
        args = dict(n_samples=6, obs_cols=(1, 4), ctx_col=5, motion_col=6, object_col=7,
                    tau=20, horizon=10, seed=3)
        path.write_text("\n".join(lines[:10] + [" ".join(cells[:2] + ["NaN"] + cells[3:])]
                                  + lines[11:]) + "\n")
        _, with_nan = convert_activity_dat([path], **args)
        path.write_text("\n".join(lines[:10] + [" ".join(cells[:2] + [filled] + cells[3:])]
                                  + lines[11:]) + "\n")
        _, with_fill = convert_activity_dat([path], **args)
        for a, b in zip(with_nan, with_fill):
            np.testing.assert_array_equal(a.obs, b.obs)
            np.testing.assert_array_equal(a.ctx, b.ctx)
            np.testing.assert_array_equal(a.step_labels, b.step_labels)

    def test_non_numeric_cell_names_file_line_and_column(self, activity_files):
        path = activity_files[1]
        lines = path.read_text().splitlines()
        cells = lines[3].split()
        lines[3] = " ".join(cells[:2] + ["oops"] + cells[3:])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as info:
            convert_activity_dat(activity_files, n_samples=2, obs_cols=(1, 4), ctx_col=5,
                                 motion_col=6, object_col=7, tau=20, horizon=10)
        assert str(info.value) == f"{path}: line 4, column 2: 'oops' is not a number"

    @pytest.mark.parametrize("edit, column, cells", [
        (lambda row: row.rsplit(" ", 1)[0], 7, 7),  # loses the object code
        (lambda row: row + " 9", 8, 9),              # one cell too many
    ])
    def test_ragged_row_names_file_line_and_column(self, activity_files, edit, column, cells):
        path = activity_files[0]
        lines = path.read_text().splitlines()
        lines[6] = edit(lines[6])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as info:
            convert_activity_dat([path], n_samples=2, obs_cols=(1, 4), ctx_col=5,
                                 motion_col=6, object_col=7, tau=20, horizon=10)
        assert str(info.value) == (
            f"{path}: line 7, column {column}: {cells} cells, line width is 8"
        )

    def test_recording_without_readings_rejected(self, tmp_path):
        path = tmp_path / "empty.dat"
        path.write_text("\n# a comment line, then nothing\n\n")
        with pytest.raises(DatasetError, match=f"{path}: no readings"):
            convert_activity_dat([path], n_samples=1, obs_cols=(1, 2), ctx_col=3,
                                 motion_col=4, object_col=5, tau=1, horizon=1)
