"""Dataset schema, splitting, and the synthetic generator."""

import json
import re

import numpy as np
import pytest

from faultcast import data
from faultcast.data import (
    DEFAULT_SYNTH_CONFIG,
    DatasetError,
    DatasetMeta,
    ModelDims,
    SynthConfig,
    class_stats,
    load_dataset,
    save_dataset,
    split_samples,
    synth_generate,
)
from dataclasses import replace


def small_config(**overrides):
    return replace(SynthConfig(seed=7), **overrides)


class TestRoundTrip:
    def test_save_load_bit_exact(self, tmp_path):
        meta, samples = synth_generate(small_config(), 12)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        meta2, samples2 = load_dataset(path)
        assert meta2 == meta
        assert len(samples2) == 12
        for a, b in zip(samples, samples2):
            np.testing.assert_array_equal(a.obs, b.obs)
            np.testing.assert_array_equal(a.ctx, b.ctx)
            np.testing.assert_array_equal(a.labels, b.labels)
            np.testing.assert_array_equal(a.step_labels, b.step_labels)

    def test_same_dataset_same_bytes(self, tmp_path):
        meta, samples = synth_generate(small_config(), 5)
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(p1, meta, samples)
        save_dataset(p2, meta, samples)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_dataset_accepted(self, tmp_path):
        meta, _ = synth_generate(small_config(), 0)
        path = tmp_path / "empty.jsonl"
        save_dataset(path, meta, [])
        meta2, samples2 = load_dataset(path)
        assert meta2 == meta and samples2 == []

    def test_inconsistent_sample_rejected_with_index(self, tmp_path):
        meta, samples = synth_generate(small_config(), 3)
        bad = samples[1]
        bad.labels[:] = 0.0
        bad.step_labels[0, 0] = 1.0
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DatasetError, match="sample 1.*inconsistent"):
            save_dataset(path, meta, samples)

    def test_save_writes_nothing_when_a_sample_is_invalid(self, tmp_path):
        # the last sample is bad: no header and no record of the others
        meta, samples = synth_generate(small_config(), 3)
        samples[2].obs[0, 0] = np.inf
        path = tmp_path / "bad.jsonl"
        with pytest.raises(DatasetError, match="sample 2: non-finite"):
            save_dataset(path, meta, samples)
        assert not path.exists()

    def test_load_names_an_invalid_sample_before_a_malformed_line(self, tmp_path,
                                                                  monkeypatch):
        meta, samples = synth_generate(small_config(), 4)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *records = path.read_text().splitlines()
        records[2] = re.sub(r'"labels":\[\d', '"labels":[2', records[2], count=1)
        records[3] = records[3][:-2]
        path.write_text("\n".join([header, *records]) + "\n")
        # one check of all records, then checks of 1 and 2 records, where the
        # bad record falls in a later check than the first
        for per_check in (data.CHECK_RECORDS, 1, 2):
            monkeypatch.setattr(data, "CHECK_RECORDS", per_check)
            with pytest.raises(DatasetError) as info:
                load_dataset(path)
            assert str(info.value) == f"{path}: line 4: sample 2: segment labels must be binary"

    def test_load_rejects_corrupted_record(self, tmp_path):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        lines = path.read_text().splitlines()
        lines[2] = lines[2].replace('"labels":[', '"labels":[1,', 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError, match="sample 1"):
            load_dataset(path)

    def test_load_rejects_non_finite(self, tmp_path):
        meta, samples = synth_generate(small_config(), 1)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        text = path.read_text()
        first_obs = str(samples[0].obs[0, 0])
        path.write_text(text.replace(first_obs, "NaN", 1))
        with pytest.raises(DatasetError, match="sample 0"):
            load_dataset(path)

    def test_not_a_dataset(self, tmp_path):
        path = tmp_path / "other.jsonl"
        path.write_text('{"format":"something"}\n')
        with pytest.raises(DatasetError, match="format"):
            load_dataset(path)

    @pytest.mark.parametrize("key", ["tau", "total_steps", "n_labels", "d_obs", "d_ctx",
                                     "label_names", "source"])
    def test_header_missing_key_names_path_line_and_key(self, tmp_path, key):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *rest = path.read_text().splitlines()
        doc = json.loads(header)
        del doc[key]
        path.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(path) in str(info.value)
        assert "line 1" in str(info.value) and repr(key) in str(info.value)

    def test_header_wrong_type_rejected(self, tmp_path):
        meta, samples = synth_generate(small_config(), 1)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *rest = path.read_text().splitlines()
        doc = json.loads(header)
        doc["tau"] = "4"
        path.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        with pytest.raises(DatasetError, match="line 1.*'tau'"):
            load_dataset(path)

    def test_header_not_an_object(self, tmp_path):
        path = tmp_path / "list.jsonl"
        path.write_text("[1, 2]\n")
        with pytest.raises(DatasetError, match="line 1.*format"):
            load_dataset(path)

    def test_truncated_sample_line_names_sample(self, tmp_path):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        text = path.read_text()
        path.write_text(text[: len(text) - 20] + "\n")
        with pytest.raises(DatasetError, match="sample 1"):
            load_dataset(path)

    def test_blank_line_keeps_record_numbering(self, tmp_path):
        # a blank line after the header; the corrupt second sample sits on
        # file line 4 and is still sample 1
        meta, samples = synth_generate(small_config(), 3)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *records = path.read_text().splitlines()
        records[1] = records[1].replace('"labels":[', '"labels":[1,', 1)
        path.write_text("\n".join([header, "", *records]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(info.value).startswith(f"{path}: line 4: sample 1: segment label shape")

    @pytest.mark.parametrize("corrupt, reason", [
        (lambda rec: rec[:-2], "malformed record"),
        (lambda rec: rec.replace('"obs"', '"obz"', 1), "'obs'"),
        # all true/false reads as bool, which is no numeric array
        (lambda rec: re.sub(r'"labels":\[[^]]*\]', '"labels":[true,false,false,false]', rec),
         "key 'labels': must be a numeric array"),
    ])
    def test_malformed_record_names_path_and_line(self, tmp_path, corrupt, reason):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        lines = path.read_text().splitlines()
        lines[2] = corrupt(lines[2])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        message = str(info.value)
        assert message.startswith(f"{path}: line 3: sample 1: ") and reason in message


class TestSplit:
    def test_exact_partition(self):
        _, samples = synth_generate(small_config(), 40)
        train, val, test = split_samples(samples, (20, 8, 12), seed=0)
        assert len(train) == 20 and len(val) == 8 and len(test) == 12
        seen = {id(s) for s in train + val + test}
        assert len(seen) == 40

    def test_seeded_reproducible(self):
        _, samples = synth_generate(small_config(), 30)
        a = split_samples(samples, (10, 5, 15), seed=3)
        b = split_samples(samples, (10, 5, 15), seed=3)
        for part_a, part_b in zip(a, b):
            assert [id(s) for s in part_a] == [id(s) for s in part_b]

    def test_oversized_request_rejected(self):
        _, samples = synth_generate(small_config(), 10)
        with pytest.raises(ValueError, match="split sizes"):
            split_samples(samples, (8, 2, 1), seed=0)


class TestGenerator:
    def test_deterministic(self):
        a_meta, a = synth_generate(small_config(), 6)
        b_meta, b = synth_generate(small_config(), 6)
        assert a_meta == b_meta
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.obs, sb.obs)
            np.testing.assert_array_equal(sa.ctx, sb.ctx)
            np.testing.assert_array_equal(sa.step_labels, sb.step_labels)

    def test_noise_free_run_deterministic(self):
        cfg = small_config(noise_scale=0.0)
        a = synth_generate(cfg, 4)[1]
        b = synth_generate(cfg, 4)[1]
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.obs, sb.obs)

    def test_consistency_identity_holds(self):
        _, samples = synth_generate(small_config(), 50)
        for s in samples:
            derived = (s.step_labels.sum(axis=0) > 0).astype(float)
            np.testing.assert_array_equal(derived, s.labels)

    def test_raising_threshold_never_raises_frequency(self):
        base_cfg = small_config()
        _, base = synth_generate(base_cfg, 120)
        base_counts = class_stats(base)
        for l in range(base_cfg.n_labels):
            thresholds = list(base_cfg.thresholds)
            thresholds[l] *= 1.7
            _, bumped = synth_generate(
                replace(base_cfg, thresholds=tuple(thresholds)), 120
            )
            bumped_counts = class_stats(bumped)
            assert bumped_counts[l] <= base_counts[l]
            others = [k for k in range(base_cfg.n_labels) if k != l]
            np.testing.assert_array_equal(bumped_counts[others], base_counts[others])

    def test_bounded_magnitudes(self):
        _, samples = synth_generate(small_config(), 40)
        for s in samples:
            assert np.all(np.abs(s.ctx) < 10.0)
            assert np.all(np.abs(s.obs) < 10.0)

    def test_default_config_label_spread(self):
        # regression fixture for the committed default generator
        _, samples = synth_generate(DEFAULT_SYNTH_CONFIG, 600)
        counts = class_stats(samples)
        assert np.all(counts >= 1)
        assert counts.max() >= 10 * counts.min()

    def test_invalid_configs(self):
        with pytest.raises(ValueError, match="lag"):
            small_config(lag=1.5)
        with pytest.raises(ValueError, match="persistence"):
            small_config(persistence=(0, 3))
        with pytest.raises(ValueError, match="entry per label"):
            small_config(thresholds=(1.0,))

    def test_negative_sample_count_rejected(self):
        assert synth_generate(small_config(), 0)[1] == []
        with pytest.raises(ValueError, match="n must be >= 0, got -5"):
            synth_generate(small_config(), -5)


class TestClassStats:
    def test_all_healthy(self):
        meta, samples = synth_generate(small_config(), 4)
        for s in samples:
            s.labels[:] = 0.0
            s.step_labels[:] = 0.0
        np.testing.assert_array_equal(class_stats(samples), np.zeros(meta.n_labels, dtype=int))

    def test_hand_counted(self):
        _, samples = synth_generate(small_config(), 3)
        for s in samples:
            s.labels[:] = 0.0
            s.step_labels[:] = 0.0
        samples[0].labels[0] = 1.0
        samples[0].step_labels[0, 0] = 1.0
        samples[2].labels[0] = 1.0
        samples[2].step_labels[1, 0] = 1.0
        samples[2].labels[3] = 1.0
        samples[2].step_labels[0, 3] = 1.0
        np.testing.assert_array_equal(class_stats(samples), [2, 0, 0, 1])

    def test_counts_bounded_by_n(self):
        _, samples = synth_generate(small_config(), 25)
        assert np.all(class_stats(samples) <= 25)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            class_stats([])


class TestMeta:
    def test_invalid_meta(self):
        with pytest.raises(DatasetError):
            DatasetMeta(ModelDims(2, 1, 1, 5, 5), ("a", "b"))
        with pytest.raises(DatasetError):
            DatasetMeta(ModelDims(2, 1, 1, 2, 5), ("a",))
        with pytest.raises(DatasetError):
            DatasetMeta(ModelDims(2, 1, 1, 2, 5), ("a", "b"), source="nowhere")

    @pytest.mark.parametrize("field", ["d_obs", "d_ctx"])
    def test_negative_feature_dims_rejected(self, field):
        # zero-width inputs are allowed
        dims = dict(n_labels=2, d_obs=0, d_ctx=0, tau=2, total_steps=5)
        DatasetMeta(ModelDims(**dims), ("a", "b"))
        with pytest.raises(DatasetError, match=f"{field}=-3"):
            ModelDims(**{**dims, field: -3})

    def test_negative_feature_dim_in_header_names_file(self, tmp_path):
        meta, samples = synth_generate(small_config(), 2)
        path = tmp_path / "data.jsonl"
        save_dataset(path, meta, samples)
        header, *rest = path.read_text().splitlines()
        doc = json.loads(header)
        doc["d_obs"] = -3
        path.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        with pytest.raises(DatasetError) as info:
            load_dataset(path)
        assert str(path) in str(info.value) and "d_obs=-3" in str(info.value)
