"""Command-line workflow, exercised through main() with small datasets."""

import argparse
import ast
import hashlib
import inspect
import json
import warnings

import numpy as np
import pytest

from faultcast.adapters import convert_activity_dat, convert_plant_csv
from faultcast import cli
from faultcast.classifiers import classifier_from_dict, classify
from faultcast.cli import build_parser, main
from faultcast.data import (
    JsonField, SynthConfig, load_dataset, save_dataset, split_samples, stack_samples,
)
from faultcast.model import forward, load_model
from faultcast.training import TrainConfig, grad_check, threshold_validation_f1


SPLIT = ("--n-train", "140", "--n-val", "40", "--n-test", "80")


def run(*argv):
    return main(list(argv))


def overflowing_update_run(root):
    """A train run with one batch an epoch whose first update overflows
    theta after a finite loss; returns the (data, model) paths."""
    root.mkdir(exist_ok=True)
    data, out = root / "d.jsonl", root / "m.json"
    assert run("generate", "--out", str(data), "--n", "16", "--labels", "2",
               "--tau", "3", "--total-steps", "5") == 0
    assert run("train", "--data", str(data), "--out-model", str(out), "--n-train", "8",
               "--n-val", "4", "--n-test", "4", "--batch-size", "8", "--eta", "1e306",
               "--lambda", "1e4", "--optimizer", "sgd", "--max-epochs", "5") == 0
    return data, out


def diverging_loss_run(root):
    """A train run whose loss diverges in its last epoch, whose record
    (scored on the weights before the diverging batch) beats every
    returnable epoch; returns the (data, model) paths."""
    root.mkdir(exist_ok=True)
    data, out = root / "d.jsonl", root / "m.json"
    assert run("generate", "--out", str(data), "--n", "40", "--labels", "2",
               "--tau", "3", "--total-steps", "5", "--seed", "3") == 0
    assert run("train", "--data", str(data), "--out-model", str(out), "--n-train", "24",
               "--n-val", "12", "--n-test", "4", "--batch-size", "8", "--eta", "100",
               "--lambda", "10", "--optimizer", "sgd", "--max-epochs", "30") == 0
    return data, out


def assert_printed_score_is_the_saved_model_s(printed, data, out, split):
    _, samples = load_dataset(data)
    val = split_samples(samples, split, 0)[1]
    (micro,), (macro,) = threshold_validation_f1(load_model(out)[0], stack_samples(val))
    assert np.isfinite(micro + macro)
    assert f"best validation micro+macro F1 = {micro + macro:.4f}\n" in printed


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated dataset plus one quickly trained model."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.jsonl"
    model = root / "model.json"
    history = root / "history.tsv"
    assert run("generate", "--out", str(data), "--n", "260", "--seed", "7") == 0
    assert run(
        "train", "--data", str(data), "--out-model", str(model),
        "--out-history", str(history),
        "--n-train", "140", "--n-val", "40", "--n-test", "80",
        "--max-epochs", "60", "--eta", "0.02", "--batch-size", "16",
        "--seed", "1",
    ) == 0
    return root, data, model, history


class TestGenerate:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run("generate", "--out", str(a), "--n", "40", "--seed", "3") == 0
        assert run("generate", "--out", str(b), "--n", "40", "--seed", "3") == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_dataset_is_valid(self, tmp_path):
        out = tmp_path / "empty.jsonl"
        assert run("generate", "--out", str(out), "--n", "0") == 0
        meta, samples = load_dataset(out)
        assert samples == [] and meta.dims.n_labels == 4

    def test_stats_table_lists_labels(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run("generate", "--out", str(out), "--n", "120", "--seed", "0") == 0
        text = capsys.readouterr().out
        for name in ("fault_1", "fault_2", "fault_3", "fault_4"):
            assert name in text

    @pytest.mark.parametrize("flags,field", [
        (["--d-ctx", "0"], "d_ctx=0"), (["--total-steps", "0", "--tau", "0"], "total_steps=0"),
        (["--labels", "0"], "n_labels=0"), (["--tau", "12"], "tau=12"),
        (["--d-obs", "-1"], "d_obs=-1"), (["--rarity=-1,1,1,1"], "rarity must be positive"),
        (["--thresholds", "nan,1,1,1"], "thresholds and rarity must be positive"),
        (["--noise", "nan"], "noise_scale must be finite and >= 0, got nan"),
        (["--noise", "-1"], "noise_scale must be finite and >= 0, got -1.0"),
        (["--seed", "-1"], "seed -1: "),
    ])
    def test_out_of_range_config_is_rejected_before_any_draw(self, tmp_path, capsys, flags,
                                                              field):
        out = tmp_path / "d.jsonl"
        assert run("generate", "--out", str(out), "--n", "5", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err and "Traceback" not in err
        assert not out.exists()

    def test_label_count_flag_follows_the_library_rule(self, tmp_path):
        # --labels 4, the default count, writes what no flag writes; --labels
        # 3 keeps the bytes of the evenly spaced rarity ramp (0.66 thresholds)
        # it wrote before SynthConfig held the rule
        written = []
        for k, flags in enumerate(([], ["--labels", "4"], ["--labels", "3"])):
            out = tmp_path / f"d{k}.jsonl"
            assert run("generate", "--out", str(out), "--n", "40", "--seed", "2", *flags) == 0
            written.append(out.read_bytes())
        assert written[1] == written[0]
        assert hashlib.sha256(written[2]).hexdigest() == (
            "7640a7ca03e5bd631ddad037356bd720190fc3635e06b2c5e7aa19263c5785c4")
        cfg = SynthConfig(n_labels=3)
        assert cfg.thresholds == (0.66,) * 3 and cfg.rarity == tuple(np.linspace(1.2, 6.6, 3))
        assert SynthConfig(n_labels=4) == SynthConfig()

    def test_dimension_overrides(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run(
            "generate", "--out", str(out), "--n", "10", "--labels", "3",
            "--tau", "5", "--total-steps", "9",
        ) == 0
        meta, _ = load_dataset(out)
        assert meta.dims.n_labels == 3 and meta.dims.tau == 5 and meta.dims.horizon == 4

    def test_a_tau_0_dataset_trains(self, tmp_path, capsys):
        # its observations are written as [], which keeps no inner dimension
        data, out = tmp_path / "d.jsonl", tmp_path / "m.json"
        assert run("generate", "--out", str(data), "--n", "40", "--tau", "0",
                   "--total-steps", "6") == 0
        assert run("train", "--data", str(data), "--out-model", str(out), "--n-train", "24",
                   "--n-val", "8", "--n-test", "8", "--max-epochs", "2") == 0
        assert "error" not in capsys.readouterr().err and load_model(out)[0].dims.tau == 0


class TestTrain:
    def test_outputs_exist(self, workspace):
        _, _, model, history = workspace
        assert model.exists() and history.exists()
        doc = json.loads(model.read_text())
        assert doc["format"] == "faultcast-model"
        assert set(doc["classifiers"]["segment"]) == {
            "svm", "threshold_zero", "nearest_mean"
        }
        lines = history.read_text().splitlines()
        assert len(lines) > 1

    def test_zero_epochs_smoke_path(self, workspace, tmp_path):
        _, data, _, _ = workspace
        out = tmp_path / "untrained.json"
        assert run(
            "train", "--data", str(data), "--out-model", str(out),
            "--n-train", "140", "--n-val", "40", "--n-test", "80",
            "--max-epochs", "0",
        ) == 0
        assert out.exists()

    def test_byte_identical_model_reruns(self, workspace, tmp_path):
        _, data, _, _ = workspace
        outs = []
        for name in ("m1.json", "m2.json"):
            out = tmp_path / name
            assert run(
                "train", "--data", str(data), "--out-model", str(out),
                "--n-train", "100", "--n-val", "30", "--n-test", "60",
                "--max-epochs", "12", "--batch-size", "16", "--seed", "5",
            ) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize(
        "loss,eta,lam",
        [("base", "0.001", "1"), ("localize", "0.01", "0.1")],
    )
    def test_benchmark_selected_configurations_run(self, workspace, tmp_path,
                                                   loss, eta, lam):
        # the configurations most often selected on the plant benchmark must
        # be expressible directly through the flags
        _, data, _, _ = workspace
        out = tmp_path / f"{loss}.json"
        assert run(
            "train", "--data", str(data), "--out-model", str(out),
            "--loss", loss, "--eta", eta, "--lambda", lam,
            "--n-train", "100", "--n-val", "30", "--n-test", "60",
            "--max-epochs", "2", "--batch-size", "16",
        ) == 0
        assert out.exists()

    def test_run_whose_update_overflows_saves_a_finite_model_and_warns(self, tmp_path, capsys):
        data, out = overflowing_update_run(tmp_path)
        text = capsys.readouterr()
        assert "warning: run diverged in epoch 0" in text.err
        assert np.isfinite(load_model(out)[0].theta).all()
        # no epoch was returnable, and the saved model's own score is printed
        assert_printed_score_is_the_saved_model_s(text.out, data, out, (8, 4, 4))

    def test_printed_best_score_is_the_saved_model_s(self, tmp_path, capsys):
        data, out = diverging_loss_run(tmp_path)
        text = capsys.readouterr()
        assert "run diverged" in text.err
        assert_printed_score_is_the_saved_model_s(text.out, data, out, (24, 12, 4))

    def test_diverging_runs_print_no_numpy_warning(self, tmp_path):
        # divergence is reported by the run itself, so numpy's overflow and
        # invalid-value warnings stay silent
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            overflowing_update_run(tmp_path / "update")
            diverging_loss_run(tmp_path / "loss")

    def test_mismatched_flags_fail_before_writing(self, workspace, tmp_path):
        _, data, _, _ = workspace
        out = tmp_path / "never.json"
        code = run(
            "train", "--data", str(data), "--out-model", str(out),
            "--n-train", "900", "--n-val", "40", "--n-test", "80",
        )
        assert code == 2
        assert not out.exists()


class TestEvaluate:
    def test_reports_all_classifiers(self, workspace, tmp_path):
        _, data, model, _ = workspace
        out = tmp_path / "report"
        assert run(
            "evaluate", "--model", str(model), "--data", str(data),
            "--out", str(out), "--split", "test",
            "--n-train", "140", "--n-val", "40", "--n-test", "80",
        ) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        assert set(doc["segment"]) == {"svm", "threshold_zero", "nearest_mean"}
        text = (tmp_path / "report.txt").read_text()
        assert "[segment svm]" in text

    def test_localization_report_schema(self, workspace, tmp_path):
        _, data, model, _ = workspace
        out = tmp_path / "locrep"
        assert run(
            "evaluate", "--model", str(model), "--data", str(data),
            "--out", str(out), "--split", "test", "--localize",
            "--classifier", "svm",
            "--n-train", "140", "--n-val", "40", "--n-test", "80",
        ) == 0
        doc = json.loads((tmp_path / "locrep.json").read_text())
        assert set(doc["stepwise"]) == {"localized", "broadcast"}
        for rec in doc["stepwise"].values():
            assert len(rec) == 6

    def test_each_text_line_states_its_json_field(self, workspace, tmp_path):
        # the .txt is rendered from the .json's document: top-level fields as
        # `key: value`, then a `[section name]` header per report and its
        # fields as `key: repr(value)`, every field once (the .json sorts its keys)
        _, data, model, _ = workspace
        out = tmp_path / "report"
        assert run("evaluate", "--model", str(model), "--data", str(data), "--out", str(out),
                   "--localize", *SPLIT) == 0
        doc = json.loads((tmp_path / "report.json").read_text())
        stated, where = [], ()
        for line in (tmp_path / "report.txt").read_text().splitlines():
            if line.startswith("["):
                where = tuple(line.strip("[]").split(" "))
                assert len(where) == 2 and isinstance(doc[where[0]][where[1]], dict), line
                continue
            key, value = line.split(": ")
            if where:
                assert ast.literal_eval(value) == doc[where[0]][where[1]][key], line
            else:
                assert value == str(doc[key]), line
            stated.append((*where, key))
        fields = [(key,) for key, v in doc.items() if not isinstance(v, dict)]
        fields += [(section, name, key) for section, reports in doc.items()
                   if isinstance(reports, dict) for name, report in reports.items()
                   for key in report]
        assert sorted(stated) == sorted(fields) and len(fields) == 2 + 5 * 6

    def test_untrained_model_file_rejected(self, workspace, tmp_path):
        root, data, model, _ = workspace
        bare = tmp_path / "bare.json"
        doc = json.loads(model.read_text())
        doc["classifiers"] = None
        bare.write_text(json.dumps(doc))
        code = run(
            "evaluate", "--model", str(bare), "--data", str(data),
            "--out", str(tmp_path / "r"),
        )
        assert code == 2


class TestPredictAndLocalize:
    def test_predict_records(self, workspace, tmp_path):
        _, data, model, _ = workspace
        out = tmp_path / "preds.jsonl"
        assert run(
            "predict", "--model", str(model), "--data", str(data),
            "--out", str(out), "--split", "test",
            "--n-train", "140", "--n-val", "40", "--n-test", "80",
        ) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 80
        rec = json.loads(lines[0])
        assert set(rec) == {"embedding", "probs", "decision"}
        assert all(0.0 < p < 1.0 for p in rec["probs"])

    def test_localize_records(self, workspace, tmp_path):
        _, data, model, _ = workspace
        out = tmp_path / "steps.jsonl"
        assert run(
            "localize", "--model", str(model), "--data", str(data),
            "--out", str(out), "--split", "test",
            "--n-train", "140", "--n-val", "40", "--n-test", "80",
        ) == 0
        rec = json.loads(out.read_text().splitlines()[0])
        steps = np.asarray(rec["step_decisions"])
        assert steps.shape == (6, 4)
        assert set(np.unique(steps)) <= {0, 1}

    def test_records_agree_with_one_batched_forward(self, workspace, tmp_path):
        # predict and localize score the split exactly as evaluate does: one
        # batched forward, one classify call per rule
        _, data, model_path, _ = workspace
        flags = ("--model", str(model_path), "--data", str(data), "--split", "test", *SPLIT)
        assert run("predict", *flags, "--out", str(tmp_path / "p.jsonl")) == 0
        assert run("localize", *flags, "--out", str(tmp_path / "l.jsonl")) == 0
        model, classifiers = load_model(model_path)
        _, samples = load_dataset(data)
        obs, ctx, _, _ = stack_samples(split_samples(samples, (140, 40, 80), 0)[2])
        pred = forward(model, obs, ctx, keep_tape=False)[0]
        n_labels = model.dims.n_labels
        records = JsonField(classifiers, str(model_path))
        segment = classifier_from_dict(records.field("segment.svm"), n_labels)
        stepwise = classifier_from_dict(records.field("stepwise"), n_labels)
        expected = {
            "p.jsonl": {"embedding": pred.embedding, "probs": pred.label_probs,
                        "decision": classify(segment, pred.embedding)},
            "l.jsonl": {"step_scores": pred.step_scores,
                        "step_decisions": classify(stepwise, pred.step_scores)},
        }
        for name, columns in expected.items():
            records = [json.loads(line) for line in (tmp_path / name).read_text().splitlines()]
            for key, want in columns.items():
                got = np.array([rec[key] for rec in records], dtype=want.dtype)
                assert got.tobytes() == want.tobytes(), (name, key)

    def test_byte_identical_reruns(self, workspace, tmp_path):
        _, data, model, _ = workspace
        for command in ("predict", "localize"):
            outs = []
            for k in range(2):
                out = tmp_path / f"{command}{k}.jsonl"
                assert run(command, "--model", str(model), "--data", str(data),
                           "--out", str(out), *SPLIT) == 0
                outs.append(out.read_bytes())
            assert outs[0] == outs[1]

    @pytest.mark.parametrize("command", ["predict", "localize"])
    def test_empty_split_writes_empty_file(self, workspace, tmp_path, command):
        _, data, model, _ = workspace
        out = tmp_path / "empty.jsonl"
        assert run(command, "--model", str(model), "--data", str(data), "--out", str(out),
                   "--n-train", "140", "--n-val", "40", "--n-test", "0") == 0
        assert out.read_bytes() == b""

    def test_evaluate_empty_split_is_data_error(self, workspace, tmp_path, capsys):
        _, data, model, _ = workspace
        assert run("evaluate", "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "r"),
                   "--n-train", "140", "--n-val", "40", "--n-test", "0") == 2
        assert "split 'test' is empty" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestGridSearch:
    def test_grid_file_single_point(self, workspace, tmp_path):
        _, data, _, _ = workspace
        grid = tmp_path / "grid.json"
        grid.write_text('[{"eta": 0.02, "lambda": 0.01}]')
        model = tmp_path / "gs.json"
        report = tmp_path / "gs.tsv"
        assert run(
            "gridsearch", "--data", str(data), "--out-model", str(model),
            "--out-report", str(report), "--grid-file", str(grid),
            "--n-train", "100", "--n-val", "30", "--n-test", "60",
            "--max-epochs", "6", "--batch-size", "16",
        ) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 2  # header + one point
        assert model.exists()

    @pytest.mark.parametrize("key", ["lamda", "lam", "loss", "batch_size"])
    def test_grid_file_key_other_than_eta_lambda_beta_is_data_error(self, workspace, tmp_path,
                                                                     capsys, key):
        _, data, _, _ = workspace
        grid = tmp_path / "grid.json"
        grid.write_text(json.dumps([{"eta": 0.01, "lambda": 0.0}, {"eta": 0.01, key: 5.0}]))
        model = tmp_path / "gs.json"
        assert run("gridsearch", "--data", str(data), "--grid-file", str(grid),
                   "--out-model", str(model), "--out-report", str(tmp_path / "gs.tsv"),
                   "--n-train", "60", "--n-val", "20", "--n-test", "20") == 2
        err = capsys.readouterr().err
        assert f"{grid}: key '[1].{key}': unknown grid key" in err
        assert not model.exists()

    def test_default_grid_report_size(self, workspace, tmp_path):
        _, data, _, _ = workspace
        model = tmp_path / "gs.json"
        report = tmp_path / "gs.tsv"
        assert run(
            "gridsearch", "--data", str(data), "--out-model", str(model),
            "--out-report", str(report),
            "--n-train", "60", "--n-val", "20", "--n-test", "20",
            "--max-epochs", "1", "--batch-size", "16",
        ) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 10  # header + 3 etas x 3 lambdas


    def test_siamese_grid_has_45_points(self, workspace, tmp_path):
        # eta x beta x lambda = 3 x 5 x 3; zero-epoch training keeps it fast
        _, data, _, _ = workspace
        model = tmp_path / "gs.json"
        report = tmp_path / "gs.tsv"
        assert run(
            "gridsearch", "--data", str(data), "--out-model", str(model),
            "--out-report", str(report), "--loss", "siamese",
            "--n-train", "60", "--n-val", "20", "--n-test", "20",
            "--max-epochs", "0",
        ) == 0
        lines = report.read_text().splitlines()
        assert len(lines) == 46


class TestGradcheck:
    def test_default_run_passes(self, capsys):
        assert run("gradcheck") == 0
        out = capsys.readouterr().out
        assert out.count("[pass]") == 3

    def test_coarse_step_fails_with_code_3(self):
        assert run("gradcheck", "--fd-step", "0.5", "--loss", "base") == 3

    def test_single_loss_scoping(self, capsys):
        assert run("gradcheck", "--loss", "siamese") == 0
        out = capsys.readouterr().out
        assert "siamese" in out and "base" not in out


class TestCompare:
    def test_difference_of_reports(self, workspace, tmp_path):
        _, data, model, _ = workspace
        for split, name in (("test", "a"), ("val", "b")):
            assert run(
                "evaluate", "--model", str(model), "--data", str(data),
                "--out", str(tmp_path / name), "--split", split,
                "--n-train", "140", "--n-val", "40", "--n-test", "80",
            ) == 0
        assert run(
            "compare", "--report", str(tmp_path / "a.json"),
            "--baseline", str(tmp_path / "b.json"),
            "--out", str(tmp_path / "diff"),
        ) == 0
        diff = json.loads((tmp_path / "diff.json").read_text())
        assert "segment.svm.micro_f1" in diff

    def test_self_difference_is_zero(self, workspace, tmp_path):
        _, data, model, _ = workspace
        assert run(
            "evaluate", "--model", str(model), "--data", str(data),
            "--out", str(tmp_path / "r"), "--split", "test",
            "--n-train", "140", "--n-val", "40", "--n-test", "80",
        ) == 0
        assert run(
            "compare", "--report", str(tmp_path / "r.json"),
            "--baseline", str(tmp_path / "r.json"),
            "--out", str(tmp_path / "zero"),
        ) == 0
        diff = json.loads((tmp_path / "zero.json").read_text())
        assert all(v == 0.0 for v in diff.values())


    @pytest.mark.parametrize("text,message", [
        ('{"a": 1', "invalid JSON"), ("[1, 2]", "a report must be a JSON object"),
        ("3", "a report must be a JSON object"), ("null", "a report must be a JSON object"),
    ])
    def test_report_that_is_no_json_object_is_data_error(self, tmp_path, capsys, text,
                                                         message):
        good, bad = tmp_path / "good.json", tmp_path / "bad.json"
        good.write_text('{"a": 1}')
        bad.write_text(text)
        for report, baseline in ((bad, good), (good, bad)):
            assert run("compare", "--report", str(report), "--baseline", str(baseline),
                       "--out", str(tmp_path / "diff")) == 2
            assert f"{bad}: {message}" in capsys.readouterr().err
        assert not (tmp_path / "diff.json").exists()


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("frobnicate") == 1

    def test_list_flags_parse_to_tuples(self, tmp_path):
        parser = build_parser()
        args = parser.parse_args(["generate", "--out", "d", "--thresholds", "0.5,1",
                                  "--rarity", "2", "--persistence", "1,3"])
        assert (args.thresholds, args.rarity, args.persistence) == ((0.5, 1.0), (2.0,), (1, 3))
        args = parser.parse_args(["convert-har", "--data", "r", "--out", "o", "--n-samples", "1",
                                  "--obs-cols", "1:2", "--ctx-col", "3", "--motion-col", "4",
                                  "--object-col", "5", "--ctx-codes", "1,2"])
        assert (args.obs_cols, args.ctx_codes, args.motion_codes) == ((1, 2), (1, 2), None)
        out = tmp_path / "d.jsonl"
        assert run("generate", "--out", str(out), "--n", "10", "--thresholds", "0.5,0.5,1,1",
                   "--rarity", "1,2,3,4", "--persistence", "1,3") == 0

    @pytest.mark.parametrize("flag,value", [
        ("--persistence", "2"), ("--persistence", "2,3,4"), ("--persistence", "2,x"),
        ("--thresholds", "0.5,,0.5"), ("--rarity", "one"),
    ])
    def test_malformed_generate_list_flag_is_usage_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "d.jsonl"
        assert run("generate", "--out", str(out), "--n", "10", flag, value) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and f"argument {flag}" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--obs-cols", "1"), ("--obs-cols", "1:x"), ("--ctx-codes", "1,x"),
        ("--motion-codes", "1;2"), ("--object-codes", ""),
    ])
    def test_malformed_convert_har_list_flag_is_usage_error(self, tmp_path, capsys, flag,
                                                            value):
        out = tmp_path / "har.jsonl"
        flags = {"--obs-cols": "1:2", flag: value}
        assert run("convert-har", "--data", str(tmp_path / "rec.dat"), "--out", str(out),
                   "--n-samples", "1", "--ctx-col", "3", "--motion-col", "4",
                   "--object-col", "5", *(x for item in flags.items() for x in item)) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and f"argument {flag}" in err
        assert not out.exists()

    def test_missing_required_flag(self):
        assert run("generate") == 1

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(
            "train", "--data", str(tmp_path / "nope.jsonl"),
            "--out-model", str(tmp_path / "m.json"),
        ) == 2

    def test_grid_file_of_numbers_is_data_error(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        grid = tmp_path / "grid.json"
        grid.write_text("[1,2]")
        assert run(
            "gridsearch", "--data", str(data), "--grid-file", str(grid),
            "--out-model", str(tmp_path / "gs.json"), "--out-report", str(tmp_path / "gs.tsv"),
            "--n-train", "60", "--n-val", "20", "--n-test", "20",
        ) == 2
        err = capsys.readouterr().err
        assert str(grid) in err and "'[0]'" in err
        assert not (tmp_path / "gs.json").exists()

    def test_non_numeric_plant_cell_is_data_error(self, tmp_path, capsys):
        signals = tmp_path / "signals.csv"
        signals.write_text("time,S1,R1\n0,0.5,1\n1,oops,1\n2,0.7,1\n")
        faults = tmp_path / "faults.csv"
        faults.write_text("start,end,code\n1,2,1\n")
        assert run(
            "convert-phm", "--signals", str(signals), "--faults", str(faults),
            "--out", str(tmp_path / "plant.jsonl"), "--n-samples", "1",
            "--tau", "1", "--horizon", "1", "--n-labels", "1",
        ) == 2
        err = capsys.readouterr().err
        assert str(signals) in err and "row 3, column 'S1'" in err
        assert not (tmp_path / "plant.jsonl").exists()

    def test_non_numeric_activity_cell_is_data_error(self, tmp_path, capsys):
        rec = tmp_path / "rec.dat"
        rec.write_text("".join(f"{t} 0.5 1.0 1 {t % 2} 0\n" for t in range(6))
                       + "6 0.5 oops 1 0 0\n")
        assert run(
            "convert-har", "--data", str(rec), "--out", str(tmp_path / "har.jsonl"),
            "--n-samples", "1", "--obs-cols", "1:2", "--ctx-col", "3",
            "--motion-col", "4", "--object-col", "5", "--tau", "1", "--horizon", "1",
        ) == 2
        err = capsys.readouterr().err
        assert str(rec) in err and "line 7, column 2: 'oops'" in err
        assert not (tmp_path / "har.jsonl").exists()

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_clip_norm_is_rejected(self, workspace, tmp_path, capsys, value):
        _, data, _, _ = workspace
        out = tmp_path / "m.json"
        assert run("train", "--data", str(data), "--out-model", str(out), "--clip-norm", value,
                   "--n-train", "60", "--n-val", "20", "--n-test", "20") == 2
        assert "clip_norm must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [("--max-epochs", "-3"), ("--patience", "0")])
    def test_negative_epochs_or_patience_is_rejected(self, workspace, tmp_path, capsys, flag,
                                                     value):
        _, data, _, _ = workspace
        out = tmp_path / "m.json"
        assert run("train", "--data", str(data), "--out-model", str(out), flag, value,
                   "--n-train", "60", "--n-val", "20", "--n-test", "20") == 2
        assert f"{flag[2:].replace('-', '_')} must be >= " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_is_rejected_naming_it(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        out = tmp_path / "m.json"
        assert run("train", "--data", str(data), "--out-model", str(out), "--seed", "-1",
                   "--n-train", "60", "--n-val", "20", "--n-test", "20") == 2
        assert "seed -1: " in capsys.readouterr().err
        assert not out.exists()

    def test_negative_sample_count_is_rejected(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run("generate", "--out", str(out), "--n", "-5") == 2
        assert "n must be >= 0, got -5" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_feature_dim_in_header_is_data_error(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        header, *rest = data.read_text().splitlines()
        doc = json.loads(header)
        doc["d_obs"] = -3
        bad = tmp_path / "neg.jsonl"
        bad.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        assert run("train", "--data", str(bad), "--out-model", str(tmp_path / "m.json")) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "line 1" in err and "d_obs=-3" in err

    @pytest.mark.parametrize("flag,field", [("--eta", "eta"), ("--lambda", "lam")])
    def test_nan_step_or_penalty_is_rejected(self, workspace, tmp_path, capsys, flag, field):
        _, data, _, _ = workspace
        out = tmp_path / "m.json"
        assert run("train", "--data", str(data), "--out-model", str(out), flag, "nan",
                   "--n-train", "60", "--n-val", "20", "--n-test", "20") == 2
        assert f"{field} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command,flag,value,field", [
        ("evaluate", "--labels", "3", "n_labels"),
        ("predict", "--labels", "3", "n_labels"),
        ("localize", "--labels", "3", "n_labels"),
        ("predict", "--d-obs", "3", "d_obs"),
        ("predict", "--d-ctx", "2", "d_ctx"),
        ("predict", "--tau", "3", "tau"),
        ("predict", "--total-steps", "11", "total_steps"),
    ])
    def test_dataset_model_dims_mismatch_is_data_error(self, workspace, tmp_path, capsys,
                                                       command, flag, value, field):
        _, _, model, _ = workspace
        data = tmp_path / "other.jsonl"
        assert run("generate", "--out", str(data), "--n", "20", flag, value) == 0
        capsys.readouterr()
        assert run(command, "--model", str(model), "--data", str(data),
                   "--out", str(tmp_path / "out"),
                   "--n-train", "10", "--n-val", "5", "--n-test", "5") == 2
        err = capsys.readouterr().err
        assert str(data) in err and str(model) in err and f"{field}={value}" in err
        assert [p.name for p in tmp_path.iterdir()] == [data.name]

    @pytest.mark.parametrize("command", ("train", "gridsearch", "evaluate", "predict",
                                         "localize"))
    def test_split_larger_than_the_dataset_is_data_error_naming_it(self, workspace, tmp_path,
                                                                   capsys, command):
        _, _, model, _ = workspace
        data, out = tmp_path / "short.jsonl", str(tmp_path / "out")
        assert run("generate", "--out", str(data), "--n", "39") == 0
        capsys.readouterr()
        outputs = {"train": ("--out-model", out),
                   "gridsearch": ("--out-model", out, "--out-report", out + ".tsv")}
        assert run(command, "--data", str(data),
                   *outputs.get(command, ("--model", str(model), "--out", out)),
                   "--n-train", "20", "--n-val", "10", "--n-test", "10") == 2
        err = capsys.readouterr().err
        assert err == f"error: {data}: split sizes (20, 10, 10) need 40 samples, dataset has 39\n"
        assert [p.name for p in tmp_path.iterdir()] == [data.name]

    def test_dataset_header_without_tau_is_data_error(self, workspace, tmp_path, capsys):
        _, data, _, _ = workspace
        header, *rest = data.read_text().splitlines()
        doc = json.loads(header)
        del doc["tau"]
        bad = tmp_path / "no_tau.jsonl"
        bad.write_text("\n".join([json.dumps(doc), *rest]) + "\n")
        assert run("train", "--data", str(bad), "--out-model", str(tmp_path / "m.json")) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "line 1" in err and "'tau'" in err

    def test_model_without_segment_svm_is_data_error(self, workspace, tmp_path, capsys):
        _, data, model, _ = workspace
        doc = json.loads(model.read_text())
        del doc["classifiers"]["segment"]["svm"]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "pred.jsonl"
        assert run("predict", "--model", str(bad), "--data", str(data),
                   "--out", str(out), *SPLIT) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'classifiers.segment.svm'" in err
        assert not out.exists()

    def test_short_classifier_array_is_data_error(self, workspace, tmp_path, capsys):
        _, data, model, _ = workspace
        doc = json.loads(model.read_text())
        doc["classifiers"]["stepwise"]["weight"] = [1.0]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        out = tmp_path / "loc.jsonl"
        assert run("localize", "--model", str(bad), "--data", str(data),
                   "--out", str(out), *SPLIT) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and "'classifiers.stepwise.weight'" in err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["encoder", "decoder", "dims"])
    def test_model_file_missing_key_is_data_error(self, workspace, tmp_path, capsys, key):
        _, data, model, _ = workspace
        doc = json.loads(model.read_text())
        del doc[key]
        bad = tmp_path / "bad_model.json"
        bad.write_text(json.dumps(doc))
        assert run("evaluate", "--model", str(bad), "--data", str(data),
                   "--out", str(tmp_path / "eval")) == 2
        err = capsys.readouterr().err
        assert str(bad) in err and repr(key) in err


# The library call each command's flags feed through one flags-to-kwargs
# path; the other commands feed none.
FEEDS = {"generate": SynthConfig, "convert-phm": convert_plant_csv,
         "convert-har": convert_activity_dat, "train": TrainConfig,
         "gridsearch": TrainConfig, "gradcheck": grad_check}


def _subcommands():
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


class TestLibraryDefaults:
    def test_no_flag_restates_a_library_default(self):
        commands = _subcommands()
        assert set(FEEDS) < set(commands)
        for command, sub in commands.items():
            params = inspect.signature(FEEDS[command]).parameters if command in FEEDS else {}
            dests = {a.dest for a in sub._actions}
            assert command not in FEEDS or dests & set(params)
            for action in sub._actions:
                # the split flags' --seed also seeds the split and the model
                # init, which have no library default
                if action.dest in params and not (action.dest == "seed" and "n_train" in dests):
                    assert action.default is None, (command, action.option_strings)

    def test_unset_flags_give_the_library_defaults(self):
        parser = build_parser()
        for argv in (["train", "--data", "d", "--out-model", "m"],
                     ["gridsearch", "--data", "d", "--out-model", "m", "--out-report", "r"]):
            args = parser.parse_args(argv)
            assert cli._given(args, TrainConfig) == {"seed": 0}
            assert TrainConfig(seed=args.seed) == TrainConfig()


@pytest.fixture
def raw_files(tmp_path):
    """A plant signals/faults pair (80 ticks, codes 1-3, one missing cell)
    and two activity recordings (120 ticks, 4 sensors)."""
    rows = ["time,S1,S2,E1,R1,R2,X1"]
    for t in range(80):
        cell = "" if t == 17 else f"{np.sin(t / 5.0):.6f}"
        rows.append(f"{t},{0.1 * t:.6f},{cell},20.0,{1.0 if t < 30 else 2.0},0.5,{t % 3}")
    signals, faults = tmp_path / "signals.csv", tmp_path / "faults.csv"
    signals.write_text("\n".join(rows) + "\n")
    faults.write_text("start,end,code\n10,14,1\n40,44,2\n52,58,3\n60,70,1\n")
    rng = np.random.default_rng(5)
    recordings = [tmp_path / f"rec{k}.dat" for k in range(2)]
    for path in recordings:
        path.write_text("".join(
            f"{t * 33} " + " ".join(f"{v:.5f}" for v in rng.normal(size=4))
            + f" {101 if t < 45 else 102} {401 if 30 <= t < 50 else (402 if t >= 70 else 0)}"
            + f" {501 if 35 <= t < 40 else 0}\n" for t in range(120)))
    return signals, faults, recordings


class TestConvert:
    @pytest.mark.parametrize("optional", [False, True])
    def test_flags_write_what_the_library_converter_writes(self, raw_files, tmp_path,
                                                           optional):
        # every optional flag unset, then set to a value other than its default
        signals, faults, recordings = raw_files
        phm = ["convert-phm", "--signals", str(signals), "--faults", str(faults),
               "--n-samples", "3"]
        phm_kwargs = dict(n_samples=3)
        har = ["convert-har", "--data", str(recordings[0]), "--data", str(recordings[1]),
               "--n-samples", "2", "--obs-cols", "1:4", "--ctx-col", "5", "--motion-col", "6",
               "--object-col", "7"]
        har_kwargs = dict(n_samples=2, obs_cols=(1, 4), ctx_col=5, motion_col=6, object_col=7)
        if optional:
            phm += ["--tau", "8", "--horizon", "4", "--n-labels", "3", "--seed", "2",
                    "--no-overlap", "--obs-prefix", "S", "--obs-prefix", "X",
                    "--ctx-prefix", "R"]
            phm_kwargs.update(tau=8, horizon=4, n_labels=3, seed=2, allow_overlap=False,
                              obs_prefixes=("S", "X"), ctx_prefixes=("R",))
            har += ["--tau", "10", "--horizon", "5", "--seed", "3",
                    "--no-overlap", "--ctx-codes", "101,102,103", "--motion-codes", "401,402",
                    "--object-codes", "501"]
            har_kwargs.update(tau=10, horizon=5, seed=3, allow_overlap=False,
                              ctx_codes=(101, 102, 103), motion_codes=(401, 402),
                              object_codes=(501,))
        for argv, convert, args, kwargs in (
            (phm, convert_plant_csv, (signals, faults), phm_kwargs),
            (har, convert_activity_dat, (recordings,), har_kwargs),
        ):
            cli_out, lib_out = tmp_path / "cli.jsonl", tmp_path / "lib.jsonl"
            assert run(*argv, "--out", str(cli_out)) == 0
            save_dataset(lib_out, *convert(*args, **kwargs))
            assert cli_out.read_bytes() == lib_out.read_bytes(), argv[0]

    def test_unmatched_prefixes_are_named_as_tuples(self, raw_files, tmp_path, capsys):
        signals, faults, _ = raw_files
        out = tmp_path / "plant.jsonl"
        assert run("convert-phm", "--signals", str(signals), "--faults", str(faults),
                   "--out", str(out), "--n-samples", "3",
                   "--obs-prefix", "Q", "--obs-prefix", "Z") == 2
        assert capsys.readouterr().err == (
            "error: could not classify columns: 0 observation and 2 context columns "
            "matched prefixes ('Q', 'Z') / ('R',)\n")
        assert not out.exists()
