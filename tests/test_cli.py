"""Command-line workflow, exercised through main() with small datasets."""

import json

import numpy as np
import pytest

from faultcast.cli import main
from faultcast.data import load_dataset


def run(*argv):
    return main(list(argv))


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
        assert samples == [] and meta.n_labels == 4

    def test_stats_table_lists_labels(self, tmp_path, capsys):
        out = tmp_path / "d.jsonl"
        assert run("generate", "--out", str(out), "--n", "120", "--seed", "0") == 0
        text = capsys.readouterr().out
        for name in ("fault_1", "fault_2", "fault_3", "fault_4"):
            assert name in text

    def test_dimension_overrides(self, tmp_path):
        out = tmp_path / "d.jsonl"
        assert run(
            "generate", "--out", str(out), "--n", "10", "--labels", "3",
            "--tau", "5", "--total-steps", "9",
        ) == 0
        meta, _ = load_dataset(out)
        assert meta.n_labels == 3 and meta.tau == 5 and meta.horizon == 4


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


class TestUsageErrors:
    def test_unknown_command(self):
        assert run("frobnicate") == 1

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
        assert str(grid) in err and "grid entry 0" in err
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
