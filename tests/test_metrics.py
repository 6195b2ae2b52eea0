"""Evaluation metrics against hand counts and a brute-force reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultcast.metrics import (
    CountTable,
    confusion_counts,
    prf,
    segment_report,
    stepwise_report,
)
from faultcast.num import make_rng


def brute_force_scores(pred, truth):
    """Naive per-cell loops; the only shared ingredient is IEEE arithmetic.

    Uses the identical formula tree (2*p*r/(p+r), sum/len) so agreement with
    the production scorer must be exact, not approximate.
    """
    n, n_labels = len(pred), len(pred[0])
    per_label = []
    tp_all = fp_all = fn_all = 0
    for l in range(n_labels):
        tp = fp = fn = 0
        for s in range(n):
            p, t = pred[s][l], truth[s][l]
            if p == 1 and t == 1:
                tp += 1
            elif p == 1 and t == 0:
                fp += 1
            elif p == 0 and t == 1:
                fn += 1
        tp_all, fp_all, fn_all = tp_all + tp, fp_all + fp, fn_all + fn
        prec = tp / (tp + fp) if tp + fp > 0 else 0.0
        rec = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0
        per_label.append((prec, rec, f1))
    micro_p = tp_all / (tp_all + fp_all) if tp_all + fp_all > 0 else 0.0
    micro_r = tp_all / (tp_all + fn_all) if tp_all + fn_all > 0 else 0.0
    micro_f = 2 * micro_p * micro_r / (micro_p + micro_r) if micro_p + micro_r > 0 else 0.0
    return {
        "micro_precision": micro_p,
        "micro_recall": micro_r,
        "micro_f1": micro_f,
        "macro_precision": sum(x[0] for x in per_label) / n_labels,
        "macro_recall": sum(x[1] for x in per_label) / n_labels,
        "macro_f1": sum(x[2] for x in per_label) / n_labels,
    }


class TestCounts:
    def test_perfect_prediction(self):
        truth = np.array([[1, 0], [0, 1], [1, 1]])
        counts = confusion_counts(truth, truth)
        np.testing.assert_array_equal(counts.fp, [0, 0])
        np.testing.assert_array_equal(counts.fn, [0, 0])
        np.testing.assert_array_equal(counts.tp, [2, 2])

    def test_all_ones_vs_all_zeros(self):
        pred = np.ones((5, 3), dtype=int)
        truth = np.zeros((5, 3), dtype=int)
        counts = confusion_counts(pred, truth)
        np.testing.assert_array_equal(counts.fp, [5, 5, 5])
        np.testing.assert_array_equal(counts.tp, [0, 0, 0])
        np.testing.assert_array_equal(counts.fn, [0, 0, 0])

    def test_hand_case(self):
        pred = np.array([[1, 0], [1, 1], [0, 0]])
        truth = np.array([[1, 0], [0, 1], [0, 1]])
        counts = confusion_counts(pred, truth)
        np.testing.assert_array_equal(counts.tp, [1, 1])
        np.testing.assert_array_equal(counts.fp, [1, 0])
        np.testing.assert_array_equal(counts.fn, [0, 1])

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            confusion_counts(np.array([[2, 0]]), np.array([[1, 0]]))

    def test_bool_and_integer_matrices_count_alike(self):
        pred = np.array([[1, 0], [1, 1], [0, 0]])
        truth = np.array([[1, 0], [0, 1], [0, 1]])
        want = confusion_counts(pred, truth)
        for got in (confusion_counts(pred.astype(bool), truth.astype(bool)),
                    confusion_counts(pred.astype(bool), truth.astype(np.int8))):
            for field in ("tp", "fp", "fn"):
                a, b = getattr(got, field), getattr(want, field)
                assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            confusion_counts(np.zeros((2, 2)), np.zeros((3, 2)))

    def test_rejects_a_vector(self):
        with pytest.raises(ValueError, match="samples, labels"):
            confusion_counts(np.zeros(3), np.zeros(3))

    @pytest.mark.parametrize("n_labels", [1, 3])
    def test_reports_reject_a_stack(self, n_labels):
        stack = np.zeros((2, 4, n_labels))
        with pytest.raises(ValueError, match="labels,"):
            segment_report(stack, stack)
        with pytest.raises(ValueError, match="labels,"):
            prf(confusion_counts(stack, stack))

    @settings(max_examples=60, deadline=None)
    @given(members=st.integers(1, 5), n=st.integers(1, 12), n_labels=st.integers(1, 6),
           rate=st.floats(0.0, 1.0), seed=st.integers(0, 2**16))
    def test_a_stack_reports_each_member_as_alone(self, members, n, n_labels, rate, seed):
        rng = make_rng(seed)
        pred = (rng.uniform(size=(members, n, n_labels)) < rate).astype(int)
        truth = (rng.uniform(size=(n, n_labels)) < 0.5).astype(int)
        counts = confusion_counts(pred, np.broadcast_to(truth, pred.shape))
        assert counts.tp.shape == (members, n_labels)
        for k, member in enumerate(zip(counts.tp, counts.fp, counts.fn)):
            assert prf(CountTable(*member)) == segment_report(pred[k], truth)


class TestPrf:
    def test_perfect_is_all_ones(self):
        truth = np.array([[1, 0], [0, 1]])
        report = segment_report(truth, truth)
        assert all(v == 1.0 for v in report.as_dict().values())

    def test_hand_case(self):
        pred = np.array([[1, 0], [1, 1], [0, 0]])
        truth = np.array([[1, 0], [0, 1], [0, 1]])
        report = segment_report(pred, truth)
        assert abs(report.micro_precision - 2 / 3) < 1e-15
        assert abs(report.micro_recall - 2 / 3) < 1e-15
        assert abs(report.micro_f1 - 2 / 3) < 1e-15
        assert abs(report.macro_f1 - 2 / 3) < 1e-15

    def test_empty_everything_is_zero(self):
        report = segment_report(np.zeros((4, 2), dtype=int), np.zeros((4, 2), dtype=int))
        assert all(v == 0.0 for v in report.as_dict().values())

    def test_single_label_micro_equals_macro(self):
        rng = make_rng(1)
        for _ in range(20):
            pred = (rng.uniform(size=(6, 1)) < 0.5).astype(int)
            truth = (rng.uniform(size=(6, 1)) < 0.5).astype(int)
            report = segment_report(pred, truth)
            assert report.micro_f1 == report.macro_f1
            assert report.micro_precision == report.macro_precision
            assert report.micro_recall == report.macro_recall

    def test_exact_agreement_with_brute_force(self):
        rng = make_rng(2)
        for _ in range(100):
            n = int(rng.integers(1, 11))
            n_labels = int(rng.integers(1, 6))
            density = rng.uniform(0.0, 1.0)
            pred = (rng.uniform(size=(n, n_labels)) < density).astype(int)
            truth = (rng.uniform(size=(n, n_labels)) < density).astype(int)
            report = segment_report(pred, truth).as_dict()
            oracle = brute_force_scores(pred.tolist(), truth.tolist())
            for key, val in oracle.items():
                assert report[key] == val, key

    def test_permutation_invariance(self):
        rng = make_rng(3)
        pred = (rng.uniform(size=(8, 4)) < 0.4).astype(int)
        truth = (rng.uniform(size=(8, 4)) < 0.4).astype(int)
        base = segment_report(pred, truth)
        rows = rng.permutation(8)
        shuffled = segment_report(pred[rows], truth[rows])
        assert base == shuffled
        cols = rng.permutation(4)
        relabeled = segment_report(pred[:, cols], truth[:, cols])
        assert base.micro_f1 == relabeled.micro_f1
        assert base.micro_precision == relabeled.micro_precision


class TestStepwise:
    def test_broadcast_half_window(self):
        # correct segment decision broadcast over a window where the label is
        # truly active for half the steps: recall 1, precision 1/2
        pred = np.ones((1, 4, 1), dtype=int)
        truth = np.zeros((1, 4, 1), dtype=int)
        truth[0, :2, 0] = 1
        report = stepwise_report(pred, truth)
        assert report.micro_recall == 1.0
        assert report.micro_precision == 0.5

    def test_perfect_localization(self):
        rng = make_rng(4)
        truth = (rng.uniform(size=(3, 5, 2)) < 0.3).astype(int)
        report = stepwise_report(truth, truth)
        vals = report.as_dict()
        assert vals["micro_f1"] == 1.0 or truth.sum() == 0

    def test_matches_flattened_brute_force(self):
        rng = make_rng(5)
        pred = (rng.uniform(size=(2, 3, 2)) < 0.5).astype(int)
        truth = (rng.uniform(size=(2, 3, 2)) < 0.5).astype(int)
        report = stepwise_report(pred, truth).as_dict()
        oracle = brute_force_scores(
            pred.reshape(-1, 2).tolist(), truth.reshape(-1, 2).tolist()
        )
        for key, val in oracle.items():
            assert report[key] == val
