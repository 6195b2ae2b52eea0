"""Decision rules: threshold at zero, per-label SVM, nearest class mean."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultcast.classifiers import (
    SVM_REG,
    broadcast_baseline,
    classifier_from_dict,
    classifier_to_dict,
    classify,
    fit_classifier,
    fit_svm_blocks,
)
from faultcast.data import JsonField
from faultcast.num import make_rng


class TestThresholdZero:
    def test_fit_is_parameterless(self):
        clf = fit_classifier("threshold_zero", np.zeros((3, 2)), np.zeros((3, 2)))
        assert clf.weight is None and clf.pos_mean is None

    def test_sign_decisions(self):
        clf = fit_classifier("threshold_zero", np.zeros((1, 2)), np.zeros((1, 2)))
        np.testing.assert_array_equal(classify(clf, np.array([-0.3, 0.2])), [0, 1])

    def test_boundary_is_negative(self):
        clf = fit_classifier("threshold_zero", np.zeros((1, 1)), np.zeros((1, 1)))
        np.testing.assert_array_equal(classify(clf, np.array([0.0])), [0])

    def test_scale_covariance(self):
        clf = fit_classifier("threshold_zero", np.zeros((1, 3)), np.zeros((1, 3)))
        rng = make_rng(1)
        g = rng.normal(size=3)
        for alpha in (0.5, 2.0, 117.0):
            np.testing.assert_array_equal(classify(clf, alpha * g), classify(clf, g))


class TestSvm:
    def test_separable_boundary_between_clusters(self):
        neg = -np.ones(10)
        pos = np.ones(10)
        scores = np.concatenate([neg, pos])[:, None]
        labels = np.concatenate([np.zeros(10), np.ones(10)])[:, None]
        clf = fit_classifier("svm", scores, labels, seed=0)
        assert clf.weight[0] != 0.0
        boundary = -clf.bias[0] / clf.weight[0]
        assert -1.0 < boundary < 1.0
        np.testing.assert_array_equal(
            classify(clf, scores).ravel(), labels.ravel().astype(int)
        )

    def test_deterministic_given_seed(self):
        rng = make_rng(2)
        scores = rng.normal(size=(40, 3))
        labels = (scores + rng.normal(size=(40, 3)) * 0.1 > 0).astype(float)
        a = fit_classifier("svm", scores, labels, seed=9)
        b = fit_classifier("svm", scores, labels, seed=9)
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)

    def test_matches_threshold_when_boundary_at_zero(self):
        rng = make_rng(3)
        scores = np.concatenate([rng.uniform(-2, -0.5, 20), rng.uniform(0.5, 2, 20)])[:, None]
        labels = (scores > 0).astype(float)
        svm = fit_classifier("svm", scores, labels, seed=1)
        thr = fit_classifier("threshold_zero", scores, labels)
        g = rng.uniform(-2, 2, size=(50, 1))
        boundary = -svm.bias[0] / svm.weight[0]
        assert abs(boundary) < 0.5
        inside = np.abs(g) > 0.5
        np.testing.assert_array_equal(
            classify(svm, g)[inside], classify(thr, g)[inside]
        )

    def test_single_class_label_falls_back(self):
        scores = np.array([[0.5, -1.0], [0.2, -2.0], [0.9, -0.5]])
        labels = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        clf = fit_classifier("svm", scores, labels, seed=0)
        np.testing.assert_array_equal(clf.fallback, [True, True])
        np.testing.assert_array_equal(classify(clf, np.array([0.3, -0.4])), [1, 0])


def pegasos_reference(scores, labels, seed, iterations, reg=SVM_REG):
    """One svm fit as a plain loop over its own sample stream: the update
    the fused block fit must reproduce bit for bit. Returns (w, b, fallback)."""
    n, n_labels = scores.shape
    pos_count = (labels > 0).sum(axis=0)
    fallback = (pos_count == 0) | (pos_count == n)
    targets = np.where(labels > 0, 1.0, -1.0)
    balance = np.ones_like(labels)
    for l in range(n_labels):
        if not fallback[l]:
            lift = np.sqrt((n - pos_count[l]) / pos_count[l])
            balance[:, l] = np.where(labels[:, l] > 0, lift, 1.0)
    w = np.zeros(n_labels)
    b = np.zeros(n_labels)
    for t, i in enumerate(make_rng(seed).integers(0, n, size=iterations), start=1):
        eta = 1.0 / (reg * t)
        margin = targets[i] * (w * scores[i] + b)
        push = np.where(margin < 1.0, eta * balance[i] * targets[i], 0.0)
        w *= 1.0 - eta * reg
        w += push * scores[i]
        b += push
    return w, b, fallback


def random_block(n, n_labels, data_seed):
    rng = make_rng(data_seed)
    scores = rng.normal(size=(n, n_labels))
    # rates 0 and 1 make single-class labels, which fall back
    rate = rng.choice([0.0, 0.3, 1.0], size=n_labels)
    labels = (rng.uniform(size=(n, n_labels)) < rate).astype(float)
    return scores, labels


def assert_same_svm(clf, reference):
    w, b, fallback = reference
    assert clf.kind == "svm"
    assert clf.weight.tobytes() == w.tobytes()
    assert clf.bias.tobytes() == b.tobytes()
    np.testing.assert_array_equal(clf.fallback, fallback)


class TestSvmBlocks:
    @settings(max_examples=40, deadline=None)
    @given(
        blocks=st.lists(
            st.builds(random_block, st.integers(1, 12), st.integers(1, 4),
                      st.integers(0, 2**16)),
            min_size=1, max_size=3,
        ),
        seed=st.integers(0, 2**16),
        iterations=st.integers(0, 2_500),  # crosses SVM_CHUNK boundaries
    )
    def test_blocks_equal_separate_fits(self, blocks, seed, iterations):
        fused = fit_svm_blocks(blocks, seed=seed, iterations=iterations)
        assert len(fused) == len(blocks)
        for (scores, labels), clf in zip(blocks, fused):
            reference = pegasos_reference(scores, labels, seed, iterations)
            assert_same_svm(clf, reference)
            assert_same_svm(
                fit_classifier("svm", scores, labels, seed=seed, iterations=iterations), reference
            )

    def test_segment_and_stepwise_shapes_at_full_length(self):
        # the train command's pair: a segment block and a 6x longer
        # stepwise block, both at the default iteration count
        segment = random_block(60, 4, 1)
        stepwise = random_block(360, 4, 2)
        fused = fit_svm_blocks([segment, stepwise], seed=3)
        for (scores, labels), clf in zip((segment, stepwise), fused):
            assert_same_svm(clf, pegasos_reference(scores, labels, 3, 10_000))

    def test_no_blocks(self):
        assert fit_svm_blocks([], seed=0) == []

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            fit_svm_blocks([(np.zeros((3, 2)), np.zeros((3, 2))),
                            (np.zeros((3, 2)), np.zeros((3, 1)))])


class TestNearestMean:
    def test_means_and_midpoint_rule(self):
        scores = np.array([[-2.0], [0.0], [4.0]])
        labels = np.array([[0.0], [0.0], [1.0]])
        clf = fit_classifier("nearest_mean", scores, labels)
        assert clf.neg_mean[0] == -1.0 and clf.pos_mean[0] == 4.0
        np.testing.assert_array_equal(classify(clf, np.array([1.4])), [0])
        np.testing.assert_array_equal(classify(clf, np.array([1.6])), [1])

    def test_tie_decides_negative(self):
        scores = np.array([[-1.0], [1.0]])
        labels = np.array([[0.0], [1.0]])
        clf = fit_classifier("nearest_mean", scores, labels)
        np.testing.assert_array_equal(classify(clf, np.array([0.0])), [0])

    def test_orientation_free(self):
        # positives sitting below negatives still classify correctly
        scores = np.array([[-3.0], [-2.5], [2.0], [2.5]])
        labels = np.array([[1.0], [1.0], [0.0], [0.0]])
        clf = fit_classifier("nearest_mean", scores, labels)
        np.testing.assert_array_equal(classify(clf, np.array([-2.8])), [1])
        np.testing.assert_array_equal(classify(clf, np.array([2.2])), [0])


class TestPerLabelIndependence:
    def test_label_permutation_permutes_decisions(self):
        rng = make_rng(4)
        scores = rng.normal(size=(30, 4))
        labels = (scores + 0.2 * rng.normal(size=(30, 4)) > 0).astype(float)
        g = rng.normal(size=(10, 4))
        perm = np.array([2, 0, 3, 1])
        for kind in ("svm", "threshold_zero", "nearest_mean"):
            base = classify(fit_classifier(kind, scores, labels, seed=5), g)
            permuted = classify(
                fit_classifier(kind, scores[:, perm], labels[:, perm], seed=5),
                g[:, perm],
            )
            np.testing.assert_array_equal(base[:, perm], permuted)


class TestLocalization:
    def test_zero_scores_with_positive_boundary(self):
        scores = np.concatenate([np.full(20, 0.2), np.full(20, 0.8)])[:, None]
        labels = np.concatenate([np.zeros(20), np.ones(20)])[:, None]
        clf = fit_classifier("svm", scores, labels, seed=0)
        steps = np.zeros((5, 1))
        np.testing.assert_array_equal(classify(clf, steps), np.zeros((5, 1), dtype=int))

    def test_separable_scores_perfectly_localized(self):
        rng = make_rng(5)
        neg = rng.uniform(0.05, 0.2, size=(60, 2))
        pos = rng.uniform(0.8, 0.95, size=(60, 2))
        scores = np.concatenate([neg, pos])
        labels = np.concatenate([np.zeros((60, 2)), np.ones((60, 2))])
        clf = fit_classifier("svm", scores, labels, seed=0)
        step_scores = scores.reshape(30, 4, 2)
        decided = classify(clf, step_scores)
        np.testing.assert_array_equal(decided, labels.reshape(30, 4, 2).astype(int))

    def test_broadcast_covers_localized_positives(self):
        # broadcasting a segment decision predicts a superset of positive
        # steps for any predicted-present label, so its recall dominates
        rng = make_rng(6)
        truth = (rng.uniform(size=(8, 5, 3)) < 0.4).astype(int)
        segment = (truth.sum(axis=1) > 0).astype(int)
        localized = truth.copy()
        localized[:, 0, :] = 0  # localization that misses the first step
        broadcast = broadcast_baseline(segment, horizon=5)
        assert np.all(broadcast >= localized)


class TestBroadcast:
    def test_replicates_rows(self):
        out = broadcast_baseline(np.array([1, 0]), horizon=3)
        np.testing.assert_array_equal(out, [[1, 0]] * 3)

    def test_zero_decision(self):
        out = broadcast_baseline(np.zeros(4, dtype=int), horizon=2)
        np.testing.assert_array_equal(out, np.zeros((2, 4), dtype=int))

    def test_row_count_matches_horizon(self):
        rng = make_rng(7)
        for _ in range(10):
            horizon = int(rng.integers(1, 9))
            decision = (rng.uniform(size=3) < 0.5).astype(int)
            assert broadcast_baseline(decision, horizon).shape == (horizon, 3)

    def test_invalid_horizon(self):
        with pytest.raises(ValueError, match="horizon"):
            broadcast_baseline(np.array([1]), horizon=0)


class TestSerialization:
    def test_round_trip_every_kind(self):
        rng = make_rng(8)
        scores = rng.normal(size=(20, 2))
        labels = (scores > 0).astype(float)
        g = rng.normal(size=(6, 2))
        for kind in ("svm", "threshold_zero", "nearest_mean"):
            clf = fit_classifier(kind, scores, labels, seed=3)
            back = classifier_from_dict(JsonField(classifier_to_dict(clf), "record"), n_labels=2)
            np.testing.assert_array_equal(classify(clf, g), classify(back, g))

    @pytest.mark.parametrize("edit, field", [
        ({"kind": "tree"}, "'kind'"),
        ({"kind": None}, "'kind'"),
        ({"weight": None}, "'weight'"),
        ({"bias": [0.0]}, "'bias'"),
        ({"fallback": [0, 0, 0]}, "'fallback'"),
        ({"weight": [[1.0, 1.0]]}, "'weight'"),
        ({"weight": ["a", "b"]}, "'weight'"),
    ])
    def test_malformed_record_names_the_field(self, edit, field):
        scores = make_rng(9).normal(size=(20, 2))
        doc = classifier_to_dict(fit_classifier("svm", scores, (scores > 0).astype(float)))
        classifier_from_dict(JsonField(doc, "record"), n_labels=2)
        with pytest.raises(ValueError, match=field):
            classifier_from_dict(JsonField({**doc, **edit}, "record"), n_labels=2)
