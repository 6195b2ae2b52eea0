"""Loss fixtures and properties.

Expected values are computed from the defining formulas inline (math.log
etc.), never copied from the implementation under test.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from faultcast.losses import (
    EPS,
    batch_adjoints,
    batch_loss,
    class_weights,
    l2_penalty,
)
from faultcast.model import ForecastModel, ModelDims, init_model, param_items, param_size
from faultcast.num import make_rng, sigmoid

ATOL = 1e-10


def weights_of(*w):
    return np.asarray(w, dtype=np.float64)


@dataclass
class FakePrediction:
    embedding: np.ndarray
    label_probs: np.ndarray
    step_scores: np.ndarray
    step_hidden: np.ndarray = None


# Each term of the objective is read as its field of batch_loss's breakdown:
# a batch of one sample carries one segment or stepwise loss, and a batch of
# two at beta 0 carries the one pair's loss.

def segment_of(probs, labels, w):
    y = np.array([probs], dtype=np.float64)
    pred = FakePrediction(np.log(y) - np.log1p(-y), y, np.zeros((1, 1, y.shape[1])))
    return batch_loss("base", pred, np.array([labels], dtype=np.float64),
                      np.zeros((1, 1, y.shape[1])), w).segment


def stepwise_of(scores, step_labels):
    o = np.array([scores], dtype=np.float64)
    n_labels = o.shape[2]
    pred = FakePrediction(np.zeros((1, n_labels)), np.full((1, n_labels), 0.5), o)
    return batch_loss("localize", pred, np.zeros((1, n_labels)),
                      np.array([step_labels], dtype=np.float64),
                      weights_of(*[1.0] * n_labels)).stepwise


def pair_of(g_i, g_j, t_i, t_j):
    """(1/L) sum_l [s~ (1 - s)^2 + (1 - s~) s^2] of the pair, s = exp(-|g_i - g_j|)."""
    g = np.array([g_i, g_j], dtype=np.float64)
    n_labels = g.shape[1]
    pred = FakePrediction(g, sigmoid(g), np.zeros((2, 1, n_labels)))
    return batch_loss("siamese", pred, np.array([t_i, t_j], dtype=np.float64),
                      np.zeros((2, 1, n_labels)), weights_of(*[1.0] * n_labels),
                      beta=0.0).pairwise


def similarity_of(g_i, g_j):
    """exp(-|g_i - g_j|) of one label, as the square root of the pair loss
    s^2 of two samples whose labels differ."""
    return math.sqrt(pair_of([g_i], [g_j], [1.0], [0.0]))


def softplus(x):
    return max(x, 0.0) + math.log1p(math.exp(-abs(x)))


def oracle_terms(kind, g, y, o, t, ot, w, beta):
    """(segment, stepwise, pairwise) of one batch from the defining formulas,
    one sample and one pair at a time. Past the probability clamp the
    segment term is taken on the logit g."""
    n, horizon, n_labels = len(o), len(o[0]), len(o[0][0])

    def seg(i):
        total = 0.0
        for l in range(n_labels):
            if EPS <= y[i][l] <= 1.0 - EPS:
                total -= (w[l] * t[i][l] * math.log(y[i][l])
                          + (1.0 - t[i][l]) * math.log(1.0 - y[i][l]))
            else:
                total += w[l] * t[i][l] * softplus(-g[i][l]) + (1.0 - t[i][l]) * softplus(g[i][l])
        return total

    def step(i):
        return sum(ot[i][h][l] * (1.0 - o[i][h][l]) ** 2 + (1.0 - ot[i][h][l]) * o[i][h][l] ** 2
                   for h in range(horizon) for l in range(n_labels)) / (horizon * n_labels)

    def pair(i, j):
        total = 0.0
        for l in range(n_labels):
            s = math.exp(-abs(g[i][l] - g[j][l]))
            same = 1.0 if t[i][l] == t[j][l] else 0.0
            total += same * (1.0 - s) ** 2 + (1.0 - same) * s**2
        return total / n_labels

    if kind != "siamese":
        l_step = 0.0 if kind == "base" else sum(step(i) for i in range(n)) / n
        return sum(seg(i) for i in range(n)) / n, l_step, 0.0
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    return (beta * sum(seg(i) + seg(j) for i, j in pairs) / len(pairs),
            beta * sum(step(i) + step(j) for i, j in pairs) / len(pairs),
            (1.0 - beta) * sum(pair(i, j) for i, j in pairs) / len(pairs))


class TestClassWeights:
    def test_inverse_e_frequency_gives_unit_weight(self):
        # 25 of 68 positives is within 1/1000 of 1/e; use an exact 1/e via
        # direct construction instead: p = 1/e cannot be hit with integer
        # counts, so check the formula at the nearest representable point.
        labels = np.zeros((math.e.__trunc__() * 100, 1))
        n = labels.shape[0]
        k = round(n / math.e)
        labels[:k, 0] = 1.0
        w = class_weights(labels)
        assert abs(w[0] - (-math.log(k / n))) < ATOL

    def test_absent_label_weight_one(self):
        labels = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 0.0]])
        w = class_weights(labels)
        assert w.shape == (2,)
        assert abs(w[0] - (-math.log(2 / 3))) < ATOL
        assert w[1] == 1.0

    def test_half_frequency(self):
        labels = np.array([[1.0], [0.0], [1.0], [0.0]])
        w = class_weights(labels)
        assert abs(w[0] - math.log(2.0)) < ATOL

    def test_always_present_label_warns_and_weights_zero(self):
        labels = np.ones((4, 1))
        with pytest.warns(UserWarning, match="weight 0"):
            w = class_weights(labels)
        assert w[0] == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            class_weights(np.zeros((0, 3)))

    def test_weight_monotone_in_frequency(self):
        rng = make_rng(3)
        p = np.sort(rng.uniform(0.01, 1.0, size=50))
        n = 1000
        labels = np.zeros((n, 50))
        counts = np.maximum(1, (p * n).astype(int))
        for l, k in enumerate(counts):
            labels[:k, l] = 1.0
        order = np.argsort(labels.mean(axis=0))
        sorted_w = class_weights(labels)[order]
        assert np.all(np.diff(sorted_w) <= 1e-12)


class TestSegmentLoss:
    def test_negative_only_term(self):
        got = segment_of([0.5], [0.0], weights_of(1.0))
        assert abs(got - math.log(2.0)) < ATOL

    def test_positive_only_term(self):
        got = segment_of([0.5], [1.0], weights_of(1.0))
        assert abs(got - math.log(2.0)) < ATOL

    def test_weighted_hand_case(self):
        got = segment_of([0.5, 0.25], [1.0, 0.0], weights_of(2.0, 1.0))
        expected = 2.0 * math.log(2.0) - math.log(0.75)
        assert abs(got - expected) < ATOL

    def test_non_negative_and_zero_at_corners(self):
        rng = make_rng(4)
        for _ in range(50):
            probs = rng.uniform(1e-6, 1 - 1e-6, size=5)
            labels = (rng.uniform(size=5) < 0.5).astype(float)
            w = weights_of(*rng.uniform(0.1, 3.0, size=5))
            assert segment_of(probs, labels, w) >= 0.0
        tiny = segment_of([1 - 1e-12, 1e-12], [1.0, 0.0], weights_of(1.0, 1.0))
        assert tiny < 1e-10

class TestStepwiseLoss:
    def test_zero_at_exact_corners(self):
        target = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert stepwise_of(target, target) == 0.0

    def test_quarter_scores_against_zeros(self):
        scores = np.full((3, 2), 0.25)
        assert abs(stepwise_of(scores, np.zeros((3, 2))) - 0.0625) < ATOL

    def test_single_entry(self):
        got = stepwise_of([[0.25]], [[1.0]])
        assert abs(got - 0.5625) < ATOL

    def test_bounded_unit_interval(self):
        rng = make_rng(6)
        for _ in range(30):
            scores = rng.uniform(1e-9, 1 - 1e-9, size=(4, 3))
            target = (rng.uniform(size=(4, 3)) < 0.5).astype(float)
            val = stepwise_of(scores, target)
            assert 0.0 <= val <= 1.0

class TestPairTerms:
    def test_identical_embeddings_similarity_one(self):
        assert similarity_of(0.3, 0.3) == 1.0
        assert similarity_of(-2.0, -2.0) == 1.0

    def test_log2_gap_gives_half(self):
        assert abs(similarity_of(math.log(2.0), 0.0) - 0.5) < ATOL

    def test_hand_case(self):
        assert abs(similarity_of(1.0, 0.0) - math.exp(-1.0)) < ATOL
        assert abs(similarity_of(-1.0, 1.0) - math.exp(-2.0)) < ATOL

    def test_symmetry(self):
        rng = make_rng(8)
        a, b = rng.normal(size=4), rng.normal(size=4)
        t_a, t_b = [1.0, 0.0, 1.0, 0.0], [1.0, 1.0, 0.0, 0.0]
        assert pair_of(a, b, t_a, t_b) == pair_of(b, a, t_b, t_a)

    def test_pair_loss_corners(self):
        assert pair_of([0.7], [0.7], [1.0], [1.0]) == 0.0  # similarity 1, target 1
        assert abs(pair_of([math.log(2.0)], [0.0], [1.0], [0.0]) - 0.25) < ATOL

    def test_pair_loss_hand_case(self):
        # similarities 0.5 and 0.1 against targets 1 and 0
        got = pair_of([math.log(2.0), math.log(10.0)], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0])
        assert abs(got - 0.13) < ATOL

class TestL2Penalty:
    def make_model(self):
        return init_model(make_rng(0), ModelDims(2, 1, 1, 2, 4))

    def test_zero_coefficient(self):
        assert l2_penalty(self.make_model(), 0.0) == 0.0

    def test_zero_weights(self):
        model = self.make_model()
        for _, arr in param_items(model):
            arr[...] = 0.0
        assert l2_penalty(model, 2.0) == 0.0

    def test_single_weight_matrix(self):
        model = self.make_model()
        for _, arr in param_items(model):
            arr[...] = 0.0
        key, w_f = param_items(model)[0]
        assert key.split(".") == ["encoder", "w_f"]
        w_f[0, :2] = (3.0, 4.0)
        assert abs(l2_penalty(model, 2.0) - 25.0) < ATOL

    def test_biases_excluded(self):
        model = self.make_model()
        for name, arr in param_items(model):
            arr[...] = 0.0 if ".w_" in name else 7.0
        model.out_bias[...] = 7.0
        assert l2_penalty(model, 1.0) == 0.0


def make_pred(rng, n, horizon=3, n_labels=2):
    g = rng.normal(size=(n, n_labels))
    y = 1.0 / (1.0 + np.exp(-g))
    h = rng.normal(size=(n, horizon, n_labels))
    o = (1.0 / (1.0 + np.exp(-h))) * y[:, None, :]
    return FakePrediction(g, y, o)


class TestBatchLoss:
    def test_single_sample_base_equals_segment_loss(self):
        rng = make_rng(9)
        pred = make_pred(rng, 1)
        labels = np.array([[1.0, 0.0]])
        steps = np.zeros((1, 3, 2))
        w = weights_of(1.0, 1.0)
        got = batch_loss("base", pred, labels, steps, w)
        expected, _, _ = oracle_terms("base", pred.embedding, pred.label_probs,
                                      pred.step_scores, labels, steps, w, 0.5)
        assert abs(got.total - expected) < ATOL
        assert got.stepwise == 0.0 and got.pairwise == 0.0

    def test_localize_with_perfect_steps(self):
        rng = make_rng(10)
        pred = make_pred(rng, 2)
        labels = (pred.label_probs > 0.5).astype(float)
        w = weights_of(1.0, 1.0)
        got = batch_loss("localize", pred, labels, pred.step_scores.round(), w)
        near_corner = batch_loss(
            "localize",
            FakePrediction(
                pred.embedding,
                pred.label_probs,
                np.clip(pred.step_scores.round(), 1e-15, 1 - 1e-15),
            ),
            labels,
            pred.step_scores.round(),
            w,
        )
        assert abs(near_corner.stepwise) < 1e-12
        assert got.segment > 0.0

    def test_siamese_two_sample_hand_composition(self):
        rng = make_rng(11)
        pred = make_pred(rng, 2)
        labels = np.array([[1.0, 0.0], [1.0, 1.0]])
        steps = (pred.step_scores > 0.4).astype(float)
        w = weights_of(1.3, 0.7)
        beta = 0.3
        got = batch_loss("siamese", pred, labels, steps, w, beta=beta)

        # one pair: beta * (both segment + stepwise losses) + (1 - beta) * pair loss
        expected = sum(oracle_terms("siamese", pred.embedding, pred.label_probs,
                                    pred.step_scores, labels, steps, w, beta))
        assert abs(got.total - expected) < ATOL

    def test_siamese_needs_two(self):
        rng = make_rng(12)
        pred = make_pred(rng, 1)
        with pytest.raises(ValueError, match="at least 2"):
            batch_loss(
                "siamese", pred, np.array([[1.0, 0.0]]), np.zeros((1, 3, 2)),
                weights_of(1.0, 1.0),
            )

    def test_order_invariance_of_siamese(self):
        rng = make_rng(13)
        pred = make_pred(rng, 4)
        labels = (rng.uniform(size=(4, 2)) < 0.5).astype(float)
        steps = (rng.uniform(size=(4, 3, 2)) < 0.3).astype(float)
        w = weights_of(1.0, 2.0)
        a = batch_loss("siamese", pred, labels, steps, w, beta=0.5)
        perm = [2, 0, 3, 1]
        shuffled = FakePrediction(
            pred.embedding[perm], pred.label_probs[perm], pred.step_scores[perm]
        )
        b = batch_loss("siamese", shuffled, labels[perm], steps[perm], w, beta=0.5)
        assert abs(a.total - b.total) < 1e-12

    def test_breakdown_total_is_component_sum(self):
        rng = make_rng(14)
        model = init_model(make_rng(1), ModelDims(2, 1, 1, 2, 5))
        pred = make_pred(rng, 3)
        labels = (rng.uniform(size=(3, 2)) < 0.5).astype(float)
        steps = (rng.uniform(size=(3, 3, 2)) < 0.5).astype(float)
        w = weights_of(1.0, 1.0)
        for kind in ("base", "localize", "siamese"):
            got = batch_loss(kind, pred, labels, steps, w, model=model, lam=0.7)
            parts = got.segment + got.stepwise + got.pairwise + got.reg
            assert abs(got.total - parts) < 1e-12
            assert got.reg > 0.0

    def test_adjoints_match_finite_differences(self):
        # d_embedding covers both g's own terms and y = sigmoid(g); the step
        # scores are an input of their own
        rng = make_rng(15)
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        steps = (rng.uniform(size=(3, 3, 2)) < 0.4).astype(float)
        w = weights_of(0.9, 1.8)
        for kind in ("base", "localize", "siamese"):
            pred = make_pred(rng, 3)
            _, do, dg, d_theta = batch_adjoints(kind, pred, labels, steps, w, beta=0.4)
            assert d_theta is None
            eps = 1e-7

            def value():
                p = FakePrediction(pred.embedding, sigmoid(pred.embedding), pred.step_scores)
                return batch_loss(kind, p, labels, steps, w, beta=0.4).total

            for arr, grad in ((pred.step_scores, do), (pred.embedding, dg)):
                flat, gflat = arr.ravel(), grad.ravel()
                for k in range(flat.size):
                    keep = flat[k]
                    flat[k] = keep + eps
                    up = value()
                    flat[k] = keep - eps
                    down = value()
                    flat[k] = keep
                    assert abs((up - down) / (2 * eps) - gflat[k]) < 1e-5

    def test_breakdown_equals_batch_loss(self):
        rng = make_rng(16)
        model = init_model(make_rng(2), ModelDims(2, 1, 1, 2, 5))
        pred = make_pred(rng, 3)
        labels = (rng.uniform(size=(3, 2)) < 0.5).astype(float)
        steps = (rng.uniform(size=(3, 3, 2)) < 0.5).astype(float)
        w = weights_of(1.2, 0.8)
        for kind in ("base", "localize", "siamese"):
            got = batch_adjoints(kind, pred, labels, steps, w, model, 0.3, 0.6)[0]
            assert got == batch_loss(kind, pred, labels, steps, w, model, 0.3, 0.6)

    def test_inputs_of_another_shape_rejected(self):
        # (3, 2) labels hold as many entries as a (2, 3) batch needs, and
        # (2, 3, 4) step targets as many as (2, 4, 3) scores; neither is
        # reshaped into place, and a sample without its batch axis is no batch
        pred = make_pred(make_rng(18), 2, horizon=4, n_labels=3)
        labels, steps = np.array([[1.0, 0.0, 1.0], [0.0, 0.0, 1.0]]), np.zeros((2, 4, 3))
        w = weights_of(1.0, 1.0, 1.0)
        batch_adjoints("localize", pred, labels, steps, w)
        with pytest.raises(ValueError, match=r"labels must be \(2, 3\), got \(3, 2\)"):
            batch_adjoints("localize", pred, labels.reshape(3, 2), steps, w)
        with pytest.raises(ValueError, match=r"step_labels must be \(2, 4, 3\), got \(2, 3, 4\)"):
            batch_adjoints("localize", pred, labels, steps.reshape(2, 3, 4), w)
        one = FakePrediction(pred.embedding[0], pred.label_probs[0], pred.step_scores[0])
        with pytest.raises(ValueError, match="label_probs"):
            batch_adjoints("localize", one, labels[0], steps[0], w)

    def test_l2_gradient_is_lam_times_weights(self):
        model = init_model(make_rng(3), ModelDims(2, 1, 1, 2, 5))
        pred = make_pred(make_rng(17), 2)
        args = ("base", pred, np.ones((2, 2)), np.zeros((2, 3, 2)), weights_of(1.0, 1.0), model)
        d_theta = batch_adjoints(*args, lam=0.5)[3]
        expected = np.zeros_like(model.theta)
        view = ForecastModel(expected, model.dims)
        for cell, src in ((view.encoder, model.encoder), (view.decoder, model.decoder)):
            cell.W[...] = 0.5 * src.W
        assert d_theta.tobytes() == expected.tobytes()
        assert batch_adjoints(*args, lam=0.0)[3] is None  # no l2 term


class TestBreakdownOracle:
    """batch_loss's segment, stepwise and pairwise fields against
    oracle_terms, for one model's (B, ...) predictions and for a
    population's (G, B, ...) with per-member beta."""

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(("base", "localize", "siamese")),
        members=st.one_of(st.none(), st.integers(1, 3)), batch=st.integers(1, 6),
        n_labels=st.integers(1, 5), horizon=st.integers(1, 3), seed=st.integers(0, 2**16),
        bias=st.floats(-40.0, 40.0),
    )
    def test_fields_equal_the_oracle(self, kind, members, batch, n_labels, horizon, seed, bias):
        assume(kind != "siamese" or batch >= 2)
        rng = make_rng(seed)
        lead = () if members is None else (members,)
        # embeddings out to |g| ~ 40, past the probability clamp
        g = rng.normal(size=lead + (batch, n_labels)) + bias * rng.uniform(size=lead + (1, 1))
        y = sigmoid(g)
        o = rng.uniform(size=lead + (batch, horizon, n_labels)) * y[..., None, :]
        labels = (rng.uniform(size=(batch, n_labels)) < 0.5).astype(np.float64)
        steps = (rng.uniform(size=(batch, horizon, n_labels)) < 0.4).astype(np.float64)
        w = rng.uniform(0.0, 3.0, size=n_labels)
        beta = rng.uniform(size=lead) if lead else float(rng.uniform())
        got = batch_loss(kind, FakePrediction(g, y, o),
                         np.broadcast_to(labels, lead + labels.shape),
                         np.broadcast_to(steps, lead + steps.shape), w, beta=beta)
        for k in range(members or 1):
            at = (lambda a: a[k]) if lead else (lambda a: a)
            want = oracle_terms(kind, at(g).tolist(), at(y).tolist(), at(o).tolist(),
                                labels.tolist(), steps.tolist(), w.tolist(),
                                float(at(beta)))
            for field, value in zip(("segment", "stepwise", "pairwise"), want):
                assert at(getattr(got, field)) == pytest.approx(value, rel=1e-10, abs=1e-12), field

    def test_segment_past_the_clamp(self):
        g = np.array([[-700.0]])
        pred = FakePrediction(g, sigmoid(g), np.zeros((1, 1, 1)))
        got = batch_loss("base", pred, np.ones((1, 1)), np.zeros((1, 1, 1)), weights_of(1.0))
        assert got.segment == 700.0


class TestSaturatedSegmentTerm:
    """Past the probability clamp the segment term is taken on the logit g:
    w * t * softplus(-g) + (1 - t) * softplus(g), with its exact slope."""

    @pytest.mark.parametrize("t", (0.0, 1.0))
    @pytest.mark.parametrize("g", (-700.0, -40.0, -30.0, 30.0, 40.0, 700.0))
    def test_loss_and_slope_are_exact(self, g, t):
        w = weights_of(math.log(2.0))
        labels, steps = np.array([[t]]), np.zeros((1, 1, 1))

        def at(x):
            e = np.array([[x]])
            return FakePrediction(e, sigmoid(e), np.zeros((1, 1, 1)))

        want = math.log(2.0) * t * softplus(-g) + (1.0 - t) * softplus(g)
        loss, _, dg, _ = batch_adjoints("base", at(g), labels, steps, w)
        assert math.isfinite(loss.total)
        assert loss.total == pytest.approx(want, rel=1e-12)
        slope = -math.log(2.0) * t * sigmoid(-g) + (1.0 - t) * sigmoid(g)
        assert dg[0, 0] == pytest.approx(slope, rel=1e-12)
        h = 1e-5
        up = batch_loss("base", at(g + h), labels, steps, w).total
        down = batch_loss("base", at(g - h), labels, steps, w).total
        assert up != down  # not flat
        assert (up - down) / (2 * h) == pytest.approx(dg[0, 0], rel=1e-4)


class TestPopulationAdjoints:
    """batch_adjoints on a population's (G, B, ...) predictions, with
    per-member lam and beta, is each member's own call, bit for bit; the
    finite-difference population of training.fd_gradient rests on this."""

    @pytest.mark.filterwarnings("ignore:label.s. present in every")  # weight 0 is covered too
    @settings(max_examples=40, deadline=None)
    @given(
        kind=st.sampled_from(("base", "localize", "siamese")),
        members=st.integers(1, 4), batch=st.integers(2, 5), n_labels=st.integers(1, 4),
        horizon=st.integers(1, 3), seed=st.integers(0, 2**16),
        bias=st.floats(-40.0, 40.0), lam_zero=st.booleans(),
    )
    def test_members_equal_their_own_calls(self, kind, members, batch, n_labels, horizon,
                                           seed, bias, lam_zero):
        rng = make_rng(seed)
        dims = ModelDims(n_labels, 1, 1, 1, 1 + horizon)
        model = ForecastModel(rng.normal(size=(members, param_size(dims))), dims)
        # embeddings out to |g| ~ 40, past the probability clamp
        g = rng.normal(size=(members, batch, n_labels)) + bias * rng.uniform(size=(members, 1, 1))
        y = sigmoid(g)
        o = rng.uniform(size=(members, batch, horizon, n_labels)) * y[..., None, :]
        labels = (rng.uniform(size=(batch, n_labels)) < 0.5).astype(np.float64)
        steps = (rng.uniform(size=(batch, horizon, n_labels)) < 0.4).astype(np.float64)
        weights = class_weights(labels)
        lam = rng.uniform(size=members)
        if lam_zero:  # every other member without the l2 term, a lone one without any
            lam[::2] = 0.0
        beta = rng.uniform(size=members)
        got = batch_adjoints(kind, FakePrediction(g, y, o),
                             np.broadcast_to(labels, (members,) + labels.shape),
                             np.broadcast_to(steps, (members,) + steps.shape),
                             weights, model, lam, beta)
        for k in range(members):
            want = batch_adjoints(kind, FakePrediction(g[k], y[k], o[k]), labels, steps, weights,
                                  model.member(k), float(lam[k]), float(beta[k]))
            for field in ("total", "segment", "stepwise", "pairwise", "reg"):
                assert getattr(got[0], field)[k] == getattr(want[0], field), field
                assert np.signbit(getattr(got[0], field)[k]) == np.signbit(getattr(want[0], field))
            assert got[1][k].tobytes() == want[1].tobytes()
            assert got[2][k].tobytes() == want[2].tobytes()
            want_theta = np.zeros(model.theta.shape[1]) if want[3] is None else want[3]
            if got[3] is not None:
                assert got[3][k].tobytes() == want_theta.tobytes()
            else:
                assert want[3] is None
