"""Encoder-decoder network: forward semantics, gradient exactness, I/O."""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from faultcast.model import (
    ModelDims,
    backward,
    forward,
    init_model,
    load_model,
    param_items,
    predict,
    save_model,
    stack_models,
)
from faultcast.num import make_rng

DIMS = ModelDims(n_labels=2, d_obs=2, d_ctx=1, tau=3, total_steps=5)


def tiny_model(seed=0, dims=DIMS):
    return init_model(make_rng(seed), dims)


def straight_line_oracle(model, obs, ctx):
    """Independent re-implementation with explicit scalar loops.

    Structured nothing like the production code: per-element gate math via
    math.exp, explicit feedback concatenation, no shared helpers.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    dims = model.dims
    L = dims.n_labels

    def cell(params, h_prev, c_prev, x_in):
        full = list(h_prev) + list(x_in)
        h_new, c_new = [0.0] * L, [0.0] * L
        for d in range(L):
            a_f = sum(params.w_f[d][j] * full[j] for j in range(len(full))) + params.b_f[d]
            a_i = sum(params.w_i[d][j] * full[j] for j in range(len(full))) + params.b_i[d]
            a_c = sum(params.w_c[d][j] * full[j] for j in range(len(full))) + params.b_c[d]
            a_o = sum(params.w_o[d][j] * full[j] for j in range(len(full))) + params.b_o[d]
            c_new[d] = sig(a_f) * c_prev[d] + sig(a_i) * math.tanh(a_c)
            h_new[d] = sig(a_o) * math.tanh(c_new[d])
        return h_new, c_new

    h, c = [0.0] * L, [0.0] * L
    for t in range(dims.tau):
        x = list(obs[t]) + list(ctx[t]) + list(h)
        h, c = cell(model.encoder, h, c, x)
    hidden = []
    feedback = [sig(v) for v in h]
    for t in range(dims.tau, dims.total_steps):
        x = list(ctx[t]) + feedback
        h, c = cell(model.decoder, h, c, x)
        hidden.append(list(h))
        feedback = [sig(v) for v in h]
    g = [sum(row[d] for row in hidden) + model.out_bias[d] for d in range(L)]
    y = [sig(v) for v in g]
    o = [[sig(row[d]) * y[d] for d in range(L)] for row in hidden]
    return np.array(g), np.array(y), np.array(o)


def rand_inputs(rng, dims, batch=None):
    shape_obs = (dims.tau, dims.d_obs) if batch is None else (batch, dims.tau, dims.d_obs)
    shape_ctx = (dims.total_steps, dims.d_ctx) if batch is None else (batch, dims.total_steps, dims.d_ctx)
    return rng.normal(size=shape_obs), rng.normal(size=shape_ctx)


class TestForward:
    def test_all_zero_parameters(self):
        model = tiny_model()
        for _, arr in param_items(model):
            arr[...] = 0.0
        obs, ctx = rand_inputs(make_rng(1), DIMS)
        pred = predict(model, obs, ctx)
        np.testing.assert_array_equal(pred.embedding, np.zeros(2))
        np.testing.assert_allclose(pred.label_probs, 0.5)
        np.testing.assert_allclose(pred.step_scores, 0.25)
        np.testing.assert_array_equal(pred.step_hidden, np.zeros((2, 2)))

    def test_bias_only_model(self):
        dims = ModelDims(n_labels=1, d_obs=2, d_ctx=1, tau=3, total_steps=5)
        model = tiny_model(dims=dims)
        for _, arr in param_items(model):
            arr[...] = 0.0
        model.out_bias[0] = math.log(3.0)
        obs, ctx = rand_inputs(make_rng(2), dims)
        pred = predict(model, obs, ctx)
        np.testing.assert_allclose(pred.embedding, [math.log(3.0)])
        np.testing.assert_allclose(pred.label_probs, [0.75], atol=1e-15)
        np.testing.assert_allclose(pred.step_scores, 0.375, atol=1e-15)

    def test_matches_straight_line_oracle(self):
        rng = make_rng(33)
        model = tiny_model(7)
        obs, ctx = rand_inputs(rng, DIMS)
        pred = predict(model, obs, ctx)
        g, y, o = straight_line_oracle(model, obs, ctx)
        np.testing.assert_allclose(pred.embedding, g, atol=1e-12)
        np.testing.assert_allclose(pred.label_probs, y, atol=1e-12)
        np.testing.assert_allclose(pred.step_scores, o, atol=1e-12)

    def test_batch_matches_per_sample(self):
        rng = make_rng(4)
        model = tiny_model(5)
        obs, ctx = rand_inputs(rng, DIMS, batch=4)
        batch_pred = predict(model, obs, ctx)
        assert batch_pred.label_probs.shape == (4, 2)
        for k in range(4):
            single = predict(model, obs[k], ctx[k])
            np.testing.assert_allclose(batch_pred.embedding[k], single.embedding, atol=1e-12)
            np.testing.assert_allclose(batch_pred.step_scores[k], single.step_scores, atol=1e-12)

    def test_predict_identical_to_forward(self):
        rng = make_rng(6)
        model = tiny_model(8)
        obs, ctx = rand_inputs(rng, DIMS)
        a = predict(model, obs, ctx)
        b, tape = forward(model, obs, ctx)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        np.testing.assert_array_equal(a.step_scores, b.step_scores)
        assert tape is not None

    def test_probabilities_in_open_unit_interval(self):
        rng = make_rng(12)
        model = tiny_model(9)
        obs, ctx = rand_inputs(rng, DIMS, batch=16)
        pred = predict(model, obs, ctx)
        assert np.all((pred.label_probs > 0) & (pred.label_probs < 1))
        assert np.all((pred.step_scores > 0) & (pred.step_scores < 1))

    def test_score_dominated_by_both_factors(self):
        rng = make_rng(13)
        model = tiny_model(10)
        obs, ctx = rand_inputs(rng, DIMS, batch=8)
        pred = predict(model, obs, ctx)
        sig_h = 1.0 / (1.0 + np.exp(-pred.step_hidden))
        cap = np.minimum(sig_h, pred.label_probs[:, None, :])
        assert np.all(pred.step_scores <= cap + 1e-12)

    def test_deterministic(self):
        rng = make_rng(14)
        model = tiny_model(11)
        obs, ctx = rand_inputs(rng, DIMS)
        a = predict(model, obs, ctx)
        b = predict(model, obs, ctx)
        np.testing.assert_array_equal(a.embedding, b.embedding)

    def test_horizon_causality(self):
        rng = make_rng(15)
        model = tiny_model(12)
        obs, ctx = rand_inputs(rng, DIMS)
        base = predict(model, obs, ctx).embedding
        for t in range(DIMS.tau):
            bumped = obs.copy()
            bumped[t] += 0.5
            assert not np.allclose(predict(model, bumped, ctx).embedding, base)
        for t in range(DIMS.tau, DIMS.total_steps):
            bumped = ctx.copy()
            bumped[t] += 0.5
            assert not np.allclose(predict(model, obs, bumped).embedding, base)

    def test_shape_errors_name_offender(self):
        model = tiny_model()
        rng = make_rng(16)
        obs, ctx = rand_inputs(rng, DIMS)
        with pytest.raises(ValueError, match="observations"):
            predict(model, obs[:, :1], ctx)
        with pytest.raises(ValueError, match="context"):
            predict(model, obs, ctx[:-1])


def functional_value(model, obs, ctx, dy, do, dg):
    pred = predict(model, obs, ctx)
    return float(
        np.sum(dy * pred.label_probs)
        + np.sum(do * pred.step_scores)
        + np.sum(dg * pred.embedding)
    )


class TestBackward:
    def test_zero_adjoints(self):
        rng = make_rng(20)
        model = tiny_model(13)
        obs, ctx = rand_inputs(rng, DIMS)
        _, tape = forward(model, obs, ctx)
        grads = backward(model, tape)
        for cell in (grads.encoder, grads.decoder):
            for _, arr in cell.arrays():
                np.testing.assert_array_equal(arr, np.zeros_like(arr))
        np.testing.assert_array_equal(grads.out_bias, np.zeros(2))

    @pytest.mark.parametrize("seed", range(6))
    def test_full_gradient_matches_finite_differences(self, seed):
        rng = make_rng(40 + seed)
        model = tiny_model(20 + seed)
        batch = 2
        obs, ctx = rand_inputs(rng, DIMS, batch=batch)
        horizon = DIMS.total_steps - DIMS.tau
        dy = rng.normal(size=(batch, 2))
        do = rng.normal(size=(batch, horizon, 2))
        dg = rng.normal(size=(batch, 2))

        _, tape = forward(model, obs, ctx)
        grads = backward(model, tape, dy, do, dg)

        pairs = list(zip(param_items(model), (a for _, a in _grad_arrays(grads))))
        step = 1e-5
        worst = 0.0
        for (name, arr), garr in pairs:
            flat, gflat = arr.ravel(), garr.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                up = functional_value(model, obs, ctx, dy, do, dg)
                flat[k] = keep - step
                down = functional_value(model, obs, ctx, dy, do, dg)
                flat[k] = keep
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(gflat[k]), 1e-6)
                worst = max(worst, abs(numeric - gflat[k]) / denom)
        assert worst < 1e-4

    def test_out_bias_grad_is_sigmoid_slope(self):
        # with only dy upstream, d(loss)/d(out_bias) = dy * y * (1 - y)
        rng = make_rng(50)
        model = tiny_model(30)
        obs, ctx = rand_inputs(rng, DIMS)
        pred, tape = forward(model, obs, ctx)
        dy = rng.normal(size=2)
        grads = backward(model, tape, d_label_probs=dy)
        expected = dy * pred.label_probs * (1.0 - pred.label_probs)
        np.testing.assert_allclose(grads.out_bias, expected, atol=1e-12)

    def test_adjoint_shape_check(self):
        rng = make_rng(51)
        model = tiny_model(31)
        obs, ctx = rand_inputs(rng, DIMS)
        _, tape = forward(model, obs, ctx)
        with pytest.raises(ValueError, match="adjoint"):
            backward(model, tape, d_label_probs=np.zeros(3))


def _grad_arrays(grads):
    items = [(f"encoder.{n}", a) for n, a in grads.encoder.arrays()]
    items += [(f"decoder.{n}", a) for n, a in grads.decoder.arrays()]
    items.append(("out_bias", grads.out_bias))
    return items


class TestPopulation:
    """A stack of G models computes, per member, bit for bit what each model
    computes alone."""

    def test_forward_and_backward_match_members(self):
        rng = make_rng(40)
        models = [tiny_model(seed) for seed in (1, 2, 3)]
        stack = stack_models(models)
        assert stack.population == 3
        obs = rng.normal(size=(3, 4, DIMS.tau, DIMS.d_obs))
        ctx = rng.normal(size=(3, 4, DIMS.total_steps, DIMS.d_ctx))
        pred, tape = forward(stack, obs, ctx)
        adjoints = [rng.normal(size=a.shape) for a in (pred.label_probs, pred.step_scores)]
        grads = backward(stack, tape, *adjoints)
        for k, model in enumerate(models):
            want, want_tape = forward(model, obs[k], ctx[k])
            for field in ("embedding", "label_probs", "step_scores", "step_hidden"):
                assert getattr(pred, field)[k].tobytes() == getattr(want, field).tobytes()
            want_grads = backward(model, want_tape, *(a[k] for a in adjoints))
            for (name, got), (_, ref) in zip(param_items(grads), param_items(want_grads)):
                assert got[k].tobytes() == ref.tobytes(), name
            for (_, got), (_, ref) in zip(param_items(stack.member(k)), param_items(model)):
                assert got.tobytes() == ref.tobytes()

    def test_shared_batch_reaches_every_member(self):
        models = [tiny_model(seed) for seed in (4, 5)]
        obs, ctx = rand_inputs(make_rng(41), DIMS)
        obs, ctx = np.stack([obs] * 3), np.stack([ctx] * 3)
        pred = predict(stack_models(models), obs, ctx)
        for k, model in enumerate(models):
            assert pred.embedding[k].tobytes() == predict(model, obs, ctx).embedding.tobytes()

    def test_population_input_shapes_checked(self):
        stack = stack_models([tiny_model(1), tiny_model(2)])
        obs, ctx = rand_inputs(make_rng(42), DIMS)
        with pytest.raises(ValueError, match="observations must be .*2, batch"):
            predict(stack, obs, ctx)  # unbatched
        with pytest.raises(ValueError, match="observations"):
            predict(stack, np.stack([obs[None]] * 3), np.stack([ctx[None]] * 3))  # G=3
        with pytest.raises(ValueError, match="dims"):
            stack_models([tiny_model(1), tiny_model(1, ModelDims(2, 2, 1, 2, 5))])


class TestSerialization:
    def test_round_trip_bit_exact(self, tmp_path):
        model = tiny_model(77)
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded, classifiers = load_model(path)
        assert classifiers is None
        assert loaded.dims == model.dims
        for (na, a), (nb, b) in zip(param_items(model), param_items(loaded)):
            assert na == nb
            np.testing.assert_array_equal(a, b)

    def test_same_model_same_bytes(self, tmp_path):
        model = tiny_model(78)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(model, p1)
        save_model(model, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_classifiers_ride_along(self, tmp_path):
        model = tiny_model(79)
        path = tmp_path / "model.json"
        save_model(model, path, classifiers={"segment": {"kind": "threshold_zero"}})
        _, classifiers = load_model(path)
        assert classifiers["segment"]["kind"] == "threshold_zero"

    def test_rejects_wrong_format(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text('{"format": "something-else"}')
        with pytest.raises(ValueError, match="format"):
            load_model(path)

    def test_refuses_non_finite(self, tmp_path):
        model = tiny_model(80)
        model.out_bias[0] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            save_model(model, tmp_path / "bad.json")


# A model file written by the per-gate implementation that preceded the fused
# W/b layout (dims 3 labels, d_obs 2, d_ctx 1, tau 3, total_steps 5), with the
# prediction that implementation made for make_rng(11)'s inputs below.
FIXTURE = Path(__file__).parent / "fixtures" / "model_per_gate_v1.json"
FIXTURE_EMBEDDING = [-2.142097726810976, -0.6730604380325493, 1.0791699488761817]
FIXTURE_STEP_SCORES = [
    [0.05087097166915146, 0.17803020564125466, 0.37321051735080896],
    [0.04921758734712968, 0.16969794534660848, 0.3916434055985555],
]


class TestModelFileCompatibility:
    def test_per_gate_file_predicts_as_before(self):
        model, classifiers = load_model(FIXTURE)
        assert classifiers == {"segment": {"kind": "threshold_zero"}}
        rng = make_rng(11)
        obs, ctx = rng.normal(size=(3, 2)), rng.normal(size=(5, 1))
        pred = predict(model, obs, ctx)
        np.testing.assert_allclose(pred.embedding, FIXTURE_EMBEDDING, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pred.step_scores, FIXTURE_STEP_SCORES, rtol=0, atol=1e-12)

    def test_per_gate_file_resaves_byte_identically(self, tmp_path):
        model, classifiers = load_model(FIXTURE)
        out = tmp_path / "resaved.json"
        save_model(model, out, classifiers)
        assert out.read_bytes() == FIXTURE.read_bytes()


class TestLoadValidation:
    def _write(self, tmp_path, edit):
        doc = json.loads(FIXTURE.read_text())
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return path

    def _rejects(self, path, *fragments):
        with pytest.raises(ValueError) as info:
            load_model(path)
        for fragment in (str(path), *fragments):
            assert fragment in str(info.value)

    @pytest.mark.parametrize("key", ["encoder", "decoder", "dims", "out_bias"])
    def test_missing_section(self, tmp_path, key):
        self._rejects(self._write(tmp_path, lambda doc: doc.pop(key)), repr(key))

    @pytest.mark.parametrize("cell", ["encoder", "decoder"])
    @pytest.mark.parametrize("gate", ["w_f", "w_i", "w_c", "w_o"])
    def test_weight_one_column_short(self, tmp_path, cell, gate):
        def edit(doc):
            doc[cell][gate] = [row[:-1] for row in doc[cell][gate]]

        self._rejects(self._write(tmp_path, edit), repr(f"{cell}.{gate}"), "shape")

    @pytest.mark.parametrize("gate", ["b_f", "b_i", "b_c", "b_o"])
    def test_bias_one_entry_long(self, tmp_path, gate):
        def edit(doc):
            doc["decoder"][gate].append(0.0)

        self._rejects(self._write(tmp_path, edit), repr(f"decoder.{gate}"), "shape")

    def test_missing_gate(self, tmp_path):
        self._rejects(self._write(tmp_path, lambda doc: doc["encoder"].pop("b_o")),
                      repr("encoder.b_o"))

    def test_out_bias_wrong_length(self, tmp_path):
        self._rejects(self._write(tmp_path, lambda doc: doc["out_bias"].pop()),
                      repr("out_bias"), "shape")

    def test_dims_missing_field(self, tmp_path):
        self._rejects(self._write(tmp_path, lambda doc: doc["dims"].pop("tau")), "'dims'")

    def test_ragged_weight(self, tmp_path):
        def edit(doc):
            doc["encoder"]["w_c"][1] = doc["encoder"]["w_c"][1][:2]

        self._rejects(self._write(tmp_path, edit), repr("encoder.w_c"))

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self._rejects(path, "format")
