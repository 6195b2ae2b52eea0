"""Encoder-decoder network: forward semantics, gradient exactness, I/O."""

import json
import math
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultcast.model import (
    GATE_KEYS,
    ForecastModel,
    ModelDims,
    backward,
    forward,
    init_model,
    load_model,
    param_items,
    param_layout,
    param_size,
    predict,
    save_model,
    stack_models,
)
from faultcast.num import make_rng, sigmoid

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
    p = dict(param_items(model))

    def cell(section, h_prev, c_prev, x_in):
        w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o = (
            p[f"{section}.{k}"] for k in ("w_f", "w_i", "w_c", "w_o", "b_f", "b_i", "b_c", "b_o")
        )
        full = list(h_prev) + list(x_in)
        h_new, c_new = [0.0] * L, [0.0] * L
        for d in range(L):
            a_f = sum(w_f[d][j] * full[j] for j in range(len(full))) + b_f[d]
            a_i = sum(w_i[d][j] * full[j] for j in range(len(full))) + b_i[d]
            a_c = sum(w_c[d][j] * full[j] for j in range(len(full))) + b_c[d]
            a_o = sum(w_o[d][j] * full[j] for j in range(len(full))) + b_o[d]
            c_new[d] = sig(a_f) * c_prev[d] + sig(a_i) * math.tanh(a_c)
            h_new[d] = sig(a_o) * math.tanh(c_new[d])
        return h_new, c_new

    h, c = [0.0] * L, [0.0] * L
    for t in range(dims.tau):
        x = list(obs[t]) + list(ctx[t]) + list(h)
        h, c = cell("encoder", h, c, x)
    hidden = []
    feedback = [sig(v) for v in h]
    for t in range(dims.tau, dims.total_steps):
        x = list(ctx[t]) + feedback
        h, c = cell("decoder", h, c, x)
        hidden.append(list(h))
        feedback = [sig(v) for v in h]
    g = [sum(row[d] for row in hidden) + model.out_bias[d] for d in range(L)]
    y = [sig(v) for v in g]
    o = [[sig(row[d]) * y[d] for d in range(L)] for row in hidden]
    return np.array(g), np.array(y), np.array(o)


def rand_inputs(rng, dims, batch=1):
    """(obs, ctx) for a batch; one sample is a batch of one."""
    return (rng.normal(size=(batch, dims.tau, dims.d_obs)),
            rng.normal(size=(batch, dims.total_steps, dims.d_ctx)))


class TestForward:
    def test_all_zero_parameters(self):
        model = tiny_model()
        for _, arr in param_items(model):
            arr[...] = 0.0
        obs, ctx = rand_inputs(make_rng(1), DIMS)
        pred = predict(model, obs, ctx)
        np.testing.assert_array_equal(pred.embedding[0], np.zeros(2))
        np.testing.assert_allclose(pred.label_probs[0], 0.5)
        np.testing.assert_allclose(pred.step_scores[0], 0.25)
        np.testing.assert_array_equal(pred.step_hidden[0], np.zeros((2, 2)))

    def test_bias_only_model(self):
        dims = ModelDims(n_labels=1, d_obs=2, d_ctx=1, tau=3, total_steps=5)
        model = tiny_model(dims=dims)
        for _, arr in param_items(model):
            arr[...] = 0.0
        model.out_bias[0] = math.log(3.0)
        obs, ctx = rand_inputs(make_rng(2), dims)
        pred = predict(model, obs, ctx)
        np.testing.assert_allclose(pred.embedding[0], [math.log(3.0)])
        np.testing.assert_allclose(pred.label_probs[0], [0.75], atol=1e-15)
        np.testing.assert_allclose(pred.step_scores[0], 0.375, atol=1e-15)

    def test_matches_straight_line_oracle(self):
        rng = make_rng(33)
        model = tiny_model(7)
        obs, ctx = rand_inputs(rng, DIMS)
        pred = predict(model, obs, ctx)
        g, y, o = straight_line_oracle(model, obs[0], ctx[0])
        np.testing.assert_allclose(pred.embedding[0], g, atol=1e-12)
        np.testing.assert_allclose(pred.label_probs[0], y, atol=1e-12)
        np.testing.assert_allclose(pred.step_scores[0], o, atol=1e-12)

    def test_batch_matches_per_sample(self):
        rng = make_rng(4)
        model = tiny_model(5)
        obs, ctx = rand_inputs(rng, DIMS, batch=4)
        batch_pred = predict(model, obs, ctx)
        assert batch_pred.label_probs.shape == (4, 2)
        for k in range(4):
            # row k of the batch against a batch of one
            one = predict(model, obs[k : k + 1], ctx[k : k + 1])
            np.testing.assert_allclose(batch_pred.embedding[k], one.embedding[0], atol=1e-12)
            np.testing.assert_allclose(batch_pred.step_scores[k], one.step_scores[0], atol=1e-12)

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
            bumped[0, t] += 0.5
            assert not np.allclose(predict(model, bumped, ctx).embedding, base)
        for t in range(DIMS.tau, DIMS.total_steps):
            bumped = ctx.copy()
            bumped[0, t] += 0.5
            assert not np.allclose(predict(model, obs, bumped).embedding, base)

    def test_shape_errors_name_offender(self):
        model = tiny_model()
        rng = make_rng(16)
        obs, ctx = rand_inputs(rng, DIMS)
        with pytest.raises(ValueError, match="observations"):
            predict(model, obs[..., :1], ctx)
        with pytest.raises(ValueError, match="context"):
            predict(model, obs, ctx[:, :-1])
        # one sample is a batch of one; a (tau, d_obs) array is no batch
        with pytest.raises(ValueError, match=r"observations must be \(batch, 3, 2\)"):
            predict(model, obs[0], ctx[0])
        with pytest.raises(ValueError, match=r"context must be \(batch, 5, 1\)"):
            predict(model, obs, ctx[0])


def functional_value(model, obs, ctx, do, dg):
    pred = predict(model, obs, ctx)
    return float(np.sum(do * pred.step_scores) + np.sum(dg * pred.embedding))


class TestBackward:
    def test_zero_adjoints(self):
        rng = make_rng(20)
        model = tiny_model(13)
        obs, ctx = rand_inputs(rng, DIMS)
        _, tape = forward(model, obs, ctx)
        grads = backward(model, tape)
        np.testing.assert_array_equal(grads.theta, np.zeros_like(grads.theta))

    @pytest.mark.parametrize("seed", range(6))
    def test_full_gradient_matches_finite_differences(self, seed):
        rng = make_rng(40 + seed)
        model = tiny_model(20 + seed)
        batch = 2
        obs, ctx = rand_inputs(rng, DIMS, batch=batch)
        horizon = DIMS.total_steps - DIMS.tau
        do = rng.normal(size=(batch, horizon, 2))
        dg = rng.normal(size=(batch, 2))

        _, tape = forward(model, obs, ctx)
        grads = backward(model, tape, do, dg)

        pairs = list(zip(param_items(model), (a for _, a in param_items(grads))))
        step = 1e-5
        worst = 0.0
        for (name, arr), garr in pairs:
            flat, gflat = arr.ravel(), garr.ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                up = functional_value(model, obs, ctx, do, dg)
                flat[k] = keep - step
                down = functional_value(model, obs, ctx, do, dg)
                flat[k] = keep
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(gflat[k]), 1e-6)
                worst = max(worst, abs(numeric - gflat[k]) / denom)
        assert worst < 1e-4

    def test_out_bias_grad_is_sigmoid_slope(self):
        # with only step-score adjoints do_t, o_t = sigmoid(h_t) * y gives
        # d(loss)/d(out_bias) = sum_t do_t * sigmoid(h_t) * y * (1 - y)
        rng = make_rng(50)
        model = tiny_model(30)
        obs, ctx = rand_inputs(rng, DIMS)
        pred, tape = forward(model, obs, ctx)
        do = rng.normal(size=pred.step_scores.shape)
        grads = backward(model, tape, d_step_scores=do)
        y = pred.label_probs[0]
        expected = (do[0] * sigmoid(pred.step_hidden[0])).sum(axis=0) * y * (1.0 - y)
        np.testing.assert_allclose(grads.out_bias, expected, atol=1e-12)

    def test_adjoint_shape_check(self):
        rng = make_rng(51)
        model = tiny_model(31)
        obs, ctx = rand_inputs(rng, DIMS)
        _, tape = forward(model, obs, ctx)
        with pytest.raises(ValueError, match="adjoint"):
            backward(model, tape, d_embedding=np.zeros((1, 3)))
        with pytest.raises(ValueError, match="adjoint"):
            backward(model, tape, d_embedding=np.zeros(2))  # no batch axis


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
        adjoints = [rng.normal(size=a.shape) for a in (pred.step_scores, pred.embedding)]
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
        obs, ctx = np.concatenate([obs] * 3), np.concatenate([ctx] * 3)
        pred = predict(stack_models(models), obs, ctx)
        for k, model in enumerate(models):
            assert pred.embedding[k].tobytes() == predict(model, obs, ctx).embedding.tobytes()

    def test_population_input_shapes_checked(self):
        stack = stack_models([tiny_model(1), tiny_model(2)])
        obs, ctx = rand_inputs(make_rng(42), DIMS)
        with pytest.raises(ValueError, match="observations must be .*2, batch"):
            predict(stack, obs[0], ctx[0])  # unbatched
        with pytest.raises(ValueError, match="observations"):
            predict(stack, np.stack([obs] * 3), np.stack([ctx] * 3))  # G=3
        with pytest.raises(ValueError, match="dims"):
            stack_models([tiny_model(1), tiny_model(1, ModelDims(2, 2, 1, 2, 5))])


small_dims = st.builds(
    lambda tau, horizon, n_labels, d_obs, d_ctx: ModelDims(
        n_labels, d_obs, d_ctx, tau, tau + horizon),
    tau=st.integers(0, 3), horizon=st.integers(1, 3), n_labels=st.integers(1, 3),
    d_obs=st.integers(0, 2), d_ctx=st.integers(0, 2),
)
layout_cases = dict(dims=small_dims, population=st.sampled_from((None, 1, 2, 3)),
                    seed=st.integers(0, 2**16))
EDGE = ModelDims(n_labels=2, d_obs=0, d_ctx=1, tau=0, total_steps=1)


def members_and_model(dims, population, seed):
    """`population` (or one) fresh models, and the single model or their stack."""
    members = [tiny_model(seed + k, dims) for k in range(population or 1)]
    return members, members[0] if population is None else stack_models(members)


PRED_FIELDS = ("embedding", "label_probs", "step_scores", "step_hidden")
NO_INPUTS = ModelDims(n_labels=1, d_obs=0, d_ctx=0, tau=2, total_steps=3)


def assert_same_bits(got, want, index=()):
    for field in PRED_FIELDS:
        assert getattr(got, field)[index].tobytes() == getattr(want, field).tobytes(), field


class TestTapeIdentity:
    """The taped forward (one window of every step) and the untaped one (a
    window of one step) compute the same outputs bit for bit, and a
    population's member k computes what it computes alone."""

    @settings(max_examples=40, deadline=None)
    @given(**layout_cases, batch=st.integers(1, 5))
    @example(dims=EDGE, population=None, seed=0, batch=1)
    @example(dims=NO_INPUTS, population=2, seed=1, batch=1)
    def test_untaped_forward_equals_taped(self, dims, population, seed, batch):
        _, model = members_and_model(dims, population, seed)
        obs, ctx = rand_inputs(make_rng(seed), dims, batch)
        taped, tape = forward(model, obs, ctx)
        untaped, none = forward(model, obs, ctx, keep_tape=False)
        assert tape is not None and none is None
        assert_same_bits(untaped, taped)

    @settings(max_examples=40, deadline=None)
    @given(dims=small_dims, population=st.integers(1, 3), batch=st.integers(1, 4),
           shared=st.booleans(), seed=st.integers(0, 2**16))
    @example(dims=EDGE, population=3, batch=1, shared=False, seed=0)
    @example(dims=NO_INPUTS, population=2, batch=1, shared=True, seed=1)
    def test_member_equals_solo_forward_and_backward(self, dims, population, batch, shared,
                                                     seed):
        members, stack = members_and_model(dims, population, seed)
        rng = make_rng(seed)
        obs, ctx = rand_inputs(rng, dims, batch)
        if not shared:
            obs = np.stack([obs + k for k in range(population)])
            ctx = np.stack([ctx - k for k in range(population)])
        pred, tape = forward(stack, obs, ctx)
        adjoints = [rng.normal(size=a.shape) for a in (pred.step_scores, pred.embedding)]
        grads = backward(stack, tape, *adjoints)
        for k, model in enumerate(members):
            mine = (obs, ctx) if shared else (obs[k], ctx[k])
            want, want_tape = forward(model, *mine)
            assert_same_bits(pred, want, k)
            want_grads = backward(model, want_tape, *(a[k] for a in adjoints))
            assert grads.theta[k].tobytes() == want_grads.theta.tobytes()

    def test_tape_serves_one_backward(self):
        model = tiny_model(3)
        obs, ctx = rand_inputs(make_rng(3), DIMS)
        _, tape = forward(model, obs, ctx)
        backward(model, tape)
        with pytest.raises(ValueError, match="consumed"):
            backward(model, tape)


def test_untaped_forward_memory_is_bounded_by_its_outputs():
    """An untaped forward keeps one step of slabs plus the decoder's hidden
    states, so at HAR shape its traced peak stays within 3x the bytes it
    returns; slabs of every step take about 15x."""
    dims = ModelDims(n_labels=36, d_obs=12, d_ctx=6, tau=75, total_steps=100)
    model = tiny_model(0, dims)
    obs, ctx = rand_inputs(make_rng(1), dims, batch=100)
    tracemalloc.start()
    try:
        pred = predict(model, obs, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    returned = sum(getattr(pred, field).nbytes for field in PRED_FIELDS)
    assert peak <= 3 * returned, f"peak {peak} bytes for {returned} bytes of outputs"


def tape_arrays(tape):
    """Every array a tape holds: both cells' slabs and buffers, the gradients."""
    arrays = [tape.grads.theta]
    for cell in (tape.encoder, tape.decoder):
        arrays += [getattr(cell, name) for name in
                   ("half", "x", "z", "gates", "c", "tanh_c", "values", "cols")]
    return arrays


class TestWorkspace:
    """A tape refilled by forward(..., tape=t) computes what a fresh forward
    and backward compute, bit for bit, whatever ran through it before."""

    @settings(max_examples=30, deadline=None)
    @given(dims=small_dims, members=st.integers(2, 3), batch=st.integers(2, 4),
           trailing=st.integers(1, 3), seed=st.integers(0, 2**16))
    @example(dims=EDGE, members=2, batch=2, trailing=1, seed=0)
    @example(dims=NO_INPUTS, members=3, batch=3, trailing=2, seed=1)
    def test_reused_tapes_equal_fresh_calls(self, dims, members, batch, trailing, seed):
        # as train_population runs: one tape per batch shape, each new one
        # built in the memory of the tape before; full and trailing batches,
        # a population that loses a member, one run alone with a batch of one
        trailing = min(trailing, batch - 1)
        plan = [(members, batch), (members, trailing), (members, batch), (members, trailing),
                (members - 1, batch), (members - 1, batch), (None, 1), (None, batch), (None, 1)]
        rng, tapes, tape = make_rng(seed), {}, None
        for population, size in plan:
            _, model = members_and_model(dims, population, int(rng.integers(2**16)))
            lead = () if population is None else (population,)
            obs, ctx = (rng.normal(size=lead + a.shape) for a in rand_inputs(rng, dims, size))
            old = tapes.get(obs.shape)
            pred, tape = forward(model, obs, ctx, tape=old or tape)
            assert old is None or tape is old
            adjoints = [rng.normal(size=a.shape) for a in (pred.step_scores, pred.embedding)]
            grads = backward(model, tape, *adjoints)
            tapes[obs.shape] = tape
            want, want_tape = forward(model, obs, ctx)
            assert_same_bits(pred, want)
            assert grads.theta.tobytes() == backward(model, want_tape, *adjoints).theta.tobytes()

    @settings(max_examples=30, deadline=None)
    @given(**layout_cases, batch=st.integers(1, 3))
    @example(dims=EDGE, population=None, seed=0, batch=1)  # one step, a batch of one
    def test_predictions_never_alias_the_tape(self, dims, population, seed, batch):
        _, model = members_and_model(dims, population, seed)
        obs, ctx = rand_inputs(make_rng(seed), dims, batch)
        first, tape = forward(model, obs, ctx)
        backward(model, tape)
        second, again = forward(model, obs, ctx, tape=tape)
        assert again is tape
        for pred in (first, second):
            for field in PRED_FIELDS:
                assert not any(np.shares_memory(getattr(pred, field), a)
                               for a in tape_arrays(tape)), field


def test_training_builds_one_unroll_per_cell_and_batch_shape(monkeypatch):
    """3 epochs of 37 samples in batches of 16 have two batch shapes (16 and
    5): two taped Unrolls per cell in all. The validation forward, untaped,
    builds its own each epoch and keeps none."""
    import faultcast.model as model_module
    from faultcast.data import synth_generate, SynthConfig
    from faultcast.training import TrainConfig, train

    built = []

    class CountingUnroll(model_module.Unroll):
        def __init__(self, w, h0, c0, steps, taped=True, feedback=False, memory=None, rows=0,
                     after=None):
            super().__init__(w, h0, c0, steps, taped, feedback, memory, rows, after)
            built.append((taped, feedback))

    monkeypatch.setattr(model_module, "Unroll", CountingUnroll)
    cfg = SynthConfig(tau=2, total_steps=5, n_labels=2, d_obs=1, d_ctx=1,
                      thresholds=(0.5, 0.5), rarity=(1.0, 2.5))
    samples = synth_generate(cfg, 49)[1]
    dims = ModelDims(n_labels=2, d_obs=1, d_ctx=1, tau=2, total_steps=5)
    config = TrainConfig(loss="localize", batch_size=16, max_epochs=3, patience=3)
    _, history = train(init_model(make_rng(0), dims), samples[:37], samples[37:], config)
    assert len(history) == 3
    taped = [feedback for is_taped, feedback in built if is_taped]
    assert sorted(taped) == [False, False, True, True]
    assert len(built) - len(taped) == 2 * 3


class TestLayout:
    """theta holds every parameter exactly once; the named views tile it."""

    @settings(max_examples=40, deadline=None)
    @given(**layout_cases)
    @example(dims=EDGE, population=None, seed=0)
    @example(dims=EDGE, population=3, seed=1)
    def test_views_tile_theta(self, dims, population, seed):
        _, model = members_and_model(dims, population, seed)
        lead = () if population is None else (population,)
        size = sum(math.prod(shape) for _, shape in param_layout(dims))
        assert model.theta.shape == lead + (size,) and model.population == population
        # number every slot of theta: the per-gate views must be views into
        # theta that read each number exactly once
        model.theta[...] = np.arange(model.theta.size).reshape(model.theta.shape)
        views = [arr for _, arr in param_items(model)]
        assert all(np.shares_memory(arr, model.theta) for arr in views)
        seen = np.concatenate([arr.reshape(lead + (-1,)) for arr in views], axis=-1)
        np.testing.assert_array_equal(np.sort(seen, axis=None), np.arange(model.theta.size))

    @settings(max_examples=40, deadline=None)
    @given(**layout_cases)
    @example(dims=EDGE, population=None, seed=0)
    @example(dims=EDGE, population=3, seed=1)
    def test_members_and_files_round_trip(self, dims, population, seed):
        members, model = members_and_model(dims, population, seed)
        with tempfile.TemporaryDirectory() as tmp:
            for k, want in enumerate(members):
                got = model.member(k)
                assert got.theta.tobytes() == want.theta.tobytes()
                path = Path(tmp) / f"member{k}.json"
                save_model(got, path)
                loaded, _ = load_model(path)
                assert loaded.dims == dims
                assert loaded.theta.tobytes() == want.theta.tobytes()

    def test_theta_length_checked(self):
        with pytest.raises(ValueError, match="parameters"):
            ForecastModel(np.zeros(3), DIMS)

    def test_dims_checked(self):
        # the sizes the parameter count is built from
        for bad in ((0, 2, 1, 3, 5), (2, -1, 1, 3, 5), (2, 2, -1, 3, 5), (2, 2, 1, 5, 5)):
            with pytest.raises(ValueError):
                ModelDims(*bad)

    def test_param_items_are_gate_row_blocks(self):
        # the model file's per-gate keys, in GATE_KEYS order, are views of
        # theta at each gate's GATE_ORDER rows; writing one writes W or b
        n, keys = DIMS.n_labels, [f"{c}.{k}" for c in ("encoder", "decoder") for k in GATE_KEYS]
        for lead in ((), (2,)):
            model = ForecastModel(np.zeros(lead + (param_size(DIMS),)), DIMS)
            items = param_items(model)
            assert [key for key, _ in items] == keys + ["out_bias"]
            for k, (_, view) in enumerate(items):
                assert np.shares_memory(view, model.theta)
                view[...] = k + 1
            for cell, first in ((model.encoder, 1), (model.decoder, 9)):
                # rows run f, i, o, c; w_c and w_o are the third and fourth keys
                for block, key in enumerate((0, 1, 3, 2)):
                    rows = slice(block * n, (block + 1) * n)
                    np.testing.assert_array_equal(cell.W[..., rows, :], first + key)
                    np.testing.assert_array_equal(cell.b[..., rows], first + 4 + key)
            np.testing.assert_array_equal(model.out_bias, 17)


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
        obs, ctx = rng.normal(size=(1, 3, 2)), rng.normal(size=(1, 5, 1))
        pred = predict(model, obs, ctx)
        np.testing.assert_allclose(pred.embedding[0], FIXTURE_EMBEDDING, rtol=0, atol=1e-12)
        np.testing.assert_allclose(pred.step_scores[0], FIXTURE_STEP_SCORES, rtol=0, atol=1e-12)

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
        cell, gate = "encoder", "b_o"
        self._rejects(self._write(tmp_path, lambda doc: doc[cell].pop(gate)),
                      repr(f"{cell}.{gate}"))

    def test_out_bias_wrong_length(self, tmp_path):
        self._rejects(self._write(tmp_path, lambda doc: doc["out_bias"].pop()),
                      repr("out_bias"), "shape")

    def test_dims_missing_field(self, tmp_path):
        self._rejects(self._write(tmp_path, lambda doc: doc["dims"].pop("tau")), "'dims.tau'")

    def test_ragged_weight(self, tmp_path):
        cell, gate = "encoder", "w_c"

        def edit(doc):
            doc[cell][gate][1] = doc[cell][gate][1][:2]

        self._rejects(self._write(tmp_path, edit), repr(f"{cell}.{gate}"))

    def test_not_an_object(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        self._rejects(path, "format")
