"""Optimizer, training loop, gradient checker, and grid search."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from faultcast.data import Sample, SynthConfig, stack_samples, synth_generate
from faultcast.losses import batch_loss, class_weights
from faultcast.model import (ForecastModel, ModelDims, init_model, param_items, param_size,
                             predict, stack_models)
from faultcast.num import make_rng
from faultcast.training import (
    GridResult,
    TrainConfig,
    batch_gradients,
    default_grid,
    fd_gradient,
    grad_check,
    grid_search,
    make_adam_state,
    optimizer_step,
    select_best,
    threshold_validation_f1,
    train,
    train_population,
    write_grid_report,
    write_history,
)

TINY = ModelDims(n_labels=2, d_obs=2, d_ctx=1, tau=3, total_steps=5)


# One batch of tiny_synth(8) an epoch; the first update overflows theta.
OVERFLOW_THETA = TrainConfig(batch_size=8, optimizer="sgd", eta=1e306, lam=1e4, max_epochs=5)


def tiny_synth(n, seed=0):
    cfg = SynthConfig(
        tau=TINY.tau, total_steps=TINY.total_steps, n_labels=TINY.n_labels,
        d_obs=TINY.d_obs, d_ctx=TINY.d_ctx,
        thresholds=(0.5, 0.5), rarity=(1.0, 2.5), seed=seed,
    )
    return synth_generate(cfg, n)[1]


def zeros_grads(dims):
    """All-zero gradients in the parameter layout of one model."""
    return ForecastModel(np.zeros(param_size(dims)), dims)


class TestOptimizer:
    def test_sgd_zero_gradient_is_noop(self):
        model = init_model(make_rng(0), TINY)
        before = [arr.copy() for _, arr in param_items(model)]
        optimizer_step(model, zeros_grads(model.dims), eta=0.1, state=None)
        for (_, arr), prev in zip(param_items(model), before):
            np.testing.assert_array_equal(arr, prev)

    def test_sgd_scalar_step(self):
        model = init_model(make_rng(0), TINY)
        grads = zeros_grads(model.dims)
        grads.out_bias[0] = 2.0
        start = model.out_bias[0]
        optimizer_step(model, grads, eta=0.1, state=None)
        assert abs(model.out_bias[0] - (start - 0.2)) < 1e-15

    def test_adam_first_step_magnitude(self):
        # bias-corrected first step is eta * g / (|g| + eps) ~= eta * sign(g)
        for g in (1e-3, 3.0, 250.0):
            model = init_model(make_rng(0), TINY)
            grads = zeros_grads(model.dims)
            grads.out_bias[0] = g
            start = model.out_bias[0]
            optimizer_step(model, grads, eta=0.05, state=make_adam_state(model))
            assert abs((start - model.out_bias[0]) - 0.05) < 0.05 * 1e-4

    def test_clip_norm_bounds_update(self):
        model = init_model(make_rng(0), TINY)
        grads = zeros_grads(model.dims)
        grads.out_bias[...] = 100.0
        start = model.out_bias.copy()
        optimizer_step(model, grads, eta=1.0, state=None, clip_norm=1.0)
        moved = np.linalg.norm(model.out_bias - start)
        assert moved <= 1.0 + 1e-12


class TestPopulationStep:
    @settings(max_examples=40, deadline=None)
    @given(
        tau=st.integers(0, 3), horizon=st.integers(1, 3), n_labels=st.integers(1, 3),
        d_obs=st.integers(0, 2), d_ctx=st.integers(0, 2),
        optimizer=st.sampled_from(("adam", "sgd")),
        etas=st.lists(st.sampled_from((1e-3, 0.05, 0.5, 10.0)), min_size=1, max_size=3),
        clip_norm=st.sampled_from((None, 1e-3, 0.5, 1e3)),
        seed=st.integers(0, 2**16),
    )
    @example(tau=0, horizon=1, n_labels=2, d_obs=0, d_ctx=1, optimizer="adam",
             etas=[0.05, 0.5], clip_norm=0.5, seed=0)
    def test_population_step_equals_member_steps(
        self, tau, horizon, n_labels, d_obs, d_ctx, optimizer, etas, clip_norm, seed
    ):
        # a (G, P) step with per-member eta, clipping and Adam state updates
        # each member bit for bit as its own single-model steps do
        dims = ModelDims(n_labels, d_obs, d_ctx, tau, tau + horizon)
        rng = make_rng(seed)
        alone = [init_model(make_rng(seed + k), dims) for k in range(len(etas))]
        stack = stack_models(alone)
        adam = optimizer == "adam"
        states = [make_adam_state(m) if adam else None for m in alone]
        stack_state = make_adam_state(stack) if adam else None
        for _ in range(3):
            grads = [zeros_grads(dims) for _ in etas]
            for g in grads:
                g.theta[...] = rng.normal(size=g.theta.shape) * rng.choice((1e-3, 1.0, 1e3))
            optimizer_step(stack, stack_models(grads), np.array(etas), stack_state, clip_norm)
            for model, g, eta, state in zip(alone, grads, etas, states):
                optimizer_step(model, g, eta, state, clip_norm)
        for k, model in enumerate(alone):
            assert stack.member(k).theta.tobytes() == model.theta.tobytes()
            if adam:
                assert stack_state.m[k].tobytes() == states[k].m.tobytes()
                assert stack_state.v[k].tobytes() == states[k].v.tobytes()


class TestTrain:
    def test_zero_epochs_returns_unchanged_model(self):
        samples = tiny_synth(8)
        model = init_model(make_rng(1), TINY)
        out, history = train(model, samples, [], TrainConfig(max_epochs=0))
        assert history == []
        for (_, a), (_, b) in zip(param_items(model), param_items(out)):
            np.testing.assert_array_equal(a, b)
        assert out is not model

    def test_input_model_never_mutated(self):
        samples = tiny_synth(12)
        model = init_model(make_rng(1), TINY)
        before = [arr.copy() for _, arr in param_items(model)]
        train(model, samples, samples[:4], TrainConfig(max_epochs=3, batch_size=4))
        for (_, arr), prev in zip(param_items(model), before):
            np.testing.assert_array_equal(arr, prev)

    def test_deterministic_history(self):
        samples = tiny_synth(16)
        cfg = TrainConfig(max_epochs=5, batch_size=4, seed=3)
        runs = []
        for _ in range(2):
            model = init_model(make_rng(2), TINY)
            _, history = train(model, samples, samples[:4], cfg)
            runs.append(history)
        assert len(runs[0]) == len(runs[1]) == 5 and stops(runs[0]) is None  # max_epochs
        for a, b in zip(*runs):
            assert a.loss == b.loss
            assert a.val_micro_f1 == b.val_micro_f1
            assert a.val_macro_f1 == b.val_macro_f1

    def test_best_snapshot_matches_history_max(self):
        samples = tiny_synth(24)
        model = init_model(make_rng(4), TINY)
        best, history = train(
            model, samples, samples[:8], TrainConfig(max_epochs=12, batch_size=8, seed=1)
        )
        micro, macro = threshold_validation_f1(best, samples[:8])
        recorded = max(r.val_micro_f1 + r.val_macro_f1 for r in history)
        assert abs((micro + macro) - recorded) < 1e-12

    @settings(max_examples=20, deadline=None)
    @given(members=st.integers(1, 4), n=st.integers(1, 12), seed=st.integers(0, 2**16))
    def test_population_validation_equals_each_member_alone(self, members, n, seed):
        samples = tiny_synth(n, seed)
        alone = [init_model(make_rng(seed + k), TINY) for k in range(members)]
        micro, macro = threshold_validation_f1(stack_models(alone), samples)
        assert [*zip(micro, macro)] == [threshold_validation_f1(m, samples) for m in alone]

    def test_early_stopping_respects_patience(self):
        samples = tiny_synth(8)
        model = init_model(make_rng(5), TINY)
        cfg = TrainConfig(max_epochs=400, patience=4, batch_size=8, eta=1e-6)
        _, history = train(model, samples, samples[:4], cfg)
        assert len(history) < 400
        assert stops(history) == "patience"
        # the run ends `patience` epochs after its first best score
        scores = [r.val_micro_f1 + r.val_macro_f1 for r in history]
        assert len(history) == int(np.argmax(scores)) + 1 + cfg.patience

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_guard_stops_run(self):
        # eta * lambda >> 2 makes plain SGD amplify the weights geometrically
        # until the l2 term overflows; the run must stop and keep a finite
        # snapshot
        samples = tiny_synth(12)
        model = init_model(make_rng(6), TINY)
        cfg = TrainConfig(
            max_epochs=200, batch_size=4, eta=1e4, lam=1.0, optimizer="sgd",
            patience=200,
        )
        best, history = train(model, samples, samples[:4], cfg)
        assert len(history) < 200
        assert not np.isfinite(history[-1].loss.total)
        assert stops(history) == "diverged"
        for _, arr in param_items(best):
            assert np.all(np.isfinite(arr))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(4))
    def test_update_that_overflows_theta_is_never_the_best(self, seed):
        # one batch an epoch, and eta * lambda so large that the first update
        # overflows theta after a finite loss: no later batch of the epoch
        # sees it, so only the end-of-epoch check on theta can
        samples = tiny_synth(8)
        model = init_model(make_rng(seed + 1), TINY)
        best, history = train(model, samples, samples[:4], replace(OVERFLOW_THETA, seed=seed))
        assert len(history) == 1 and np.isfinite(history[0].loss.total)
        assert stops(history) == "diverged"
        assert_same_model(best, model)  # no epoch came before, so the initial weights

    @pytest.mark.parametrize("clip_norm", [0.0, -1.0, float("nan")])
    def test_non_positive_clip_norm_rejected(self, clip_norm):
        # 0 would zero every update, a negative value would ascend the loss
        with pytest.raises(ValueError, match="clip_norm"):
            TrainConfig(clip_norm=clip_norm)

    @pytest.mark.parametrize("field", ["eta", "lam"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_step_and_penalty_rejected(self, field, value):
        # NaN slips through a plain `eta <= 0` or `lam < 0` comparison
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            TrainConfig(**{field: value})

    def test_siamese_batch_size_validated(self):
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(loss="siamese", batch_size=1)

    @pytest.mark.parametrize("field,value", [("max_epochs", -1), ("max_epochs", -3),
                                             ("patience", 0), ("patience", -1)])
    def test_epoch_and_patience_ranges(self, field, value):
        # max_epochs 0 stays valid: a run that returns the initial model
        TrainConfig(max_epochs=0, patience=1)
        with pytest.raises(ValueError, match=f"{field} must be >= "):
            TrainConfig(**{field: value})

    def test_dimension_mismatch_rejected(self):
        samples = tiny_synth(6)
        other = ModelDims(n_labels=2, d_obs=3, d_ctx=1, tau=3, total_steps=5)
        model = init_model(make_rng(0), other)
        with pytest.raises(ValueError, match="observations"):
            train(model, samples, [], TrainConfig(max_epochs=1))

    def test_label_count_mismatch_rejected(self):
        # the samples carry 2 labels, the model 3; the objective names the
        # labels before any update, so the input model stays as it was
        samples = tiny_synth(6)
        model = init_model(make_rng(0), replace(TINY, n_labels=3))
        before = model.theta.copy()
        with pytest.raises(ValueError, match=r"labels must be \(6, 3\), got \(6, 2\)"):
            train(model, samples, [], TrainConfig(max_epochs=1))
        assert model.theta.tobytes() == before.tobytes()

    def test_loss_choice_never_changes_parameter_set(self):
        # the three configurations differ only in the objective; the trained
        # parameter names and shapes stay identical, so scores are comparable
        shapes = {}
        for kind in ("base", "localize", "siamese"):
            samples = tiny_synth(8)
            model = init_model(make_rng(9), TINY)
            best, _ = train(model, samples, [],
                            TrainConfig(loss=kind, max_epochs=2, batch_size=4))
            shapes[kind] = [(name, arr.shape) for name, arr in param_items(best)]
        assert shapes["base"] == shapes["localize"] == shapes["siamese"]

    def test_bit_identical_models_across_runs(self):
        samples = tiny_synth(12)
        params = []
        for _ in range(2):
            model = init_model(make_rng(3), TINY)
            best, _ = train(model, samples, samples[:4],
                            TrainConfig(max_epochs=6, batch_size=4, seed=2))
            params.append([arr.copy() for _, arr in param_items(best)])
        for a, b in zip(*params):
            np.testing.assert_array_equal(a, b)

    def test_overfits_small_separable_set(self):
        # the embedding is a sum over forecast steps, so its reachable range
        # scales with the horizon; give the memorization test room to move
        dims = ModelDims(n_labels=2, d_obs=2, d_ctx=1, tau=3, total_steps=9)
        cfg_synth = SynthConfig(
            tau=3, total_steps=9, n_labels=2, d_obs=2, d_ctx=1,
            thresholds=(0.5, 0.5), rarity=(1.0, 2.5), seed=3,
        )
        samples = synth_generate(cfg_synth, 16)[1]
        model = init_model(make_rng(7), dims)
        cfg = TrainConfig(max_epochs=800, batch_size=16, eta=0.05, patience=800, seed=0)
        _, history = train(model, samples, [], cfg)
        first = history[0].loss.total
        floor = min(r.loss.total for r in history)
        assert floor < 0.1 * first


class TestGradCheck:
    @pytest.mark.parametrize("kind", ("base", "localize", "siamese"))
    def test_all_losses_verify(self, kind):
        samples = tiny_synth(2, seed=11)
        model = init_model(make_rng(8), TINY)
        cfg = TrainConfig(loss=kind, lam=0.05, beta=0.3, batch_size=2)
        err, worst = grad_check(model, samples, cfg)
        assert err < 1e-4, worst

    def test_coarse_step_degrades(self):
        samples = tiny_synth(2, seed=11)
        model = init_model(make_rng(8), TINY)
        cfg = TrainConfig(loss="base", lam=0.05, batch_size=2)
        fine, _ = grad_check(model, samples, cfg, fd_step=1e-5)
        coarse, _ = grad_check(model, samples, cfg, fd_step=0.5)
        assert coarse > fine


@pytest.mark.parametrize("kind", ("base", "localize", "siamese"))
@pytest.mark.parametrize("bias", (0.0, 40.0))
def test_fd_gradient_equals_the_per_coordinate_loop(kind, bias, monkeypatch):
    """The population differences equal, bit for bit, two single-model
    forwards per coordinate, also across chunks of a few coordinates."""
    import faultcast.training as training

    dims = ModelDims(n_labels=2, d_obs=1, d_ctx=1, tau=2, total_steps=4)
    samples = synth_generate(SynthConfig(tau=2, total_steps=4, n_labels=2, d_obs=1, d_ctx=1,
                                         thresholds=(0.5, 0.5), rarity=(1.0, 2.0), seed=6), 3)[1]
    obs, ctx, labels, steps = stack_samples(samples)
    weights = class_weights(labels)
    model = init_model(make_rng(5), dims)
    model.out_bias[...] = bias

    def loss_at(theta):
        m = ForecastModel(theta, dims)
        return batch_loss(kind, predict(m, obs, ctx), labels, steps, weights, m, 0.1, 0.4).total

    h = 1e-5
    want = np.empty_like(model.theta)
    for k in range(want.size):
        up, down = model.theta.copy(), model.theta.copy()
        up[k] += h
        down[k] -= h
        want[k] = (loss_at(up) - loss_at(down)) / (2 * h)
    monkeypatch.setattr(training, "FD_BYTES", 6 * model.theta.nbytes)  # 3 coordinates a chunk
    got = fd_gradient(model, obs, ctx, labels, steps, weights, kind, 0.1, 0.4, h)
    assert got.tobytes() == want.tobytes()


class TestGradientProperty:
    """batch_gradients equals central finite differences of batch_loss on
    random small dims, also where out_bias pushes every logit g past the
    probability clamp (|g| = 30, 40, 700), for both label values."""

    @staticmethod
    def error(analytic, numeric):
        """The largest entry error. A loss near 10^3 (|g| = 700) leaves
        central differences about 1e-9 of rounding, so each entry is
        compared relative to the larger of itself and 1e-4 of the largest
        gradient entry."""
        scale = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)),
                           1e-4 * np.abs(analytic).max())
        return np.max(np.abs(analytic - numeric) / scale)

    @settings(max_examples=8, deadline=None)
    @given(
        tau=st.integers(0, 2), horizon=st.integers(1, 3), n_labels=st.integers(1, 3),
        d_obs=st.integers(0, 2), d_ctx=st.integers(0, 2),
        kind=st.sampled_from(("base", "localize", "siamese")),
        lam=st.sampled_from((0.1, 1.0)),
        bias=st.sampled_from((0.0, -30.0, 30.0, -40.0, 40.0, -700.0, 700.0)),
        seed=st.integers(0, 2**16),
    )
    @example(tau=0, horizon=1, n_labels=2, d_obs=0, d_ctx=1, kind="base", lam=0.1,
             bias=-30.0, seed=0)
    @example(tau=2, horizon=2, n_labels=2, d_obs=1, d_ctx=1, kind="localize", lam=1.0,
             bias=30.0, seed=1)
    @example(tau=1, horizon=1, n_labels=2, d_obs=0, d_ctx=0, kind="siamese", lam=0.1,
             bias=-40.0, seed=2)
    @example(tau=0, horizon=2, n_labels=1, d_obs=0, d_ctx=1, kind="base", lam=1.0,
             bias=40.0, seed=3)
    @example(tau=2, horizon=1, n_labels=2, d_obs=2, d_ctx=0, kind="siamese", lam=1.0,
             bias=-700.0, seed=4)
    @example(tau=1, horizon=1, n_labels=3, d_obs=1, d_ctx=2, kind="localize", lam=0.1,
             bias=700.0, seed=5)
    def test_gradients_match_finite_differences(
        self, tau, horizon, n_labels, d_obs, d_ctx, kind, lam, bias, seed
    ):
        dims = ModelDims(n_labels, d_obs, d_ctx, tau, tau + horizon)
        rng = make_rng(seed)
        n, beta = 3, 0.3
        # every label takes both values across the batch
        labels = ((np.arange(n)[:, None] + np.arange(n_labels)) % 2).astype(np.float64)
        steps = (rng.uniform(size=(n, horizon, n_labels)) < 0.4).astype(np.float64)
        obs = rng.normal(size=(n, tau, d_obs))
        ctx = rng.normal(size=(n, tau + horizon, d_ctx))
        weights = class_weights(labels)
        model = init_model(make_rng(seed + 1), dims)
        model.out_bias[...] = bias
        breakdown, grads, _ = batch_gradients(
            model, obs, ctx, labels, steps, weights, kind, lam, beta
        )

        numeric = fd_gradient(model, obs, ctx, labels, steps, weights, kind, lam, beta, 1e-4)
        assert self.error(grads.theta, numeric) < 1e-4

        # the segment part is the exact logit form, not held flat by a clamp
        g = predict(model, obs, ctx).embedding
        per_sample = (weights.weight * labels * np.logaddexp(0.0, -g)
                      + (1.0 - labels) * np.logaddexp(0.0, g)).sum(axis=-1)
        # siamese: each sample sits in n - 1 of the n (n - 1) / 2 pairs
        want = beta * 2 / n * per_sample.sum() if kind == "siamese" else per_sample.mean()
        assert breakdown.segment == pytest.approx(want, rel=1e-9)


    @settings(max_examples=2, deadline=None)
    @given(
        n_labels=st.integers(16, 24), tau=st.integers(1, 2), horizon=st.integers(1, 2),
        n=st.integers(2, 3), kind=st.sampled_from(("base", "localize", "siamese")),
        seed=st.integers(0, 2**16),
    )
    @example(n_labels=16, tau=1, horizon=2, n=3, kind="base", seed=0)
    @example(n_labels=16, tau=2, horizon=1, n=2, kind="localize", seed=1)
    @example(n_labels=16, tau=1, horizon=1, n=3, kind="siamese", seed=2)
    def test_wide_dims_match_finite_differences(self, n_labels, tau, horizon, n, kind, seed):
        """The same gate at the label counts of the real benchmarks: 16-24
        labels, a few steps. The activity data's 36 labels are left out, as
        finite differences there take about 10 s a kind."""
        dims = ModelDims(n_labels, 1, 1, tau, tau + horizon)
        rng = make_rng(seed)
        labels = ((np.arange(n)[:, None] + np.arange(n_labels)) % 2).astype(np.float64)
        steps = (rng.uniform(size=(n, horizon, n_labels)) < 0.4).astype(np.float64)
        obs, ctx = rng.normal(size=(n, tau, 1)), rng.normal(size=(n, tau + horizon, 1))
        weights = class_weights(labels)
        model = init_model(make_rng(seed + 1), dims)
        args = (model, obs, ctx, labels, steps, weights, kind, 0.1, 0.3)
        _, grads, _ = batch_gradients(*args)
        assert self.error(grads.theta, fd_gradient(*args, 1e-4)) < 1e-4


class TestGridSearch:
    def test_default_grid_sizes(self):
        assert len(default_grid("base")) == 9
        assert len(default_grid("localize")) == 9
        assert len(default_grid("siamese")) == 45

    def test_singleton_grid_returns_that_config(self):
        samples = tiny_synth(20)
        grid = [TrainConfig(eta=0.02, lam=0.1, max_epochs=2, batch_size=8)]
        best_cfg, best_model, results = grid_search(
            grid, TINY, samples[:12], samples[12:], base_seed=5
        )
        assert best_cfg.eta == 0.02 and best_cfg.lam == 0.1
        assert best_cfg.seed == 5
        assert len(results) == 1

    def test_dominant_config_selected(self):
        # one sane point among points wrecked by a huge learning rate
        # without clipping
        samples = tiny_synth(24, seed=9)
        sane = TrainConfig(eta=0.02, lam=0.01, max_epochs=40, batch_size=8,
                           patience=40)
        grid = [replace(sane, eta=1e4), sane, replace(sane, eta=1e5)]
        best_cfg, _, results = grid_search(
            grid, TINY, samples[:16], samples[16:], base_seed=0
        )
        assert best_cfg.eta == 0.02
        scores = [r.score for r in results]
        assert scores[1] >= max(scores[0], scores[2])

    def test_tie_break_prefers_small_eta_then_large_lambda(self):
        def result(eta, lam, micro, macro):
            return GridResult(TrainConfig(eta=eta, lam=lam), micro, macro)

        tied = [
            result(0.1, 0.01, 0.5, 0.5),
            result(0.001, 0.01, 0.5, 0.5),
            result(0.001, 1.0, 0.5, 0.5),
            result(0.01, 1.0, 0.6, 0.3),
        ]
        assert select_best(tied) == 2
        tied[0] = result(0.1, 0.01, 0.7, 0.5)
        assert select_best(tied) == 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_members_match_standalone_runs(self):
        # every grid point trains in one population; member k must match a
        # standalone train() of point k bit for bit, including a member
        # that diverges (plain SGD with eta 1e4 and lambda 10 amplifies the
        # weights until the l2 term overflows) and members that stop at
        # different epochs
        samples = tiny_synth(24, seed=9)
        train_s, val_s = samples[:16], samples[16:]
        for kind in ("base", "localize", "siamese"):
            base = TrainConfig(loss=kind, max_epochs=40, batch_size=6, patience=12,
                               optimizer="sgd")
            grid = [replace(base, eta=1e4, lam=10.0), replace(base, eta=0.5, lam=0.01),
                    replace(base, eta=0.1, lam=0.0, beta=0.2), replace(base, eta=2.0, lam=0.1)]
            best_cfg, best_model, results = grid_search(grid, TINY, train_s, val_s, base_seed=4)
            configs = [replace(cfg, seed=4 + k) for k, cfg in enumerate(grid)]
            models = [init_model(make_rng(cfg.seed + 1), TINY) for cfg in configs]
            members = train_population(models, train_s, val_s, configs)
            alone = [train(m, train_s, val_s, cfg) for m, cfg in zip(models, configs)]
            for (got, got_hist), (want, want_hist) in zip(members, alone):
                assert_same_model(got, want)
                assert history_key(got_hist) == history_key(want_hist)
            for res, cfg, (want, _) in zip(results, configs, alone):
                assert res == GridResult(cfg, *threshold_validation_f1(want, val_s))
            winner = select_best(results)
            assert best_cfg == configs[winner]
            assert_same_model(best_model, alone[winner][0])
            lengths = [len(hist) for _, hist in alone]
            assert not np.isfinite(alone[0][1][-1].loss.total), kind  # diverged
            early = {n for n in lengths[1:] if n < base.max_epochs}
            assert len(early) > 1, (kind, lengths)  # early stops at different epochs

    def test_grid_points_must_share_training_fields(self):
        samples = tiny_synth(12)
        base = TrainConfig(max_epochs=1, batch_size=4)
        grid = [base, replace(base, eta=0.5, lam=0.2, beta=0.1, seed=9),
                replace(base, batch_size=8)]
        with pytest.raises(ValueError, match="'batch_size'"):
            grid_search(grid, TINY, samples[:8], samples[8:])
        with pytest.raises(ValueError, match="'loss'"):
            train_population([init_model(make_rng(0), TINY)] * 2, samples, [],
                             [base, replace(base, loss="localize")])


def stops(history):
    """The stop reason of a run's last record; every earlier one has None."""
    assert all(r.stopped is None for r in history[:-1])
    return history[-1].stopped


def history_key(history):
    """Every recorded field but the wall time, as exact reprs (NaN-safe)."""
    return [repr((r.epoch, r.loss, r.val_micro_f1, r.val_macro_f1)) for r in history]


def assert_same_model(a, b):
    for (name, x), (_, y) in zip(param_items(a), param_items(b)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes(), name


class TestPopulation:
    def test_diverged_member_stops_and_keeps_finite_best(self):
        samples = tiny_synth(12)
        base = TrainConfig(max_epochs=20, batch_size=4, patience=20, optimizer="sgd",
                           lam=1.0)
        configs = [replace(base, eta=1e4), replace(base, eta=0.01, seed=1)]
        models = [init_model(make_rng(6), TINY), init_model(make_rng(7), TINY)]
        with np.errstate(all="ignore"):
            (bad, bad_hist), (good, good_hist) = train_population(
                models, samples, samples[:4], configs)
        assert len(bad_hist) < 20 and not np.isfinite(bad_hist[-1].loss.total)
        assert stops(bad_hist) == "diverged"
        assert len(good_hist) == 20 and stops(good_hist) is None
        assert all(np.isfinite(r.loss.total) for r in good_hist)
        for model in (bad, good):
            assert all(np.all(np.isfinite(arr)) for _, arr in param_items(model))

    def test_member_whose_update_overflows_leaves_its_neighbour_unchanged(self):
        samples = tiny_synth(8)
        configs = [OVERFLOW_THETA, replace(OVERFLOW_THETA, eta=0.01, lam=0.0, seed=1)]
        models = [init_model(make_rng(1), TINY), init_model(make_rng(2), TINY)]
        with np.errstate(all="ignore"):
            (bad, bad_hist), (good, good_hist) = train_population(
                models, samples, samples[:4], configs)
        assert len(bad_hist) == 1 and stops(bad_hist) == "diverged"
        assert_same_model(bad, models[0])
        alone, alone_hist = train(models[1], samples, samples[:4], configs[1])
        assert_same_model(good, alone)
        assert history_key(good_hist) == history_key(alone_hist)
        assert len(good_hist) == 5 and stops(good_hist) is None

    def test_mismatched_models_rejected(self):
        samples = tiny_synth(6)
        other = ModelDims(n_labels=2, d_obs=2, d_ctx=1, tau=2, total_steps=5)
        models = [init_model(make_rng(0), TINY), init_model(make_rng(0), other)]
        with pytest.raises(ValueError, match="dims"):
            train_population(models, samples, [], [TrainConfig(max_epochs=1)] * 2)

    @pytest.mark.filterwarnings("ignore::UserWarning")
    @settings(max_examples=40, deadline=None)
    @given(
        tau=st.integers(0, 3),
        horizon=st.integers(1, 3),
        n_labels=st.integers(1, 3),
        d_obs=st.integers(0, 2),
        d_ctx=st.integers(0, 2),
        kind=st.sampled_from(("base", "localize", "siamese")),
        optimizer=st.sampled_from(("adam", "sgd")),
        points=st.lists(
            st.tuples(st.sampled_from((1e-3, 0.05, 0.5, 1e3)),  # eta
                      st.sampled_from((0.0, 0.01, 1.0)),        # lambda
                      st.sampled_from((0.0, 0.3, 1.0))),        # beta
            min_size=1, max_size=4,
        ),
        seed=st.integers(0, 2**16),
    )
    @example(tau=0, horizon=1, n_labels=2, d_obs=0, d_ctx=1, kind="siamese", optimizer="adam",
             points=[(0.05, 0.0, 0.3), (1e3, 1.0, 1.0), (1e-3, 0.01, 0.0), (0.5, 0.0, 0.0)],
             seed=0)
    def test_members_match_standalone_runs_on_random_dims(
        self, tau, horizon, n_labels, d_obs, d_ctx, kind, optimizer, points, seed
    ):
        dims = ModelDims(n_labels, d_obs, d_ctx, tau, tau + horizon)
        rng = make_rng(seed)
        samples = [random_sample(rng, dims) for _ in range(9)]
        base = TrainConfig(loss=kind, max_epochs=3, batch_size=4, patience=1,
                           optimizer=optimizer)
        configs = [replace(base, eta=eta, lam=lam, beta=beta, seed=seed + k)
                   for k, (eta, lam, beta) in enumerate(points)]
        models = [init_model(make_rng(seed + k), dims) for k in range(len(points))]
        with np.errstate(all="ignore"):
            members = train_population(models, samples[:6], samples[6:], configs)
            alone = [train(m, samples[:6], samples[6:], cfg) for m, cfg in zip(models, configs)]
        for (got, got_hist), (want, want_hist) in zip(members, alone):
            assert_same_model(got, want)
            assert history_key(got_hist) == history_key(want_hist)


def random_sample(rng, dims):
    """A sample of random inputs and labels for `dims`."""
    steps = (rng.uniform(size=(dims.horizon, dims.n_labels)) < 0.4).astype(np.float64)
    return Sample(
        obs=rng.normal(size=(dims.tau, dims.d_obs)),
        ctx=rng.normal(size=(dims.total_steps, dims.d_ctx)),
        labels=(steps.sum(axis=0) > 0).astype(np.float64),
        step_labels=steps,
    )


class TestReports:
    def test_history_file_columns(self, tmp_path):
        samples = tiny_synth(8)
        model = init_model(make_rng(1), TINY)
        _, history = train(model, samples, samples[:4],
                           TrainConfig(max_epochs=3, batch_size=4))
        path = tmp_path / "history.tsv"
        write_history(history, path)
        lines = path.read_text().splitlines()
        assert lines[0].split("\t") == [
            "epoch", "segment", "stepwise", "pairwise", "reg", "total",
            "val_micro_f1", "val_macro_f1",
        ]
        assert len(lines) == 4
        float(lines[1].split("\t")[5])  # parsable total

    def test_grid_report_lists_every_point(self, tmp_path):
        samples = tiny_synth(12)
        grid = default_grid("base", TrainConfig(max_epochs=1, batch_size=8))[:3]
        best_cfg, _, results = grid_search(grid, TINY, samples[:8], samples[8:])
        path = tmp_path / "grid.tsv"
        write_grid_report(results, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert [line.endswith("\t1") for line in lines[1:]] == [True, False, False]
        assert float(lines[1].split("\t")[2]) == best_cfg.eta

    def test_duplicated_grid_point_selected_once(self, tmp_path):
        # the two copies of base differ only in their seed; they rank 1st
        # and 3rd, and only the rank-1 row, the one select_best picks, is
        # the selected one
        base = TrainConfig(eta=0.01, lam=0.1)
        results = [GridResult(replace(base, seed=0), 0.4, 0.2),
                   GridResult(replace(base, seed=1), 0.5, 0.5),
                   GridResult(replace(base, eta=0.1, seed=2), 0.4, 0.4)]
        path = tmp_path / "grid.tsv"
        write_grid_report(results, path)
        rows = [line.split("\t") for line in path.read_text().splitlines()[1:]]
        assert [(r[0], r[2], r[7], r[8]) for r in rows] == [
            ("1", "0.01", "1.0", "1"), ("2", "0.1", "0.8", "0"), ("3", "0.01", repr(0.4 + 0.2), "0"),
        ]
        assert select_best(results) == 1
