"""LSTM cell: forward semantics, gradient exactness, parameter accounting."""

import math

import numpy as np
import pytest

from faultcast.lstm import (
    LstmParams,
    init_params,
    lstm_backward,
    lstm_forward,
    lstm_step,
    param_count,
    step_backward,
    zeros_params,
)
from faultcast.num import make_rng


def scalar_cell_oracle(wf, wi, wc, wo, bf, bi, bc, bo, h_prev, c_prev, x):
    """Independent scalar transcription of the gate equations (1-unit cell).

    Each weight argument is the (w_h, w_x) pair applied to [h_prev, x].
    Written with math.* so it shares nothing with the vector implementation.
    """

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    f = sig(wf[0] * h_prev + wf[1] * x + bf)
    i = sig(wi[0] * h_prev + wi[1] * x + bi)
    cand = math.tanh(wc[0] * h_prev + wc[1] * x + bc)
    c = f * c_prev + i * cand
    o = sig(wo[0] * h_prev + wo[1] * x + bo)
    return o * math.tanh(c), c


class TestStep:
    def test_all_zero_params(self):
        params = zeros_params(3, 2)
        h, c, cache = lstm_step(params, np.zeros(3), np.zeros(3), np.array([1.0, -2.0]))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        np.testing.assert_allclose(cache.f, 0.5)
        np.testing.assert_allclose(cache.i, 0.5)
        np.testing.assert_allclose(cache.o_gate, 0.5)
        np.testing.assert_array_equal(cache.c_cand, np.zeros(3))

    def test_zero_params_nonzero_cell(self):
        params = zeros_params(1, 1)
        h, c, _ = lstm_step(params, np.zeros(1), np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(c, [0.5], atol=1e-15)
        np.testing.assert_allclose(h, [0.5 * math.tanh(0.5)], atol=1e-15)
        np.testing.assert_allclose(h, [0.23105857863], atol=1e-11)

    def test_matches_scalar_oracle(self):
        params = LstmParams(
            *(np.full((1, 2), 0.1) for _ in range(4)),
            *(np.zeros(1) for _ in range(4)),
        )
        h, c, _ = lstm_step(params, np.zeros(1), np.zeros(1), np.array([1.0]))
        oh, oc = scalar_cell_oracle(
            (0.1, 0.1), (0.1, 0.1), (0.1, 0.1), (0.1, 0.1),
            0.0, 0.0, 0.0, 0.0,
            h_prev=0.0, c_prev=0.0, x=1.0,
        )
        np.testing.assert_allclose(h, [oh], atol=1e-12)
        np.testing.assert_allclose(c, [oc], atol=1e-12)

    def test_random_params_match_scalar_oracle(self):
        rng = make_rng(17)
        for _ in range(10):
            mats = [rng.normal(size=(1, 2)) for _ in range(4)]
            biases = [rng.normal(size=1) for _ in range(4)]
            params = LstmParams(*mats, *biases)
            h_prev, c_prev, x = rng.normal(size=3)
            h, c, _ = lstm_step(params, np.array([h_prev]), np.array([c_prev]), np.array([x]))
            oh, oc = scalar_cell_oracle(
                *(tuple(m[0]) for m in mats),
                *(float(b[0]) for b in biases),
                h_prev=h_prev, c_prev=c_prev, x=x,
            )
            np.testing.assert_allclose(h, [oh], atol=1e-12)
            np.testing.assert_allclose(c, [oc], atol=1e-12)

    def test_input_width_checked(self):
        with pytest.raises(ValueError, match="length 3"):
            lstm_step(zeros_params(2, 2), np.zeros(2), np.zeros(2), np.zeros(3))

    def test_batched_equals_stacked_single(self):
        rng = make_rng(3)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(4, 2))
        h0 = rng.normal(size=3) * 0.1
        c0 = rng.normal(size=3) * 0.1
        hb, cb, _ = lstm_step(params, np.tile(h0, (4, 1)), np.tile(c0, (4, 1)), xs)
        # batched GEMM and single GEMV may round differently in the last ulp
        for k in range(4):
            hk, ck, _ = lstm_step(params, h0, c0, xs[k])
            np.testing.assert_allclose(hb[k], hk, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(cb[k], ck, rtol=1e-14, atol=1e-15)


class TestForward:
    def test_empty_sequence(self):
        params = zeros_params(2, 3)
        hs, cs, caches = lstm_forward(params, np.ones(2), np.ones(2), np.zeros((0, 3)))
        assert hs.shape == (0, 2) and cs.shape == (0, 2) and caches == []

    def test_single_step_equals_step(self):
        rng = make_rng(1)
        params = init_params(rng, 2, 3)
        x = rng.normal(size=(1, 3))
        hs, cs, _ = lstm_forward(params, np.zeros(2), np.zeros(2), x)
        h, c, _ = lstm_step(params, np.zeros(2), np.zeros(2), x[0])
        np.testing.assert_array_equal(hs[0], h)
        np.testing.assert_array_equal(cs[0], c)

    def test_three_steps_equal_chained_calls(self):
        rng = make_rng(2)
        params = init_params(rng, 2, 3)
        xs = rng.normal(size=(3, 3))
        hs, cs, _ = lstm_forward(params, np.zeros(2), np.zeros(2), xs)
        h, c = np.zeros(2), np.zeros(2)
        for t in range(3):
            h, c, _ = lstm_step(params, h, c, xs[t])
            np.testing.assert_array_equal(hs[t], h)
            np.testing.assert_array_equal(cs[t], c)

    def test_error_reports_step(self):
        params = zeros_params(2, 3)
        xs = [np.zeros(3), np.zeros(3), np.zeros(4)]
        with pytest.raises(ValueError, match="step 2"):
            lstm_forward(params, np.zeros(2), np.zeros(2), xs)

    def test_hidden_state_bounded(self):
        rng = make_rng(9)
        params = init_params(rng, 4, 3)
        xs = rng.normal(size=(50, 3)) * 5.0
        hs, _, _ = lstm_forward(params, np.zeros(4), np.zeros(4), xs)
        assert np.all(np.abs(hs) < 1.0)

    def test_deterministic(self):
        rng = make_rng(4)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(6, 2))
        a = lstm_forward(params, np.zeros(3), np.zeros(3), xs)[0]
        b = lstm_forward(params, np.zeros(3), np.zeros(3), xs)[0]
        np.testing.assert_array_equal(a, b)


def fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin):
    """Linear functional of the outputs whose gradient lstm_backward returns."""
    hs, cs, _ = lstm_forward(params, h0, c0, xs)
    total = float(np.sum(dh_steps * hs))
    if len(hs):
        total += float(dh_fin @ hs[-1] + dc_fin @ cs[-1])
    else:
        total += float(dh_fin @ h0 + dc_fin @ c0)
    return total


class TestBackward:
    def test_zero_adjoints_zero_grads(self):
        rng = make_rng(6)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(5, 2))
        _, _, caches = lstm_forward(params, np.zeros(3), np.zeros(3), xs)
        grads = lstm_backward(params, caches, np.zeros((5, 3)))
        for _, arr in grads.params.arrays():
            np.testing.assert_array_equal(arr, np.zeros_like(arr))
        np.testing.assert_array_equal(grads.dx, np.zeros((5, 2)))

    def test_length_mismatch(self):
        params = zeros_params(2, 2)
        _, _, caches = lstm_forward(params, np.zeros(2), np.zeros(2), np.zeros((3, 2)))
        with pytest.raises(ValueError, match="length mismatch"):
            lstm_backward(params, caches, np.zeros((2, 2)))

    def test_causality_of_input_grads(self):
        # Adjoints only on step 1 (and none on the final state): inputs after
        # step 1 cannot influence the loss, so their gradients vanish.
        rng = make_rng(10)
        params = init_params(rng, 2, 3)
        xs = rng.normal(size=(5, 3))
        _, _, caches = lstm_forward(params, np.zeros(2), np.zeros(2), xs)
        dh = np.zeros((5, 2))
        dh[1] = rng.normal(size=2)
        grads = lstm_backward(params, caches, dh)
        np.testing.assert_array_equal(grads.dx[2:], np.zeros((3, 3)))
        assert np.any(grads.dx[1] != 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        rng = make_rng(100 + seed)
        hidden = int(rng.integers(1, 4))
        inputs = int(rng.choice([1, 2, 5]))
        steps = int(rng.integers(1, 9))
        params = init_params(rng, hidden, inputs)
        h0 = rng.normal(size=hidden) * 0.3
        c0 = rng.normal(size=hidden) * 0.3
        xs = rng.normal(size=(steps, inputs))
        dh_steps = rng.normal(size=(steps, hidden))
        dh_fin = rng.normal(size=hidden)
        dc_fin = rng.normal(size=hidden)

        _, _, caches = lstm_forward(params, h0, c0, xs)
        grads = lstm_backward(params, caches, dh_steps, dh_fin, dc_fin)

        step = 1e-5
        worst = 0.0
        for name, arr in params.arrays():
            flat = arr.ravel()
            gflat = getattr(grads.params, name).ravel()
            for k in range(flat.size):
                keep = flat[k]
                flat[k] = keep + step
                up = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
                flat[k] = keep - step
                down = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
                flat[k] = keep
                numeric = (up - down) / (2 * step)
                denom = max(abs(numeric), abs(gflat[k]), 1e-6)
                worst = max(worst, abs(numeric - gflat[k]) / denom)
        assert worst < 1e-4

    def test_initial_state_and_input_grads_match_fd(self):
        rng = make_rng(55)
        params = init_params(rng, 2, 2)
        h0 = rng.normal(size=2) * 0.3
        c0 = rng.normal(size=2) * 0.3
        xs = rng.normal(size=(4, 2))
        dh_steps = rng.normal(size=(4, 2))
        dh_fin = rng.normal(size=2)
        dc_fin = rng.normal(size=2)
        _, _, caches = lstm_forward(params, h0, c0, xs)
        grads = lstm_backward(params, caches, dh_steps, dh_fin, dc_fin)

        step = 1e-5
        for target, grad in ((h0, grads.dh0), (c0, grads.dc0)):
            for k in range(target.size):
                keep = target[k]
                target[k] = keep + step
                up = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
                target[k] = keep - step
                down = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
                target[k] = keep
                numeric = (up - down) / (2 * step)
                assert abs(numeric - grad[k]) / max(abs(numeric), abs(grad[k]), 1e-6) < 1e-4
        flat = xs.ravel()
        gx = grads.dx.ravel()
        for k in range(flat.size):
            keep = flat[k]
            flat[k] = keep + step
            up = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
            flat[k] = keep - step
            down = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
            flat[k] = keep
            numeric = (up - down) / (2 * step)
            assert abs(numeric - gx[k]) / max(abs(numeric), abs(gx[k]), 1e-6) < 1e-4


class TestParamAccounting:
    def test_formula_values(self):
        assert param_count(1, 1) == 12
        assert param_count(2, 5) == 64
        assert param_count(6, 26) == 792

    def test_matches_enumerated_scalars(self):
        for hidden in range(1, 9):
            for inputs in range(0, 41, 5):
                params = zeros_params(hidden, inputs)
                total = sum(arr.size for _, arr in params.arrays())
                assert total == param_count(hidden, inputs)

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            param_count(0, 3)


class TestInit:
    def test_deterministic(self):
        a = init_params(make_rng(5), 3, 4)
        b = init_params(make_rng(5), 3, 4)
        for (_, x), (_, y) in zip(a.arrays(), b.arrays()):
            np.testing.assert_array_equal(x, y)

    def test_weights_within_range(self):
        hidden, inputs = 4, 6
        a = (6.0 / (hidden + inputs + hidden)) ** 0.5
        params = init_params(make_rng(3), hidden, inputs)
        for name, arr in params.arrays():
            if name.startswith("w_"):
                assert np.all(np.abs(arr) <= a)

    def test_forget_bias_ones(self):
        params = init_params(make_rng(0), 3, 2)
        np.testing.assert_array_equal(params.b_f, np.ones(3))
        np.testing.assert_array_equal(params.b_i, np.zeros(3))
        np.testing.assert_array_equal(params.b_c, np.zeros(3))
        np.testing.assert_array_equal(params.b_o, np.zeros(3))

    def test_unknown_rule(self):
        with pytest.raises(ValueError, match="scale_rule"):
            init_params(make_rng(0), 2, 2, scale_rule="fancy")


def per_gate_oracle(gates, h_prev, c_prev, x, dh, dc):
    """The cell written gate by gate: four matmuls and three sigmoids forward,
    the textbook adjoints backward. `gates` maps w_f ... b_o to the arrays the
    cell was built from, so the fused layout is checked as well."""
    w, b = {k: gates["w_" + k] for k in "fico"}, {k: gates["b_" + k] for k in "fico"}

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    x_cat = np.concatenate([h_prev, x], axis=-1)
    f = sig(x_cat @ w["f"].T + b["f"])
    i = sig(x_cat @ w["i"].T + b["i"])
    cand = np.tanh(x_cat @ w["c"].T + b["c"])
    o = sig(x_cat @ w["o"].T + b["o"])
    c = f * c_prev + i * cand
    h = o * np.tanh(c)

    dc_total = dc + dh * o * (1.0 - np.tanh(c) ** 2)
    da = {
        "f": dc_total * c_prev * f * (1.0 - f),
        "i": dc_total * cand * i * (1.0 - i),
        "c": dc_total * i * (1.0 - cand**2),
        "o": dh * np.tanh(c) * o * (1.0 - o),
    }
    grads = {}
    for k in "fico":
        grads["w_" + k] = da[k].T @ x_cat
        grads["b_" + k] = da[k].sum(axis=0)
    dx_cat = sum(da[k] @ w[k] for k in "fico")
    n = h_prev.shape[-1]
    return h, c, grads, dx_cat[..., :n], dc_total * f, dx_cat[..., n:]


class TestFusedCell:
    @pytest.mark.parametrize("batch", [1, 16, 100])
    @pytest.mark.parametrize("hidden", [4, 36])
    def test_step_and_backward_match_per_gate_oracle(self, batch, hidden):
        rng = make_rng(1000 * batch + hidden)
        inputs = hidden + 3
        gates = {name: rng.normal(size=(hidden, hidden + inputs)) * 0.3
                 for name in ("w_f", "w_i", "w_c", "w_o")}
        gates.update({name: rng.normal(size=hidden) for name in ("b_f", "b_i", "b_c", "b_o")})
        params = LstmParams(**gates)
        h_prev, c_prev, dh, dc = (rng.normal(size=(batch, hidden)) for _ in range(4))
        x = rng.normal(size=(batch, inputs))

        h, c, cache = lstm_step(params, h_prev, c_prev, x)
        grads = zeros_params(hidden, inputs)
        dh_prev, dc_prev, dx = step_backward(params, cache, dh, dc, grads)

        oh, oc, ograds, odh_prev, odc_prev, odx = per_gate_oracle(gates, h_prev, c_prev, x, dh, dc)
        for got, want in ((h, oh), (c, oc), (dh_prev, odh_prev), (dc_prev, odc_prev), (dx, odx)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for name, arr in grads.arrays():
            np.testing.assert_allclose(arr, ograds[name], rtol=1e-12, atol=1e-12)

    def test_gate_views_write_through(self):
        params = zeros_params(3, 2)
        params.w_f[0, :2] = (3.0, 4.0)
        params.b_o[...] = 7.0
        params.w_c[2, 4] = -1.0
        # fused rows run f, i, o, c
        np.testing.assert_array_equal(params.W[0, :2], (3.0, 4.0))
        np.testing.assert_array_equal(params.b[6:9], 7.0)
        assert params.W[11, 4] == -1.0
        assert np.count_nonzero(params.W) == 3 and np.count_nonzero(params.b) == 3

    def test_fused_write_shows_in_views(self):
        params = init_params(make_rng(8), 2, 3)
        params.W[2:4] = 5.0
        np.testing.assert_array_equal(params.w_i, np.full((2, 5), 5.0))
        assert not np.any(params.w_f == 5.0)

    def test_copy_is_independent(self):
        params = init_params(make_rng(8), 2, 3)
        twin = params.copy()
        twin.w_o[...] = 0.0
        assert np.any(params.w_o != 0.0)

    def test_constructor_checks_gate_shapes(self):
        with pytest.raises(ValueError, match="w_c"):
            LstmParams(*(np.zeros((2, 4)) for _ in range(2)), np.zeros((2, 3)), np.zeros((2, 4)),
                       *(np.zeros(2) for _ in range(4)))
