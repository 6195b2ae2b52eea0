"""LSTM cell: forward semantics, gradient exactness, initialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faultcast.lstm import (
    DOT_MACS, GATE_ORDER, LstmParams, Unroll, init_params, lstm_step, unroll, unroll_backward,
)
from faultcast.model import (ModelDims, forward, init_model, param_items, param_size,
                             stack_models)
from faultcast.num import make_rng, sigmoid


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


def fused(gates):
    """The LstmParams of per-gate arrays {"w_f": ..., "b_o": ...}, the row
    blocks concatenated in the fused layout's order f, i, o, c, written out
    here so that the layout is checked independently."""
    return LstmParams(np.concatenate([gates[k] for k in ("w_f", "w_i", "w_o", "w_c")]),
                      np.concatenate([gates[k] for k in ("b_f", "b_i", "b_o", "b_c")]))


def zero_cell(hidden, inputs):
    return LstmParams(np.zeros((4 * hidden, hidden + inputs)), np.zeros(4 * hidden))


def cell_weights(w, rec, batch):
    """The weights an Unroll reads, from columns w (..., 4L, R + I + 1) =
    [W_rec | W_x | b]: W_rec, then W_rec, W_x and b with their f, i, o rows
    halved, b as a gates row (4L, ..., batch), written here so that the
    model's weight block is checked independently."""
    half = w.copy()
    half[..., : 3 * (w.shape[-2] // 4), :] *= 0.5
    b = np.repeat(np.moveaxis(half[..., -1:], -2, 0), batch, axis=-1)
    return w[..., :rec], half[..., :rec], half[..., rec:-1], b


def plain_cell(params, h0, c0, steps, taped=True):
    """An Unroll of the plain cell: z = h, and W's columns are [h | x]
    already, so the weight block is [W | b]. h0, c0 are (hidden, batch)."""
    w = np.concatenate([params.W, params.b[:, None]], axis=1)
    return Unroll(cell_weights(w, h0.shape[0], h0.shape[-1]), h0, c0, steps, taped)


def unroll_cell(params, h0, c0, xs, taped=True):
    """The plain cell run over xs (steps, inputs, batch) from (h0, c0);
    returns the unroll, whose z rows 1.. are the hidden states."""
    cell = plain_cell(params, h0, c0, len(xs), taped)
    unroll(cell, [xs])
    return cell


def step(params, h_prev, c_prev, x):
    """One step of the plain cell on (m,) or (m, batch) signals; returns
    (h, c, cell)."""
    col = h_prev.ndim == 1
    h_prev, c_prev, x = (v[:, None] if col else v for v in (h_prev, c_prev, x))
    cell = unroll_cell(params, h_prev, c_prev, x[None])
    h, c = cell.z[1], cell.c[1]
    return (h[:, 0], c[:, 0], cell) if col else (h, c, cell)


class TestStep:
    def test_all_zero_params(self):
        params = zero_cell(3, 2)
        h, c, cell = step(params, np.zeros(3), np.zeros(3), np.array([1.0, -2.0]))
        np.testing.assert_array_equal(h, np.zeros(3))
        np.testing.assert_array_equal(c, np.zeros(3))
        f, i, o, c_cand = cell.gates4[0]  # gate values, rows f, i, o, c~
        np.testing.assert_allclose(f, 0.5)
        np.testing.assert_allclose(i, 0.5)
        np.testing.assert_allclose(o, 0.5)
        np.testing.assert_array_equal(c_cand, np.zeros((3, 1)))

    def test_zero_params_nonzero_cell(self):
        params = zero_cell(1, 1)
        h, c, _ = step(params, np.zeros(1), np.array([1.0]), np.array([0.0]))
        np.testing.assert_allclose(c, [0.5], atol=1e-15)
        np.testing.assert_allclose(h, [0.5 * math.tanh(0.5)], atol=1e-15)
        np.testing.assert_allclose(h, [0.23105857863], atol=1e-11)

    def test_matches_scalar_oracle(self):
        params = fused({k: np.full((1, 2), 0.1) for k in ("w_f", "w_i", "w_c", "w_o")}
                       | {k: np.zeros(1) for k in ("b_f", "b_i", "b_c", "b_o")})
        h, c, _ = step(params, np.zeros(1), np.zeros(1), np.array([1.0]))
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
            params = fused(dict(zip(("w_f", "w_i", "w_c", "w_o", "b_f", "b_i", "b_c", "b_o"),
                                    mats + biases)))
            h_prev, c_prev, x = rng.normal(size=3)
            h, c, _ = step(params, np.array([h_prev]), np.array([c_prev]), np.array([x]))
            oh, oc = scalar_cell_oracle(
                *(tuple(m[0]) for m in mats),
                *(float(b[0]) for b in biases),
                h_prev=h_prev, c_prev=c_prev, x=x,
            )
            np.testing.assert_allclose(h, [oh], atol=1e-12)
            np.testing.assert_allclose(c, [oc], atol=1e-12)

    def test_input_width_checked(self):
        with pytest.raises(ValueError, match="length 3"):
            step(zero_cell(2, 2), np.zeros(2), np.zeros(2), np.zeros(3))

    def test_batched_equals_stacked_single(self):
        rng = make_rng(3)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(2, 4))  # (inputs, batch)
        h0 = rng.normal(size=3) * 0.1
        c0 = rng.normal(size=3) * 0.1
        hb, cb, _ = step(params, np.tile(h0[:, None], 4), np.tile(c0[:, None], 4), xs)
        # batched GEMM and single GEMV may round differently in the last ulp
        for k in range(4):
            hk, ck, _ = step(params, h0, c0, xs[:, k])
            np.testing.assert_allclose(hb[:, k], hk, rtol=1e-14, atol=1e-15)
            np.testing.assert_allclose(cb[:, k], ck, rtol=1e-14, atol=1e-15)

    def test_unroll_is_chained_steps(self):
        # unroll projects the inputs, then calls lstm_step once per step
        rng = make_rng(21)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(5, 2, 4))
        h0, c0 = (rng.normal(size=(3, 4)) * 0.1 for _ in range(2))
        want = unroll_cell(params, h0, c0, xs)
        cell = plain_cell(params, h0, c0, len(xs))
        cell.x = xs
        np.matmul(cell.w_x_half, xs, out=cell.gates)
        cell.gates += cell.b_half
        for t in range(len(xs)):
            h = lstm_step(cell, t)
            assert np.shares_memory(h, cell.z[t + 1])
        for name in ("z", "c", "gates", "tanh_c"):
            assert getattr(cell, name).tobytes() == getattr(want, name).tobytes(), name

    def test_untaped_window_keeps_two_rows_and_same_state(self):
        rng = make_rng(22)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(6, 2, 5))
        h0, c0 = (rng.normal(size=(3, 5)) * 0.1 for _ in range(2))
        taped = unroll_cell(params, h0, c0, xs)
        untaped = unroll_cell(params, h0, c0, xs, taped=False)
        assert len(untaped.z) == len(untaped.c) == 2 and len(untaped.gates) == 1
        for got, want in zip(untaped.state(), taped.state()):
            assert got.tobytes() == want.tobytes()


def unroll_backward_cell(params, cell, dh_steps, dh_fin, dc_fin):
    """unroll_backward on a plain-cell unroll; returns the parameter
    gradients, the adjoints of h0 and c0 and the stacked input adjoints,
    each input adjoint read from the step's row of the adjoint slab."""
    dh0, dc0, dW, db = unroll_backward(cell, dh_steps, dh_fin, dc_fin)
    grads = LstmParams(dW, db)
    dxs = np.stack([params.W[:, cell.n :].T @ da for da in cell.gates])
    return grads, dh0, dc0, dxs


def one_sample(rng, dims):
    """(obs, ctx) of one sample, as a batch of one."""
    return (rng.normal(size=(1, dims.tau, dims.d_obs)),
            rng.normal(size=(1, dims.total_steps, dims.d_ctx)))


def column(v):
    return np.asarray(v)[:, None]


def model_cell_step(w, h, c, x, feedback=False):
    """One step of a one-sample Unroll over the weight columns w, the way
    model.forward runs a cell; returns (h, c) as (hidden,) vectors."""
    cell = Unroll(cell_weights(w, len(h) * (1 + feedback), 1), column(h), column(c), 1,
                  feedback=feedback)
    unroll(cell, [column(x)[None]])
    return tuple(v[:, 0] for v in cell.state())


class TestForward:
    # The hand-chained steps use the model's weight blocks: the encoder's two
    # h column blocks summed into one, the decoder's [h | sigmoid(h)] blocks
    # side by side, each followed by the input columns and b.
    def test_single_step_equals_step(self):
        # tau 0, horizon 1: one decoder step from the zero state, fed
        # sigmoid(0) as its first estimate
        rng = make_rng(1)
        dims = ModelDims(n_labels=2, d_obs=1, d_ctx=3, tau=0, total_steps=1)
        model = init_model(rng, dims)
        obs, ctx = one_sample(rng, dims)
        pred = forward(model, obs, ctx)[0]
        W, b, zero = model.decoder.W, model.decoder.b, np.zeros(2)
        w = np.concatenate([W[:, :2], W[:, 5:], W[:, 2:5], column(b)], axis=1)
        h, _ = model_cell_step(w, zero, zero, ctx[0, 0], feedback=True)
        np.testing.assert_array_equal(pred.step_hidden[0, 0], h)

    def test_three_steps_equal_chained_calls(self):
        # tau 1, horizon 2: one encoder step, then two decoder steps, each
        # fed sigmoid of the previous hidden state
        rng = make_rng(2)
        dims = ModelDims(n_labels=2, d_obs=2, d_ctx=1, tau=1, total_steps=3)
        model = init_model(rng, dims)
        obs, ctx = one_sample(rng, dims)
        pred = forward(model, obs, ctx)[0]
        W, b = model.encoder.W, model.encoder.b
        w = np.concatenate([W[:, :2] + W[:, 5:], W[:, 2:5], column(b)], axis=1)
        h, c = model_cell_step(w, np.zeros(2), np.zeros(2), np.concatenate([obs[0, 0], ctx[0, 0]]))
        W, b = model.decoder.W, model.decoder.b
        w = np.concatenate([W[:, :2], W[:, 3:], W[:, 2:3], column(b)], axis=1)
        for t in (1, 2):
            h, c = model_cell_step(w, h, c, ctx[0, t], feedback=True)
            np.testing.assert_array_equal(pred.step_hidden[0, t - 1], h)

    def test_hidden_state_bounded(self):
        rng = make_rng(9)
        params = init_params(rng, 4, 3)
        xs = rng.normal(size=(50, 3, 1)) * 5.0
        hs = unroll_cell(params, np.zeros((4, 1)), np.zeros((4, 1)), xs).z[1:]
        assert np.all(np.abs(hs) < 1.0)

    def test_deterministic(self):
        rng = make_rng(4)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(6, 2, 1))
        a = unroll_cell(params, np.zeros((3, 1)), np.zeros((3, 1)), xs).z
        b = unroll_cell(params, np.zeros((3, 1)), np.zeros((3, 1)), xs).z
        np.testing.assert_array_equal(a, b)


def fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin):
    """Linear functional of the outputs whose gradient unroll_backward returns."""
    cell = unroll_cell(params, h0, c0, xs)
    hs, cs = cell.z[1:], cell.c[1:]
    return float(np.sum(dh_steps * hs) + np.sum(dh_fin * hs[-1]) + np.sum(dc_fin * cs[-1]))


class TestBackward:
    def test_zero_adjoints_zero_grads(self):
        rng = make_rng(6)
        params = init_params(rng, 3, 2)
        xs = rng.normal(size=(5, 2, 1))
        zero = np.zeros((3, 1))
        cell = unroll_cell(params, zero, zero, xs)
        grads, _, _, dx = unroll_backward_cell(params, cell, np.zeros((5, 3, 1)), zero, zero)
        for arr in grads:
            np.testing.assert_array_equal(arr, np.zeros_like(arr))
        np.testing.assert_array_equal(dx, np.zeros((5, 2, 1)))

    def test_causality_of_input_grads(self):
        # Adjoints only on step 1 (and none on the final state): inputs after
        # step 1 cannot influence the loss, so their gradients vanish.
        rng = make_rng(10)
        params = init_params(rng, 2, 3)
        xs = rng.normal(size=(5, 3, 1))
        zero = np.zeros((2, 1))
        cell = unroll_cell(params, zero, zero, xs)
        dh = np.zeros((5, 2, 1))
        dh[1] = rng.normal(size=(2, 1))
        _, _, _, dx = unroll_backward_cell(params, cell, dh, zero, zero)
        np.testing.assert_array_equal(dx[2:], np.zeros((3, 3, 1)))
        assert np.any(dx[1] != 0.0)

    @pytest.mark.parametrize("seed", range(20))
    def test_gradients_match_finite_differences(self, seed):
        rng = make_rng(100 + seed)
        hidden = int(rng.integers(1, 4))
        inputs = int(rng.choice([1, 2, 5]))
        steps = int(rng.integers(1, 9))
        params = init_params(rng, hidden, inputs)
        h0 = column(rng.normal(size=hidden) * 0.3)
        c0 = column(rng.normal(size=hidden) * 0.3)
        xs = rng.normal(size=(steps, inputs))[..., None]
        dh_steps = rng.normal(size=(steps, hidden))[..., None]
        dh_fin = column(rng.normal(size=hidden))
        dc_fin = column(rng.normal(size=hidden))

        cell = unroll_cell(params, h0, c0, xs)
        grads = unroll_backward_cell(params, cell, dh_steps, dh_fin, dc_fin)[0]

        step = 1e-5
        worst = 0.0
        for arr, garr in zip(params, grads):
            flat = arr.ravel()
            gflat = garr.ravel()
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
        h0 = column(rng.normal(size=2) * 0.3)
        c0 = column(rng.normal(size=2) * 0.3)
        xs = rng.normal(size=(4, 2))[..., None]
        dh_steps = rng.normal(size=(4, 2))[..., None]
        dh_fin = column(rng.normal(size=2))
        dc_fin = column(rng.normal(size=2))
        cell = unroll_cell(params, h0, c0, xs)
        _, dh0, dc0, dx = unroll_backward_cell(params, cell, dh_steps, dh_fin, dc_fin)

        step = 1e-5
        for target, grad in ((h0, dh0), (c0, dc0)):
            for k in range(target.size):
                keep = target[k, 0]
                target[k, 0] = keep + step
                up = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
                target[k, 0] = keep - step
                down = fd_loss(params, h0, c0, xs, dh_steps, dh_fin, dc_fin)
                target[k, 0] = keep
                numeric = (up - down) / (2 * step)
                g = grad[k, 0]
                assert abs(numeric - g) / max(abs(numeric), abs(g), 1e-6) < 1e-4
        flat = xs.ravel()
        gx = dx.ravel()
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
    """A cell of hidden h over i inputs has 4 (h^2 + h i + h) parameters:
    each gate's (h, h + i) weight row block and (h,) bias block."""

    @staticmethod
    def cell_size(hidden, inputs):
        return sum(arr.size for arr in init_params(make_rng(0), hidden, inputs))

    def test_formula_values(self):
        assert self.cell_size(1, 1) == 12
        assert self.cell_size(2, 5) == 64
        assert self.cell_size(6, 26) == 792

    def test_matches_enumerated_scalars(self):
        for hidden in range(1, 9):
            for inputs in range(0, 41, 5):
                params = init_params(make_rng(hidden + inputs), hidden, inputs)
                total = 0
                for block, _ in enumerate(GATE_ORDER):
                    rows = slice(block * hidden, (block + 1) * hidden)
                    assert params.W[rows].shape == (hidden, hidden + inputs)
                    assert params.b[rows].shape == (hidden,)
                    total += params.W[rows].size + params.b[rows].size
                assert total == params.W.size + params.b.size
                assert total == 4 * (hidden * hidden + hidden * inputs + hidden)


class TestInit:
    def test_deterministic(self):
        a = init_params(make_rng(5), 3, 4)
        b = init_params(make_rng(5), 3, 4)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)

    def test_weights_within_range(self):
        hidden, inputs = 4, 6
        a = (6.0 / (hidden + inputs + hidden)) ** 0.5
        params = init_params(make_rng(3), hidden, inputs)
        assert np.all(np.abs(params.W) <= a)

    def test_forget_bias_ones(self):
        params = init_params(make_rng(0), 3, 2)
        np.testing.assert_array_equal(params.b, [1.0] * 3 + [0.0] * 9)  # rows f, i, o, c

    def test_matches_reference_draw(self):
        # four glorot draws in the order f, i, c, o pin every seeded theta
        hidden, inputs = 3, 4
        rng = make_rng(11)
        a = math.sqrt(6.0 / (hidden + inputs + hidden))
        w = [rng.uniform(-a, a, size=(hidden, hidden + inputs)) for _ in range(4)]
        want = fused(dict(zip(("w_f", "w_i", "w_c", "w_o"), w))
                     | {"b_f": np.ones(hidden), "b_i": np.zeros(hidden),
                        "b_c": np.zeros(hidden), "b_o": np.zeros(hidden)})
        got = init_params(make_rng(11), hidden, inputs)
        assert got.W.tobytes() == want.W.tobytes()
        assert got.b.tobytes() == want.b.tobytes()


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
        params = fused(gates)
        h_prev, c_prev, dh, dc = (rng.normal(size=(batch, hidden)) for _ in range(4))
        x = rng.normal(size=(batch, inputs))

        # the cell is feature-major: signals go in and come out as (m, batch)
        cell = unroll_cell(params, h_prev.T, c_prev.T, x.T[None])
        h, c = cell.z[1].T, cell.c[1].T
        grads, dh_prev, dc_prev, dx = unroll_backward_cell(params, cell, None, dh.T, dc.T)
        dh_prev, dc_prev, dx = dh_prev.T, dc_prev.T, dx[0].T

        oh, oc, ograds, odh_prev, odc_prev, odx = per_gate_oracle(gates, h_prev, c_prev, x, dh, dc)
        for got, want in ((h, oh), (c, oc), (dh_prev, odh_prev), (dc_prev, odc_prev), (dx, odx)):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        for got, want in zip(grads, fused(ograds)):
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)

    def test_gate_views_write_through(self):
        # hidden 3, encoder input 4: the model file's per-gate views of the
        # encoder are views of its fused W and b
        model = init_model(make_rng(0), ModelDims(3, 1, 0, 2, 4))
        model.theta[...] = 0.0
        views = dict(param_items(model))
        views["encoder.w_f"][0, :2] = (3.0, 4.0)
        views["encoder.b_o"][...] = 7.0
        views["encoder.w_c"][2, 4] = -1.0
        # fused rows run f, i, o, c
        cell = model.encoder
        np.testing.assert_array_equal(cell.W[0, :2], (3.0, 4.0))
        np.testing.assert_array_equal(cell.b[6:9], 7.0)
        assert cell.W[11, 4] == -1.0
        assert np.count_nonzero(cell.W) == 3 and np.count_nonzero(cell.b) == 3
        assert np.count_nonzero(model.theta) == 6

    def test_fused_write_shows_in_views(self):
        dims = ModelDims(2, 1, 1, 2, 4)
        model = init_model(make_rng(8), dims)
        assert model.theta.size == param_size(dims)
        model.encoder.W[2:4] = 5.0
        views = dict(param_items(model))
        np.testing.assert_array_equal(views["encoder.w_i"], np.full((2, 2 + dims.enc_input), 5.0))
        assert not np.any(views["encoder.w_f"] == 5.0)
        assert not np.any(views["decoder.w_i"] == 5.0)


def population_unroll(rng, members, hidden, inputs, batch, steps, taped=True, feedback=False):
    """An Unroll of `members` random cells over a (steps, inputs, members,
    batch) input, each member's weights [W_rec | W_x | b]; returns the
    unroll, its weights, initial state and input."""
    rec = 2 * hidden if feedback else hidden
    w = rng.normal(size=(members, 4 * hidden, rec + inputs + 1))
    h0, c0 = (rng.normal(size=(hidden, members, batch)) for _ in range(2))
    xs = rng.normal(size=(steps, inputs, members, batch))
    cell = Unroll(cell_weights(w, rec, batch), h0, c0, steps, taped, feedback)
    unroll(cell, [xs])
    return cell, w, h0, c0, xs


class TestSlabLayout:
    """The member axis sits beside the batch, so every gate block, the
    sigmoid block and every c, tanh(c), h and sigmoid(h) row a step touches
    is one C-contiguous block at any population size."""

    @settings(max_examples=30, deadline=None)
    @given(members=st.sampled_from((1, 2, 9)), hidden=st.integers(1, 3),
           inputs=st.integers(0, 2), batch=st.integers(1, 4), steps=st.integers(1, 3),
           taped=st.booleans(), feedback=st.booleans(), seed=st.integers(0, 2**16))
    def test_step_views_are_contiguous(self, members, hidden, inputs, batch, steps, taped,
                                       feedback, seed):
        cell = population_unroll(make_rng(seed), members, hidden, inputs, batch, steps, taped,
                                 feedback)[0]
        # fwd: a, f, i, o, c~, sig, c, c', tanh(c'), z (member-first), h', sigmoid(h')
        views = [v for fwd in cell.fwd for k, v in enumerate(fwd) if k != 9 and v is not None]
        # bwd: da, df, di, do, dc~, tanh(c), c, sigmoid(h), da (member-first)
        views += [v for bwd in cell.bwd for v in bwd[:-1] if v is not None]
        views += list(cell.z[:, :hidden]) + list(cell.z[:, hidden:]) + list(cell.c)
        views += list(cell.tanh_c)
        assert views and all(v.flags.c_contiguous for v in views)


class TestPopulationSteps:
    """A population's lstm_step and step_backward compute, per member, bit
    for bit what the member computes alone, at the shapes where a product
    over a strided adjoint view rounds differently: a batch of 1-3, 1-3
    hidden units and 0-2 input columns."""

    @pytest.mark.parametrize("feedback", [False, True])
    @pytest.mark.parametrize("inputs", [0, 1, 2])
    def test_members_equal_solo_cells(self, feedback, inputs):
        rng = make_rng(31 + 2 * inputs + feedback)
        for hidden in (1, 2, 3):
            for batch in (1, 2, 3):
                members, steps = 5, 3
                cell, w, h0, c0, xs = population_unroll(rng, members, hidden, inputs, batch,
                                                        steps, feedback=feedback)
                dh_steps, dh, dc = (rng.normal(size=(steps,) * k + (hidden, members, batch))
                                    for k in (1, 0, 0))
                forward_slabs = [getattr(cell, name).copy() for name in ("z", "c", "tanh_c")]
                got = unroll_backward(cell, dh_steps, dh, dc)
                for k in range(members):
                    solo = Unroll(cell_weights(w[k], hidden * (1 + feedback), batch), h0[:, k],
                                  c0[:, k], steps, feedback=feedback)
                    unroll(solo, [xs[:, :, k]])
                    for slab, name in zip(forward_slabs, ("z", "c", "tanh_c")):
                        assert slab[:, :, k].tobytes() == getattr(solo, name).tobytes(), name
                    want = unroll_backward(solo, dh_steps[:, :, k], dh[:, k], dc[:, k])
                    assert got[0][:, k].tobytes() == want[0].tobytes()  # dh0
                    assert got[1][:, k].tobytes() == want[1].tobytes()  # dc0
                    assert got[2][k].tobytes() == want[2].tobytes()  # dW
                    assert got[3][k].tobytes() == want[3].tobytes()  # db
                    assert cell.gates[:, :, k].tobytes() == solo.gates.tobytes()  # adjoints


class TestSingleModelProducts:
    """One cell with C-contiguous weights, as model.forward builds it, takes
    np.dot for W_rec z and W_rec^T da up to DOT_MACS multiply-adds: the bits
    of a member of a population with contiguous weights, whose products go
    through matmul. Strided weights and larger products keep matmul."""

    @settings(max_examples=25, deadline=None)
    @given(members=st.integers(2, 9), hidden=st.integers(1, 36), inputs=st.integers(0, 3),
           batch=st.integers(1, 128), steps=st.integers(1, 3), feedback=st.booleans(),
           seed=st.integers(0, 2**16))
    def test_dot_cell_equals_population_member(self, members, hidden, inputs, batch, steps,
                                                feedback, seed):
        rng = make_rng(seed)
        rec = hidden * (1 + feedback)
        w = rng.normal(size=(members, 4 * hidden, rec + inputs + 1))
        h0, c0 = (rng.normal(size=(hidden, members, batch)) for _ in range(2))
        xs = rng.normal(size=(steps, inputs, members, batch))
        dh_steps, dh, dc = (rng.normal(size=(steps,) * k + (hidden, members, batch))
                            for k in (1, 0, 0))

        def contiguous(w):
            return [np.ascontiguousarray(a) for a in cell_weights(w, rec, batch)]

        cell = Unroll(contiguous(w), h0, c0, steps, feedback=feedback)
        unroll(cell, [xs])
        forward_slabs = [getattr(cell, name).copy() for name in ("z", "c", "tanh_c")]
        got = unroll_backward(cell, dh_steps, dh, dc)
        k = int(rng.integers(members))
        strided = Unroll(cell_weights(w[k], rec, batch), h0[:, k], c0[:, k], steps,
                         feedback=feedback)
        assert strided.product is np.matmul
        solo = Unroll(contiguous(w[k]), h0[:, k], c0[:, k], steps, feedback=feedback)
        small = 4 * hidden * rec * batch <= DOT_MACS
        assert cell.product is np.matmul and solo.product is (np.dot if small else np.matmul)
        unroll(solo, [xs[:, :, k]])
        for slab, name in zip(forward_slabs, ("z", "c", "tanh_c")):
            assert slab[:, :, k].tobytes() == getattr(solo, name).tobytes(), name
        want = unroll_backward(solo, dh_steps[:, :, k], dh[:, k], dc[:, k])
        for j, name in enumerate(("dh0", "dc0")):
            assert got[j][:, k].tobytes() == want[j].tobytes(), name
        for j, name in enumerate(("dW", "db"), start=2):
            assert got[j][k].tobytes() == want[j].tobytes(), name

    def test_model_forward_takes_dot_for_one_model_only(self):
        dims = ModelDims(n_labels=3, d_obs=2, d_ctx=1, tau=2, total_steps=4)
        model = init_model(make_rng(3), dims)
        obs, ctx = one_sample(make_rng(4), dims)
        tape = forward(model, obs, ctx)[1]
        assert tape.encoder.product is np.dot and tape.decoder.product is np.dot
        population = stack_models([model, init_model(make_rng(5), dims)])
        tape = forward(population, obs, ctx)[1]
        assert tape.encoder.product is np.matmul and tape.decoder.product is np.matmul

    def test_large_products_keep_matmul(self):
        # score_long's shape: 36 labels, 100 samples, where dot is the slower call
        dims = ModelDims(n_labels=36, d_obs=2, d_ctx=1, tau=2, total_steps=4)
        model = init_model(make_rng(3), dims)
        obs, ctx = one_sample(make_rng(4), dims)
        tape = forward(model, np.repeat(obs, 100, 0), np.repeat(ctx, 100, 0))[1]
        assert tape.encoder.product is np.matmul and tape.decoder.product is np.matmul
        tape = forward(model, obs, ctx)[1]
        assert tape.encoder.product is np.dot and tape.decoder.product is np.dot
