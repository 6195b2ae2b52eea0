"""Single-layer LSTM cell: forward update and exact reverse-mode gradients.

The cell is small and fixed, so the gradients are written out by hand rather
than pulled from an autodiff framework; explicit formulas are what make the
finite-difference checks in the test suite meaningful.

Gate update for input x_t and previous state (h, c):

    f = sigmoid(w_f @ [h, x] + b_f)         forget gate
    i = sigmoid(w_i @ [h, x] + b_i)         input gate
    c~ = tanh(w_c @ [h, x] + b_c)           cell candidate
    c' = f * c + i * c~                     new cell state
    o = sigmoid(w_o @ [h, x] + b_o)         output gate
    h' = o * tanh(c')                       new hidden state

Every per-step signal accepts an optional leading batch dimension: x may be
(m,) or (batch, m) and h/c mirror it. A population of G cells trained in
lockstep stores W as (G, 4 * hidden, hidden + input) and b as (G, 4 *
hidden); its signals are then (G, batch, m), and member k computes exactly
what cell k computes on its own.

The four gates share one fused weight matrix W and bias b (see LstmParams),
so a forward step is one matmul, one sigmoid over the f, i, o slab and one
tanh for the candidate; a backward step forms the pre-activation adjoints of
all four gates as one slab and needs one matmul each for dW and dx.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .num import sigmoid

GATE_NAMES = ("w_f", "w_i", "w_c", "w_o", "b_f", "b_i", "b_c", "b_o")

# Row block of each gate inside the fused W and b. The three sigmoid gates
# come first, so one sigmoid call covers a contiguous 3*hidden slab.
GATE_ORDER = ("f", "i", "o", "c")


def _gate_view(name: str) -> property:
    """Read-only attribute returning gate `name`'s rows of the fused arrays,
    as a view: writing into it writes into W or b."""
    fused = "W" if name.startswith("w_") else "b"
    block = GATE_ORDER.index(name[2])

    def view(self) -> np.ndarray:
        n = self.hidden_size
        rows = slice(block * n, (block + 1) * n)
        return self.W[..., rows, :] if fused == "W" else self.b[..., rows]

    return property(view, doc=f"gate {name!r}: a view into {fused}")


class LstmParams:
    """One cell's parameters in fused form.

    W is (4 * hidden, hidden + input) and b is (4 * hidden,); their row
    blocks hold the gates in GATE_ORDER (f, i, o, c). The per-gate names in
    GATE_NAMES (w_f ... b_o) are views into W and b, and the constructor
    takes the eight per-gate arrays in GATE_NAMES order. A population's
    arrays carry a leading member axis: W (G, 4 * hidden, hidden + input),
    b (G, 4 * hidden).
    """

    __slots__ = ("W", "b")

    def __init__(self, w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o):
        gates = dict(zip(GATE_NAMES, (w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o)))
        hidden, cols = np.shape(w_f)
        for name, arr in gates.items():
            want = (hidden, cols) if name.startswith("w_") else (hidden,)
            if np.shape(arr) != want:
                raise ValueError(f"gate {name} has shape {np.shape(arr)}, expected {want}")
        self.W = np.concatenate([gates["w_" + g] for g in GATE_ORDER], dtype=np.float64)
        self.b = np.concatenate([gates["b_" + g] for g in GATE_ORDER], dtype=np.float64)

    @classmethod
    def fused(cls, W: np.ndarray, b: np.ndarray) -> "LstmParams":
        """Wrap existing fused arrays without copying them."""
        params = cls.__new__(cls)
        params.W, params.b = W, b
        return params

    w_f, w_i, w_c, w_o, b_f, b_i, b_c, b_o = (_gate_view(n) for n in GATE_NAMES)

    @property
    def hidden_size(self) -> int:
        return self.b.shape[-1] // 4

    @property
    def input_size(self) -> int:
        return self.W.shape[-1] - self.hidden_size

    def arrays(self) -> list[tuple[str, np.ndarray]]:
        """(name, per-gate view) pairs in GATE_NAMES order."""
        return [(name, getattr(self, name)) for name in GATE_NAMES]

    def copy(self) -> "LstmParams":
        return LstmParams.fused(self.W.copy(), self.b.copy())


def param_count(hidden: int, inputs: int) -> int:
    """Number of scalar parameters: 4 * (hidden^2 + hidden*inputs + hidden)."""
    if hidden < 1 or inputs < 0:
        raise ValueError(f"invalid sizes: hidden={hidden}, inputs={inputs}")
    return 4 * (hidden * hidden + hidden * inputs + hidden)


def zeros_params(hidden: int, inputs: int, population: int | None = None) -> LstmParams:
    """All-zero parameters; with `population`, for that many stacked cells."""
    lead = () if population is None else (population,)
    return LstmParams.fused(
        np.zeros(lead + (4 * hidden, hidden + inputs)), np.zeros(lead + (4 * hidden,))
    )


def init_params(
    rng: np.random.Generator,
    hidden: int,
    inputs: int,
    scale_rule: str = "glorot",
    forget_bias: float = 1.0,
) -> LstmParams:
    """Sample initial parameters.

    "glorot" draws weights uniform on [-a, a] with a = sqrt(6 / (fan_in +
    fan_out)) = sqrt(6 / (hidden + inputs + hidden)); "small" uses a fixed
    [-0.1, 0.1]. The forget-gate bias starts at `forget_bias` (1 by default,
    standard practice for gradient flow over long sequences); other biases
    start at zero. Draw order is fixed so a seed pins every entry.
    """
    cols = hidden + inputs
    if scale_rule == "glorot":
        a = math.sqrt(6.0 / (hidden + inputs + hidden))
    elif scale_rule == "small":
        a = 0.1
    else:
        raise ValueError(f"unknown scale_rule: {scale_rule!r}")
    w = [rng.uniform(-a, a, size=(hidden, cols)) for _ in range(4)]
    return LstmParams(
        *w,
        np.full(hidden, float(forget_bias)),
        np.zeros(hidden),
        np.zeros(hidden),
        np.zeros(hidden),
    )


@dataclass
class StepCache:
    """Intermediates of one forward step, retained for the backward pass."""

    x_cat: np.ndarray  # [h_prev, x] concatenated, (..., hidden + input)
    sig: np.ndarray    # sigmoid gates f, i, o side by side, (..., 3 * hidden)
    f: np.ndarray      # f, i and o_gate are views into sig
    i: np.ndarray
    o_gate: np.ndarray
    c_cand: np.ndarray
    c_prev: np.ndarray
    c_new: np.ndarray
    tanh_c: np.ndarray


@dataclass
class LstmGrads:
    """Gradients shaped like LstmParams, plus adjoints of the initial state
    and of every step input."""

    params: LstmParams
    dh0: np.ndarray
    dc0: np.ndarray
    dx: np.ndarray  # (steps, ..., input)


def lstm_step(
    params: LstmParams, h_prev: np.ndarray, c_prev: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, np.ndarray, StepCache]:
    """One forward update; returns (h, c, cache)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != params.input_size:
        raise ValueError(
            f"shape mismatch in lstm_step: input has length {x.shape[-1]}, "
            f"cell expects {params.input_size}"
        )
    n = params.hidden_size
    x_cat = np.concatenate([h_prev, x], axis=-1)
    if params.W.ndim == 2:
        a = x_cat @ params.W.T + params.b
    else:  # a population: (G, batch, in) @ (G, in, 4 * hidden)
        a = x_cat @ params.W.transpose(0, 2, 1) + params.b[:, None, :]
    sig = sigmoid(a[..., : 3 * n])
    f, i, o_gate = sig[..., :n], sig[..., n : 2 * n], sig[..., 2 * n :]
    c_cand = np.tanh(a[..., 3 * n :])
    c_new = f * c_prev + i * c_cand
    tanh_c = np.tanh(c_new)
    h = o_gate * tanh_c
    cache = StepCache(x_cat, sig, f, i, o_gate, c_cand, c_prev, c_new, tanh_c)
    return h, c_new, cache


def lstm_forward(
    params: LstmParams, h0: np.ndarray, c0: np.ndarray, xs
) -> tuple[np.ndarray, np.ndarray, list[StepCache]]:
    """Run the cell over a sequence of inputs.

    xs is (steps, ..., input); returns stacked hidden states (steps, ...,
    hidden), stacked cell states, and the caches. Empty xs yields empty
    stacks, leaving the state at (h0, c0).
    """
    h, c = np.asarray(h0, dtype=np.float64), np.asarray(c0, dtype=np.float64)
    hs, cs, caches = [], [], []
    for t, x in enumerate(xs):
        try:
            h, c, cache = lstm_step(params, h, c, x)
        except ValueError as exc:
            raise ValueError(f"step {t}: {exc}") from None
        hs.append(h)
        cs.append(c)
        caches.append(cache)
    if not hs:
        empty = np.zeros((0,) + h.shape)
        return empty, empty.copy(), caches
    return np.stack(hs), np.stack(cs), caches


def step_backward(
    params: LstmParams,
    cache: StepCache,
    dh: np.ndarray,
    dc: np.ndarray,
    grads: LstmParams,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Reverse one step; accumulates parameter gradients into `grads`.

    dh and dc are the adjoints of this step's outputs (already merged with
    anything flowing back from later steps). Returns (dh_prev, dc_prev, dx).
    """
    n = params.hidden_size
    sig = cache.sig
    dc_total = dc + dh * cache.o_gate * (1.0 - cache.tanh_c**2)
    dc_prev = dc_total * cache.f

    # pre-activation adjoints, one (..., 4 * hidden) slab in GATE_ORDER
    da = np.empty(dc_total.shape[:-1] + (4 * n,))
    np.multiply(dc_total, cache.c_prev, out=da[..., :n])
    np.multiply(dc_total, cache.c_cand, out=da[..., n : 2 * n])
    np.multiply(dh, cache.tanh_c, out=da[..., 2 * n : 3 * n])
    da_sig = da[..., : 3 * n]
    da_sig *= sig
    da_sig *= 1.0 - sig
    np.multiply(dc_total * cache.i, 1.0 - cache.c_cand**2, out=da[..., 3 * n :])

    # sum over the batch axis only; a population keeps one sum per member
    da_b, x_b = (da, cache.x_cat) if da.ndim > 1 else (da[None], cache.x_cat[None])
    if params.W.ndim == 2:
        grads.W += da_b.T @ x_b
    else:  # a population: (G, 4 * hidden, batch) @ (G, batch, in)
        grads.W += da_b.transpose(0, 2, 1) @ x_b
    grads.b += da_b.sum(axis=-2)

    dx_cat = da @ params.W
    return dx_cat[..., :n], dc_prev, dx_cat[..., n:]


def lstm_backward(
    params: LstmParams,
    caches: list[StepCache],
    dh_steps,
    dh_final: np.ndarray | None = None,
    dc_final: np.ndarray | None = None,
) -> LstmGrads:
    """Backpropagate through a forward run.

    dh_steps holds one adjoint per step's hidden output; dh_final/dc_final
    are optional extra adjoints on the final state. Gradients accumulate
    across time.
    """
    steps = len(caches)
    if len(dh_steps) != steps:
        raise ValueError(
            f"adjoint/tape length mismatch: {len(dh_steps)} adjoints for "
            f"{steps} cached steps"
        )
    grads = zeros_params(params.hidden_size, params.input_size)
    if steps == 0:
        zero = np.zeros(params.hidden_size)
        dh0 = zero if dh_final is None else np.asarray(dh_final, dtype=np.float64)
        dc0 = zero.copy() if dc_final is None else np.asarray(dc_final, dtype=np.float64)
        return LstmGrads(grads, dh0, dc0, np.zeros((0, params.input_size)))

    like = np.asarray(dh_steps[-1], dtype=np.float64)
    dh_carry = np.zeros_like(like) if dh_final is None else np.asarray(dh_final, dtype=np.float64)
    dc_carry = np.zeros_like(like) if dc_final is None else np.asarray(dc_final, dtype=np.float64)
    dxs = [None] * steps
    for t in range(steps - 1, -1, -1):
        dh_t = np.asarray(dh_steps[t], dtype=np.float64) + dh_carry
        dh_carry, dc_carry, dxs[t] = step_backward(params, caches[t], dh_t, dc_carry, grads)
    return LstmGrads(grads, dh_carry, dc_carry, np.stack(dxs))
