"""Single-layer LSTM cell on feature-major slabs: forward update and exact
reverse-mode gradients, written out by hand so that the finite-difference
checks in the test suite are meaningful.

Gate update for input x_t and previous state (h, c):

    f = sigmoid(w_f @ [h, x] + b_f)         forget gate
    i = sigmoid(w_i @ [h, x] + b_i)         input gate
    c~ = tanh(w_c @ [h, x] + b_c)           cell candidate
    c' = f * c + i * c~                     new cell state
    o = sigmoid(w_o @ [h, x] + b_o)         output gate
    h' = o * tanh(c')                       new hidden state

A cell is its fused W (4L, L + I) and b (4L,) (LstmParams), the gates' row
blocks in GATE_ORDER; a population of G cells has W (G, 4L, L + I), b (G,
4L), and member k computes exactly what cell k computes alone. The per-gate
names w_f ... b_o exist only in the model file (model.param_items).

An Unroll runs a cell over T steps for a batch of B on slabs (T, ..., rows,
B), one per cached quantity: time-major, the batch last, the member axis (if
any) before the rows, so each gate's rows in a step are contiguous. The
slabs are the tape. The inputs of a window of steps are projected by one
matmul before the loop; the f, i, o rows are halved once, so one tanh over
the 4L block gives every gate (sigmoid(a) = 1/2 + tanh(a/2)/2); each step
writes its h straight into the next step's recurrent input row. Backward
forms the local derivatives once over the slabs, in place, scales them step
by step into the adjoint slab and gets dW and db from one matmul and one sum
over the (time x batch) columns (Appleyard et al. 2016, arXiv:1604.01946).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# Row block of each gate inside the fused W and b. The three sigmoid gates
# come first, so their rows form one contiguous 3*hidden block.
GATE_ORDER = ("f", "i", "o", "c")


class LstmParams(NamedTuple):
    """One cell's parameters: W (4 * hidden, hidden + input) and b (4 *
    hidden,), their row blocks the gates in GATE_ORDER. A population's
    carry a leading member axis: W (G, 4 * hidden, hidden + input), b (G,
    4 * hidden)."""

    W: np.ndarray
    b: np.ndarray


def init_params(rng: np.random.Generator, hidden: int, inputs: int) -> LstmParams:
    """Sample initial parameters.

    Each gate's weights are uniform on [-a, a] with a = sqrt(6 / (fan_in +
    fan_out)) = sqrt(6 / (hidden + inputs + hidden)) (glorot), drawn in the
    order f, i, c, o, so a seed pins every entry. The forget-gate bias
    starts at 1 (standard practice for gradient flow over long sequences),
    the other biases at zero.
    """
    a = math.sqrt(6.0 / (hidden + inputs + hidden))
    w = {g: rng.uniform(-a, a, size=(hidden, hidden + inputs)) for g in "fico"}
    return LstmParams(
        np.concatenate([w[g] for g in GATE_ORDER]),
        np.concatenate([np.full(hidden, float(g == "f")) for g in GATE_ORDER]),
    )


def _sigmoid_into(v: np.ndarray, out: np.ndarray) -> None:
    """out = sigmoid(v), as 1/2 + tanh(v/2)/2."""
    np.multiply(v, 0.5, out=out)
    np.tanh(out, out=out)
    out *= 0.5
    out += 0.5


def _steps_to_columns(a: np.ndarray) -> np.ndarray:
    """A (T, ..., rows, B) slab as a (..., rows, T, B) view."""
    k = a.ndim
    return a.transpose(tuple(range(1, k - 1)) + (0, k - 1))


class Unroll:
    """One cell's weights and slabs for `steps` steps.

    w (..., 4L, R + I + 1) holds the columns [W_rec | W_x | b]; h0 and c0
    (..., L, B) are the initial state. The recurrent input z is [h;
    sigmoid(h)] with feedback (R = 2L), else h (R = L). Taped, every slab
    keeps all steps; untaped, only z does, and only with feedback. Slabs,
    step t in row t % rows: z (steps + 1 or 2 rows), z[0] from h0; gates
    (window, ..., 4L, B), gate-major as gates4 (window, 4, ..., L, B); c
    (window + 1 rows), c[0] = c0; tanh_c (window rows); x (steps, ..., I,
    B), taped only.
    """

    __slots__ = ("n", "steps", "window", "feedback", "w_rec_t", "w_rec_half", "w_x_half",
                 "b_half", "x", "z", "gates", "gates4", "c", "tanh_c")

    def __init__(self, w, h0, c0, steps: int, taped: bool = True, feedback: bool = False):
        *lead, n, batch = h0.shape
        lead, rec = tuple(lead), 2 * n if feedback else n
        if w.shape[-2] != 4 * n or w.shape[-1] <= rec:
            raise ValueError(f"shape mismatch: weights {w.shape} for hidden {n}, recurrent {rec}")
        self.n, self.steps, self.feedback = n, steps, feedback
        self.window = max(steps, 1) if taped else 1
        half = w.copy()
        half[..., : 3 * n, :] *= 0.5  # exact
        self.w_rec_t, self.w_rec_half = w[..., :rec].swapaxes(-1, -2), half[..., :rec]
        self.w_x_half, self.b_half = half[..., rec:-1], half[..., -1:]
        self.x = np.empty((0,) + lead + (w.shape[-1] - rec - 1, batch))
        self.z = np.empty((steps + 1 if taped or feedback else 2,) + lead + (rec, batch))
        self.z[0, ..., :n, :] = h0
        if feedback:
            _sigmoid_into(h0, self.z[0, ..., n:, :])
        self.gates = np.empty((self.window,) + lead + (4 * n, batch))
        self.gates4 = np.moveaxis(self.gates.reshape(self.gates.shape[:-2] + (4, n, batch)), -3, 1)
        self.c = np.empty((self.window + 1,) + lead + (n, batch))
        self.c[0] = c0
        self.tanh_c = np.empty((self.window,) + lead + (n, batch))

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """(h, c) after the last step, as views."""
        t = self.steps
        return self.z[t % len(self.z), ..., : self.n, :], self.c[t % len(self.c)]


def unroll(cell: Unroll, parts: list[np.ndarray]) -> None:
    """Run every step of `cell`; a step's x is the concatenation along the
    features of `parts`, feature-major inputs (steps, ..., d, B)."""
    for start in range(0, cell.steps, cell.window):
        stop = min(start + cell.window, cell.steps)
        x = np.concatenate([p[start:stop] for p in parts], axis=-2)
        if x.shape[-2] != cell.w_x_half.shape[-1]:
            raise ValueError(f"shape mismatch in unroll: input has length {x.shape[-2]}, "
                             f"cell expects {cell.w_x_half.shape[-1]}")
        gates = cell.gates[: stop - start]
        np.matmul(cell.w_x_half, x, out=gates)
        gates += cell.b_half
        if cell.window == cell.steps:
            cell.x = x
        for t in range(start, stop):
            lstm_step(cell, t)


def lstm_step(cell: Unroll, t: int) -> np.ndarray:
    """Step t, its gates row already holding W_x x + b (f, i, o halved):
    writes the gate values, c, tanh(c) and the next z row; returns h, a
    view into that row."""
    s, zr, cr = t % cell.window, len(cell.z), len(cell.c)
    z_next = cell.z[(t + 1) % zr]
    a, tanh_c, c_new = cell.gates[s], cell.tanh_c[s], cell.c[(t + 1) % cr]
    a += np.matmul(cell.w_rec_half, cell.z[t % zr])
    np.tanh(a, out=a)
    gates = cell.gates4[s]
    f, i, o, cand = gates[0], gates[1], gates[2], gates[3]
    sig = a[..., : 3 * cell.n, :]
    sig *= 0.5
    sig += 0.5
    np.multiply(f, cell.c[t % cr], out=c_new)
    c_new += i * cand
    np.tanh(c_new, out=tanh_c)
    h = z_next[..., : cell.n, :]
    np.multiply(o, tanh_c, out=h)
    if cell.feedback:
        _sigmoid_into(h, z_next[..., cell.n :, :])
    return h


def _local_derivatives(cell: Unroll) -> None:
    """In place over a taped unroll: gate rows f, i, o, c~ become c_prev
    f(1-f), c~ i(1-i), tanh(c) o(1-o), i(1-c~^2); tanh_c becomes o(1 -
    tanh(c)^2); c rows below the last become f; with feedback, the
    sigmoid(h) rows of z below the last become sigmoid'(h)."""
    n, steps = cell.n, cell.steps
    sig = cell.gates[:steps, ..., : 3 * n, :]
    gates = cell.gates4[:steps]
    f, i, o, cand = gates[:, 0], gates[:, 1], gates[:, 2], gates[:, 3]
    tanh_c, c_prev = cell.tanh_c[:steps], cell.c[:steps]
    values = np.concatenate([c_prev, cand, tanh_c], axis=-2)  # what f, i, o multiply
    np.multiply(tanh_c, tanh_c, out=tanh_c)
    np.subtract(1.0, tanh_c, out=tanh_c)
    tanh_c *= o
    np.multiply(cand, cand, out=cand)
    np.subtract(1.0, cand, out=cand)
    cand *= i
    c_prev[...] = f
    values *= sig
    np.subtract(1.0, sig, out=sig)
    values *= sig
    sig[...] = values
    if cell.feedback:
        s = cell.z[:steps, ..., n:, :]
        s *= 1.0 - s


def step_backward(
    cell: Unroll, t: int, dh: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse step t, given the adjoints dh, dc of its h and c (merged with
    what flows back from later steps): writes its pre-activation adjoints
    into gates row t; returns (dh_prev, dc_prev), with the feedback path."""
    da, da4 = cell.gates[t], cell.gates4[t]
    dc_total = dh * cell.tanh_c[t]
    dc_total += dc
    da4[0] *= dc_total
    da4[1] *= dc_total
    da4[3] *= dc_total
    da4[2] *= dh
    dc_total *= cell.c[t]
    dz = np.matmul(cell.w_rec_t, da)
    if not cell.feedback:
        return dz, dc_total
    dh_prev, dfb = dz[..., : cell.n, :], dz[..., cell.n :, :]
    dfb *= cell.z[t, ..., cell.n :, :]
    dh_prev += dfb
    return dh_prev, dc_total


def unroll_backward(
    cell: Unroll, dh_steps: np.ndarray | None, dh: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reverse a taped unroll, given the adjoints dh_steps (steps, ..., L, B)
    of each step's h (or None) and dh, dc of the final state. Returns (dh0,
    dc0, dW, db), dW (..., 4L, R + I) for [W_rec | W_x]. Consumes the tape:
    gates row t ends up holding step t's pre-activation adjoints, and the
    other slabs are released before the dW copies."""
    steps, lead, batch = cell.steps, cell.gates.shape[1:-2], cell.gates.shape[-1]
    # [z; x] of every step as the columns of one block, copied before the
    # local derivatives overwrite z's sigmoid(h) rows
    rec = cell.z.shape[-2]
    width = rec + cell.x.shape[-2]
    cols = np.empty(lead + (width, steps, batch))
    cols[..., :rec, :, :] = _steps_to_columns(cell.z[:steps])
    cols[..., rec:, :, :] = _steps_to_columns(cell.x)
    _local_derivatives(cell)
    for t in range(steps - 1, -1, -1):
        if dh_steps is not None:
            dh = dh + dh_steps[t]
        dh, dc = step_backward(cell, t, dh, dc)
    cell.z = cell.c = cell.tanh_c = cell.x = None
    da = _steps_to_columns(cell.gates[:steps]).reshape(lead + (4 * cell.n, steps * batch))
    dW = da @ cols.reshape(lead + (width, steps * batch)).swapaxes(-1, -2)
    return dh, dc, dW, da.sum(axis=-1)
