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
forms the local derivatives once over a slab, in place, scales them step by
step into the adjoint slab, copies its (time x batch) columns into dead slab
rows and gets dW and db from one matmul and one sum over them (Appleyard et
al. 2016, arXiv:1604.01946).
An Unroll is built once per shape and refilled by load for each batch: the
"persistent" idea of Diamos et al. 2016 (Persistent RNNs), across batches.
"""

from __future__ import annotations

import math
from itertools import accumulate
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
    """One cell's weights and slabs for `steps` steps of a batch, allocated
    for the shapes of w, h0 and c0, then loaded with them (see load).

    w (..., 4L, R + I + 1) holds the columns [W_rec | W_x | b]; h0 and c0
    (..., L, B) are the initial state. The recurrent input z is [h;
    sigmoid(h)] with feedback (R = 2L), else h (R = L). Taped, every slab
    keeps all steps; untaped, only z does, and only with feedback. Slabs,
    step t in row t % rows: z (steps + 1 or 2 rows), z[0] from h0; gates
    (window, ..., 4L, B), gate-major as gates4 (window, 4, ..., L, B); c
    (window + 1 rows), c[0] = c0; tanh_c (window rows); x (window, ..., I,
    B), the inputs; taped, values (window, ..., 3L, B) and the dW columns
    cols (..., R + I, steps, B) for backward. All are blocks of one array,
    memory, taken from `memory` if large enough: unrolls sharing it must not
    be in use at once. fwd and bwd hold each step's views into the slabs,
    local and back those of the backward pass. Taped, two unrolls can share
    one gates/c/tanh_c/values slab: one built with `rows` rows, past its
    steps, and one built `after` it, on the rows from after.steps, so its c0
    is after's last c row; the later one's backward forms the local
    derivatives of both. Untaped, rows and after are ignored.
    """

    __slots__ = ("n", "steps", "window", "feedback", "memory", "w_rec_t", "half", "w_rec_half",
                 "w_x_half", "b_half", "x", "z", "gates", "gates4", "c", "tanh_c", "values",
                 "cols", "fwd", "bwd", "local", "back", "after")

    def __init__(self, w, h0, c0, steps: int, taped: bool = True, feedback: bool = False,
                 memory: np.ndarray | None = None, rows: int = 0, after: Unroll | None = None):
        *lead, n, batch = h0.shape
        lead, rec = tuple(lead), 2 * n if feedback else n
        if w.shape[-2] != 4 * n or w.shape[-1] <= rec:
            raise ValueError(f"shape mismatch: weights {w.shape} for hidden {n}, recurrent {rec}")
        self.n, self.steps, self.feedback = n, steps, feedback
        gr = self.window = max(steps, 1) if taped else 1
        self.after, rows = (after, max(rows, gr)) if taped else (None, gr)
        after, inputs = self.after, w.shape[-1] - rec - 1
        shapes = {"half": w.shape, "x": (gr,) + lead + (inputs, batch),
                  "z": (steps + 1 if taped or feedback else 2,) + lead + (rec, batch),
                  "gates": (rows,) + lead + (4 * n, batch), "c": (rows + 1,) + lead + (n, batch),
                  "tanh_c": (rows,) + lead + (n, batch),
                  "values": (rows * taped,) + lead + (3 * n, batch),
                  "cols": lead + (rec + inputs, steps * taped, batch)}
        if after is not None:  # the slabs are after's rows from after.steps on
            for name in ("gates", "c", "tanh_c", "values"):
                setattr(self, name, getattr(after, name)[after.steps :][: shapes.pop(name)[0]])
        sizes = [math.prod(shape) for shape in shapes.values()]
        fits = memory is not None and memory.size >= sum(sizes)
        self.memory = memory = memory if fits else np.empty(sum(sizes))
        for (name, shape), size, end in zip(shapes.items(), sizes, accumulate(sizes)):
            setattr(self, name, memory[end - size : end].reshape(shape))
        self.w_rec_half, self.w_x_half = self.half[..., :rec], self.half[..., rec:-1]
        self.b_half = self.half[..., -1:]
        # lead is () or one member axis, which trades places with the gate axis
        self.gates4 = self.gates.reshape(self.gates.shape[:-2] + (4, n, batch)).swapaxes(1, -3)
        # each step's views, as lstm_step and step_backward unpack them;
        # untaped without feedback, the two z and c rows take turns
        zr, cr = len(self.z), len(self.c)
        self.fwd = [(self.gates[t % gr], *self.gates4[t % gr], self.gates[t % gr, ..., : 3 * n, :],
                     self.c[t % cr], self.c[(t + 1) % cr], self.tanh_c[t % gr], self.z[t % zr],
                     self.z[(t + 1) % zr, ..., :n, :],
                     self.z[(t + 1) % zr, ..., n:, :] if feedback else None)
                    for t in range(steps if zr > 2 else min(steps, 2))]
        self.bwd = [(self.gates[t], *self.gates4[t], self.tanh_c[t], self.c[t],
                     self.z[t, ..., n:, :] if feedback else None) for t in range(steps * taped)]
        self.local = self.back = None
        if taped:
            owner = after or self  # with rows past steps, the unroll after forms them
            if after is not None or rows == steps:
                g4 = owner.gates4[: len(owner.values)]
                self.local = (owner.gates[: len(g4), ..., : 3 * n, :], *g4.swapaxes(0, 1),
                              owner.tanh_c[: len(g4)], owner.c[: len(g4)], owner.values,
                              self.z[:steps, ..., n:, :] if feedback else None)
            # the adjoint columns fill memory from the first tanh_c row on: its
            # tanh_c and values rows (and after's), dead once the step loop has run
            at = (self.tanh_c.ctypes.data - owner.memory.ctypes.data) // owner.memory.itemsize
            da = owner.memory[at:][: 4 * n * steps * batch * math.prod(lead)]
            self.back = (_steps_to_columns(self.z[:steps]), _steps_to_columns(self.x[:steps]),
                         _steps_to_columns(self.gates[:steps]), da.reshape(lead + (4 * n, -1)),
                         self.cols.reshape(lead + (rec + inputs, -1)).swapaxes(-1, -2))
        self.load(w, h0, c0)

    def load(self, w, h0, c0) -> "Unroll":
        """Refill the halved weights and the state rows for the next batch from
        w, h0, c0 (not read if built `after`), as at construction; returns it."""
        n = self.n
        self.w_rec_t = w[..., : self.z.shape[-2]].swapaxes(-1, -2)
        np.multiply(w[..., : 3 * n, :], 0.5, out=self.half[..., : 3 * n, :])  # exact
        self.half[..., 3 * n :, :] = w[..., 3 * n :, :]
        self.z[0, ..., :n, :] = h0
        if self.feedback:
            _sigmoid_into(h0, self.z[0, ..., n:, :])
        if self.after is None:
            self.c[0] = c0
        return self

    def state(self) -> tuple[np.ndarray, np.ndarray]:
        """(h, c) after the last step, as views."""
        t = self.steps
        return self.z[t % len(self.z), ..., : self.n, :], self.c[t % len(self.c)]


def unroll(cell: Unroll, parts: list[np.ndarray]) -> None:
    """Run every step of `cell`; a step's x is the concatenation along the
    features of `parts`, feature-major inputs (steps, ..., d, B)."""
    width = sum(p.shape[-2] for p in parts)
    if width != cell.x.shape[-2]:
        raise ValueError(f"shape mismatch in unroll: input has length {width}, "
                         f"cell expects {cell.x.shape[-2]}")
    for start in range(0, cell.steps, cell.window):
        stop = min(start + cell.window, cell.steps)
        x, gates = cell.x[: stop - start], cell.gates[: stop - start]
        np.concatenate([p[start:stop] for p in parts], axis=-2, out=x)
        np.matmul(cell.w_x_half, x, out=gates)
        gates += cell.b_half
        for t in range(start, stop):
            lstm_step(cell, t)


def lstm_step(cell: Unroll, t: int) -> np.ndarray:
    """Step t, its gates row a already holding W_x x + b (f, i, o halved):
    writes the gate values, c', tanh(c') and the next z row; returns h', a
    view into that row."""
    a, f, i, o, cand, sig, c, c_new, tanh_c, z, h, fb = cell.fwd[t % len(cell.fwd)]
    a += np.matmul(cell.w_rec_half, z)
    np.tanh(a, out=a)
    sig *= 0.5
    sig += 0.5
    np.multiply(f, c, out=c_new)
    c_new += i * cand
    np.tanh(c_new, out=tanh_c)
    np.multiply(o, tanh_c, out=h)
    if fb is not None:
        _sigmoid_into(h, fb)
    return h


def _local_derivatives(cell: Unroll) -> None:
    """In place over the slab rows in cell.local: gate rows f, i, o, c~
    become c_prev f(1-f), c~ i(1-i), tanh(c) o(1-o), i(1-c~^2); tanh_c
    becomes o(1 - tanh(c)^2); c rows below the last become f; with
    feedback, the sigmoid(h) rows of z below the last become sigmoid'(h)."""
    sig, f, i, o, cand, tanh_c, c_prev, values, fb = cell.local
    np.concatenate([c_prev, cand, tanh_c], axis=-2, out=values)  # f, i, o's factors
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
    if fb is not None:
        fb *= 1.0 - fb


def step_backward(
    cell: Unroll, t: int, dh: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Reverse step t, given the adjoints dh, dc of its h and c (merged with
    what flows back from later steps): writes its pre-activation adjoints
    into gates row t; returns (dh_prev, dc_prev), with the feedback path."""
    da, df, di, do, dcand, tanh_c, c, sig_h = cell.bwd[t]
    dc_total = dh * tanh_c
    dc_total += dc
    df *= dc_total
    di *= dc_total
    dcand *= dc_total
    do *= dh
    dc_total *= c
    dz = np.matmul(cell.w_rec_t, da)
    if sig_h is None:
        return dz, dc_total
    dh_prev, dfb = dz[..., : cell.n, :], dz[..., cell.n :, :]
    dfb *= sig_h
    dh_prev += dfb
    return dh_prev, dc_total


def unroll_backward(
    cell: Unroll, dh_steps: np.ndarray | None, dh: np.ndarray, dc: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Reverse a taped unroll, given the adjoints dh_steps (steps, ..., L, B)
    of each step's h (or None) and dh, dc of the final state. Returns (dh0,
    dc0, dW, db), dW (..., 4L, R + I) for [W_rec | W_x]. Consumes the tape:
    gates row t ends up holding step t's pre-activation adjoints, and the
    other slabs hold derivatives and adjoint columns, until the next load.
    Unrolls sharing a slab are reversed latest first."""
    z, x, gates, da, cols = cell.back
    # [z; x] of every step as the columns of one block, copied before the
    # local derivatives overwrite z's sigmoid(h) rows
    np.concatenate([z, x], axis=-3, out=cell.cols)
    if cell.local is not None:
        _local_derivatives(cell)
    for t in range(cell.steps - 1, -1, -1):
        if dh_steps is not None:
            dh = dh + dh_steps[t]
        dh, dc = step_backward(cell, t, dh, dc)
    da.reshape(gates.shape)[...] = gates
    return dh, dc, da @ cols, da.sum(axis=-1)
