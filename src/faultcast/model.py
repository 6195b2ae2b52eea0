"""Encoder-decoder forecasting network for multi-label sequences.

The encoder LSTM consumes the observed window; its step input is the
concatenation [obs_t, ctx_t, h_prev], where the extra hidden-state feedback
makes the input width d_obs + d_ctx + n_labels. The decoder LSTM starts from
the encoder's final (h, c), and each of its steps reads [ctx_t,
sigmoid(h_prev)]: future context plus the squashed previous hidden state,
which acts as the fed-back stepwise estimate. The encoder's final hidden
state seeds the first feedback.

Inputs carry a batch axis; one sample is a batch of one. Outputs for a
batch of B samples:

    embedding   g = sum of decoder hidden states + out_bias     (B, n_labels)
    label_probs y = sigmoid(g)                                  (B, n_labels)
    step_scores o_t = sigmoid(h_t) * sigmoid(g)       (B, horizon, n_labels)

Hidden width equals the number of labels, so each embedding dimension lines
up with one label. Both networks are single layer by construction.

Parameter layout: a model keeps every parameter in one flat float64 array,
theta, made of the blocks param_layout lists in order: encoder.W, encoder.b,
decoder.W, decoder.b, out_bias. The cells (lstm.LstmParams) and out_bias are
named views into theta. Gradients (backward) share the layout,
so optimizer steps, clipping and finite-difference checks are array
operations on theta. Per-gate names exist only at the file boundary:
param_items splits each cell into its GATE_KEYS views, which save_model
writes and load_model fills.

A population (stack_models) holds G models of the same dims as one model
with a (G, P) theta, so every block carries a leading member axis; forward
and backward then run all members in one pass per time step, each member
computing exactly what it computes alone. Its inputs and outputs are (G,
batch, ...).

Inside forward and backward each cell runs as an lstm.Unroll on slabs
(steps, rows, ..., batch), a member axis beside the batch, which are the
tape; taped, the cells share one gates/c/tanh_c/values slab, the decoder's
rows from tau, where the encoder's c ends. The encoder's two h column
blocks multiply the same h, so its recurrent block is their sum; the
decoder's recurrent input is [h; sigmoid(h)], whose sigmoid(h) rows also
give the step scores.
A Tape is also a training run's workspace: forward(..., tape=t) refills t
in place, and backward writes into gradients t holds, valid until the next
backward on t. Prediction arrays never share memory with a tape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .data import ModelDims, read_json, write_json_lines
from .lstm import GATE_ORDER, LstmParams, Unroll, init_params, unroll, unroll_backward
from .num import sigmoid

FORMAT_NAME = "faultcast-model"
FORMAT_VERSION = 1
# a cell's keys in the model file, in file order; w_g and b_g are gate g's
# row block of W and b
GATE_KEYS = ("w_f", "w_i", "w_c", "w_o", "b_f", "b_i", "b_c", "b_o")


def param_layout(dims: ModelDims) -> list[tuple[str, tuple[int, ...]]]:
    """The parameter blocks of a model's theta, in order, with their shapes.

    Each cell's fused W and b (gate rows in lstm.GATE_ORDER), then out_bias.
    """
    hidden = dims.n_labels
    return [
        ("encoder.W", (4 * hidden, hidden + dims.enc_input)),
        ("encoder.b", (4 * hidden,)),
        ("decoder.W", (4 * hidden, hidden + dims.dec_input)),
        ("decoder.b", (4 * hidden,)),
        ("out_bias", (hidden,)),
    ]


def param_size(dims: ModelDims) -> int:
    """Length of a model's theta: the number of scalar parameters."""
    return sum(math.prod(shape) for _, shape in param_layout(dims))


@functools.cache
def param_slices(dims: ModelDims) -> MappingProxyType:
    """Where each block of param_layout lies along theta's last axis, read-only."""
    layout = param_layout(dims)
    ends = accumulate(math.prod(shape) for _, shape in layout)
    return MappingProxyType({name: slice(end - math.prod(shape), end)
                             for (name, shape), end in zip(layout, ends)})


class ForecastModel:
    """A model, its gradients or a population: theta is (P,), or (G, P) for
    G stacked members, laid out as param_layout lists. encoder, decoder and
    out_bias are views into theta, so writing one writes the other."""

    __slots__ = ("theta", "dims", "encoder", "decoder", "out_bias")

    def __init__(self, theta: np.ndarray, dims: ModelDims):
        if theta.shape[-1] != param_size(dims):
            raise ValueError(
                f"theta has {theta.shape[-1]} parameters, dims {dims} need {param_size(dims)}"
            )
        self.theta = theta
        self.dims = dims
        views = {name: theta[..., block].reshape(theta.shape[:-1] + shape)
                 for (name, shape), block in zip(param_layout(dims), param_slices(dims).values())}
        self.encoder = LstmParams(views["encoder.W"], views["encoder.b"])
        self.decoder = LstmParams(views["decoder.W"], views["decoder.b"])
        self.out_bias = views["out_bias"]

    @property
    def population(self) -> int | None:
        """Number of stacked members, or None for a single model."""
        return None if self.theta.ndim == 1 else self.theta.shape[0]

    def copy(self) -> "ForecastModel":
        return ForecastModel(self.theta.copy(), self.dims)

    def member(self, k: int) -> "ForecastModel":
        """A population's member k, as a standalone copy; a single model is
        its own only member."""
        if self.population is None:
            return self.copy()
        return ForecastModel(self.theta[k].copy(), self.dims)

    def select(self, keep) -> "ForecastModel":
        """A population of the members whose indices are listed in `keep`."""
        return ForecastModel(self.theta[keep], self.dims)


def stack_models(models: list[ForecastModel]) -> ForecastModel:
    """One population whose member k is a copy of models[k]."""
    dims = models[0].dims
    for k, m in enumerate(models):
        if m.dims != dims:
            raise ValueError(f"model {k} has dims {m.dims}, model 0 has {dims}")
    return ForecastModel(np.stack([m.theta for m in models]), dims)


@dataclass
class Prediction:
    embedding: np.ndarray    # (..., n_labels)
    label_probs: np.ndarray  # (..., n_labels), in (0, 1)
    step_scores: np.ndarray  # (..., horizon, n_labels), in (0, 1)
    step_hidden: np.ndarray  # (..., horizon, n_labels), decoder hidden states


@dataclass
class Tape:
    """Each cell's slabs (see lstm.py) and the gradients backward() writes;
    a backward consumes the tape, and a forward given it refills it."""

    encoder: Unroll
    decoder: Unroll
    label_probs: np.ndarray  # (..., B, L)
    grads: ForecastModel
    consumed: bool = False


def init_model(rng: np.random.Generator, dims: ModelDims) -> ForecastModel:
    """Fresh model: glorot-scaled LSTM weights, zero output bias.

    Encoder parameters are drawn before decoder parameters, so a seed pins
    the full parameter vector.
    """
    model = ForecastModel(np.zeros(param_size(dims)), dims)
    for cell, inputs in ((model.encoder, dims.enc_input), (model.decoder, dims.dec_input)):
        cell.W[...], cell.b[...] = init_params(rng, dims.n_labels, inputs)
    return model


def param_items(model: ForecastModel) -> list[tuple[str, np.ndarray]]:
    """Every parameter under its model-file key, in the file's fixed order:
    each cell's GATE_KEYS, each a view of its gate's lstm.GATE_ORDER row
    block of W or b, then out_bias. Takes a model or its gradients."""
    n, items = model.dims.n_labels, []
    for section, cell in (("encoder", model.encoder), ("decoder", model.decoder)):
        for key in GATE_KEYS:
            block = GATE_ORDER.index(key[2])
            rows = slice(block * n, (block + 1) * n)
            view = cell.W[..., rows, :] if key[0] == "w" else cell.b[..., rows]
            items.append((f"{section}.{key}", view))
    items.append(("out_bias", model.out_bias))
    return items


def _check_input(name: str, x: np.ndarray, steps: int, width: int, population) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    want = f"(batch, {steps}, {width})"
    ok = x.ndim == 3
    if population is not None:
        ok = ok or (x.ndim == 4 and x.shape[0] == population)
        want += f" or ({population}, batch, {steps}, {width})"
    if not ok or x.shape[-2:] != (steps, width):
        raise ValueError(f"shape mismatch: {name} must be {want}, got {x.shape}")
    return x


def _feature_major(a: np.ndarray, k: int = 2) -> np.ndarray:
    """(..., B, *rest), rest k axes such as (steps, d), as a (*rest, ..., B)
    view: the slab layout, the member axis (if any) beside the batch."""
    m = a.ndim - k
    return a.transpose(tuple(range(m, a.ndim)) + tuple(range(m)))


def _batch_major(a: np.ndarray, k: int = 2) -> np.ndarray:
    """(*rest, ..., B), rest k axes, as a (..., B, *rest) view."""
    return a.transpose(tuple(range(k, a.ndim)) + tuple(range(k)))


def forward(
    model: ForecastModel, obs: np.ndarray, ctx: np.ndarray, keep_tape: bool = True,
    tape: Tape | None = None,
) -> tuple[Prediction, Tape | None]:
    """Run the network on a batch; one sample is a batch of one.

    obs is (B, tau, d_obs) and ctx (B, total_steps, d_ctx); outputs are (B,
    ...). A population takes one batch per member, (G, B, ...), or one (B,
    ...) batch that every member sees, and returns (G, B, ...) outputs.

    With keep_tape the cells' slabs keep every step, for backward. Without
    it the encoder keeps one step of slabs and the decoder one step plus
    its hidden states; the outputs are the same bit for bit. Taped, a
    `tape` of the same dims, members and batch size is refilled and returned;
    any other is spent, lending its memory to the new tape. Same arithmetic.
    """
    dims = model.dims
    population = model.population
    obs = _check_input("observations", obs, dims.tau, dims.d_obs, population)
    ctx = _check_input("context", ctx, dims.total_steps, dims.d_ctx, population)
    if obs.shape[:-2] != ctx.shape[:-2]:
        raise ValueError(
            f"shape mismatch: observations {obs.shape} and context {ctx.shape} "
            f"disagree on batching"
        )
    if population is not None and obs.ndim == 3:
        obs = np.broadcast_to(obs, (population,) + obs.shape)
        ctx = np.broadcast_to(ctx, (population,) + ctx.shape)
    n, tau = dims.n_labels, dims.tau
    refill = (keep_tape and tape is not None and tape.grads.dims == dims
              and tape.label_probs.shape == obs.shape[:-2] + (n,))
    lender = tape if keep_tape and not refill else None  # lends its memory to a new tape
    obs, ctx = _feature_major(obs), _feature_major(ctx)
    zero = np.zeros((n,) + obs.shape[2:])

    # each W's columns run [h | inputs | fed-back h or sigmoid(h)], the
    # feedback block starting at column fb
    W, b, fb = model.encoder.W, model.encoder.b[..., None], n + dims.d_obs + dims.d_ctx
    w = np.concatenate([W[..., :n] + W[..., fb:], W[..., n:fb], b], axis=-1)
    enc = (tape.encoder.load(w, zero, zero) if refill
           else Unroll(w, zero, zero, tau, keep_tape, memory=lender and lender.encoder.memory,
                       rows=dims.total_steps))
    unroll(enc, [obs, ctx[:tau]])
    W, b, fb = model.decoder.W, model.decoder.b[..., None], n + dims.d_ctx
    w = np.concatenate([W[..., :n], W[..., fb:], W[..., n:fb], b], axis=-1)
    dec = (tape.decoder.load(w, *enc.state()) if refill
           else Unroll(w, *enc.state(), dims.horizon, keep_tape, True,
                       lender and lender.decoder.memory, after=enc))
    enc = enc if keep_tape else None  # untaped, its slabs go before the decoder runs
    unroll(dec, [ctx[tau:]])

    # every output is a fresh array, never a view into the slabs
    hidden = dec.z[1:, :n]  # (horizon, L, ..., B)
    out_bias = model.out_bias.T[..., None]
    g = np.ascontiguousarray(_batch_major(hidden.sum(axis=0) + out_bias, 1))
    y = sigmoid(g)
    o = np.multiply(_batch_major(dec.z[1:, n:]), y[..., None, :], order="C")
    if refill:
        tape.label_probs, tape.consumed = y, False
    elif keep_tape:
        if lender is not None:
            lender.consumed = True  # its memory may now hold this batch
        tape = Tape(enc, dec, y, ForecastModel(np.empty(model.theta.shape), dims))
    return Prediction(g, y, o, _batch_major(hidden).copy()), tape if keep_tape else None


def predict(model: ForecastModel, obs: np.ndarray, ctx: np.ndarray) -> Prediction:
    """forward() without retaining the tape."""
    pred, _ = forward(model, obs, ctx, keep_tape=False)
    return pred


def backward(
    model: ForecastModel,
    tape: Tape,
    d_step_scores: np.ndarray | None = None,
    d_embedding: np.ndarray | None = None,
) -> ForecastModel:
    """Exact gradients of a scalar with the given upstream adjoints.

    The adjoints carry the shapes of the matching Prediction fields, batch
    axis included; None stands for zeros. A scalar that reads label_probs =
    sigmoid(g) passes that path in d_embedding (losses.batch_adjoints does).
    Covers every other path: the embedding's appearance in each step score,
    the decoder's sigmoid(h) feedback input, and the encoder's hidden-state
    feedback input. The tape's slabs become adjoint slabs, so a tape serves
    one backward call. The returned gradients are the tape's own model
    (Tape.grads), valid until the next backward on that tape.
    """
    dims = model.dims
    if tape.consumed:
        raise ValueError("tape already consumed by an earlier backward()")
    lead = tape.label_probs.shape[:-1]  # (B,), or (G, B) for a population
    n, horizon = dims.n_labels, dims.horizon

    def adjoint(adj, shape):
        adj = np.zeros(shape) if adj is None else np.asarray(adj, dtype=np.float64)
        if adj.shape != shape:
            raise ValueError(f"adjoint shape {adj.shape} does not match {shape}")
        return adj

    do = _feature_major(adjoint(d_step_scores, lead + (horizon, n)))
    dg_extra = _feature_major(adjoint(d_embedding, lead + (n,)), 1)
    y = _feature_major(tape.label_probs, 1)  # (L, ..., B), like every adjoint below
    enc, dec, grads = tape.encoder, tape.decoder, tape.grads
    tape.consumed = True
    sig_h = dec.z[1:, n:]

    # g receives the direct adjoint and the sigmoid(g) factor inside every
    # step score.
    dg = np.multiply(do, sig_h, order="C").sum(axis=0)
    dg *= y * (1.0 - y)
    dg += dg_extra
    grads.out_bias[...] = dg.sum(axis=-1).T  # every block of grads is written below

    # Per-step adjoint on decoder hidden states: the sum into g plus the
    # sigmoid(h) factor of that step's score.
    dh_steps = np.multiply(do, y, order="C")
    dh_steps *= sig_h
    dh_steps *= 1.0 - sig_h
    dh_steps += dg

    zero = np.zeros_like(dg)
    # dW comes back in the Unroll's column order [W_rec | W_x]; scatter it
    # to W's [h | inputs | feedback] columns (forward's fb)
    dh, dc, dW, db = unroll_backward(dec, dh_steps, zero, zero)
    W, fb = grads.decoder.W, n + dims.d_ctx
    W[..., :n], W[..., fb:], W[..., n:fb] = dW[..., :n], dW[..., n : 2 * n], dW[..., 2 * n :]
    grads.decoder.b[...] = db
    _, _, dW, db = unroll_backward(enc, None, dh, dc)
    W, fb = grads.encoder.W, n + dims.d_obs + dims.d_ctx
    W[..., :fb] = dW
    W[..., fb:] = dW[..., :n]  # the folded W_rec stands for both h blocks
    grads.encoder.b[...] = db
    return grads


def save_model(model: ForecastModel, path, classifiers: dict | None = None) -> None:
    """Write a self-describing JSON file; round-trips bit-exactly.

    JSON floats use shortest-repr encoding, which float64 round-trips
    exactly, and keys are sorted, so identical models produce identical
    bytes. Optional classifier records ride along in the same file.
    """
    doc = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "dims": asdict(model.dims),
        "classifiers": classifiers,
    }
    for key, arr in param_items(model):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"refusing to save non-finite parameter {key}")
        section, _, gate = key.partition(".")
        if gate:
            doc.setdefault(section, {})[gate] = arr.tolist()
        else:
            doc[section] = arr.tolist()
    write_json_lines(path, [doc])


def load_model(path) -> tuple[ForecastModel, dict | None]:
    """Read a model file written by save_model; returns (model, classifiers).

    Every array is checked against the file's dims. A malformed file raises
    DatasetError naming the file and the offending key.
    """
    doc = read_json(path, (FORMAT_NAME, FORMAT_VERSION))
    record = doc.field("dims")
    dims = ModelDims.read(record)
    if set(record.value) != set(asdict(dims)):
        raise record.error(f"must hold only {', '.join(asdict(dims))}")
    # fill every per-gate view of a fresh model, in the file's key order
    model = ForecastModel(np.empty(param_size(dims)), dims)
    for key, view in param_items(model):
        field = doc.field(key)
        view[...] = field.read(np.ndarray, view.shape)
        if not np.all(np.isfinite(view)):
            raise field.error("holds non-finite values")
    return model, doc.value.get("classifiers")
