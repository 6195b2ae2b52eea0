"""Encoder-decoder forecasting network for multi-label sequences.

The encoder LSTM reads [obs_t, ctx_t, h_prev] over the observed window; the
decoder starts from its final (h, c) and reads [ctx_t, sigmoid(h_prev)],
the fed-back stepwise estimate. Hidden width equals the number of labels,
so each embedding dimension lines up with one label. Inputs carry a batch
axis, one sample being a batch of one; for a batch of B:

    embedding   g = sum of decoder hidden states + out_bias     (B, n_labels)
    label_probs y = sigmoid(g)                                  (B, n_labels)
    step_scores o_t = sigmoid(h_t) * sigmoid(g)       (B, horizon, n_labels)

A model keeps every parameter in one flat float64 theta, the blocks of
param_layout in order; the cells (lstm.LstmParams) and out_bias are views
into it, gradients share the layout, and per-gate names exist only at the
file boundary (param_items). A population (stack_models) is G models as one
(G, P) theta, run in one pass per time step, each member computing exactly
what it computes alone; its inputs and outputs are (G, batch, ...).

forward runs each cell as an lstm.Unroll (README, "File formats", has the
slabs). Both read one weight block, filled from theta in three calls along
its last axis by one model's map (_weight_map), a row per member: a take,
an add folding the encoder's two h column blocks (both multiply h) and a
multiply halving the f, i, o rows; b sits there as a gates row, repeated
over the batch (untaped, one column). A Tape is a training run's workspace:
forward(..., tape=t) refills t, and backward writes dW and db straight into
t.grads, valid until the next backward on t. Prediction arrays never share
memory with a tape.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
from itertools import accumulate
from types import MappingProxyType

import numpy as np

from .data import ModelDims, read_json, write_json_lines
from .lstm import (GATE_ORDER, LstmParams, Unroll, _by_member, init_params, unroll,
                   unroll_backward)
from .num import ONE, sigmoid

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


@functools.lru_cache(maxsize=8)  # a run needs a few at a time
def _weight_map(dims: ModelDims, batch: int) -> tuple:
    """(index, scale, views) of one model's weight block [raw | half], b
    rows `batch` wide: raw = theta.take(index) holds fold, then each cell's
    rec, x and b; after rec += fold, half = raw past fold * scale (1/2 on f,
    i, o rows). views: each cell's Unroll weights, (start, shape) in raw for
    rec, then in half for rec, x and b."""
    n = dims.n_labels
    at = ForecastModel(np.arange(param_size(dims)), dims)  # theta's indices
    tag = ForecastModel(np.ones(param_size(dims)), dims)
    pieces = {}
    for name in ("encoder", "decoder"):
        (W, b), halved = getattr(at, name), getattr(tag, name)
        halved.W[: 3 * n] = halved.b[: 3 * n] = 0.5
        fb = W.shape[-1] - n  # W's columns: [h | inputs | fed-back h or sigmoid(h)]
        rec = [W[:, :n], W[:, fb:]]
        if name == "encoder":  # both h blocks multiply h: one add folds them
            pieces["fold"] = rec.pop()
        pieces |= {name + ".rec": np.concatenate(rec, axis=-1), name + ".x": W[:, n:fb],
                   name + ".b": b[:, None].repeat(batch, -1)}
    index = np.concatenate([p.ravel() for p in pieces.values()])
    fold = pieces["fold"].size
    scale = tag.theta.take(index[fold:])
    index.flags.writeable = scale.flags.writeable = False
    start = dict(zip(pieces, accumulate([p.size for p in pieces.values()], initial=0)))
    return index, scale, tuple(
        ((start[c + ".rec"], pieces[c + ".rec"].shape),
         *((start[c + k] - fold, pieces[c + k].shape) for k in (".rec", ".x", ".b")))
        for c in ("encoder", "decoder"))


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
    """Each cell's slabs (see lstm.py), the weight block they read and the
    gradients backward() writes; a forward given it refills it all."""

    encoder: Unroll
    decoder: Unroll
    label_probs: np.ndarray  # (..., B, L)
    grads: ForecastModel
    weights: np.ndarray
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
    if x.shape[-2:] == (steps, width) and (
            x.ndim == 3 or population is not None and x.ndim == 4 and x.shape[0] == population):
        return x
    want = f"(batch, {steps}, {width})"
    if population is not None:
        want += f" or ({population}, batch, {steps}, {width})"
    raise ValueError(f"shape mismatch: {name} must be {want}, got {x.shape}")


@functools.cache
def _rotation(ndim: int, shift: int) -> tuple[int, ...]:
    """The axes of an ndim array rotated left by shift: a transpose order."""
    return tuple(range(shift, ndim)) + tuple(range(shift))


def _feature_major(a: np.ndarray, k: int = 2) -> np.ndarray:
    """(..., B, *rest), rest k axes such as (steps, d), as a (*rest, ..., B)
    view: the slab layout, the member axis (if any) beside the batch."""
    return a.transpose(_rotation(a.ndim, a.ndim - k))


def _batch_major(a: np.ndarray, k: int = 2) -> np.ndarray:
    """(*rest, ..., B), rest k axes, as a (..., B, *rest) view."""
    return a.transpose(_rotation(a.ndim, k))


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

    # the weight block: one model's map taken along theta's last axis, all
    # members' raw rows, then their half rows; untaped, b is one column,
    # broadcast over the batch
    index, scale, views = _weight_map(dims, obs.shape[-1] if keep_tape else 1)
    lead, fold = model.theta.shape[:-1], len(index) - len(scale)
    cut = math.prod(lead) * len(index)
    block = tape.weights if refill else np.empty(math.prod(lead) * (len(index) + len(scale)))
    raw, half = block[:cut].reshape(lead + (-1,)), block[cut:].reshape(lead + (-1,))
    model.theta.take(index, -1, raw, "clip")
    np.add(raw[..., fold : 2 * fold], raw[..., :fold], raw[..., fold : 2 * fold])
    np.multiply(raw[..., fold:], scale, half)
    if not refill:
        def piece(part, at, shape):
            return part[..., at : at + math.prod(shape)].reshape(lead + shape)
        # b reaches its Unroll as a (4L, G, B) gates row
        enc_w, dec_w = ((piece(raw, *r), piece(half, *h), piece(half, *x),
                         _by_member(piece(half, *b), lead)) for r, h, x, b in views)

    enc = (tape.encoder.load(zero, zero) if refill
           else Unroll(enc_w, zero, zero, tau, keep_tape,
                       memory=lender and lender.encoder.memory, rows=dims.total_steps))
    unroll(enc, [obs, ctx[:tau]])
    dec = (tape.decoder.load(*enc.state()) if refill
           else Unroll(dec_w, *enc.state(), dims.horizon, keep_tape, True,
                       lender and lender.decoder.memory, after=enc))
    enc = enc if keep_tape else None  # untaped, its slabs go before the decoder runs
    unroll(dec, [ctx[tau:]])

    # every output is a fresh array, never a view into the slabs
    hidden = dec.z[1:, :n]  # (horizon, L, ..., B)
    out_bias = model.out_bias.T[..., None]
    g = np.ascontiguousarray(_batch_major(np.add.reduce(hidden, 0) + out_bias, 1))
    y = sigmoid(g)
    o = np.multiply(_batch_major(dec.z[1:, n:]), y[..., None, :], order="C")
    if refill:
        tape.label_probs, tape.consumed = y, False
    elif keep_tape:
        if lender is not None:
            lender.consumed = True  # its memory may now hold this batch
        tape = Tape(enc, dec, y, ForecastModel(np.empty(model.theta.shape), dims), block)
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
    dg = np.add.reduce(np.multiply(do, sig_h, order="C"), 0)
    dg *= y * (ONE - y)
    dg += dg_extra
    grads.out_bias[...] = np.add.reduce(dg, -1).T  # every block of grads is written below

    # Per-step adjoint on decoder hidden states: the sum into g plus the
    # sigmoid(h) factor of that step's score.
    dh_steps = np.multiply(do, y, order="C")
    dh_steps *= sig_h
    dh_steps *= ONE - sig_h
    dh_steps += dg

    zero = np.zeros(dg.shape)
    # dW comes in W's column order; the encoder's folded W_rec stands for both h blocks
    dh, dc, _, _ = unroll_backward(dec, dh_steps, zero, zero, *grads.decoder)
    W = grads.encoder.W
    unroll_backward(enc, None, dh, dc, W[..., : -n], grads.encoder.b)
    W[..., -n:] = W[..., :n]
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
