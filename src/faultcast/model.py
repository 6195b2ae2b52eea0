"""Encoder-decoder forecasting network for multi-label sequences.

The encoder LSTM consumes the observed window; its step input is the
concatenation [obs_t, ctx_t, h_prev], where the extra hidden-state feedback
makes the input width d_obs + d_ctx + n_labels. The decoder LSTM starts from
the encoder's final (h, c), and each of its steps reads [ctx_t,
sigmoid(h_prev)]: future context plus the squashed previous hidden state,
which acts as the fed-back stepwise estimate. The encoder's final hidden
state seeds the first feedback.

Outputs for one sample:

    embedding   g = sum of decoder hidden states + out_bias        (n_labels,)
    label_probs y = sigmoid(g)                                     (n_labels,)
    step_scores o_t = sigmoid(h_t) * sigmoid(g)          (horizon, n_labels)

Hidden width equals the number of labels, so each embedding dimension lines
up with one label. Both networks are single layer by construction.

A population (stack_models) holds G models of the same dims as one model
whose arrays carry a leading member axis; forward and backward then run all
members in one pass per time step, each member computing exactly what it
computes alone. Its inputs and outputs are (G, batch, ...).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lstm import GATE_NAMES, LstmParams, init_params, lstm_step, step_backward, zeros_params
from .num import sigmoid

FORMAT_NAME = "faultcast-model"
FORMAT_VERSION = 1
DIM_KEYS = ("n_labels", "d_obs", "d_ctx", "tau", "total_steps")


@dataclass(frozen=True)
class ModelDims:
    """Problem dimensions shared by the model and its datasets."""

    n_labels: int
    d_obs: int
    d_ctx: int
    tau: int          # observed steps
    total_steps: int  # observed + forecast steps

    def __post_init__(self):
        if self.n_labels < 1:
            raise ValueError(f"n_labels must be >= 1, got {self.n_labels}")
        if self.tau < 0 or self.total_steps <= self.tau:
            raise ValueError(
                f"need 0 <= tau < total_steps, got tau={self.tau}, "
                f"total_steps={self.total_steps}"
            )
        if self.d_obs < 0 or self.d_ctx < 0:
            raise ValueError("feature dimensions must be non-negative")

    @property
    def horizon(self) -> int:
        return self.total_steps - self.tau

    @property
    def enc_input(self) -> int:
        return self.d_obs + self.d_ctx + self.n_labels

    @property
    def dec_input(self) -> int:
        return self.d_ctx + self.n_labels


@dataclass
class ForecastModel:
    encoder: LstmParams
    decoder: LstmParams
    out_bias: np.ndarray  # (n_labels,)
    dims: ModelDims

    @property
    def population(self) -> int | None:
        """Number of stacked members, or None for a single model."""
        return None if self.out_bias.ndim == 1 else self.out_bias.shape[0]

    def copy(self) -> "ForecastModel":
        return ForecastModel(*_map_arrays(self, np.copy), self.dims)

    def member(self, k: int) -> "ForecastModel":
        """A population's member k, as a standalone copy; a single model is
        its own only member."""
        if self.population is None:
            return self.copy()
        return ForecastModel(*_map_arrays(self, lambda a: a[k].copy()), self.dims)

    def select(self, keep) -> "ForecastModel":
        """A population of the members whose indices are listed in `keep`."""
        return ForecastModel(*_map_arrays(self, lambda a: a[keep]), self.dims)


def stack_models(models: list[ForecastModel]) -> ForecastModel:
    """One population whose member k is a copy of models[k]."""
    dims = models[0].dims
    for k, m in enumerate(models):
        if m.dims != dims:
            raise ValueError(f"model {k} has dims {m.dims}, model 0 has {dims}")
    return ForecastModel(
        LstmParams.fused(np.stack([m.encoder.W for m in models]),
                         np.stack([m.encoder.b for m in models])),
        LstmParams.fused(np.stack([m.decoder.W for m in models]),
                         np.stack([m.decoder.b for m in models])),
        np.stack([m.out_bias for m in models]),
        dims,
    )


@dataclass
class ModelGrads:
    """Gradients shaped exactly like the parameters they belong to."""

    encoder: LstmParams
    decoder: LstmParams
    out_bias: np.ndarray

    def select(self, keep) -> "ModelGrads":
        """A population's gradients for the members listed in `keep`."""
        return ModelGrads(*_map_arrays(self, lambda a: a[keep]))


def _map_arrays(params, fn) -> tuple[LstmParams, LstmParams, np.ndarray]:
    """(encoder, decoder, out_bias) of a model or its gradients with `fn`
    applied to each of the five whole arrays."""
    return (
        LstmParams.fused(fn(params.encoder.W), fn(params.encoder.b)),
        LstmParams.fused(fn(params.decoder.W), fn(params.decoder.b)),
        fn(params.out_bias),
    )


@dataclass
class Prediction:
    embedding: np.ndarray    # (..., n_labels)
    label_probs: np.ndarray  # (..., n_labels), in (0, 1)
    step_scores: np.ndarray  # (..., horizon, n_labels), in (0, 1)
    step_hidden: np.ndarray  # (..., horizon, n_labels), decoder hidden states


@dataclass
class Tape:
    """Forward intermediates needed by backward(); one per forward call."""

    batched: bool
    enc_caches: list
    dec_caches: list
    enc_h_last: np.ndarray
    dec_sig_h: np.ndarray    # sigmoid of decoder hidden states, (..., B, H, L)
    label_probs: np.ndarray  # (..., B, L)


def init_model(rng: np.random.Generator, dims: ModelDims) -> ForecastModel:
    """Fresh model: glorot-scaled LSTM weights, zero output bias.

    Encoder parameters are drawn before decoder parameters, so a seed pins
    the full parameter vector.
    """
    encoder = init_params(rng, dims.n_labels, dims.d_obs + dims.d_ctx + dims.n_labels)
    decoder = init_params(rng, dims.n_labels, dims.d_ctx + dims.n_labels)
    return ForecastModel(encoder, decoder, np.zeros(dims.n_labels), dims)


def encoder_feedback(h: np.ndarray) -> np.ndarray:
    """The extra n_labels inputs appended to each encoder step.

    Kept as a single swap point; backward() hand-codes its derivative
    (identity), so changing one means changing both.
    """
    return h


def decoder_feedback(h: np.ndarray) -> np.ndarray:
    """The fed-back stepwise estimate appended to each decoder step.

    Squashing keeps the feedback in (0, 1) like a stepwise score. Same swap
    caveat as encoder_feedback: backward() differentiates this by hand.
    """
    return sigmoid(h)


def zeros_grads(dims: ModelDims, population: int | None = None) -> ModelGrads:
    lead = () if population is None else (population,)
    return ModelGrads(
        zeros_params(dims.n_labels, dims.enc_input, population),
        zeros_params(dims.n_labels, dims.dec_input, population),
        np.zeros(lead + (dims.n_labels,)),
    )


def param_items(model) -> list[tuple[str, np.ndarray]]:
    """All parameter arrays in the documented fixed order: per-gate views of
    each cell, then out_bias. Takes a ForecastModel or a ModelGrads."""
    items = [(f"encoder.{n}", a) for n, a in model.encoder.arrays()]
    items += [(f"decoder.{n}", a) for n, a in model.decoder.arrays()]
    items.append(("out_bias", model.out_bias))
    return items


def fused_items(model) -> list[tuple[str, np.ndarray]]:
    """The same parameters as the five whole arrays they live in: each
    cell's fused W and b, then out_bias. Takes a ForecastModel or a
    ModelGrads."""
    return [
        ("encoder.W", model.encoder.W),
        ("encoder.b", model.encoder.b),
        ("decoder.W", model.decoder.W),
        ("decoder.b", model.decoder.b),
        ("out_bias", model.out_bias),
    ]


def _check_input(name: str, x: np.ndarray, steps: int, width: int, population) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if population is None:
        ok = x.ndim in (2, 3)
        want = f"({steps}, {width}) or (batch, {steps}, {width})"
    else:
        ok = x.ndim == 3 or (x.ndim == 4 and x.shape[0] == population)
        want = f"(batch, {steps}, {width}) or ({population}, batch, {steps}, {width})"
    if not ok or x.shape[-2:] != (steps, width):
        raise ValueError(f"shape mismatch: {name} must be {want}, got {x.shape}")
    return x


def forward(
    model: ForecastModel, obs: np.ndarray, ctx: np.ndarray, keep_tape: bool = True
) -> tuple[Prediction, Tape | None]:
    """Run the network on one sample or a batch.

    obs is (tau, d_obs) or (B, tau, d_obs); ctx is (total_steps, d_ctx) or
    (B, total_steps, d_ctx). Outputs mirror the input's batching. A
    population takes one batch per member, (G, B, ...), or one (B, ...)
    batch that every member sees, and returns (G, B, ...) outputs.
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
    batched = obs.ndim > 2
    if not batched:
        obs, ctx = obs[None], ctx[None]
    elif population is not None and obs.ndim == 3:
        obs = np.broadcast_to(obs, (population,) + obs.shape)
        ctx = np.broadcast_to(ctx, (population,) + ctx.shape)
    state_shape = obs.shape[:-2] + (dims.n_labels,)

    h = np.zeros(state_shape)
    c = np.zeros(state_shape)
    enc_caches = []
    for t in range(dims.tau):
        x = np.concatenate([obs[..., t, :], ctx[..., t, :], encoder_feedback(h)], axis=-1)
        h, c, cache = lstm_step(model.encoder, h, c, x)
        if keep_tape:
            enc_caches.append(cache)
    enc_h_last = h

    dec_h = []
    dec_caches = []
    for t in range(dims.tau, dims.total_steps):
        x = np.concatenate([ctx[..., t, :], decoder_feedback(h)], axis=-1)
        h, c, cache = lstm_step(model.decoder, h, c, x)
        dec_h.append(h)
        if keep_tape:
            dec_caches.append(cache)
    dec_h = np.stack(dec_h, axis=-2)  # (..., B, horizon, L)

    out_bias = model.out_bias if population is None else model.out_bias[:, None, :]
    g = dec_h.sum(axis=-2) + out_bias
    y = sigmoid(g)
    sig_h = sigmoid(dec_h)
    o = sig_h * y[..., None, :]

    if batched:
        pred = Prediction(g, y, o, dec_h)
    else:
        pred = Prediction(g[0], y[0], o[0], dec_h[0])
    tape = Tape(batched, enc_caches, dec_caches, enc_h_last, sig_h, y) if keep_tape else None
    return pred, tape


def predict(model: ForecastModel, obs: np.ndarray, ctx: np.ndarray) -> Prediction:
    """forward() without retaining the tape."""
    pred, _ = forward(model, obs, ctx, keep_tape=False)
    return pred


def backward(
    model: ForecastModel,
    tape: Tape,
    d_label_probs: np.ndarray | None = None,
    d_step_scores: np.ndarray | None = None,
    d_embedding: np.ndarray | None = None,
) -> ModelGrads:
    """Exact gradients of a scalar with the given upstream adjoints.

    The adjoints carry the same (possibly unbatched) shapes the matching
    Prediction fields had. Covers every path: the embedding's appearance in
    each step score, the decoder's sigmoid(h) feedback input, and the
    encoder's hidden-state feedback input.
    """
    dims = model.dims
    lead = tape.label_probs.shape[:-1]  # (B,), or (G, B) for a population
    horizon = dims.horizon

    def promote(adj, shape):
        if adj is None:
            return np.zeros(shape)
        adj = np.asarray(adj, dtype=np.float64)
        if not tape.batched:
            adj = adj[None]
        if adj.shape != shape:
            raise ValueError(f"adjoint shape {adj.shape} does not match {shape}")
        return adj

    dy = promote(d_label_probs, lead + (dims.n_labels,))
    do = promote(d_step_scores, lead + (horizon, dims.n_labels))
    dg_extra = promote(d_embedding, lead + (dims.n_labels,))

    y = tape.label_probs
    sig_h = tape.dec_sig_h
    dsig_y = y * (1.0 - y)

    # g receives: the direct adjoint, the label-probability path, and the
    # sigmoid(g) factor inside every step score.
    dg = dg_extra + dy * dsig_y + np.einsum("...hl,...hl->...l", do, sig_h) * dsig_y
    grads = zeros_grads(dims, model.population)
    grads.out_bias += dg.sum(axis=-2)

    # Per-step adjoint on decoder hidden states: the sum into g plus the
    # sigmoid(h) factor of that step's score.
    dh_steps = dg[..., None, :] + do * y[..., None, :] * sig_h * (1.0 - sig_h)

    dh_carry = np.zeros(lead + (dims.n_labels,))
    dc_carry = np.zeros(lead + (dims.n_labels,))
    for t in range(horizon - 1, -1, -1):
        dh_t = dh_steps[..., t, :] + dh_carry
        dh_prev, dc_carry, dx = step_backward(
            model.decoder, tape.dec_caches[t], dh_t, dc_carry, grads.decoder
        )
        # The feedback part of step t's input is sigmoid(previous hidden).
        prev_sig = tape.dec_sig_h[..., t - 1, :] if t > 0 else sigmoid(tape.enc_h_last)
        dh_carry = dh_prev + dx[..., dims.d_ctx :] * prev_sig * (1.0 - prev_sig)

    dc = dc_carry
    dh = dh_carry
    for t in range(dims.tau - 1, -1, -1):
        dh, dc, dx = step_backward(model.encoder, tape.enc_caches[t], dh, dc, grads.encoder)
        # Encoder feedback is the raw previous hidden state.
        dh = dh + dx[..., dims.d_obs + dims.d_ctx :]
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
        "dims": {key: getattr(model.dims, key) for key in DIM_KEYS},
        "encoder": {n: a.tolist() for n, a in model.encoder.arrays()},
        "decoder": {n: a.tolist() for n, a in model.decoder.arrays()},
        "out_bias": model.out_bias.tolist(),
        "classifiers": classifiers,
    }
    for name, arr in param_items(model):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"refusing to save non-finite parameter {name}")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


def load_model(path) -> tuple[ForecastModel, dict | None]:
    """Read a model file written by save_model; returns (model, classifiers).

    Every array is checked against the file's dims. A malformed file raises
    ValueError naming the file and the offending key.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not a model file: invalid JSON ({exc})") from None
    fmt = doc.get("format") if isinstance(doc, dict) else None
    if fmt != FORMAT_NAME:
        raise ValueError(f"{path}: not a model file: format={fmt!r}")
    if doc.get("version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported model format version {doc.get('version')!r}")
    for key in ("dims", "encoder", "decoder", "out_bias"):
        if key not in doc:
            raise ValueError(f"{path}: missing key {key!r}")

    rec = doc["dims"]
    if (
        not isinstance(rec, dict)
        or set(rec) != set(DIM_KEYS)
        or any(type(rec[k]) is not int for k in DIM_KEYS)
    ):
        raise ValueError(f"{path}: key 'dims' must map {', '.join(DIM_KEYS)} to integers")
    try:
        dims = ModelDims(**rec)
    except ValueError as exc:
        raise ValueError(f"{path}: key 'dims': {exc}") from None

    def array(key, value, shape):
        try:
            arr = np.array(value, dtype=np.float64)
        except (TypeError, ValueError):
            raise ValueError(f"{path}: key {key!r} is not a numeric array") from None
        if arr.shape != shape:
            raise ValueError(
                f"{path}: key {key!r} has shape {arr.shape}, dims {dims} need {shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{path}: key {key!r} holds non-finite values")
        return arr

    def cell(name, inputs):
        rec = doc[name]
        if not isinstance(rec, dict):
            raise ValueError(f"{path}: key {name!r} must map gate names to arrays")
        hidden = dims.n_labels
        gates = []
        for gate in GATE_NAMES:
            key = f"{name}.{gate}"
            if gate not in rec:
                raise ValueError(f"{path}: missing key {key!r}")
            shape = (hidden, hidden + inputs) if gate.startswith("w_") else (hidden,)
            gates.append(array(key, rec[gate], shape))
        return LstmParams(*gates)

    model = ForecastModel(
        cell("encoder", dims.enc_input),
        cell("decoder", dims.dec_input),
        array("out_bias", doc["out_bias"], (dims.n_labels,)),
        dims,
    )
    return model, doc.get("classifiers")
