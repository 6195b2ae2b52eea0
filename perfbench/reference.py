"""A fixed reference computation, timed next to every job step.

The benchmark shares a few cores of a busy host, whose speed drifts by tens
of percent over seconds and minutes. A job step's wall time divided by the
wall time of this computation, run just before and just after it, cancels
most of that drift, because both slow down together. The computation uses
no faultcast code, so a change to faultcast moves only the numerator.

It mixes what faultcast's jobs spend their time on: a recurrence of small
numpy operations, one Python-level dispatch per step like an LSTM cell, and
a JSON round trip of nested lists of floats like a JSONL record.
"""

from __future__ import annotations

import json

import numpy as np

_RNG = np.random.default_rng(20200125)
_BATCH, _HIDDEN, _STEPS, _PASSES = 16, 24, 150, 10
_W = _RNG.standard_normal((_HIDDEN, 4 * _HIDDEN)) * 0.2
_X = _RNG.standard_normal((_STEPS, _BATCH, 4 * _HIDDEN)) * 0.5
_RECORD = [{"id": i, "obs": _RNG.standard_normal((100, 12)).round(6).tolist()} for i in range(40)]


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference() -> float:
    """Run the reference computation once; returns a checksum."""
    h = np.zeros((_BATCH, _HIDDEN))
    c = np.zeros((_BATCH, _HIDDEN))
    for x in (x for _ in range(_PASSES) for x in _X):
        z = x + h @ _W
        i, f, g, o = np.split(z, 4, axis=1)
        c = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h = _sigmoid(o) * np.tanh(c)
    text = "\n".join(json.dumps(r) for r in _RECORD)
    rows = [json.loads(line) for line in text.splitlines()]
    return float(h.sum()) + sum(r["obs"][0][0] for r in rows)
