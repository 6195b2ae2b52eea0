"""Array helpers shared across the package: stable nonlinearities, the seeded
random stream, and per-member scaling for populations of stacked models.

Everything runs in float64; gradient verification against central finite
differences needs the headroom.
"""

from __future__ import annotations

import numpy as np

__all__ = ["HALF", "ONE", "constant", "make_rng", "per_member", "sigmoid"]


def constant(value: float) -> np.ndarray:
    """value as a read-only 0-d float64 array: a ufunc takes it as it is,
    where it converts a Python float operand anew on every call."""
    a = np.array(value, dtype=np.float64)
    a.flags.writeable = False
    return a


HALF, ONE = constant(0.5), constant(1.0)


def make_rng(seed: int) -> np.random.Generator:
    """Seeded random stream backed by the counter-based Philox generator.

    Philox (4x64, 10 rounds) is a fixed algorithm, so one seed reproduces the
    same bit stream on every platform and every run. An instance is
    single-owner: never draw from the same one on two threads. A seed Philox
    refuses, such as a negative one, is a ValueError naming it.
    """
    try:
        return np.random.Generator(np.random.Philox(seed))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"seed {seed!r}: {exc}") from None


def per_member(v, ndim: int):
    """A scalar as is; a population's (G,) vector reshaped to (G, 1, ...,
    1) with `ndim` unit axes, so it scales each member's slice of a (G, ...)
    array."""
    if isinstance(v, np.ndarray) and v.ndim == 1:
        return v.reshape((-1,) + (1,) * ndim)
    return v


def sigmoid(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)).

    Evaluated as 1 / (1 + z) for x >= 0 and z / (1 + z) below, with
    z = exp(-|x|), so nothing can overflow anywhere on the float64 range.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)
