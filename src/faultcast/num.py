"""Array helpers shared across the package: stable nonlinearities, checked
linear algebra, and the seeded random stream.

Everything runs in float64; gradient verification against central finite
differences needs the headroom.
"""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng", "rng_uniform", "sigmoid", "tanh", "affine", "hadamard"]


def make_rng(seed: int) -> np.random.Generator:
    """Seeded random stream backed by the counter-based Philox generator.

    Philox (4x64, 10 rounds) is a fixed algorithm, so one seed reproduces the
    same bit stream on every platform and every run. An instance is
    single-owner: never draw from the same one on two threads.
    """
    return np.random.Generator(np.random.Philox(seed))


def rng_uniform(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """n uniform draws on [lo, hi), advancing the stream."""
    if not lo < hi:
        raise ValueError(f"invalid range: lo={lo!r} must be < hi={hi!r}")
    return rng.uniform(lo, hi, size=n)


def sigmoid(x) -> np.ndarray:
    """Elementwise 1 / (1 + exp(-x)).

    Evaluated as 1 / (1 + z) for x >= 0 and z / (1 + z) below, with
    z = exp(-|x|), so nothing can overflow anywhere on the float64 range.
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0, z) / (1.0 + z)


def tanh(x) -> np.ndarray:
    """Elementwise hyperbolic tangent in float64."""
    return np.tanh(np.asarray(x, dtype=np.float64))


def affine(w: np.ndarray, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """w @ x + b applied along the last axis of x.

    x may carry leading batch dimensions; w is (rows, cols) and b is (rows,).
    """
    w = np.asarray(w, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if w.ndim != 2:
        raise ValueError(f"weight must be a matrix, got shape {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ValueError(
            f"shape mismatch in affine: weight is {w.shape}, "
            f"input has length {x.shape[-1]}"
        )
    if b.shape != (w.shape[0],):
        raise ValueError(
            f"shape mismatch in affine: weight is {w.shape}, bias is {b.shape}"
        )
    return x @ w.T + b


def hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise product of same-shape arrays."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch in hadamard: {a.shape} vs {b.shape}")
    return a * b
