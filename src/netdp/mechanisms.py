"""Local randomizers and their calibration.

Additive noise (Gaussian or Laplace) for real-valued contributions and
L-ary randomized response for categorical ones.  Calibration maps a
per-contribution privacy budget to the mechanism parameter:

    Gaussian:  sigma = sensitivity * sqrt(2 ln(1.25/delta)) / eps   (eps < 1)
    kRR:       gamma = L / (e^eps + L - 1)
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from .core import PrivacyBudget
from .errors import ValidityWindowError

GAUSSIAN: Literal["gaussian"] = "gaussian"
LAPLACE: Literal["laplace"] = "laplace"


def calibrate_gaussian(sensitivity: float, budget: PrivacyBudget) -> float:
    """Noise std-dev making the Gaussian mechanism (eps, delta)-DP.

    Classic closed form sigma = sensitivity * sqrt(2 ln(1.25/delta)) / eps,
    valid for eps < 1 (raises outside that range) and delta in (0, 1).
    """
    if not sensitivity > 0:
        raise ValueError("sensitivity must be positive")
    if not 0 < budget.delta < 1:
        raise ValueError("the Gaussian mechanism needs delta in (0, 1)")
    if budget.epsilon >= 1:
        raise ValidityWindowError(
            f"the closed-form Gaussian calibration requires eps < 1, got {budget.epsilon}"
        )
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / budget.delta)) / budget.epsilon


def gaussian_epsilon(sigma: float, sensitivity: float, delta: float) -> float:
    """Inverse of :func:`calibrate_gaussian`: the eps implied by a given sigma."""
    if not sigma > 0:
        raise ValueError("sigma must be positive")
    return sensitivity * math.sqrt(2.0 * math.log(1.25 / delta)) / sigma


def perturb(x, kind: Literal["gaussian", "laplace"], stddev, rng: np.random.Generator, out=None):
    """Add centered noise of std-dev ``stddev`` (scalar or per-entry) to x.

    The noise takes the broadcast shape of x and stddev, so
    ``perturb(0.0, kind, scales, rng)`` draws one value per entry of
    ``scales``.  Laplace noise uses scale b = stddev / sqrt(2), whose
    std-dev is ``stddev``.  Gaussian noise is ``rng.normal(0.0, stddev,
    shape)`` bit for bit, formed from standard draws without its per-entry
    broadcast; ``stddev`` must be non-negative.  ``out``, a float64 array of
    the broadcast shape, receives the result (and the Gaussian draws) in
    place of new arrays, for callers that perturb many times in turn.
    """
    shape = np.broadcast(x, stddev).shape
    if kind == GAUSSIAN:
        noise = rng.standard_normal(shape, out=out)
        noise = np.add(0.0, np.multiply(stddev, noise, out=out), out=out)
    elif kind == LAPLACE:
        noise = rng.laplace(0.0, np.divide(stddev, math.sqrt(2.0)), size=shape)
    else:
        raise ValueError(f"unknown noise kind {kind!r}")
    return np.add(x, noise, out=out)


def clip_contribution(x, sensitivity: float):
    """Clip contributions to [-sensitivity/2, +sensitivity/2].

    A pair of clipped values can differ by at most ``sensitivity``, which is
    what the additive-noise calibration assumes.  A negative or nan
    ``sensitivity`` is a ``ValueError``.
    """
    if not sensitivity >= 0:
        raise ValueError(f"sensitivity must be >= 0, got {sensitivity}")
    half = sensitivity / 2.0
    return np.clip(x, -half, half)


def check_categories(xs, domain_size: int) -> np.ndarray:
    """``xs`` as an int64 array; raises ValueError unless every entry lies in
    [1, domain_size]."""
    xs = np.asarray(xs, dtype=np.int64)
    if xs.size and (xs.min() < 1 or xs.max() > domain_size):
        raise ValueError(f"values outside domain [1, {domain_size}]")
    return xs


def rr_gamma_draws(size: int, gamma: float, domain_size: int, rng: np.random.Generator,
                   mask: np.ndarray | None = None,
                   uniforms: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The draws of L-ary randomized response on ``size`` values in [1, domain_size].

    Each value is kept w.p. 1 - gamma, else replaced by a uniform category
    (which may land on the original, so the overall keep probability is
    1 - gamma + gamma/L).  Draws one uniform per value, marks those below
    gamma (the protocol's "random responses"), then draws one category per
    marked value.  Returns (mask, categories): the responses are the values
    with ``values[mask] = categories``.  ``mask`` (bool) and ``uniforms``
    (float64), arrays of ``size`` entries, receive the mask and the uniform
    draws in place of new arrays.
    """
    if not 0 <= gamma <= 1:
        raise ValueError(f"gamma must be in [0, 1], got {gamma}")
    mask = np.less(rng.random(size, out=uniforms), gamma, out=mask)
    return mask, rng.integers(1, domain_size + 1, size=int(np.count_nonzero(mask)))


def rr_epsilon_to_gamma(epsilon0: float, domain_size: int) -> float:
    """Flip probability making L-ary randomized response eps0-LDP.

    gamma = L / (e^eps0 + L - 1); the worst-case likelihood ratio of the
    resulting mechanism is exactly e^eps0.
    """
    if not epsilon0 > 0:
        raise ValueError("epsilon0 must be positive")
    if domain_size < 2:
        raise ValueError("domain_size must be >= 2")
    return domain_size / (math.exp(epsilon0) + domain_size - 1)
