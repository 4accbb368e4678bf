"""Domain types shared by all modules: budgets, topologies, walks, RNG streams.

User indices are 1-based throughout (matching the usual convention for a
ring ``1, 2, ..., n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Literal, NamedTuple

import numpy as np

RING: Literal["ring"] = "ring"
COMPLETE: Literal["complete"] = "complete"

_UINT64_MASK = (1 << 64) - 1

# Stream ids for the per-purpose RNG streams derived from one master seed.
# Walk sampling, additive noise, randomized response and data generation
# consume independent streams so that changing one (e.g. the noise draw)
# never perturbs another (e.g. the walk itself).
STREAM_WALK = 0
STREAM_NOISE = 1
STREAM_RR = 2
STREAM_DATA = 3
STREAM_INIT = 4


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the generator for (seed, stream).

    Identical ``(seed, stream)`` pairs reproduce identical draws bit-for-bit
    within one build.  Streams with different ids are statistically
    independent (counter-based Philox keyed on the pair).
    """
    key = np.random.SeedSequence((int(seed) & _UINT64_MASK, int(stream)))
    return np.random.Generator(np.random.Philox(key))


@dataclass(frozen=True)
class PrivacyBudget:
    """An (epsilon, delta) pair. epsilon > 0 and 0 <= delta < 1."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


@dataclass(frozen=True)
class Topology:
    """A communication graph: a directed ring or the complete graph on n users."""

    kind: Literal["ring", "complete"]
    n: int

    def __post_init__(self):
        if self.kind not in (RING, COMPLETE):
            raise ValueError(f"unknown topology kind {self.kind!r}")
        min_n = 2 if self.kind == RING else 1
        if self.n < min_n:
            raise ValueError(f"{self.kind} topology needs n >= {min_n}, got {self.n}")


@dataclass(frozen=True)
class WalkTrace:
    """Ordered record of token holders (1-based user index per step).

    For a ring walk the sequence is ``1, 2, ..., n`` repeated ``K`` times
    (``T = K * n``); for a complete-graph walk each entry is uniform on
    ``[1, n]``.
    """

    topology: Topology
    steps: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=np.int64)
        object.__setattr__(self, "steps", steps)
        steps.setflags(write=False)
        if steps.ndim != 1 or steps.size == 0:
            raise ValueError("steps must be a non-empty 1-d sequence")
        if steps.min() < 1 or steps.max() > self.topology.n:
            raise ValueError("step entries must lie in [1, n]")

    @property
    def T(self) -> int:
        return int(self.steps.size)

    @property
    def n(self) -> int:
        return self.topology.n


class WalkBatch(NamedTuple):
    """Equal-length token walks, one row of ``steps`` each.

    ``steps`` is a read-only (B, T) int64 array of 1-based holders.  The
    type exists so that a batched protocol's ``trace`` has the walk length
    ``T`` as :class:`WalkTrace` does; per-walk step counters (such as the
    benchmark tracer's) read ``result.trace.T`` off every protocol alike.
    """

    steps: np.ndarray

    @property
    def T(self) -> int:
        return int(self.steps.shape[1])


def sample_walk(topology: Topology, T: int, seed: int) -> WalkTrace:
    """Sample a token walk of length T on the given topology.

    Ring walks are deterministic (token starts at user 1 and goes through
    the ring ``T / n`` times); T must be a multiple of n, and the same
    read-only trace is returned for every seed.  Complete-graph walks send
    the token to a user chosen uniformly at random at each step,
    self-transitions included.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    n = topology.n
    if topology.kind == RING:
        if T % n != 0:
            raise ValueError(f"ring walk length T={T} must be a multiple of n={n}")
        return _ring_walk(topology, T)
    steps = rng_stream(seed, STREAM_WALK).integers(1, n + 1, size=T, dtype=np.int64)
    return WalkTrace(topology=topology, steps=steps)


@lru_cache(maxsize=1)  # a batch of ring runs shares one (n, T); keep no other walk alive
def _ring_walk(topology: Topology, T: int) -> WalkTrace:
    steps = np.tile(np.arange(1, topology.n + 1, dtype=np.int64), T // topology.n)
    return WalkTrace(topology=topology, steps=steps)


def visit_counts(walk: WalkTrace) -> np.ndarray:
    """Number of visits per user; entry u-1 counts visits to user u. Sums to T."""
    return np.bincount(walk.steps - 1, minlength=walk.n)
