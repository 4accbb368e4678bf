"""Domain types shared by all modules: budgets, topologies, walks, RNG streams.

User indices are 1-based throughout the in-memory API (matching the usual
convention for a ring ``1, 2, ..., n``).  Serialized output (CSV) uses
0-based indices; see :meth:`WalkTrace.to_csv`.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Literal

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
    seed: int

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

    def to_csv(self, path) -> None:
        """Write the trace as CSV with header ``step,user``.

        Both columns are 0-based in the file (serialization convention);
        the in-memory ``steps`` array stays 1-based.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "user"])
            for i, u in enumerate(self.steps):
                writer.writerow([i, int(u) - 1])

    @classmethod
    def from_csv(cls, path, topology: Topology, seed: int = 0) -> "WalkTrace":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != ["step", "user"]:
                raise ValueError(f"unexpected trace header {header!r}")
            users = [int(row[1]) + 1 for row in reader]
        return cls(topology=topology, steps=np.array(users), seed=seed)


def sample_walk(topology: Topology, T: int, seed: int) -> WalkTrace:
    """Sample a token walk of length T on the given topology.

    Ring walks are deterministic (token starts at user 1 and goes through
    the ring ``T / n`` times); T must be a multiple of n.  Complete-graph
    walks send the token to a user chosen uniformly at random at each step,
    self-transitions included.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    n = topology.n
    if topology.kind == RING:
        if T % n != 0:
            raise ValueError(f"ring walk length T={T} must be a multiple of n={n}")
        steps = np.tile(np.arange(1, n + 1, dtype=np.int64), T // n)
    else:
        steps = rng_stream(seed, STREAM_WALK).integers(1, n + 1, size=T, dtype=np.int64)
    return WalkTrace(topology=topology, steps=steps, seed=seed)


def visit_counts(walk: WalkTrace) -> np.ndarray:
    """Number of visits per user; entry u-1 counts visits to user u. Sums to T."""
    return np.bincount(walk.steps - 1, minlength=walk.n)


def cycle_lengths(walk: WalkTrace, v: int) -> np.ndarray:
    """Lengths of the walk segments ending at each visit of user v.

    Segment i runs from just after visit i-1 of v up to and including visit
    i, so the prefix before the first visit is folded into the first cycle.
    Steps after the last visit of v are not part of any cycle (they are
    never observed by v, hence incur no privacy loss); the lengths sum to
    the step index of v's last visit.  Empty if v is never visited.
    """
    if not 1 <= v <= walk.n:
        raise ValueError(f"user index v={v} out of range [1, {walk.n}]")
    times = np.flatnonzero(walk.steps == v) + 1  # 1-based visit times
    if times.size == 0:
        return np.empty(0, dtype=np.int64)
    return np.diff(times, prepend=0)
