"""Domain types shared by all modules: budgets, topologies, walks, RNG streams
and derived seeds.

User indices are 1-based throughout (matching the usual convention for a
ring ``1, 2, ..., n``).
"""

from __future__ import annotations

import hashlib
from typing import Iterable, Iterator, Literal, Sequence

import numpy as np

RING: Literal["ring"] = "ring"
COMPLETE: Literal["complete"] = "complete"

# Stream ids for the per-purpose RNG streams derived from one master seed.
# Walk sampling, additive noise, randomized response and data generation
# consume independent streams so that changing one (e.g. the noise draw)
# never perturbs another (e.g. the walk itself).
STREAM_WALK = 0
STREAM_NOISE = 1
STREAM_RR = 2
STREAM_DATA = 3
STREAM_INIT = 4


def _seed_int(value) -> int:
    """``value`` as an int; a bool or a value that is not an integer (a float,
    even an integral one) is a ``ValueError`` naming it.  numpy integers pass."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"seeds and seed parts must be integers, got {value!r}")
    return int(value)


def derive_seed(*parts) -> int:
    """Deterministic child seed from a tuple of non-negative integers.

    The seed is the 64-bit BLAKE2b digest, read little-endian, of the parts
    written in decimal and joined by commas.  That text names the tuple
    alone, so tuples that differ in any part, in their split into parts or
    in their length (a trailing zero included) hash different texts.  A
    part that is not an integer is a ``ValueError``, not truncated.
    """
    parts = [_seed_int(p) for p in parts]
    if min(parts, default=0) < 0:
        raise ValueError(f"seed parts must be non-negative, got {parts}")
    digest = hashlib.blake2b(",".join(map(str, parts)).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _stream_keys(seeds: Iterable[int], stream: int) -> list[tuple[int, int]]:
    """Philox keys (seed mod 2**64, stream), one per integer seed."""
    if not 0 <= stream < 2**32:
        raise ValueError(f"stream must lie in [0, 2**32), got {stream}")
    return [(_seed_int(seed) % 2**64, int(stream)) for seed in seeds]


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the generator for (seed, stream).

    The generator is a Philox whose 128-bit key holds seed mod 2**64 in its
    low word and the stream id in its high word, at counter 0.  Distinct
    (seed mod 2**64, stream) pairs are distinct keys, and Philox draws
    independent sequences under distinct keys; identical pairs reproduce
    identical draws bit for bit.
    """
    return rng_stream_list([seed], stream)[0]


def rng_stream_list(seeds: Sequence[int], stream: int = 0) -> list[np.random.Generator]:
    """``[rng_stream(s, stream) for s in seeds]``; each generator owns its
    Philox, so their draws may interleave."""
    return [np.random.Generator(np.random.Philox(key=seed + (k << 64)))
            for seed, k in _stream_keys(seeds, stream)]


def rng_streams(seeds: Iterable[int], stream: int = 0) -> Iterator[np.random.Generator]:
    """Yield the generator of ``rng_stream(s, stream)`` for each seed in turn.

    One Philox and one Generator serve every seed: taking the next
    generator re-keys the Philox to that seed's key with counter 0.  Philox
    is counter-based, so it then draws what a new Philox with that key
    would draw.  A yielded generator is valid only until the next one is
    taken.
    """
    rng = None
    for seed, k in _stream_keys(seeds, stream):
        if rng is None:
            rng = np.random.Generator(np.random.Philox(key=seed + (k << 64)))
        else:
            rng.bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": (seed, k)},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng


def record(cls):
    """Make ``cls`` a frozen record of its annotated fields, in order.

    Installs plain functions, generated from no source text: an
    ``__init__`` taking the fields by position or keyword (class attributes
    are defaults, and a dict default is copied for each instance) and then
    calling ``__post_init__`` if the class has one; ``__repr__`` as
    ``Name(field=value, ...)``; ``__eq__`` and ``__hash__`` on the tuple of
    fields, equal only within the class; ``__setattr__`` and ``__delattr__``
    that raise ``AttributeError``; and ``replace(**changes)``, a validated
    copy with some fields changed.  After ``__post_init__``, every field
    holding an ``np.ndarray`` is set read-only, the array the caller passed
    in included: all arrays of a record are read-only.  Pickling and copying
    rebuild through ``__init__`` (``__reduce__``), so a copy is checked and
    frozen as the original was.
    """
    names = tuple(cls.__annotations__)
    defaults = {name: vars(cls)[name] for name in names if name in vars(cls)}
    post_init = getattr(cls, "__post_init__", lambda self: None)

    def __init__(self, *args, **kwargs):
        state = dict(zip(names, args))
        for name in names[len(args):]:
            if name in kwargs:
                state[name] = kwargs.pop(name)
            elif name in defaults:
                default = defaults[name]
                state[name] = dict(default) if isinstance(default, dict) else default
            else:
                raise TypeError(f"{cls.__name__}() missing required argument {name!r}")
        if len(args) > len(names) or kwargs:
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(names)}; got {len(args)} "
                            f"positional arguments and the extra keywords {sorted(kwargs)}")
        self.__dict__.update(state)
        post_init(self)
        for value in self.__dict__.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)

    def values(self):
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other):
        return values(self) == values(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        return f"{cls.__qualname__}({', '.join(f'{name}={getattr(self, name)!r}' for name in names)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"{cls.__name__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{cls.__name__} is frozen: cannot delete {name!r}")

    def replace(self, **changes):
        return cls(**{**{name: getattr(self, name) for name in names}, **changes})

    def __reduce__(self):
        return cls, values(self)

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__, replace, __reduce__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls


@record
class PrivacyBudget:
    """An (epsilon, delta) pair. epsilon > 0 and 0 <= delta < 1."""

    epsilon: float
    delta: float = 0.0

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must be in [0, 1), got {self.delta}")


@record
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


@record
class Walks:
    """Equal-length token walks on one topology, one row of ``steps`` each.

    ``steps`` is a read-only (R, T) int64 array of 1-based holders; a 1-d
    input is one walk, held as (1, T).  On the ring every walk is
    ``1, 2, ..., n`` repeated ``K`` times (``T = K * n``), so one row serves
    any number of runs; on the complete graph each entry is uniform on
    ``[1, n]``.
    """

    topology: Topology
    steps: np.ndarray

    def __post_init__(self):
        steps = np.asarray(self.steps, dtype=np.int64)
        steps.setflags(write=False)  # record sees a 1-d input only as its (1, T) view, so freeze the input
        steps = steps[None, :] if steps.ndim == 1 else steps
        object.__setattr__(self, "steps", steps)
        if steps.ndim != 2 or steps.size == 0:
            raise ValueError(f"steps must be one (T,) walk or non-empty (R, T), got shape {steps.shape}")
        if steps.min() < 1 or steps.max() > self.topology.n:
            raise ValueError("step entries must lie in [1, n]")

    @property
    def T(self) -> int:
        return int(self.steps.shape[1])

    @property
    def n(self) -> int:
        return self.topology.n

    def row(self, r: int) -> np.ndarray:
        """(T,) holders of walk r; a one-row ``Walks``, such as the ring's
        one walk, serves every r."""
        return self.steps[r if len(self.steps) > 1 else 0]


def sample_walks(topology: Topology, T: int, seeds: Sequence[int]) -> Walks:
    """Sample one token walk of length T per seed on the given topology.

    Ring walks are deterministic (token starts at user 1 and goes through
    the ring ``T / n`` times); T must be a multiple of n, and the result
    holds the one walk that every seed shares as its single row.
    Complete-graph walks send the token to a user chosen uniformly at
    random at each step, self-transitions included, one row per seed from
    its walk stream.  On both, an empty seed list or a seed that is not an
    integer is a ``ValueError``.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    seeds = [_seed_int(seed) for seed in seeds]
    if not seeds:
        raise ValueError("need at least one seed: the seed list must be non-empty")
    n = topology.n
    if topology.kind == RING:
        if T % n != 0:
            raise ValueError(f"ring walk length T={T} must be a multiple of n={n}")
        steps = np.tile(np.arange(1, n + 1, dtype=np.int64), T // n)
    else:
        steps = np.empty((len(seeds), T), dtype=np.int64)
        for row, rng in zip(steps, rng_streams(seeds, STREAM_WALK)):
            row[:] = rng.integers(1, n + 1, size=T, dtype=np.int64)
    return Walks(topology, steps)


def visit_counts(walks: Walks) -> np.ndarray:
    """(R, n) visits per user: entry [r, u - 1] counts walk r's visits to
    user u, so each row sums to T."""
    R, n = walks.steps.shape[0], walks.n
    keys = walks.steps + (np.arange(R) * n - 1)[:, None]  # walk r's user u -> r * n + u - 1
    return np.bincount(keys.ravel(), minlength=R * n).reshape(R, n)
