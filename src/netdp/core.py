"""Domain types shared by all modules: budgets, topologies, walks, RNG streams
and derived seeds.

User indices are 1-based throughout (matching the usual convention for a
ring ``1, 2, ..., n``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Literal, NamedTuple, Sequence

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


# numpy's SeedSequence hash (bit_generator.pyx) in uint32 lanes.  Entropy
# words fill a 4-word pool through a multiply-xorshift hash whose constant
# steps by a fixed multiplier at every call; the pool words are mixed pairwise,
# and a second such hash reads the state words out of the pool in turn.
_POOL = 4
_M32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)  # the xorshift, half a word
_FILL = (0x43B0D7E5, 0x931E8875)  # (init, mult) of the pool's hash
_READ = (0x8B51F9DD, 0x58F38DED)  # (init, mult) of the read-out hash


def _hash_calls(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(xor, multiply) constants of ``count`` successive hash calls as (count, 1)
    columns: call i xors with init * mult**i and multiplies by the next power."""
    const = [init]
    for _ in range(count):
        const.append(const[-1] * mult & _M32)
    column = np.array(const, dtype=np.uint32)[:, None]
    return column[:-1], column[1:]


# Built once here, so a pass allocates no lasting constants: the pool hash's
# calls 0-3 fill the pool and 4-15 mix it (4 more per word past the pool),
# and the read-out's first 8 calls give up to 8 state words.
_FILL_CALLS = _hash_calls(*_FILL, 4 * _POOL)
_READ_CALLS = _hash_calls(*_READ, 8)

# The pairwise mix for source word i hashes it once per other word j, with
# calls 4 + 3i, 5 + 3i, 6 + 3i in order of j; row i of each (4, 1) column is
# a placeholder, as word i is left as it is.
_MIX_CALLS = [
    [column[[4 + 3 * src + dst - (dst > src) if dst != src else 0 for dst in range(_POOL)]]
     for column in _FILL_CALLS]
    for src in range(_POOL)
]


def seed_sequence_state(words, n_words: int) -> np.ndarray:
    """``SeedSequence(row).generate_state(n_words, np.uint64)`` for each row of ``words``.

    ``words`` is an (R, W) array of 32-bit entropy words, one row per
    sequence, laid out as ``SeedSequence`` splits its entropy: each int as
    its words, least significant first.  The rows are hashed together in
    uint32 lanes.  A row shorter than the 4-word pool hashes as if
    zero-padded, since the pool hashes a missing word as a zero word.
    Returns an (R, n_words) uint64 array.
    """
    words = np.asarray(words, dtype=np.uint32)
    width = words.shape[1]
    lanes = words.T
    if width < _POOL:
        lanes = np.zeros((_POOL, words.shape[0]), dtype=np.uint32)
        lanes[:width] = words.T
    xor, mul = _FILL_CALLS if width <= _POOL else _hash_calls(*_FILL, 4 * width)
    pool = lanes[:_POOL] ^ xor[:_POOL]  # in place from here: on few lanes, each call's fixed cost dominates
    pool *= mul[:_POOL]
    pool ^= pool >> _SHIFT
    for src, (mix_xor, mix_mul) in enumerate(_MIX_CALLS):
        mixed = pool[src] ^ mix_xor
        mixed *= mix_mul
        mixed ^= mixed >> _SHIFT
        mixed *= _MIX_R
        np.subtract(_MIX_L * pool, mixed, out=mixed)
        mixed ^= mixed >> _SHIFT
        mixed[src] = pool[src]
        pool = mixed
    for extra in range(_POOL, width):  # words past the pool mix into every pool word
        calls = slice(4 * extra, 4 * extra + _POOL)
        mixed = lanes[extra] ^ xor[calls]
        mixed *= mul[calls]
        mixed ^= mixed >> _SHIFT
        mixed *= _MIX_R
        pool = np.subtract(_MIX_L * pool, mixed, out=mixed)
        pool ^= pool >> _SHIFT
    n32 = 2 * n_words
    xor, mul = _READ_CALLS if n32 <= len(_READ_CALLS[0]) else _hash_calls(*_READ, n32)
    state = pool.take(np.arange(n32), axis=0, mode="wrap")
    state ^= xor[:n32]
    state *= mul[:n32]
    state ^= state >> _SHIFT
    # each uint64 is a little-endian pair of uint32 words, as in numpy
    return np.ascontiguousarray(state.T).view("<u8").astype(np.uint64, copy=False)


def _seed_words(parts: Iterable[int]) -> list[int]:
    """The entropy words ``SeedSequence(parts)`` reads from non-negative ints:
    each int's 32-bit words, least significant first, zero-padded to the
    4-word pool (which does not change the hash).  The one encoding of both
    the stream keys and the derived seeds."""
    words = []
    for p in parts:
        while p > _M32:
            words.append(p & _M32)
            p >>= 32
        words.append(p)
    return words + [0] * (_POOL - len(words))


def _hash_rows(rows: list[list[int]], n_words: int) -> np.ndarray:
    """:func:`seed_sequence_state` of entropy rows of any widths, in row
    order, with one hash call per width."""
    widths = {len(row) for row in rows}
    if len(widths) == 1:  # every stream key and most derived seeds: no regrouping
        return seed_sequence_state(rows, n_words)
    state = np.empty((len(rows), n_words), dtype=np.uint64)
    for width in widths:
        members = [r for r, row in enumerate(rows) if len(row) == width]
        state[members] = seed_sequence_state([rows[r] for r in members], n_words)
    return state


def derive_seed(*parts) -> int:
    """Deterministic child seed from a tuple of non-negative integers.

    The seed is ``SeedSequence(parts).generate_state(1, np.uint64)``: the
    parts enter whole, as their 32-bit words.  When a part spans more than
    one word, the parts' word counts go in as the ``spawn_key``, so
    (1, 5, 7) and (1 + 5 * 2**32, 7) differ; tuples of parts below 2**32
    keep the seeds they always had.  A trailing zero part is lost in the
    pool's zero padding, so (7, 12) and (7, 12, 0) share a seed (ROADMAP
    item 2).
    """
    return derive_seeds([parts])[0]


def derive_seeds(rows: Iterable[Sequence[int]]) -> list[int]:
    """``[derive_seed(*parts) for parts in rows]``, hashed together."""
    entropy = []
    for parts in rows:
        parts = [int(p) for p in parts]
        if min(parts, default=0) < 0:
            raise ValueError(f"seed parts must be non-negative, got {parts}")
        words = _seed_words(parts)
        if max(parts, default=0) > _M32:  # the spawn key follows the padded run entropy
            words += [max(1, -(-p.bit_length() // 32)) for p in parts]
        entropy.append(words)
    return _hash_rows(entropy, 1)[:, 0].tolist()


def _stream_keys(seeds: Iterable[int], stream: int) -> np.ndarray:
    """(R, 2) uint64 Philox keys of (seed mod 2**64, stream), one per seed."""
    if not 0 <= stream <= _M32:
        raise ValueError(f"stream must lie in [0, 2**32), got {stream}")
    return _hash_rows([_seed_words((int(seed) % 2**64, stream)) for seed in seeds], 2)


def rng_stream(seed: int, stream: int = 0) -> np.random.Generator:
    """Return the generator for (seed, stream).

    Identical ``(seed, stream)`` pairs reproduce identical draws bit for bit.
    The generator is a Philox keyed by the first two uint64 state words of
    ``SeedSequence((seed mod 2**64, stream))``, as
    :func:`seed_sequence_state` computes them.  Stream ids do not always
    give independent streams: :func:`_seed_words` writes the pair as its
    32-bit words, zero padded to the 4-word pool, so for s < 2**32 stream k
    of seed s is stream 0 of seed s + k * 2**32 (ROADMAP item 2).
    """
    return rng_stream_list([seed], stream)[0]


def rng_stream_list(seeds: Sequence[int], stream: int = 0) -> list[np.random.Generator]:
    """``[rng_stream(s, stream) for s in seeds]``, keyed by one hash call;
    each generator owns its Philox, so their draws may interleave."""
    return [np.random.Generator(np.random.Philox(key=key)) for key in _stream_keys(seeds, stream)]


def rng_streams(seeds: Iterable[int], stream: int = 0) -> Iterator[np.random.Generator]:
    """Yield the generator of ``rng_stream(s, stream)`` for each seed in turn.

    The keys come from one hash call, and one Philox and one Generator
    serve every seed: taking the next generator re-keys the Philox to that
    seed's key with counter 0.  Philox is counter-based, so it then draws
    what a new Philox with that key would draw.  A yielded generator is
    valid only until the next one is taken.
    """
    rng = None
    for key in _stream_keys(seeds, stream).tolist():
        if rng is None:
            rng = np.random.Generator(np.random.Philox(key=key[0] | key[1] << 64))
        else:
            rng.bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": (0, 0, 0, 0), "key": key},
                "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        yield rng


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
    ``T`` as :class:`WalkTrace` does; step counters (such as the benchmark
    tracer's) read ``result.trace.T`` off every protocol alike.
    """

    steps: np.ndarray

    @property
    def T(self) -> int:
        return int(self.steps.shape[1])


def sample_walks(topology: Topology, T: int, seeds: Sequence[int]) -> WalkBatch:
    """Sample one token walk of length T per seed on the given topology.

    Ring walks are deterministic (token starts at user 1 and goes through
    the ring ``T / n`` times); T must be a multiple of n, and the batch holds
    the one walk that every seed shares as its single row.  Complete-graph
    walks send the token to a user chosen uniformly at random at each step,
    self-transitions included, one row per seed from its walk stream.
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    n = topology.n
    if topology.kind == RING:
        if T % n != 0:
            raise ValueError(f"ring walk length T={T} must be a multiple of n={n}")
        steps = np.tile(np.arange(1, n + 1, dtype=np.int64), T // n)[None, :]
    else:
        steps = np.empty((len(seeds), T), dtype=np.int64)
        for row, rng in zip(steps, rng_streams(seeds, STREAM_WALK)):
            row[:] = rng.integers(1, n + 1, size=T, dtype=np.int64)
    steps.setflags(write=False)
    return WalkBatch(steps)


def sample_walk(topology: Topology, T: int, seed: int) -> WalkTrace:
    """The walk of :func:`sample_walks` for one seed, as a :class:`WalkTrace`."""
    return WalkTrace(topology=topology, steps=sample_walks(topology, T, [seed]).steps[0])


def visit_counts(walk: WalkTrace) -> np.ndarray:
    """Number of visits per user; entry u-1 counts visits to user u. Sums to T."""
    return np.bincount(walk.steps - 1, minlength=walk.n)
