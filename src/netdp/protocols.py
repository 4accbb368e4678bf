"""Executable token-walk protocols: summation, histograms and noisy SGD.

Each holder adds its contribution x_u^k to the token, the aggregate that
walks the ring or the complete graph.  The contributions come in as one
plain table: an (n,) array gives user u the same contribution at every
visit, an (n, k_max) array gives it x_u^k at its k-th visit.  Each run
returns the token's final value (a float or an array) together with the
walk trace, the noise schedule and the reference aggregate, which is
everything the empirical accountant and the Monte Carlo drivers need.  The
noise schedule is a pair of arrays, ``noise_steps`` (the 1-based randomized
steps) and ``noise_scales`` (the scale used at each), never one object per
event.
Additive noise goes through :func:`~netdp.mechanisms.perturb` and randomized
response through :func:`~netdp.mechanisms.rr_gamma_many`.  Noisy SGD is
the exception: :func:`run_complete_sgd` advances a batch of runs in
lockstep and returns one :class:`SgdRuns` (the runs' checkpoint iterates,
each seed's walk and noised steps) instead of a result per run.  A run is a pure
function of (parameters, seed): walk sampling, additive noise, randomized
response and init draws consume independent streams of the master seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .core import (
    COMPLETE,
    RING,
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_RR,
    Topology,
    WalkBatch,
    WalkTrace,
    rng_stream,
    sample_walk,
)
from .mechanisms import GAUSSIAN, clip_contribution, perturb, rr_gamma_many


@dataclass(frozen=True)
class ProtocolResult:
    """Output of one protocol execution plus its accounting metadata.

    ``output`` is the token's final value: a scalar sum, a debiased
    histogram or a parameter vector; array values, like ``pre_debias``, are
    read-only.  The noise schedule is two read-only arrays of equal length:
    ``noise_steps`` (int64, 1-based, ascending) are the randomized steps and
    ``noise_scales`` (float64) the scale used at each, i.e. the noise
    std-dev for additive mechanisms or the flip probability for randomized
    response.
    """

    output: float | np.ndarray
    trace: WalkTrace
    noise_steps: np.ndarray
    noise_scales: np.ndarray
    true_value: float | np.ndarray | None
    pre_debias: np.ndarray | None = None  # raw count histogram, when applicable
    init_randomized: int = 0  # uniform elements seeding a histogram token

    def __post_init__(self):
        steps = np.asarray(self.noise_steps, dtype=np.int64)
        scales = np.asarray(self.noise_scales, dtype=np.float64)
        if steps.ndim != 1 or steps.shape != scales.shape:
            raise ValueError("noise_steps and noise_scales must be 1-d arrays of equal length")
        for arr in (steps, scales, self.output, self.pre_debias):
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
        object.__setattr__(self, "noise_steps", steps)
        object.__setattr__(self, "noise_scales", scales)

    @property
    def random_response_count(self) -> int:
        """Total randomized submissions (init block plus flipped responses)."""
        return self.init_randomized + self.noise_steps.size


# ---------------------------------------------------------------------------
# Contribution tables
# ---------------------------------------------------------------------------

def uniform_scalar_stream(n: int, seed: int, clip: float = 1.0, k_max: int | None = None) -> np.ndarray:
    """Per-user scalar contributions drawn uniformly in the clip range.

    Returns an (n,) table, or (n, k_max) with one column per visit.
    """
    rng = rng_stream(seed, STREAM_INIT)
    shape = (n,) if k_max is None else (n, k_max)
    return rng.uniform(-clip / 2.0, clip / 2.0, size=shape)


def uniform_category_stream(n: int, domain_size: int, seed: int, k_max: int | None = None) -> np.ndarray:
    """Per-user categories drawn uniformly on [1, domain_size].

    Returns an (n,) table, or (n, k_max) with one column per visit.
    """
    rng = rng_stream(seed, STREAM_INIT)
    shape = (n,) if k_max is None else (n, k_max)
    return rng.integers(1, domain_size + 1, size=shape)


def occurrence_index(steps: np.ndarray) -> np.ndarray:
    """0-based visit counter per step: entry t counts prior visits of steps[t].

    Sorts on uint16 keys when every entry fits, where numpy's stable sort is
    a radix sort; the stable permutation is unique, so the result does not
    depend on the key width.
    """
    keys = steps
    if steps.size and steps.min() >= 0 and steps.max() < 2**16:
        keys = steps.astype(np.uint16)
    order = np.argsort(keys, kind="stable")
    sorted_steps = keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_steps)) + 1
    starts = np.concatenate(([0], boundaries))
    group_sizes = np.diff(np.concatenate((starts, [steps.size])))
    within = np.arange(steps.size) - np.repeat(starts, group_sizes)
    out = np.empty(steps.size, dtype=np.int64)
    out[order] = within
    return out


def _contributions(table: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Contribution of each step's holder (``steps`` are 1-based users).

    An (n,) table gives user u the entry u - 1 at every visit; an
    (n, k_max) table gives it column k at its (0-based) k-th visit.
    """
    table = np.asarray(table)
    if table.ndim == 1:
        return table[steps - 1]
    return table[steps - 1, occurrence_index(steps)]


# ---------------------------------------------------------------------------
# Ring summation
# ---------------------------------------------------------------------------

def ring_noise_steps(n: int, K: int, protect_first_cycle: bool = False) -> np.ndarray:
    """1-based steps at which the single-noiser ring schedule perturbs.

    Default: noise every n - 1 hops at steps (n-1), 2(n-1), ..., giving
    exactly floor(K n / (n - 1)) noise events over the K laps, which is the
    count the utility guarantee is stated for.  Every window of n
    consecutive steps then contains a noise event added by a user other
    than the window's owner, but the tokens seen before the first noise
    step carry no noise.

    ``protect_first_cycle=True`` shifts the schedule to steps
    1, n, 2n - 1, ... so the very first contribution is perturbed too (the
    partial-lap observations at the start are then also protected), at the
    cost of one extra noise event whenever (n - 1) does not divide K n.
    """
    total = K * n
    if protect_first_cycle:
        return np.arange(1, total + 1, n - 1, dtype=np.int64)
    return np.arange(n - 1, total + 1, n - 1, dtype=np.int64)


def run_ring_sum(
    n: int,
    K: int,
    table: np.ndarray,
    sigma_loc: float,
    mode: Literal["single_noiser", "distributed"] = "single_noiser",
    seed: int = 0,
    clip: float = 1.0,
    noise_kind: Literal["gaussian", "laplace"] = GAUSSIAN,
    protect_first_cycle: bool = False,
) -> ProtocolResult:
    """Real summation on a directed ring, noise once every n - 1 hops.

    The token makes K laps; contributions are clipped to the declared
    range and added in the clear except at the scheduled noise steps, where
    the holder perturbs with std-dev sigma_loc.  ``distributed`` mode
    spreads the noise instead: every holder adds std-dev sigma_loc/sqrt(n),
    except the first contribution which uses the full sigma_loc; the total
    noise std-dev is then sqrt(floor(K n/(n-1)) + 1) * sigma_loc up to a
    vanishing 1/n correction.
    """
    if n < 2 or K < 1:
        raise ValueError(f"need n >= 2 and K >= 1, got n={n}, K={K}")
    if sigma_loc < 0:
        raise ValueError("sigma_loc must be non-negative")
    T = K * n
    trace = sample_walk(Topology(RING, n), T, seed)
    x = clip_contribution(_contributions(table, trace.steps), clip)
    true_value = float(np.sum(x))

    if mode == "single_noiser":
        noise_steps = ring_noise_steps(n, K, protect_first_cycle)
        scales = np.full(noise_steps.size, float(sigma_loc))
    elif mode == "distributed":
        noise_steps = np.arange(1, T + 1, dtype=np.int64)
        scales = np.full(T, sigma_loc / math.sqrt(n))
        scales[0] = sigma_loc
    else:
        raise ValueError(f"unknown mode {mode!r}")

    total = true_value
    if sigma_loc > 0:
        total += float(np.sum(perturb(0.0, noise_kind, scales, rng_stream(seed, STREAM_NOISE))))

    return ProtocolResult(
        output=total,
        trace=trace,
        noise_steps=noise_steps,
        noise_scales=scales,
        true_value=true_value,
    )


# ---------------------------------------------------------------------------
# Histograms
# ---------------------------------------------------------------------------

def _debias_histogram(counts: np.ndarray, gamma: float, domain_size: int,
                      num_responses: int, init_count: int) -> np.ndarray:
    """Unbiased histogram estimate from randomized-response counts.

    Each of the ``num_responses`` responses puts gamma/L expected mass on
    every bin besides (1 - gamma) on the true one, and each of the
    ``init_count`` uniform seed elements puts 1/L everywhere, so

        h_hat[l] = (counts[l] - num_responses * gamma / L - init_count / L)
                   / (1 - gamma).
    """
    return (counts - num_responses * gamma / domain_size - init_count / domain_size) / (1.0 - gamma)


def _rr_histogram(trace: WalkTrace, x: np.ndarray, domain_size: int, gamma: float,
                  seed: int, init_count: int) -> ProtocolResult:
    """Randomize every contribution, count the responses plus ``init_count``
    uniform seed elements, and debias."""
    x = np.asarray(x, dtype=np.int64)
    responses, flip = rr_gamma_many(x, gamma, domain_size, rng_stream(seed, STREAM_RR))
    counts = np.bincount(responses - 1, minlength=domain_size).astype(np.int64)
    if init_count:
        init = rng_stream(seed, STREAM_INIT).integers(1, domain_size + 1, size=init_count)
        counts += np.bincount(init - 1, minlength=domain_size).astype(np.int64)
    debiased = _debias_histogram(counts, gamma, domain_size, num_responses=x.size, init_count=init_count)
    noise_steps = np.flatnonzero(flip) + 1
    return ProtocolResult(
        output=debiased,
        trace=trace,
        noise_steps=noise_steps,
        noise_scales=np.full(noise_steps.size, gamma),
        true_value=np.bincount(x - 1, minlength=domain_size).astype(np.int64),
        pre_debias=counts,
        init_randomized=init_count,
    )


def audit_ring_sum_structure(result: ProtocolResult, require_other_noiser: bool = True) -> int:
    """Count inter-observation windows violating the ring privacy structure.

    A user at ring position p observes the token each time it arrives, i.e.
    after steps p - 1 + i * n.  The difference between two consecutive
    observations covers n steps and must contain at least one noise event
    and at most one contribution of the observer; with
    ``require_other_noiser`` the noise must include an event added by a
    different user, which is what actually protects the others.  Returns
    the number of violating (observer, window) pairs.
    """
    n = result.trace.n
    T = result.trace.T
    K = T // n
    p = np.arange(1, n + 1, dtype=np.int64)[:, None]
    i = np.arange(1, K, dtype=np.int64)[None, :]
    lo = p + (i - 1) * n  # first step after observation i
    hi = p - 1 + i * n  # step producing observation i + 1
    noise_steps = result.noise_steps
    upto_hi = np.searchsorted(noise_steps, hi, side="right")
    ok = upto_hi > np.searchsorted(noise_steps, lo, side="left")
    # the observer's own visits in [lo, hi], counted on (user, step) keys
    visits = np.sort(result.trace.steps * (T + 1) + np.arange(1, T + 1))
    own = (np.searchsorted(visits, p * (T + 1) + hi, side="right")
           - np.searchsorted(visits, p * (T + 1) + lo, side="left"))
    ok &= own <= 1
    if require_other_noiser:
        # noise step s is performed by ring position ((s-1) mod n)+1; in the
        # n-step window only step lo belongs to the observer
        ok &= upto_hi > np.searchsorted(noise_steps, lo + 1, side="left")
    return int(np.count_nonzero(~ok))


def run_ring_hist(
    n: int,
    K: int,
    domain_size: int,
    table: np.ndarray,
    gamma: float,
    seed: int = 0,
) -> ProtocolResult:
    """Discrete histogram on a directed ring via L-ary randomized response.

    The token histogram is seeded with ceil(gamma * n) uniform elements to
    hide the first contributions, then every contribution passes through
    RR_gamma before being counted.  The returned output is the debiased
    (unbiased) estimate; the raw counts and the randomized-submission count
    are exposed for verification.
    """
    if n < 2 or K < 1:
        raise ValueError(f"need n >= 2 and K >= 1, got n={n}, K={K}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    T = K * n
    trace = sample_walk(Topology(RING, n), T, seed)
    return _rr_histogram(trace, _contributions(table, trace.steps), domain_size, gamma, seed, init_count=math.ceil(gamma * n))


def run_complete_sum(
    n: int,
    T: int,
    table: np.ndarray,
    sigma_loc: float,
    seed: int = 0,
    clip: float = 1.0,
    noise_kind: Literal["gaussian", "laplace"] = GAUSSIAN,
) -> ProtocolResult:
    """Real summation along a uniform random walk; every holder perturbs.

    The output is unbiased for the sum of the T contributions actually
    drawn, with noise std-dev sqrt(T) * sigma_loc.  Per-user counters track
    how many times each user has contributed so far.
    """
    if n < 1 or T < 1:
        raise ValueError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    if sigma_loc < 0:
        raise ValueError("sigma_loc must be non-negative")
    trace = sample_walk(Topology(COMPLETE, n), T, seed)
    x = clip_contribution(_contributions(table, trace.steps), clip)
    true_value = float(np.sum(x))

    scales = np.full(T, float(sigma_loc))
    total = true_value
    if sigma_loc > 0:
        total += float(np.sum(perturb(0.0, noise_kind, scales, rng_stream(seed, STREAM_NOISE))))
    return ProtocolResult(
        output=total,
        trace=trace,
        noise_steps=np.arange(1, T + 1, dtype=np.int64),
        noise_scales=scales,
        true_value=true_value,
    )


def run_complete_hist(
    n: int,
    T: int,
    domain_size: int,
    table: np.ndarray,
    gamma: float,
    seed: int = 0,
) -> ProtocolResult:
    """Discrete histogram along a uniform random walk, no init block."""
    if n < 1 or T < 1:
        raise ValueError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")
    trace = sample_walk(Topology(COMPLETE, n), T, seed)
    return _rr_histogram(trace, _contributions(table, trace.steps), domain_size, gamma, seed, init_count=0)


# ---------------------------------------------------------------------------
# Noisy projected SGD on a complete graph
# ---------------------------------------------------------------------------

def _project_l2(W: np.ndarray, radius: float | None) -> np.ndarray:
    """Project each row of the fresh (B, d) array W onto the L2 ball, in place.

    The squared norms come from the same BLAS dot as ``np.linalg.norm`` of
    one row, so a projected row is bit-identical to a one-row projection.
    """
    if radius is None:
        return W
    norms = np.sqrt(np.matmul(W[:, None, :], W[:, :, None])[:, 0, 0])
    over = norms > radius
    W[over] *= (radius / norms[over])[:, None]
    return W


CHECKPOINT_EVERY = 100  # steps between kept SGD iterates, also the noise-draw block


class SgdRuns(NamedTuple):
    """B noisy-SGD runs advanced in lockstep from S distinct seeds.

    ``iterates[b, c]`` is run b's model after step ``checkpoint_steps[c]``:
    every :data:`CHECKPOINT_EVERY`-th step from the all-zero start at step
    0, and step T.  Walks and noise belong to seeds: row s of
    ``trace.steps`` is the walk of the s-th distinct seed (in order of
    first appearance), and row s of ``noised`` marks the steps t + 1 that
    added N(0, sigma^2 I_d) noise to its token (none when sigma = 0).  All
    arrays are read-only.
    """

    trace: WalkBatch  # (S, T), one walk per distinct seed
    noised: np.ndarray  # (S, T) bool
    checkpoint_steps: np.ndarray  # (C,) int64, ascending
    iterates: np.ndarray  # (B, C, d)

    @property
    def models(self) -> np.ndarray:
        """(B, d) final models."""
        return self.iterates[:, -1]


def run_complete_sgd(
    n: int,
    T: int,
    grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    eta: float | Sequence[float],
    sigma: float,
    d: int,
    seeds: Sequence[int],
    projection_radius: float | None = None,
    max_contributions: int | None = None,
    noise_when_capped: bool = True,
) -> SgdRuns:
    """Noisy projected SGD driven by uniform token walks, one run per seed.

    At each step the drawn user updates run b's token with a projected
    noisy gradient step  w <- Proj(w - eta_b (g + Z)),  Z ~ N(0, sigma^2 I_d),
    where ``grad_fn(W, users)`` returns the (k, d) gradients of the k
    contributing runs' iterates ``W`` at their holders ``users`` (1-based).
    Callers claiming iteration-amplification guarantees must pick
    eta <= 2/beta for beta-smooth losses.

    ``max_contributions`` caps how many times one user contributes; a
    capped user forwards the token untouched, still adding noise when
    ``noise_when_capped`` (the network regime: other users' guarantees
    rely on that noise).

    Walks, cap masks and noise masks depend only on the seed, so they are
    fixed before step 1 and all B runs step in lockstep, with at most one
    ``grad_fn`` call per step.  Runs sharing a seed share its walk and its
    noise draws; ``eta`` may differ per run.  Each seed's noise is drawn in
    blocks of :data:`CHECKPOINT_EVERY` steps, one ``normal(0, sigma, (k, d))``
    call for the block's k noised steps, which consumes the stream exactly
    as one ``size=d`` draw per step would.  Iterates are kept only at the
    block ends (see :class:`SgdRuns`).  Run b's result equals a single-run
    call with ``seeds=[seeds[b]]``, bit for bit.
    """
    if n < 1 or T < 1:
        raise ValueError(f"need n >= 1 and T >= 1, got n={n}, T={T}")
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    seeds = [int(s) for s in seeds]
    B = len(seeds)
    eta = np.broadcast_to(np.asarray(eta, dtype=float), (B,))
    if B == 0 or not np.all(eta > 0):
        raise ValueError("need at least one seed and every eta positive")

    # per distinct seed: walk, contribution (cap) mask, move mask, stream
    index = {s: i for i, s in enumerate(dict.fromkeys(seeds))}
    distinct = list(index)
    row = np.array([index[s] for s in seeds], dtype=np.int64)  # run -> distinct seed
    topology = Topology(COMPLETE, n)
    walks = np.stack([sample_walk(topology, T, s).steps for s in distinct])
    contributes = np.ones(walks.shape, dtype=bool)
    if max_contributions is not None:
        contributes = np.stack([occurrence_index(w) < max_contributions for w in walks])
    moves = np.ones(walks.shape, dtype=bool) if noise_when_capped else contributes
    noised = moves & (sigma > 0)
    rngs = [rng_stream(s, STREAM_NOISE) for s in distinct]

    checkpoint_steps = np.arange(0, T + 1, CHECKPOINT_EVERY, dtype=np.int64)
    if checkpoint_steps[-1] != T:
        checkpoint_steps = np.append(checkpoint_steps, T)
    iterates = np.zeros((B, checkpoint_steps.size, d), dtype=float)
    W = np.zeros((B, d), dtype=float)
    eta_col = eta[:, None]
    for c, (start, stop) in enumerate(zip(checkpoint_steps[:-1], checkpoint_steps[1:]), 1):
        noise = np.zeros((len(distinct), stop - start, d))
        for s, rng in enumerate(rngs):
            block = noised[s, start:stop]
            if block.any():
                noise[s, block] = rng.normal(0.0, sigma, size=(int(block.sum()), d))
        # runs read their seed's row at each step, so no (B, T) or
        # (B, block, d) array is built
        for t in range(start, stop):
            update = noise[row, t - start]
            live = contributes[row, t]
            if live.any():
                g = np.asarray(grad_fn(W[live], walks[row[live], t]), dtype=float)
                if g.shape != (int(live.sum()), d):
                    raise ValueError(f"gradient shape {g.shape} does not match dimension {d}")
                update[live] += g
            stepped = _project_l2(W - eta_col * update, projection_radius)
            moved = moves[row, t]
            W = stepped if moved.all() else np.where(moved[:, None], stepped, W)
        iterates[:, c] = W

    for arr in (walks, noised, checkpoint_steps, iterates):
        arr.setflags(write=False)
    return SgdRuns(trace=WalkBatch(walks), noised=noised, checkpoint_steps=checkpoint_steps,
                   iterates=iterates)
