"""Executable token-walk protocols: summation, histograms and noisy SGD.

Each holder adds its contribution x_u^k to the token, the aggregate that
walks the ring or the complete graph.  The contributions come in as one
plain table: an (n,) array gives user u the same contribution at every
visit, an (n, k_max) array gives it x_u^k at its k-th visit.

Every protocol takes a sequence of seeds and makes one run per seed; a
single run is the one-seed call.  Run r is a pure function of (parameters,
seeds[r]) and equals the one-seed call for that seed bit for bit: walk
sampling, additive noise, randomized response and init draws consume
independent streams of the run's seed.  What does not depend on the seed is
built once per call: the parameter and table checks, the ring walk and its
contributions, the noise schedule and the per-step scales.  Summation and
histograms return one :class:`ProtocolRuns` (outputs, reference aggregates,
walks, noise masks and scales as arrays, never one object per event);
noisy SGD, :func:`run_complete_sgd`, advances its runs in lockstep and
returns one :class:`SgdRuns`.  Additive noise goes through
:func:`~netdp.mechanisms.perturb` and randomized response through
:func:`~netdp.mechanisms.rr_gamma_draws`.
"""

from __future__ import annotations

import math
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .core import (
    COMPLETE,
    RING,
    STREAM_INIT,
    STREAM_NOISE,
    STREAM_RR,
    Topology,
    Walks,
    rng_stream,
    rng_stream_list,
    rng_streams,
    sample_walks,
)
from .mechanisms import GAUSSIAN, check_categories, clip_contribution, perturb, rr_gamma_draws


class ProtocolRuns(NamedTuple):
    """R runs of a summation or histogram protocol, one per entry of ``seeds``.

    ``outputs[r]`` is run r's final token: a sum, or a debiased histogram
    over the L categories; ``true_values[r]`` is the aggregate it estimates,
    ``pre_debias[r]`` a histogram run's raw counts and
    ``response_counts[r]`` its randomized submissions (init block plus
    randomized steps).  Rows that do not depend on the seed are held once:
    ``trace.steps`` has the ring's one walk or one walk per run on the
    complete graph, and ``noised`` marks the randomized steps t + 1 in one
    row for a sum, whose schedule is fixed, or one flip mask per run for a
    histogram.  ``scales[t]`` is the noise std-dev or flip probability of a
    randomized step t + 1.  ``trace.row(r)`` and :meth:`noise_steps` read
    run r's rows.  All arrays are read-only.
    """

    trace: Walks  # (1, T) on the ring, (R, T) on the complete graph
    noised: np.ndarray  # (1, T) bool for sums, (R, T) for histograms
    scales: np.ndarray  # (T,) float64
    outputs: np.ndarray  # (R,) float64 or (R, L) float64
    true_values: np.ndarray  # (R,) float64 or (R, L) int64
    pre_debias: np.ndarray | None  # (R, L) int64 raw counts; None for sums
    response_counts: np.ndarray  # (R,) int64

    def noise_steps(self, r: int) -> np.ndarray:
        """Ascending 1-based steps at which run r randomized."""
        return np.flatnonzero(self.noised[r if len(self.noised) > 1 else 0]) + 1


def _read_only(runs: ProtocolRuns) -> ProtocolRuns:
    for arr in runs[1:]:  # the trace's steps are read-only already
        if arr is not None:
            arr.setflags(write=False)
    return runs


def _seed_list(seeds: Sequence[int]) -> list[int]:
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ValueError("need at least one seed")
    return seeds


def _check_args(n: int, min_n: int, steps_name: str, steps: int,
                sigma_loc: float = 0.0, gamma: float = 0.0) -> None:
    if n < min_n or steps < 1:
        raise ValueError(f"need n >= {min_n} and {steps_name} >= 1, got n={n}, {steps_name}={steps}")
    if sigma_loc < 0:
        raise ValueError("sigma_loc must be non-negative")
    if not 0 <= gamma < 1:
        raise ValueError(f"gamma must be in [0, 1), got {gamma}")


# ---------------------------------------------------------------------------
# Contribution tables
# ---------------------------------------------------------------------------

def uniform_scalar_stream(n: int, seed: int, clip: float = 1.0, k_max: int | None = None) -> np.ndarray:
    """Per-user scalar contributions drawn uniformly in the clip range.

    Returns an (n,) table, or (n, k_max) with one column per visit.
    """
    if not 0 <= clip < math.inf:  # nan included
        raise ValueError(f"clip must be in [0, inf), got {clip}")
    rng = rng_stream(seed, STREAM_INIT)
    return rng.uniform(-clip / 2.0, clip / 2.0, size=_table_shape(n, k_max))


def uniform_category_stream(n: int, domain_size: int, seed: int, k_max: int | None = None) -> np.ndarray:
    """Per-user categories drawn uniformly on [1, domain_size].

    Returns an (n,) table, or (n, k_max) with one column per visit.
    """
    if domain_size < 1:
        raise ValueError(f"domain_size must be >= 1, got {domain_size}")
    rng = rng_stream(seed, STREAM_INIT)
    return rng.integers(1, domain_size + 1, size=_table_shape(n, k_max))


def _table_shape(n: int, k_max: int | None) -> tuple[int, ...]:
    """(n,), or (n, k_max) with one column per visit, for n >= 0 users."""
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    return (n,) if k_max is None else (n, k_max)


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
    if table.ndim == 1:
        return table.take(steps - 1)
    return table[steps - 1, occurrence_index(steps)]


# ---------------------------------------------------------------------------
# Summation
# ---------------------------------------------------------------------------

def _sum_runs(trace: Walks, noised: np.ndarray, scales: np.ndarray, true_values: np.ndarray,
              sigma_loc: float, noise_kind: str, seeds: list[int]) -> ProtocolRuns:
    """Each seed's output: its true value plus the sum of one ``perturb``
    draw over the noised steps' scales, drawn into one reused buffer."""
    outputs = true_values.copy()
    if sigma_loc > 0:
        step_scales = scales[noised]
        noise = np.empty(step_scales.size)
        for r, rng in enumerate(rng_streams(seeds, STREAM_NOISE)):
            outputs[r] += perturb(0.0, noise_kind, step_scales, rng, out=noise).sum()
    return _read_only(ProtocolRuns(trace, noised[None, :], scales, outputs, true_values, None,
                                   np.full(len(seeds), np.count_nonzero(noised), dtype=np.int64)))


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
    seeds: Sequence[int] = (0,),
    clip: float = 1.0,
    noise_kind: Literal["gaussian", "laplace"] = GAUSSIAN,
    protect_first_cycle: bool = False,
) -> ProtocolRuns:
    """Real summation on a directed ring, noise once every n - 1 hops.

    The token makes K laps; contributions are clipped to the declared
    range and added in the clear except at the scheduled noise steps, where
    the holder perturbs with std-dev sigma_loc.  ``distributed`` mode
    spreads the noise instead: every holder adds std-dev sigma_loc/sqrt(n),
    except the first contribution which uses the full sigma_loc; the total
    noise std-dev is then sqrt(floor(K n/(n-1)) + 1) * sigma_loc up to a
    vanishing 1/n correction.  The walk, the true sum and the schedule are
    the same for every seed; each seed draws its own noise.
    """
    seeds = _seed_list(seeds)
    _check_args(n, 2, "K", K, sigma_loc=sigma_loc)
    T = K * n
    if mode == "single_noiser":
        noised = np.zeros(T, dtype=bool)
        noised[ring_noise_steps(n, K, protect_first_cycle) - 1] = True
        scales = np.full(T, float(sigma_loc))
    elif mode == "distributed":
        noised = np.ones(T, dtype=bool)
        scales = np.full(T, sigma_loc / math.sqrt(n))
        scales[0] = sigma_loc
    else:
        raise ValueError(f"unknown mode {mode!r}")
    trace = sample_walks(Topology(RING, n), T, seeds)
    x = _contributions(clip_contribution(np.asarray(table), clip), trace.row(0))
    true_values = np.full(len(seeds), float(np.sum(x)))
    return _sum_runs(trace, noised, scales, true_values, sigma_loc, noise_kind, seeds)


def run_complete_sum(
    n: int,
    T: int,
    table: np.ndarray,
    sigma_loc: float,
    seeds: Sequence[int] = (0,),
    clip: float = 1.0,
    noise_kind: Literal["gaussian", "laplace"] = GAUSSIAN,
) -> ProtocolRuns:
    """Real summation along a uniform random walk; every holder perturbs.

    The output is unbiased for the sum of the T contributions actually
    drawn, with noise std-dev sqrt(T) * sigma_loc.  The table is clipped
    once per call; each seed draws its own walk and noise.
    """
    seeds = _seed_list(seeds)
    _check_args(n, 1, "T", T, sigma_loc=sigma_loc)
    trace = sample_walks(Topology(COMPLETE, n), T, seeds)
    clipped = clip_contribution(np.asarray(table), clip)
    true_values = np.array([np.sum(_contributions(clipped, walk)) for walk in trace.steps], dtype=float)
    return _sum_runs(trace, np.ones(T, dtype=bool), np.full(T, float(sigma_loc)), true_values,
                     sigma_loc, noise_kind, seeds)


def audit_ring_sum_structure(n: int, steps: np.ndarray, noise_steps: np.ndarray,
                             require_other_noiser: bool = True) -> int:
    """Count inter-observation windows violating the ring privacy structure.

    ``steps`` is a walk on the n users, such as ``ProtocolRuns.trace.row(r)``,
    and ``noise_steps`` its ascending 1-based noise steps, such as
    :meth:`ProtocolRuns.noise_steps`.  A user at ring position p observes the
    token each time it arrives, i.e. after steps p - 1 + i * n.  The
    difference between two consecutive observations covers n steps and must
    contain at least one noise event and at most one contribution of the
    observer; with ``require_other_noiser`` the noise must include an event
    added by a different user, which is what actually protects the others.
    Returns the number of violating (observer, window) pairs.
    """
    T = steps.size
    K = T // n
    p = np.arange(1, n + 1, dtype=np.int64)[:, None]
    i = np.arange(1, K, dtype=np.int64)[None, :]
    lo = p + (i - 1) * n  # first step after observation i
    hi = p - 1 + i * n  # step producing observation i + 1
    upto_hi = np.searchsorted(noise_steps, hi, side="right")
    ok = upto_hi > np.searchsorted(noise_steps, lo, side="left")
    # the observer's own visits in [lo, hi], counted on (user, step) keys
    visits = np.sort(steps * (T + 1) + np.arange(1, T + 1))
    own = (np.searchsorted(visits, p * (T + 1) + hi, side="right")
           - np.searchsorted(visits, p * (T + 1) + lo, side="left"))
    ok &= own <= 1
    if require_other_noiser:
        # noise step s is performed by ring position ((s-1) mod n)+1; in the
        # n-step window only step lo belongs to the observer
        ok &= upto_hi > np.searchsorted(noise_steps, lo + 1, side="left")
    return int(np.count_nonzero(~ok))


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


def _rr_runs(trace: Walks, table: np.ndarray, domain_size: int, gamma: float,
             seeds: list[int], init_count: int) -> ProtocolRuns:
    """Randomize every contribution of each seed's run, count the responses
    plus ``init_count`` uniform seed elements, and debias.

    A run's counts are its true histogram, less its randomized contributions,
    plus the categories they drew; the uniforms and the flip mask are drawn
    straight into a reused buffer and the run's row of ``noised``.
    """
    L = domain_size
    R, T = len(seeds), trace.T
    noised = np.empty((R, T), dtype=bool)
    uniforms = np.empty(T)
    true_values = np.empty((R, L), dtype=np.int64)
    counts = np.zeros((R, L), dtype=np.int64)
    if init_count:
        for r, rng in enumerate(rng_streams(seeds, STREAM_INIT)):
            counts[r] = np.bincount(rng.integers(1, L + 1, size=init_count), minlength=L + 1)[1:]
    for r, rng in enumerate(rng_streams(seeds, STREAM_RR)):
        if r < len(trace.steps):  # a new walk; past the ring's one row, row(r) repeats it
            x = _contributions(table, trace.row(r))
            true = np.bincount(x, minlength=L + 1)[1:]
        flip, categories = rr_gamma_draws(T, gamma, L, rng, noised[r], uniforms)
        counts[r] += (true - np.bincount(x.compress(flip), minlength=L + 1)[1:]
                      + np.bincount(categories, minlength=L + 1)[1:])
        true_values[r] = true
    outputs = _debias_histogram(counts, gamma, L, num_responses=T, init_count=init_count)
    return _read_only(ProtocolRuns(trace, noised, np.full(T, float(gamma)), outputs, true_values, counts,
                                   init_count + np.count_nonzero(noised, axis=1)))


def run_ring_hist(
    n: int,
    K: int,
    domain_size: int,
    table: np.ndarray,
    gamma: float,
    seeds: Sequence[int] = (0,),
) -> ProtocolRuns:
    """Discrete histogram on a directed ring via L-ary randomized response.

    The token histogram is seeded with ceil(gamma * n) uniform elements to
    hide the first contributions, then every contribution passes through
    RR_gamma before being counted.  The outputs are the debiased (unbiased)
    estimates; the raw counts and the randomized-submission counts are
    exposed for verification.  Every category in the table must lie in
    [1, domain_size].
    """
    seeds = _seed_list(seeds)
    _check_args(n, 2, "K", K, gamma=gamma)
    table = check_categories(table, domain_size)
    trace = sample_walks(Topology(RING, n), K * n, seeds)
    return _rr_runs(trace, table, domain_size, gamma, seeds, init_count=math.ceil(gamma * n))


def run_complete_hist(
    n: int,
    T: int,
    domain_size: int,
    table: np.ndarray,
    gamma: float,
    seeds: Sequence[int] = (0,),
) -> ProtocolRuns:
    """Discrete histogram along a uniform random walk, no init block."""
    seeds = _seed_list(seeds)
    _check_args(n, 1, "T", T, gamma=gamma)
    table = check_categories(table, domain_size)
    trace = sample_walks(Topology(COMPLETE, n), T, seeds)
    return _rr_runs(trace, table, domain_size, gamma, seeds, init_count=0)


# ---------------------------------------------------------------------------
# Noisy SGD on a complete graph
# ---------------------------------------------------------------------------

def _checked_grad(grad_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
                  W: np.ndarray, users: np.ndarray, d: int) -> np.ndarray:
    """``grad_fn(W, users)`` as a float array of shape (len(users), d)."""
    g = np.asarray(grad_fn(W, users), dtype=float)
    if g.shape != (users.size, d):
        raise ValueError(f"gradient shape {g.shape} does not match dimension {d}")
    return g


CHECKPOINT_EVERY = 100  # steps between kept SGD iterates
NOISE_BLOCK = 25  # steps per noise draw; divides CHECKPOINT_EVERY


class SgdRuns(NamedTuple):
    """B noisy-SGD runs advanced in lockstep.

    ``iterates[b, c]`` is run b's model after step ``checkpoint_steps[c]``:
    every :data:`CHECKPOINT_EVERY`-th step from the all-zero start at step
    0, and step T, or step T alone for a ``final_only`` call.  Walks belong
    to seeds and noise to noise keys, each in order of first appearance
    among the runs: row s of ``trace.steps`` is the walk of the s-th
    distinct seed, and row k of ``noised`` marks the steps t + 1 that added
    N(0, sigma^2 I_d) noise under the k-th distinct (seed, sigma,
    noise_when_capped) triple (none when sigma = 0).  With one sigma and one
    noise mode for all runs the two row orders coincide.  All arrays are
    read-only.
    """

    trace: Walks  # (S, T), one walk per distinct seed
    noised: np.ndarray  # (K, T) bool, one row per distinct noise key
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
    sigma: float | Sequence[float],
    d: int,
    seeds: Sequence[int],
    max_contributions: int | None = None,
    noise_when_capped: bool | Sequence[bool] = True,
    final_only: bool = False,
) -> SgdRuns:
    """Noisy SGD driven by uniform token walks, one run per seed, all in lockstep.

    At each step the drawn user updates run b's token with a noisy gradient
    step  w <- w - eta_b (g + Z),  Z ~ N(0, sigma_b^2 I_d),  where
    ``grad_fn(W, users)`` returns the (k, d) gradients of the k
    contributing runs' iterates ``W`` at their holders ``users`` (1-based).
    ``W`` may be the kernel's own iterate array and is passed read-only.
    The steps are unprojected; callers claiming iteration-amplification
    guarantees must pick eta <= 2/beta for beta-smooth losses, which makes
    each step contractive.

    ``max_contributions`` caps how many times one user contributes; a
    capped user forwards the token untouched, still adding noise when
    ``noise_when_capped`` (the network regime: other users' guarantees
    rely on that noise).  ``eta``, ``sigma`` and ``noise_when_capped`` each
    take one value or one per run.  ``final_only`` keeps the final models
    alone, for callers that read no trace.

    Lockstep contract, which every batching caller relies on:

    - Walks and cap masks depend only on the seed: runs sharing a seed
      share its walk.
    - Noise masks and noise streams depend only on the noise key
      (seed, sigma, noise_when_capped): runs sharing a key share its draws.
    - Run b's result equals a single-run call with its own seed, sigma,
      noise mode and eta, bit for bit, whatever else the call runs.
    - Iterates are kept at every :data:`CHECKPOINT_EVERY`-th step and at
      step T, or at step T alone under ``final_only`` (see :class:`SgdRuns`).

    The masks are fixed before step 1, so two flags per step are read off
    them once, every run contributes and some run does, which select one
    ``grad_fn`` call on all of ``W``, one on the contributing rows, or none.
    A run that does not move has a zero update and a finite eta, so
    stepping it leaves its iterate bit for bit.  Noise is drawn in blocks of
    :data:`NOISE_BLOCK` steps, one ``normal(0, sigma, (k, d))`` call per key
    for the block's k noised steps, which consumes the stream exactly as one
    ``size=d`` draw per step would; a short block keeps the (block, K, d)
    noise buffer small.
    """
    _check_args(n, 1, "T", T)
    seeds = _seed_list(seeds)
    B = len(seeds)
    eta, sigma, noise_when_capped = (
        np.broadcast_to(np.asarray(value, dtype=dtype), (B,)).tolist()
        for value, dtype in ((eta, float), (sigma, float), (noise_when_capped, bool))
    )
    if not all(s >= 0 for s in sigma):
        raise ValueError("sigma must be non-negative")
    if not all(0 < e < math.inf for e in eta):
        raise ValueError("every eta must be positive and finite")

    # per distinct seed: walk and contribution (cap) mask; per distinct
    # (seed, sigma, noise mode) key: noise mask and stream
    seed_index = {s: i for i, s in enumerate(dict.fromkeys(seeds))}
    runs_keys = list(zip(seeds, sigma, noise_when_capped))
    key_index = {k: i for i, k in enumerate(dict.fromkeys(runs_keys))}
    keys = list(key_index)
    row = np.array([seed_index[s] for s in seeds], dtype=np.int64)  # run -> seed row
    key_row = np.array([key_index[k] for k in runs_keys], dtype=np.int64)  # run -> key row
    walks = sample_walks(Topology(COMPLETE, n), T, list(seed_index))
    contributes = np.ones(walks.steps.shape, dtype=bool)
    if max_contributions is not None:
        contributes = np.stack([occurrence_index(w) < max_contributions for w in walks.steps])
    noised = np.stack([(contributes[seed_index[s]] | always) & (sig > 0) for s, sig, always in keys])
    rngs = rng_stream_list([s for s, _, _ in keys], STREAM_NOISE)  # interleaved draws: one Philox each

    checkpoint_steps = np.arange(0, T + 1, CHECKPOINT_EVERY, dtype=np.int64)
    if checkpoint_steps[-1] != T:
        checkpoint_steps = np.append(checkpoint_steps, T)
    if final_only:
        checkpoint_steps = checkpoint_steps[-1:]
    kept = {int(step): c for c, step in enumerate(checkpoint_steps) if step > 0}
    iterates = np.zeros((B, checkpoint_steps.size, d), dtype=float)
    W = np.zeros((B, d), dtype=float)
    eta_col = np.array(eta)[:, None]
    # two flags per step, read off the (S, T) mask; a block builds its
    # (block, K, d) noise buffer, one (K, d) slab per step, and the (block, B)
    # holders of every run, so no (B, T) or (B, block, d) array is built
    all_live = contributes.all(axis=0).tolist()
    any_live = contributes.any(axis=0).tolist()
    for start in range(0, T, NOISE_BLOCK):
        stop = min(start + NOISE_BLOCK, T)
        noise = np.zeros((stop - start, len(keys), d))
        counts = noised[:, start:stop].sum(axis=1).tolist()
        for k, ((_, sig, _), rng, count) in enumerate(zip(keys, rngs, counts)):
            if count:
                noise[noised[k, start:stop], k] = rng.normal(0.0, sig, size=(count, d))
        holders = walks.steps[:, start:stop].T.take(row, axis=1)
        for t in range(start, stop):
            update = noise[t - start].take(key_row, axis=0)
            users = holders[t - start]
            if all_live[t]:
                W.flags.writeable = False  # grad_fn gets the iterates themselves
                update += _checked_grad(grad_fn, W, users, d)
            elif any_live[t]:
                step_live = contributes[:, t][row]
                update[step_live] += _checked_grad(grad_fn, W[step_live], users[step_live], d)
            W = W - eta_col * update
        if stop in kept:
            iterates[:, kept[stop]] = W

    for arr in (noised, checkpoint_steps, iterates):
        arr.setflags(write=False)
    return SgdRuns(trace=walks, noised=noised, checkpoint_steps=checkpoint_steps, iterates=iterates)
