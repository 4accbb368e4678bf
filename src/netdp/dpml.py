"""Logistic regression under three DP-SGD regimes: local, network, centralized.

The three regimes share one training loop (noisy SGD driven by a uniform
token walk, mini-batch = the drawn user's full local dataset) and differ
only in how the per-step noise scale sigma is calibrated to the end-to-end
(eps, delta) target:

  local        advanced composition over the user's own capped releases of
               the Gaussian mechanism,
  network      the walk-based Renyi-DP chain (:func:`~netdp.accountant.sigma_search`),
  centralized  subsampled-Gaussian RDP at rate 1/n composed over all T steps
               (the trusted-curator baseline).

Rows are normalized to unit L2 norm so the logistic loss is 1-Lipschitz and
1/4-smooth, giving gradient sensitivity 2L = 2 under user-level adjacency.

:func:`train` and :func:`tune_eta` take a :class:`RegimeBatch` (configs
with their calibrated sigma) and one flat list of runs, each a
(config index, seed) pair.  All runs of a call step through the lockstep
kernel :func:`~netdp.protocols.run_complete_sgd` as one batch, under its
contract: a run's result is the one it gets alone.
"""

from __future__ import annotations

import bisect
import csv
import math
import warnings
from typing import Callable, Literal, NamedTuple, Sequence

import numpy as np

from .core import STREAM_DATA, PrivacyBudget, record, rng_stream
from .errors import InfeasibleError
from .accountant import (
    MAX_RDP_ORDER,
    RdpPoint,
    advanced_composition,
    grid_bisect,
    network_sgd_eps,
    rdp_to_dp,
    sampled_gaussian_rdp,
    sigma_search,
)
from .mechanisms import gaussian_epsilon
from .protocols import SgdRuns, run_complete_sgd

LOCAL: Literal["local"] = "local"
NETWORK: Literal["network"] = "network"
CENTRALIZED: Literal["centralized"] = "centralized"

LIPSCHITZ = 1.0  # unit-norm rows make the logistic loss 1-Lipschitz
GRAD_SENSITIVITY = 2.0 * LIPSCHITZ

ETA_GRID = np.geomspace(1e-4, 2.0, 10)
DIVERGENCE_FACTOR = 1e3  # final / initial objective above which a run is flagged

_SIGMA_GRID_RATIO = 1.01


@record
class Dataset:
    """Preprocessed classification data partitioned across users."""

    X_train: np.ndarray
    y_train: np.ndarray
    X_test: np.ndarray
    y_test: np.ndarray
    user_rows: tuple  # per-user index arrays into the train split, each non-empty

    @property
    def n_users(self) -> int:
        return len(self.user_rows)

    @property
    def dim(self) -> int:
        return self.X_train.shape[1]


@record
class TrainConfig:
    """One training configuration: regime, T steps at step size eta, the
    privacy budget, and the contribution cap's multiplier."""

    regime: Literal["local", "network", "centralized"]
    T: int
    eta: float
    budget: PrivacyBudget
    cap_multiplier: float = 2.0

    def __post_init__(self):
        if self.regime not in (LOCAL, NETWORK, CENTRALIZED):
            raise ValueError(f"unknown regime {self.regime!r}")
        if self.T < 1 or not self.eta > 0 or not self.cap_multiplier > 0:
            raise ValueError("need T >= 1, eta > 0, cap_multiplier > 0")


class TrainRuns(NamedTuple):
    """B training runs of one :func:`train` call, rows in run order.

    ``objective[b, c]`` and ``accuracy[b, c]`` are run b's train objective
    and test accuracy after step ``steps[c]`` (the kernel's
    ``checkpoint_steps``), and ``models[b]`` is its final model.  All
    arrays are read-only.
    """

    steps: np.ndarray  # (C,) int64, ascending
    objective: np.ndarray  # (B, C) float64
    accuracy: np.ndarray  # (B, C) float64
    models: np.ndarray  # (B, d) float64

    @property
    def diverged(self) -> np.ndarray:
        """(B,) bool: the final objective exceeds :data:`DIVERGENCE_FACTOR`
        times the initial one (floored at 1e-12), or is not a number."""
        return ~(self.objective[:, -1] <= DIVERGENCE_FACTOR * np.maximum(self.objective[:, 0], 1e-12))


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

def make_synthetic(n_users: int, points_per_user: int = 8, dim: int = 20, seed: int = 0) -> Dataset:
    """Two-Gaussian binary classification data, preprocessed and partitioned.

    Class means sit at +/- 3/(2 sqrt(dim)) per coordinate, so the classes
    are linearly separable up to noise in every direction.  About a quarter
    as many rows again are drawn for the test split, as many as leaves
    every user exactly ``points_per_user`` train rows.
    """
    rng = rng_stream(seed, STREAM_DATA)
    rows = n_users * points_per_user
    total = rows + math.ceil(rows * 0.25)
    while total - _test_rows(total) > rows:  # starts >= rows, falls by 0 or 1 a step
        total -= 1
    y = rng.integers(0, 2, size=total) * 2 - 1
    mean = 3.0 / (2.0 * math.sqrt(dim))
    X = rng.normal(0.0, 1.0, size=(total, dim)) + y[:, None] * mean
    return preprocess(X, y.astype(float), n_users=n_users, seed=seed)


def load_csv_dataset(path, n_users: int, seed: int = 0) -> Dataset:
    """Read a CSV with numeric feature columns and a final ``label`` column."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise ValueError(f"dataset CSV {path} is empty")
        if header[-1] != "label":
            raise ValueError("last CSV column must be named 'label'")
        rows = [[float(v) for v in row] for row in reader]
    if not rows:
        raise ValueError(f"dataset CSV {path} has no data rows")
    data = np.asarray(rows, dtype=float)
    X, y = data[:, :-1], data[:, -1]
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise ValueError("labels must be in {-1, +1}")
    return preprocess(X, y, n_users=n_users, seed=seed)


def _test_rows(total: int) -> int:
    """Rows :func:`preprocess` holds out for the test split: 20% of ``total``."""
    return int(round(0.2 * total))


def preprocess(X: np.ndarray, y: np.ndarray, n_users: int, seed: int) -> Dataset:
    """Standardize, unit-normalize rows, split 80/20 and partition by user.

    Feature moments come from the train split only; constant columns are
    dropped with a warning.  Rows are scaled to unit L2 norm after
    standardization so that the logistic loss is 1-Lipschitz.  Raises
    ``ValueError`` when the train split is empty or has fewer rows than
    there are users, so every user holds data, and when no feature column
    is left.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not np.isfinite(X).all():
        raise ValueError("features must be finite, got NaN or inf")
    rng = rng_stream(seed, STREAM_DATA)
    perm = rng.permutation(X.shape[0])
    n_test = _test_rows(X.shape[0])
    test_idx, train_idx = perm[:n_test], perm[n_test:]
    if len(train_idx) < max(n_users, 1):  # before the column moments, which need a row
        raise ValueError(f"train split has {len(train_idx)} rows for {n_users} users")

    mu = X[train_idx].mean(axis=0)
    sd = X[train_idx].std(axis=0)
    keep = sd > 0
    if not keep.any():
        raise ValueError("dataset has no non-constant feature column")
    if not keep.all():
        warnings.warn(f"dropping {int((~keep).sum())} constant feature column(s)")
    Xs = (X[:, keep] - mu[keep]) / sd[keep]
    norms = np.linalg.norm(Xs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    Xs = Xs / norms

    # partition the train split uniformly at random into n_users groups,
    # indexing into the train-split arrays
    train_positions = rng.permutation(len(train_idx))
    user_rows = tuple(
        np.sort(chunk).astype(np.int64)
        for chunk in np.array_split(train_positions, n_users)
    )
    return Dataset(
        X_train=Xs[train_idx],
        y_train=y[train_idx],
        X_test=Xs[test_idx],
        y_test=y[test_idx],
        user_rows=user_rows,
    )


# ---------------------------------------------------------------------------
# Logistic model
# ---------------------------------------------------------------------------

def logistic_objective(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Mean logistic loss ln(1 + exp(-y w.x)), numerically stable."""
    margins = y * (X @ w)
    return float(np.mean(np.logaddexp(0.0, -margins)))


def logistic_grad(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Mean logistic-loss gradient over a user's m rows; L2 norm <= 1.

    grad = -(1/m) sum_i sigmoid(-y_i w.x_i) y_i x_i, for labels y_i = +/-1.
    Stacks broadcast: w (..., d), X (..., m, d) and y (..., m) give (..., d)
    gradients, each bit-identical to the call on its own slice.  The rows
    are signed into one C-contiguous stack z_i = y_i x_i, whatever the
    layout of X, and summed by :func:`_signed_grad`.
    """
    Z = np.multiply(np.asarray(y)[..., None], X, order="C")
    with np.errstate(over="ignore"):  # exp(margins) = inf gives s = 0
        return _signed_grad(w, Z)


def _signed_grad(W: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """:func:`logistic_grad` of W (..., d) on C-contiguous signed rows
    Z = y x (..., m, d); exp overflows under the caller's ``errstate``.

    This is the unsigned form -(1/m) sum_i s_i y_i x_i bit for bit: y = +/-1
    makes y x exact, and rounding is sign-symmetric, so (y x).w = y (x.w)
    in every partial sum of gemv, (y x) s = x (s y) and a / (-m) = -(a / m).
    Only a zero margin's sign can differ, and sigmoid(+/-0) = 1/2.  Each
    slice's margins are one BLAS gemv, as in the call on that slice alone
    (on other layouts matmul takes another loop).  For d > 1, einsum adds
    each row's rounded product into the (..., d) output in row order, the
    additions of ``.mean(axis=-2)``; numpy's x86-64 baseline has no FMA, so
    no product is fused into its addition.  At d = 1 each slice's m terms
    are summed pairwise along the last axis, as numpy sums a single slice's
    contiguous column.
    """
    s = (Z @ W[..., None])[..., 0]  # margins y w.x
    np.exp(s, out=s)
    s += 1.0
    np.divide(1.0, s, out=s)  # sigmoid(-margins)
    m = Z.shape[-2]
    if Z.shape[-1] == 1:
        return np.add.reduce(Z[..., 0] * s, axis=-1)[..., None] / -m
    return np.einsum("...ij,...i->...j", Z, s) / -m


def _batched_grad(data: Dataset) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``grad_fn(W, users)`` for the lockstep kernel: row k is
    :func:`logistic_grad` of ``W[k]`` on user ``users[k]``'s rows, bit for bit.

    Users are grouped by row count m; every user shares one group when all
    hold the same m, as in :func:`make_synthetic`.  Each group's rows are
    signed once, z = y x, into one C-contiguous (users, m, d) stack, so a
    step gathers its holders' (holders, m, d) stack with one ``take`` and
    multiplies no label (:func:`_signed_grad`); the holders of one step with
    equal m share one call.  Padding short users with zero rows instead
    would not be bit-exact: BLAS gemv blocks its rows, so a row's dot
    product can depend on the number of rows in the call.  The gradients
    enter no ``errstate`` of their own: exp(margin) = inf, which gives
    s = 0, is silenced once per lockstep call by :func:`_run_lockstep`.
    """
    X, y = data.X_train, data.y_train

    def signed_stack(users) -> np.ndarray:
        rows = np.stack([data.user_rows[u] for u in users])
        Z = X.take(rows, axis=0)
        Z *= y.take(rows)[..., None]  # in place: no second full-size array
        return Z

    groups = {}  # m -> users (0-based) with m train rows
    for u, idx in enumerate(data.user_rows):
        groups.setdefault(idx.size, []).append(u)
    if len(groups) == 1:
        stack = signed_stack(range(data.n_users))
        return lambda W, users: _signed_grad(W, stack.take(users - 1, axis=0))

    sizes = np.array([idx.size for idx in data.user_rows])
    position = np.empty(sizes.size, dtype=np.int64)
    stacks = {}  # m -> signed (users with m rows, m, d) stack
    for m, users in sorted(groups.items()):
        position[users] = np.arange(len(users))
        stacks[m] = signed_stack(users)

    def grad(W: np.ndarray, users: np.ndarray) -> np.ndarray:
        G = np.empty_like(W)
        m_of = sizes[users - 1]
        for m, stack in stacks.items():
            sel = m_of == m
            if sel.any():
                G[sel] = _signed_grad(W[sel], stack.take(position[users[sel] - 1], axis=0))
        return G

    return grad


def _train_objective(data: Dataset) -> Callable[[np.ndarray], float]:
    """``logistic_objective(w, data.X_train, data.y_train)``, bit for bit,
    on rows signed and negated once, -y x: each margin comes out of the
    same gemv negated exactly (its sign at zero aside, and
    logaddexp(0, +/-0) = ln 2), so no evaluation multiplies a label."""
    Zneg = -data.y_train[:, None] * data.X_train
    return lambda w: float(np.mean(np.logaddexp(0.0, Zneg @ w)))


def test_accuracy(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    """Share of rows whose label is the sign of ``X @ w`` (+1 at zero); nan for
    a model with a non-finite entry, which predicts nothing."""
    if not np.isfinite(w).all():
        return math.nan
    return float(np.mean(np.where(X @ w >= 0, 1.0, -1.0) == y))


# ---------------------------------------------------------------------------
# Calibration
# ---------------------------------------------------------------------------

def contribution_cap(T: int, n: int, cap_multiplier: float) -> int:
    """Deterministic per-user contribution budget c * T / n (at least 1)."""
    return max(1, math.ceil(cap_multiplier * T / n))


def _sigma_grid() -> np.ndarray:
    """Geometric sigma grid from 1e-2 to 1e6 at ratio :data:`_SIGMA_GRID_RATIO`."""
    lo = 1e-2
    count = int(math.log(1e6 / lo) / math.log(_SIGMA_GRID_RATIO)) + 1
    return lo * _SIGMA_GRID_RATIO ** np.arange(count)


def local_sgd_epsilon(sigma: float, releases: int, delta: float) -> float:
    """End-to-end eps of `releases` Gaussian releases at scale sigma under LDP.

    Splits delta as delta/(2K) per release plus delta/2 for the advanced
    composition; a single release uses the plain Gaussian mechanism bound.
    Returns inf when the per-release eps leaves the validity range (eps < 1)
    of the classic Gaussian bound.
    """
    if releases == 1:
        eps = gaussian_epsilon(sigma, GRAD_SENSITIVITY, delta)
        return eps if eps < 1 else float("inf")
    delta_step = delta / (2.0 * releases)
    eps_step = gaussian_epsilon(sigma, GRAD_SENSITIVITY, delta_step)
    if eps_step >= 1:
        return float("inf")
    return advanced_composition(eps_step, delta_step, releases, delta / 2.0).epsilon


def centralized_sgd_epsilon(sigma: float, T: int, n: int, delta: float) -> float:
    """End-to-end eps of T subsampled-Gaussian steps at sampling rate 1/n.

    Every order alpha > 1 gives a valid bound
    eps(alpha) = T * rdp(alpha) + ln(1/delta) / (alpha - 1)
    (:func:`~netdp.accountant.rdp_to_dp`); this returns the least over the
    integer orders 2..``MAX_RDP_ORDER``, where the RDP is exact.  Over them
    eps(alpha) falls, then never falls again
    (``tests/test_dpml.py::TestCentralizedOrders``), so the standard
    library's ``bisect.bisect_left`` finds the first order past which eps
    stops falling, ~17 RDP evaluations instead of 255.  The floor is
    ln(1/delta) / (MAX_RDP_ORDER - 1), 0.054 at delta = 1e-6.
    """
    z = sigma / GRAD_SENSITIVITY
    q = 1.0 / n

    def eps_at(alpha):
        return rdp_to_dp(RdpPoint(alpha, T * sampled_gaussian_rdp(q, z, float(alpha))), delta)

    # not (a < b), not a >= b: a nan eps counts as no longer falling
    return eps_at(bisect.bisect_left(range(MAX_RDP_ORDER), True, lo=2,
                                     key=lambda a: not eps_at(a + 1) < eps_at(a)))


def calibrate_regime(config: TrainConfig, n: int) -> float:
    """Smallest grid sigma meeting the regime's (eps, delta) target.

    The local and centralized regimes bisect the grid index of
    :func:`_sigma_grid` with :func:`~netdp.accountant.grid_bisect`, taking
    each sigma's eps from :func:`verify_privacy`; the network regime does
    the same on its own grid in :func:`~netdp.accountant.sigma_search`.  The
    bisection relies on eps falling along the grid, which
    ``tests/test_accountant.py::TestGridMonotonicity`` pins for all three.
    """
    eps, delta = config.budget.epsilon, config.budget.delta
    if config.regime == NETWORK:
        cap = contribution_cap(config.T, n, config.cap_multiplier)
        sigma, _ = sigma_search(eps, delta, T_u=cap, n=n, L=LIPSCHITZ)
        return sigma
    grid = _sigma_grid()
    try:
        return float(grid[grid_bisect(lambda s: verify_privacy(config, n, s), eps, grid)])
    except InfeasibleError:
        diagnostics = {"regime": config.regime, "ceiling": float(grid[-1])}
        if config.regime == CENTRALIZED:  # no sigma brings eps below the top order's term
            diagnostics["order_cap_floor"] = math.log(1.0 / delta) / (MAX_RDP_ORDER - 1.0)
        raise InfeasibleError(
            f"no sigma on the grid meets eps <= {eps} for regime {config.regime}",
            diagnostics=diagnostics,
        ) from None


def verify_privacy(config: TrainConfig, n: int, sigma: float) -> float:
    """Re-derive the end-to-end eps for a trained run's parameters.

    The contribution cap makes the per-user release count deterministic, so
    the recomputed eps must not exceed the configured target.
    """
    cap = contribution_cap(config.T, n, config.cap_multiplier)
    if config.regime == LOCAL:
        return local_sgd_epsilon(sigma, cap, config.budget.delta)
    if config.regime == CENTRALIZED:
        return centralized_sgd_epsilon(sigma, config.T, n, config.budget.delta)
    eps, _ = network_sgd_eps(sigma, cap, n, LIPSCHITZ, config.budget.delta)
    return eps


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

@record
class RegimeBatch:
    """Configs that train as one lockstep batch, ``configs[i]`` at noise scale ``sigmas[i]``.

    All configs share T and ``cap_multiplier``, hence the per-user
    contribution cap, so that every run of the batch walks the same number
    of steps under the same cap; a batch that mixes them is a ``ValueError``.
    """

    configs: tuple[TrainConfig, ...]
    sigmas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "configs", tuple(self.configs))
        object.__setattr__(self, "sigmas", tuple(float(s) for s in self.sigmas))
        if not self.configs or len(self.configs) != len(self.sigmas):
            raise ValueError("need at least one config and one sigma per config")
        if len({(c.T, c.cap_multiplier) for c in self.configs}) > 1:
            raise ValueError("all configs of a batch must share T and cap_multiplier")

    @property
    def T(self) -> int:
        return self.configs[0].T

    def cap(self, n: int) -> int:
        """The per-user contribution cap of every run on n users."""
        return contribution_cap(self.T, n, self.configs[0].cap_multiplier)


def _run_lockstep(batch: RegimeBatch, data: Dataset, runs: Sequence[tuple[int, int]],
                  etas: Sequence[float] | None = None, final_only: bool = False) -> SgdRuns:
    """Run b = (i, seed) trains ``batch.configs[i]`` on seed ``seed`` at step
    size ``etas[b]``, or at the config's own ``eta`` when ``etas`` is None."""
    which = [int(i) for i, _ in runs]
    if not all(0 <= i < len(batch.configs) for i in which):
        raise ValueError(f"config index out of range for {len(batch.configs)} configs: {which}")
    with np.errstate(over="ignore"):  # once, not per step: exp(margin) = inf gives s = 0
        return run_complete_sgd(
            n=data.n_users,
            T=batch.T,
            grad_fn=_batched_grad(data),
            eta=[batch.configs[i].eta for i in which] if etas is None else etas,
            sigma=[batch.sigmas[i] for i in which],
            d=data.dim,
            seeds=[s for _, s in runs],
            max_contributions=batch.cap(data.n_users),
            noise_when_capped=[batch.configs[i].regime == NETWORK for i in which],
            final_only=final_only,
        )


def train(batch: RegimeBatch, data: Dataset, runs: Sequence[tuple[int, int]]) -> TrainRuns:
    """Train each run (i, seed) under ``batch.configs[i]``; one :class:`TrainRuns`
    record whose rows follow the runs' order.

    Every run has its own walk and gradient noise (shared as the kernel's
    contract describes); capped users forward the token without
    contributing, adding noise only in the network regime.  The train
    objective and test accuracy are evaluated at each kept checkpoint, one
    iterate at a time.  A diverged run (:attr:`TrainRuns.diverged`) is
    flagged but still returned.
    """
    sgd = _run_lockstep(batch, data, runs)
    train_objective = _train_objective(data)
    objective = np.array([[train_objective(w) for w in run] for run in sgd.iterates])
    accuracy = np.array([[test_accuracy(w, data.X_test, data.y_test) for w in run] for run in sgd.iterates])
    for arr in (objective, accuracy):
        arr.setflags(write=False)
    return TrainRuns(sgd.checkpoint_steps, objective, accuracy, sgd.models)


def tune_eta(
    batch: RegimeBatch,
    data: Dataset,
    runs: Sequence[tuple[int, int]],
    grid: np.ndarray = ETA_GRID,
) -> list[float]:
    """Pick, per config, the step size minimizing the mean final train objective.

    Config i is scored on the runs (i, seed), in their given order, and gets
    the first grid eta with the strictly least mean; the configs' own
    ``eta`` is ignored.  Every run at every grid eta is one lockstep batch
    that keeps the final models alone.  A config without a run is a
    ``ValueError``; one whose mean is inf or nan at every grid eta raises
    :class:`InfeasibleError` naming its regime and eps, with the per-eta
    means in its diagnostics.
    """
    etas = [float(eta) for eta in grid]
    scored = [[b for b, (i, _) in enumerate(runs) if i == k] for k in range(len(batch.configs))]
    if not all(scored):
        raise ValueError("every config needs at least one tuning run")
    sgd = _run_lockstep(batch, data, [run for _ in etas for run in runs],
                        [eta for eta in etas for _ in runs], final_only=True)
    train_objective = _train_objective(data)
    finals = np.array([train_objective(w) for w in sgd.models]).reshape(len(etas), len(runs))
    best = []
    for k, cols in enumerate(scored):
        means = [float(np.mean(row[cols])) for row in finals]
        finite = [mean for mean in means if mean < math.inf]  # nan fails every comparison
        if not finite:
            regime, eps = batch.configs[k].regime, batch.configs[k].budget.epsilon
            raise InfeasibleError(
                f"no grid eta gives the {regime} config at eps = {eps} a finite mean objective",
                diagnostics={"config": k, "regime": regime, "eps": eps, "etas": etas, "mean_objectives": means})
        best.append(etas[means.index(min(finite))])
    return best
