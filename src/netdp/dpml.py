"""Logistic regression under three DP-SGD regimes: local, network, centralized.

The three regimes share one training loop (noisy projected SGD driven by a
uniform token walk, mini-batch = the drawn user's full local dataset; the
lockstep kernel :func:`~netdp.protocols.run_complete_sgd`, which advances
every seed of a training call, and every (eta, seed) pair of an eta search,
through one array program) and differ only in how the per-step noise scale
sigma is calibrated to the end-to-end (eps, delta) target:

  local        advanced composition over the user's own capped releases of
               the Gaussian mechanism,
  network      the walk-based Renyi-DP chain (:func:`~netdp.accountant.sigma_search`),
  centralized  subsampled-Gaussian RDP at rate 1/n composed over all T steps
               (the trusted-curator baseline).

Rows are normalized to unit L2 norm so the logistic loss is 1-Lipschitz and
1/4-smooth, giving gradient sensitivity 2L = 2 under user-level adjacency.
Only the iterates at every :data:`~netdp.protocols.CHECKPOINT_EVERY`-th
step and at step T are kept; the train objective and test accuracy are
evaluated on those, one model at a time.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Literal, Sequence

import numpy as np
from scipy import special

from .core import STREAM_DATA, PrivacyBudget, rng_stream
from .errors import InfeasibleError
from .accountant import (
    advanced_composition,
    grid_bisect,
    network_sgd_eps,
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
_CENTRAL_ALPHAS = np.concatenate(([1.5], np.arange(2.0, 65.0)))


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TrainConfig:
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


@dataclass(frozen=True)
class TrainResult:
    model: np.ndarray
    sigma: float
    objective_trace: np.ndarray  # (checkpoints, 2): step, train objective
    accuracy_trace: np.ndarray  # (checkpoints, 2): step, test accuracy
    final_objective: float
    final_accuracy: float
    diverged: bool
    max_contributions: int


def write_trace_csv(path, steps: np.ndarray, objective: np.ndarray, accuracy: np.ndarray) -> None:
    """Write a training trace as CSV with header ``step,objective,test_accuracy``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "objective", "test_accuracy"])
        for step, obj, acc in zip(steps, objective, accuracy):
            writer.writerow([int(step), repr(float(obj)), repr(float(acc))])


# ---------------------------------------------------------------------------
# Data
# ---------------------------------------------------------------------------

def make_synthetic(n_users: int, points_per_user: int = 8, dim: int = 20, seed: int = 0) -> Dataset:
    """Two-Gaussian binary classification data, preprocessed and partitioned.

    Class means sit at +/- 3/(2 sqrt(dim)) per coordinate, so the classes
    are linearly separable up to noise in every direction.
    """
    rng = rng_stream(seed, STREAM_DATA)
    total = n_users * points_per_user + math.ceil(n_users * points_per_user * 0.25)
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


def preprocess(X: np.ndarray, y: np.ndarray, n_users: int, seed: int) -> Dataset:
    """Standardize, unit-normalize rows, split 80/20 and partition by user.

    Feature moments come from the train split only; constant columns are
    dropped with a warning.  Rows are scaled to unit L2 norm after
    standardization so that the logistic loss is 1-Lipschitz.  Raises
    ``ValueError`` when no feature column is left or when the train split
    has fewer rows than there are users, so every user holds data.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.isnan(X).any():
        raise ValueError("features contain NaN")
    rng = rng_stream(seed, STREAM_DATA)
    perm = rng.permutation(X.shape[0])
    n_test = int(round(0.2 * X.shape[0]))
    test_idx, train_idx = perm[:n_test], perm[n_test:]

    mu = X[train_idx].mean(axis=0)
    sd = X[train_idx].std(axis=0)
    keep = sd > 0
    if not keep.any():
        raise ValueError("dataset has no non-constant feature column")
    if len(train_idx) < n_users:
        raise ValueError(f"train split has {len(train_idx)} rows for {n_users} users")
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

    grad = -(1/m) sum_i sigmoid(-y_i w.x_i) y_i x_i.  Stacks broadcast:
    w (..., d), X (..., m, d) and y (..., m) give (..., d) gradients, each
    bit-identical to the call on its own slice (one BLAS gemv per slice,
    rows summed in order).
    """
    margins = y * (X @ w[..., None])[..., 0]
    s = special.expit(-margins)
    return -(X * (s * y)[..., None]).mean(axis=-2)


def _batched_grad(data: Dataset) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """``grad_fn(W, users)`` for the lockstep kernel: row k is the gradient
    of ``W[k]`` on user ``users[k]``'s rows.

    Users are grouped by row count m, and the holders of one step with
    equal m share one :func:`logistic_grad` call on their rows gathered as
    a (holders, m, d) stack, so a step makes one call when all users hold
    the same number of rows.  Padding short users with zero rows instead
    would not be bit-exact: BLAS gemv blocks its rows, so a row's dot
    product can depend on the number of rows in the call.
    """
    groups = {}  # m -> users (0-based) with m train rows
    for u, idx in enumerate(data.user_rows):
        groups.setdefault(idx.size, []).append(u)
    sizes = np.array([idx.size for idx in data.user_rows])
    position = np.empty(sizes.size, dtype=np.int64)
    row_tables = {}  # m -> (users with m rows, m) train-row indices
    for m, users in sorted(groups.items()):
        position[users] = np.arange(len(users))
        row_tables[m] = np.stack([data.user_rows[u] for u in users])

    def grad(W: np.ndarray, users: np.ndarray) -> np.ndarray:
        G = np.empty_like(W)
        m_of = sizes[users - 1]
        for m, table in row_tables.items():
            sel = m_of == m
            if sel.any():
                rows = table[position[users[sel] - 1]]
                G[sel] = logistic_grad(W[sel], data.X_train[rows], data.y_train[rows])
        return G

    return grad


def test_accuracy(w: np.ndarray, X: np.ndarray, y: np.ndarray) -> float:
    pred = np.where(X @ w >= 0, 1.0, -1.0)
    return float(np.mean(pred == y))


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
    """End-to-end eps of T subsampled-Gaussian steps at sampling rate 1/n."""
    z = sigma / GRAD_SENSITIVITY
    q = 1.0 / n
    best = math.inf
    for alpha in _CENTRAL_ALPHAS:
        eps = T * sampled_gaussian_rdp(q, z, float(alpha)) + math.log(1.0 / delta) / (alpha - 1.0)
        best = min(best, eps)
    return best


def calibrate_regime(config: TrainConfig, n: int) -> float:
    """Smallest grid sigma meeting the regime's (eps, delta) target.

    The local and centralized regimes bisect the grid index of
    :func:`_sigma_grid` with :func:`~netdp.accountant.grid_bisect`; the
    network regime does the same on its own grid in
    :func:`~netdp.accountant.sigma_search`.  The bisection relies on eps
    falling along the grid, which
    ``tests/test_accountant.py::TestGridMonotonicity`` pins for all three.
    """
    eps, delta = config.budget.epsilon, config.budget.delta
    cap = contribution_cap(config.T, n, config.cap_multiplier)
    if config.regime == NETWORK:
        sigma, _ = sigma_search(eps, delta, T_u=cap, n=n, L=LIPSCHITZ)
        return sigma
    grid = _sigma_grid()
    if config.regime == LOCAL:
        eps_of = lambda s: local_sgd_epsilon(s, cap, delta)
    else:
        eps_of = lambda s: centralized_sgd_epsilon(s, config.T, n, delta)
    try:
        return float(grid[grid_bisect(eps_of, eps, grid)])
    except InfeasibleError:
        raise InfeasibleError(
            f"no sigma on the grid meets eps <= {eps} for regime {config.regime}",
            diagnostics={"regime": config.regime, "ceiling": float(grid[-1])},
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

def _run_lockstep(config: TrainConfig, data: Dataset, sigma: float,
                  etas: Sequence[float], seeds: Sequence[int]) -> SgdRuns:
    """Run b trains with step size ``etas[b]`` on the walk and noise of ``seeds[b]``."""
    return run_complete_sgd(
        n=data.n_users,
        T=config.T,
        grad_fn=_batched_grad(data),
        eta=etas,
        sigma=sigma,
        d=data.dim,
        seeds=seeds,
        max_contributions=contribution_cap(config.T, data.n_users, config.cap_multiplier),
        noise_when_capped=config.regime == NETWORK,
    )


def train(config: TrainConfig, data: Dataset, seeds: Sequence[int],
          sigma: float | None = None) -> list[TrainResult]:
    """Train one noisy-SGD run per seed under the configured regime.

    All runs step in lockstep through
    :func:`~netdp.protocols.run_complete_sgd`, each with its own walk and
    gradient noise; capped users forward the token without contributing
    (adding noise only in the network regime).  Run b's result depends on
    ``seeds[b]`` alone, not on the other seeds of the call.  Only the
    iterates at every :data:`~netdp.protocols.CHECKPOINT_EVERY`-th step and
    at step T are kept; the train objective and test accuracy are evaluated
    on each.  A run whose final objective exceeds :data:`DIVERGENCE_FACTOR`
    times the initial one is flagged as diverged but still returned.
    """
    if sigma is None:
        sigma = calibrate_regime(config, data.n_users)
    runs = _run_lockstep(config, data, sigma, [config.eta] * len(seeds), seeds)
    steps = runs.checkpoint_steps
    cap = contribution_cap(config.T, data.n_users, config.cap_multiplier)
    results = []
    for iterates in runs.iterates:
        objective = np.array([logistic_objective(w, data.X_train, data.y_train) for w in iterates])
        accuracy = np.array([test_accuracy(w, data.X_test, data.y_test) for w in iterates])
        results.append(TrainResult(
            model=iterates[-1],
            sigma=float(sigma),
            objective_trace=np.column_stack([steps, objective]),
            accuracy_trace=np.column_stack([steps, accuracy]),
            final_objective=float(objective[-1]),
            final_accuracy=float(accuracy[-1]),
            diverged=bool(objective[-1] > DIVERGENCE_FACTOR * max(objective[0], 1e-12)),
            max_contributions=cap,
        ))
    return results


def tune_eta(
    config: TrainConfig,
    data: Dataset,
    sigma: float,
    seeds: Sequence[int],
    grid: np.ndarray = ETA_GRID,
) -> float:
    """Pick the step size minimizing the mean final train objective.

    The whole (eta, seed) grid is one lockstep batch: each seed's walk and
    noise are drawn once and shared by every eta, and only the final
    models are evaluated.
    """
    seeds = [int(s) for s in seeds]
    etas = [float(eta) for eta in grid]
    runs = _run_lockstep(config, data, sigma, np.repeat(etas, len(seeds)), seeds * len(etas))
    finals = [logistic_objective(w, data.X_train, data.y_train) for w in runs.models]
    best_eta, best_obj = etas[0], math.inf
    for i, eta in enumerate(etas):
        mean_obj = float(np.mean(finals[i * len(seeds):(i + 1) * len(seeds)]))
        if mean_obj < best_obj:
            best_eta, best_obj = eta, mean_obj
    return best_eta
