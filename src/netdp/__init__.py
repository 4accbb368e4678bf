"""Token-walk decentralized protocols with network-level DP accounting.

A single aggregate token walks a directed ring or the complete graph and is
updated by each holder; because every participant only ever sees the token
values they receive, the privacy of everyone else's contributions is
amplified.  This package simulates the protocols (summation, histograms,
noisy SGD), evaluates every closed-form privacy bound for them, and measures
per-pair privacy loss empirically on sampled walks.
"""

__version__ = "0.1.0"

from .core import (
    COMPLETE,
    RING,
    PrivacyBudget,
    Topology,
    Walks,
    rng_stream,
    sample_walks,
    visit_counts,
)
from .errors import InfeasibleError, ValidityWindowError

__all__ = [
    "COMPLETE",
    "RING",
    "PrivacyBudget",
    "Topology",
    "Walks",
    "rng_stream",
    "sample_walks",
    "visit_counts",
    "InfeasibleError",
    "ValidityWindowError",
    "__version__",
]
