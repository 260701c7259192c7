"""Sample-size theory from section 2 of the paper.

Two results are implemented:

* the Guha et al. (CURE) lower bound on the *uniform* sample size needed
  to capture a fraction ``eta`` of a cluster with probability ``1-delta``
  (the paper's motivating "25% of the dataset" example), and
* Theorem 1's biased-sampling counterpart under rule R, which devotes a
  fraction ``p`` of the expected sample to the cluster: the biased sample
  is smaller than the uniform one **iff** ``p >= |u| / n``.

Exact (non-asymptotic) inclusion probabilities via the binomial tail are
also provided so the benchmarks can cross-check the Chernoff-style bounds
against Monte-Carlo simulation.
"""

from __future__ import annotations

import math

from repro.exceptions import ParameterError

__all__ = [
    "uniform_sample_size",
    "required_inclusion_probability",
    "biased_sample_size",
    "rule_r_probabilities",
    "cluster_inclusion_probability",
    "theorem1_holds",
]


def _check_common(n: int, cluster_size: int, eta: float, delta: float) -> None:
    if n < 1:
        raise ParameterError(f"n must be >= 1; got {n}.")
    if not 1 <= cluster_size <= n:
        raise ParameterError(
            f"cluster_size must be in [1, n={n}]; got {cluster_size}."
        )
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must be in [0, 1]; got {eta}.")
    if not 0.0 < delta <= 1.0:
        raise ParameterError(f"delta must be in (0, 1]; got {delta}.")


def uniform_sample_size(
    n: int, cluster_size: int, eta: float, delta: float
) -> float:
    """Guha et al.'s uniform-sampling size bound.

    The sample size ``s`` that guarantees, with probability at least
    ``1 - delta``, that more than ``eta * |u|`` points of a cluster ``u``
    appear in a uniform sample of ``D``:

    ``s = eta*n + (n/|u|) log(1/delta)
          + (n/|u|) sqrt(log(1/delta)^2 + 2 eta |u| log(1/delta))``

    >>> s = uniform_sample_size(n=100_000, cluster_size=1000, eta=0.2,
    ...                         delta=0.1)
    >>> 0.20 < s / 100_000 < 0.25   # the paper's "25% of the dataset"
    True
    """
    _check_common(n, cluster_size, eta, delta)
    log_term = math.log(1.0 / delta)
    ratio = n / cluster_size
    return (
        eta * n
        + ratio * log_term
        + ratio * math.sqrt(log_term**2 + 2.0 * eta * cluster_size * log_term)
    )


def required_inclusion_probability(
    n: int, cluster_size: int, eta: float, delta: float
) -> float:
    """Per-point inclusion probability a cluster point needs for the
    guarantee — the uniform bound expressed as a rate ``s / n``."""
    return min(1.0, uniform_sample_size(n, cluster_size, eta, delta) / n)


def biased_sample_size(
    n: int, cluster_size: int, eta: float, delta: float, p: float
) -> float:
    """Expected sample size under rule R of Theorem 1.

    Rule R spends a fraction ``p`` of the expected sample size on the
    cluster: cluster points are included with probability ``p * s_R /
    |u|`` and the rest share the remaining mass uniformly. Matching the
    uniform guarantee requires the cluster-point inclusion probability to
    equal the uniform rate ``q* = s/n``, giving

    ``s_R = q* |u| / p``.

    Theorem 1 follows immediately: ``s_R <= s  iff  p >= |u| / n``.

    >>> n, u = 100_000, 1000
    >>> s = uniform_sample_size(n, u, 0.2, 0.1)
    >>> s_r = biased_sample_size(n, u, 0.2, 0.1, p=0.5)
    >>> s_r < s      # p = 0.5 >> |u|/n = 0.01
    True
    """
    _check_common(n, cluster_size, eta, delta)
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"p must be in (0, 1]; got {p}.")
    q_star = required_inclusion_probability(n, cluster_size, eta, delta)
    return q_star * cluster_size / p


def rule_r_probabilities(
    n: int, cluster_size: int, sample_size: float, p: float
) -> tuple[float, float]:
    """Per-point inclusion probabilities (inside, outside) under rule R.

    A fraction ``p`` of the expected sample size ``b`` is allocated to
    the ``|u|`` cluster points and ``1-p`` to the other ``n - |u|``.
    """
    _check_common(n, cluster_size, eta=0.0, delta=0.5)
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"p must be in (0, 1]; got {p}.")
    if sample_size <= 0:
        raise ParameterError(f"sample_size must be > 0; got {sample_size}.")
    inside = min(1.0, p * sample_size / cluster_size)
    if n == cluster_size:
        return inside, 0.0
    outside = min(1.0, (1.0 - p) * sample_size / (n - cluster_size))
    return inside, outside


def cluster_inclusion_probability(
    cluster_size: int, inclusion_prob: float, eta: float
) -> float:
    """Exact ``P(more than eta*|u| cluster points are sampled)``.

    Cluster points enter the sample independently with probability
    ``inclusion_prob``, so the count is binomial and the event is a
    binomial upper tail. Used to verify the bounds by simulation.
    """
    if cluster_size < 1:
        raise ParameterError(f"cluster_size must be >= 1; got {cluster_size}.")
    if not 0.0 <= inclusion_prob <= 1.0:
        raise ParameterError(
            f"inclusion_prob must be in [0, 1]; got {inclusion_prob}."
        )
    if not 0.0 <= eta <= 1.0:
        raise ParameterError(f"eta must be in [0, 1]; got {eta}.")
    # Imported here: scipy.stats is slow to import and only this needs it.
    from scipy import stats

    threshold = math.floor(eta * cluster_size)
    # P(X > threshold) with X ~ Binomial(|u|, q).
    return float(stats.binom.sf(threshold, cluster_size, inclusion_prob))


def theorem1_holds(n: int, cluster_size: int, p: float) -> bool:
    """The iff condition of Theorem 1: biased beats uniform iff
    ``p >= |u| / n``."""
    if not 0.0 < p <= 1.0:
        raise ParameterError(f"p must be in (0, 1]; got {p}.")
    if not 1 <= cluster_size <= n:
        raise ParameterError(
            f"cluster_size must be in [1, n={n}]; got {cluster_size}."
        )
    return p >= cluster_size / n
