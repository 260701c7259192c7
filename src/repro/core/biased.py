"""Density-biased sampling (Figure 1 of the paper).

Given a density estimator ``f`` for a dataset ``D`` of ``n`` points, a
tuning exponent ``a`` and a target expected sample size ``b``, define
``f'(x) = f(x)^a`` and ``k = sum_{x in D} f'(x)``. Each point enters the
sample independently with probability

``P(x in sample) = min(1, (b / k) * f'(x))``

which satisfies the paper's two properties: the inclusion probability is
a function of the local density only, and the expected sample size is
``b`` (exactly ``b`` when no probability needs clipping at one).

The exponent steers the bias (section 2.2):

* ``a = 0``   — uniform sampling;
* ``a > 0``   — dense regions oversampled (cluster detection under noise);
* ``-1 < a < 0`` — sparse regions oversampled while relative densities are
  preserved with high probability (Lemma 1) — small-cluster detection;
* ``a = -1``  — equal expected sample mass per unit volume;
* ``a < -1``  — sparse regions dominate (outlier hunting).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.typing import ArrayLike

from repro.density.backends import make_density_estimator
from repro.density.base import DensityEstimator
from repro.exceptions import DataValidationError, ParameterError
from repro.obs import get_recorder
from repro.sharding import (
    SHARD_EVAL_PHASE,
    ShardPlan,
    resolve_shards,
    shard_map,
    sharded_gather,
)
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import (
    RandomStateLike,
    check_positive,
    check_random_state,
)

__all__ = [
    "BiasedSample",
    "DensityBiasedSampler",
]


@dataclass(frozen=True)
class BiasedSample:
    """Result of a sampling pass.

    Attributes
    ----------
    points:
        The sampled rows, shape ``(s, d)``.
    indices:
        Row indices of the sampled points in the source dataset.
    probabilities:
        Inclusion probability of each *sampled* point (used to build
        inverse-probability weights for weighted K-means, section 3.1).
    exponent:
        The ``a`` used (``0.0`` for uniform sampling).
    expected_size:
        The expected sample size implied by the probability assignment
        (equals the requested ``b`` unless clipping at 1 intervened).
    n_source:
        Size of the dataset that was sampled.
    densities:
        Estimated density at each sampled point (empty for uniform
        sampling, where no estimator is involved).
    """

    points: np.ndarray
    indices: np.ndarray
    probabilities: np.ndarray
    exponent: float
    expected_size: float
    n_source: int
    densities: np.ndarray = field(default_factory=lambda: np.empty(0))

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def weights(self) -> np.ndarray:
        """Inverse-probability weights (Horvitz-Thompson) for the sample.

        Weighting each sampled point by ``1/P(selected)`` makes weighted
        statistics over the sample unbiased for the corresponding
        statistics over the full dataset — the correction the paper
        prescribes before running K-means/K-medoids on a biased sample.
        """
        return 1.0 / self.probabilities

    @property
    def sampling_fraction(self) -> float:
        """Achieved sample size over source size."""
        if self.n_source == 0:
            return 0.0
        return len(self) / self.n_source


class DensityBiasedSampler:
    """Two-pass density-biased sampler (the paper's Figure 1 algorithm).

    Dataset passes: 3 — one ``fit_density`` scan (when the estimator
    arrives unfitted), one ``eval_density`` scan to compute the exact
    normaliser, and one ``draw`` scan for the Bernoulli draws.

    Memory: O(n) — the exact-normaliser design keeps every point's
    density for the draw scan; see :class:`OnePassBiasedSampler` for
    the O(b + chunk) streaming variant.

    Parameters
    ----------
    sample_size:
        Target *expected* sample size ``b``.
    exponent:
        The bias exponent ``a``.
    estimator:
        A (fitted or unfitted) :class:`DensityEstimator`. Defaults to the
        paper's recommendation: a 1000-kernel Epanechnikov KDE. An
        unfitted estimator is fitted in the first dataset pass.
    density_floor_fraction:
        For ``a < 0``, densities are floored at this fraction of the
        mean density before raising to the negative power. The floor
        bounds how much the emptiest space can be boosted: a point in a
        zero-density region gets at most ``floor**a`` times the weight
        of an average-density point (about 4.5x at the default 0.05 and
        ``a = -0.5``). Compact-support kernels assign *exactly* zero to
        most deep-noise points — especially in higher dimensions — so a
        near-zero floor would hand the entire sample to background
        noise; lower it deliberately (e.g. ``1e-6``) when hunting
        isolated points rather than sparse clusters.
    exact_size:
        When true, draw *exactly* ``sample_size`` points without
        replacement with probability proportional to ``f^a`` instead of
        the faithful independent-Bernoulli scheme.
    random_state:
        Seed/generator for the Bernoulli draws (and the default
        estimator's reservoir).

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(7)
    >>> dense = rng.normal(0.0, 0.05, size=(2000, 2))
    >>> sparse = rng.uniform(-1.0, 1.0, size=(2000, 2))
    >>> data = np.vstack([dense, sparse])
    >>> sampler = DensityBiasedSampler(sample_size=400, exponent=1.0,
    ...                                random_state=0)
    >>> sample = sampler.sample(data)
    >>> bool((sample.indices < 2000).mean() > 0.6)  # dense oversampled
    True
    """

    #: Per-phase dataset scans of sample() (runtime-checked).
    __n_passes__ = {"fit_density": 1, "eval_density": 1, "draw": 1}

    #: Per-phase peak-allocation bounds of sample() (runtime-checked).
    __space__ = {
        "fit_density": "O(m)",
        "eval_density": "O(n)",
        "draw": "O(n)",
    }

    def __init__(
        self,
        sample_size: int = 1000,
        exponent: float = 1.0,
        estimator: DensityEstimator | None = None,
        density_floor_fraction: float = 0.05,
        exact_size: bool = False,
        random_state: RandomStateLike = None,
    ) -> None:
        if sample_size < 1:
            raise ParameterError(f"sample_size must be >= 1; got {sample_size}.")
        self.sample_size = int(sample_size)
        self.exponent = float(exponent)
        self.estimator = estimator
        self.density_floor_fraction = check_positive(
            density_floor_fraction, name="density_floor_fraction"
        )
        self.exact_size = bool(exact_size)
        self.random_state = random_state
        # Populated by sample() for inspection / tests.
        self.estimator_: DensityEstimator | None = None
        self.normalizer_: float | None = None
        self.probabilities_: np.ndarray | None = None

    # -- pipeline ----------------------------------------------------------------

    def sample(
        self, data: ArrayLike | None = None, *, stream: DataStream | None = None
    ) -> BiasedSample:
        """Draw a density-biased sample from ``data``.

        Performs (at most) three sequential dataset passes: estimator
        fit, density evaluation / normaliser computation, and the
        Bernoulli sampling pass.
        """
        source = stream if stream is not None else as_stream(data)
        rng = check_random_state(self.random_state)
        recorder = get_recorder()

        with recorder.phase("fit_density"):
            estimator = self._resolve_estimator(source, rng)
        with recorder.phase("eval_density"):
            densities = self._dataset_densities(source, estimator)
            probabilities = self.compute_probabilities(densities)
        self.probabilities_ = probabilities

        with recorder.phase("draw"):
            if self.exact_size:
                result = self._draw_exact(source, densities, probabilities, rng)
            else:
                result = self._draw_bernoulli(
                    source, densities, probabilities, rng
                )
        recorder.count("sample_size", len(result))
        return result

    def _resolve_estimator(
        self, source: DataStream, rng: np.random.Generator
    ) -> DensityEstimator:
        estimator = self.estimator
        if estimator is None:
            estimator = make_density_estimator(budget=1000, random_state=rng)
        if getattr(estimator, "n_points_", None) is None:
            estimator.fit(stream=source)
        self.estimator_ = estimator
        return estimator

    def _dataset_densities(
        self, source: DataStream, estimator: DensityEstimator
    ) -> np.ndarray:
        """Pass 2: density of every dataset point, in stream order.

        One :func:`~repro.sharding.shard_map` scan over the ambient
        shard count: each shard evaluates its own chunk range (fanned
        out over the ambient worker count at ``S = 1``), and the
        per-chunk values, in stream order, fill the preallocated
        per-point array, so the normaliser and every probability
        derived from it are exact and byte-identical for any shard or
        worker count (DESIGN.md §13). Raises
        :class:`DataValidationError` when the scan yields a row count
        other than ``len(source)``.
        """
        plan = ShardPlan(source, resolve_shards(None))
        values = shard_map(
            plan, estimator.evaluate, phase=SHARD_EVAL_PHASE, row_local=True
        )
        seen = sum(part.shape[0] for part in values)
        if seen != len(source):
            raise DataValidationError(
                f"stream yielded {seen} rows in the density pass but "
                f"advertises n_points={len(source)}; offset-keyed buffers "
                "would be misaligned (a hardened stream must deliver its "
                "exact surviving-row count every pass)."
            )
        densities = np.empty(len(source))
        if values:
            np.concatenate(values, out=densities)
        return densities

    def compute_probabilities(self, densities: np.ndarray) -> np.ndarray:
        """Per-point inclusion probabilities from raw density values.

        Implements ``min(1, (b/k) * f^a)`` with the negative-exponent
        density floor. Exposed publicly so diagnostics and the
        theoretical tests can inspect the probability assignment.
        Raises :class:`ParameterError` when ``k`` is not finite.
        """
        biased = self._biased_weights(densities)
        k = biased.sum()
        self.normalizer_ = float(k)
        where = "DensityBiasedSampler.compute_probabilities (eval_density)"
        self._check_normalizer(k, biased, densities, where)
        if k <= 0:
            raise ParameterError(
                "density-biased weights sum to zero; the estimator assigns "
                "zero density everywhere (check bandwidths / exponent)."
            )
        return np.minimum(1.0, (self.sample_size / k) * biased)

    def _biased_weights(self, densities: np.ndarray) -> np.ndarray:
        """``f'(x) = f(x)^a``, floored for negative exponents."""
        a = self.exponent
        if a == 0.0:
            return np.ones_like(densities)
        if a > 0:
            return densities**a
        return np.maximum(densities, self._density_floor(densities)) ** a

    def _density_floor(self, densities: np.ndarray) -> float:
        """The negative-exponent floor: a fraction of the mean density."""
        if self.exponent >= 0:
            return 0.0
        return self.density_floor_fraction * max(densities.mean(), 1e-300)

    def _check_normalizer(self, k, weights, densities, where: str) -> None:
        """Raise a located :class:`ParameterError` unless ``k`` is finite:
        an infinite or NaN ``k`` would silently yield an empty sample."""
        if not np.isfinite(k):
            raise ParameterError(
                f"{where}: the normaliser k = {float(k)} is not finite; "
                f"{int((~np.isfinite(weights)).sum())} of {weights.size} "
                f"weights f^a are non-finite (a={self.exponent}, density "
                f"floor {self._density_floor(densities):.3g}). Raise "
                "density_floor_fraction, use a milder exponent or rescale "
                "the data."
            )

    # -- draws -------------------------------------------------------------------

    def _draw_bernoulli(
        self,
        source: DataStream,
        densities: np.ndarray,
        probabilities: np.ndarray,
        rng: np.random.Generator,
    ) -> BiasedSample:
        """Pass 3: independent coin per point (the paper's scheme)."""
        selected = rng.random(len(source)) < probabilities
        points = sharded_gather(source, selected)
        indices = np.nonzero(selected)[0]
        return BiasedSample(
            points=points,
            indices=indices,
            probabilities=probabilities[selected],
            exponent=self.exponent,
            expected_size=float(probabilities.sum()),
            n_source=len(source),
            densities=densities[selected],
        )

    def _draw_exact(
        self,
        source: DataStream,
        densities: np.ndarray,
        probabilities: np.ndarray,
        rng: np.random.Generator,
    ) -> BiasedSample:
        """Exactly ``sample_size`` points, proportional to ``f^a``."""
        weights = self._biased_weights(densities)
        total = weights.sum()
        size = min(self.sample_size, len(source))
        indices = rng.choice(
            len(source), size=size, replace=False, p=weights / total
        )
        indices.sort()
        mask = np.zeros(len(source), dtype=bool)
        mask[indices] = True
        points = sharded_gather(source, mask)
        return BiasedSample(
            points=points,
            indices=indices,
            probabilities=probabilities[indices],
            exponent=self.exponent,
            expected_size=float(size),
            n_source=len(source),
            densities=densities[indices],
        )
