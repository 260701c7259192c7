"""Integrated one-pass biased sampling.

Section 2.2 of the paper remarks that the normaliser computation and the
sampling pass "can be integrated in one, thus deriving the biased sample
in a single pass over the database. In this case however we only compute
an approximation of the sampling probability."

This module implements that variant: the normaliser ``k = sum f(x)^a`` is
*estimated up front* from the density estimator's own kernel centers
(a uniform sample of the dataset), and points are then accepted during a
single scan using the estimated ``k``. The achieved sample size deviates
from ``b`` by the relative error of the ``k`` estimate; the ablation
benchmark quantifies the trade-off against the exact two-pass scheme.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.core.biased import BiasedSample, DensityBiasedSampler
from repro.density.base import DensityEstimator
from repro.density.reservoir import reservoir_sample
from repro.exceptions import DataValidationError, ParameterError
from repro.obs import get_recorder
from repro.sharding import evaluate_chunks
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import RandomStateLike, check_random_state

__all__ = ["OnePassBiasedSampler"]


class OnePassBiasedSampler(DensityBiasedSampler):
    """Single sampling pass with an estimated normaliser.

    Dataset passes: 3 — ``fit_density``, ``estimate_normalizer`` and
    ``draw`` each scan at most once (the normaliser scan is skipped
    entirely when a kernel estimator's centers can be reused as the
    pilot, which is the paper's one-pass configuration).

    Memory: O(b + chunk) — the draw scan's evaluation buffers at most
    :data:`~repro.sharding.runner.EVAL_WINDOW_CHUNKS` chunks per
    parallel fan-out and the scan keeps only the accepted rows
    (expected ``b`` of them); the stream itself is never materialised.

    Parameters are those of :class:`DensityBiasedSampler` plus:

    pilot_size:
        Number of uniformly sampled points used to estimate
        ``k = sum f(x)^a`` (when the estimator is a
        :class:`KernelDensityEstimator` its own centers are reused and no
        extra data is read).
    """

    #: Per-phase scan ceilings of sample() (runtime-checked).
    __n_passes__ = {"fit_density": 1, "estimate_normalizer": 1, "draw": 1}

    #: Per-phase peak-allocation bounds of sample() (runtime-checked).
    __space__ = {
        "fit_density": "O(m)",
        "estimate_normalizer": "O(b + m)",
        "draw": "O(b + chunk)",
    }

    def __init__(
        self,
        sample_size: int = 1000,
        exponent: float = 1.0,
        estimator: DensityEstimator | None = None,
        density_floor_fraction: float = 0.05,
        pilot_size: int = 1000,
        random_state: RandomStateLike = None,
    ) -> None:
        super().__init__(
            sample_size=sample_size,
            exponent=exponent,
            estimator=estimator,
            density_floor_fraction=density_floor_fraction,
            exact_size=False,
            random_state=random_state,
        )
        if pilot_size < 1:
            raise ParameterError(f"pilot_size must be >= 1; got {pilot_size}.")
        self.pilot_size = int(pilot_size)

    def sample(
        self, data: ArrayLike | None = None, *, stream: DataStream | None = None
    ) -> BiasedSample:
        """Draw the sample with one scan after the estimator fit."""
        source = stream if stream is not None else as_stream(data)
        rng = check_random_state(self.random_state)
        recorder = get_recorder()
        with recorder.phase("fit_density"):
            estimator = self._resolve_estimator(source, rng)
        with recorder.phase("estimate_normalizer"):
            k_hat, floor = self._estimate_normalizer(source, estimator, rng)
        self.normalizer_ = k_hat

        sampled_points: list[np.ndarray] = []
        sampled_idx: list[np.ndarray] = []
        sampled_probs: list[np.ndarray] = []
        sampled_dens: list[np.ndarray] = []
        expected = 0.0
        covered = 0
        scale = self.sample_size / k_hat
        with recorder.phase("draw"):
            # The scan runner fans the deterministic density evaluations
            # out a bounded window of chunks at a time, so the scan never
            # materialises the stream (the draw stays O(b + chunk)).
            # The Bernoulli draws stay on the single main-process
            # generator, consumed in stream order, so the sample is
            # byte-identical for any n_jobs.
            for start, chunk, densities in evaluate_chunks(
                source.iter_with_offsets(), estimator.evaluate
            ):
                covered += chunk.shape[0]
                weights = self._floored_power(densities, floor)
                probs = np.minimum(1.0, scale * weights)
                expected += float(probs.sum())
                keep = rng.random(chunk.shape[0]) < probs
                if keep.any():
                    recorder.observe("draw_batch_rows", int(keep.sum()))
                    sampled_points.append(chunk[keep])
                    sampled_idx.append(start + np.nonzero(keep)[0])
                    sampled_probs.append(probs[keep])
                    sampled_dens.append(densities[keep])
            if covered != len(source):
                raise DataValidationError(
                    f"stream yielded {covered} rows in the draw scan but "
                    f"advertises n_points={len(source)}; sample indices "
                    "would not address the surviving rows."
                )

        if sampled_points:
            points = np.vstack(sampled_points)
            indices = np.concatenate(sampled_idx)
            probabilities = np.concatenate(sampled_probs)
            densities = np.concatenate(sampled_dens)
        else:
            points = np.empty((0, source.n_dims))
            indices = np.empty(0, dtype=np.int64)
            probabilities = np.empty(0)
            densities = np.empty(0)
        recorder.count("sample_size", indices.shape[0])
        return BiasedSample(
            points=points,
            indices=indices,
            probabilities=probabilities,
            exponent=self.exponent,
            expected_size=expected,
            n_source=len(source),
            densities=densities,
        )

    # -- normaliser estimation ---------------------------------------------------

    def _estimate_normalizer(
        self,
        source: DataStream,
        estimator: DensityEstimator,
        rng: np.random.Generator,
    ) -> tuple[float, float]:
        """Estimate ``k`` and the negative-exponent floor from a pilot.

        ``k = n * E[f(X)^a]`` for ``X`` uniform over the dataset, so the
        pilot mean of ``f^a`` times ``n`` is an unbiased estimate.

        When the pilot points are the estimator's own kernel centers,
        each pilot density includes the point's *own* kernel — a
        ``(n/m) * prod_j K(0)/h_j`` spike that a uniformly drawn point
        would almost surely not sit on. Left in, it inflates every
        pilot density, biases ``k_hat`` up and undershoots the target
        sample size; it is subtracted here (leave-one-out correction).
        """
        pilot, pilot_is_centers = self._pilot_points(source, estimator, rng)
        densities = estimator.evaluate(pilot)
        if pilot_is_centers:
            densities = np.maximum(
                densities - _self_kernel_density(estimator), 0.0
            )
        floor = self._density_floor(densities)
        weights = self._floored_power(densities, floor)
        k_hat = float(len(source) * weights.mean())
        where = "OnePassBiasedSampler._estimate_normalizer (estimate_normalizer)"
        self._check_normalizer(k_hat, weights, densities, where)
        if k_hat <= 0:
            raise ParameterError(
                "estimated normaliser is zero; pilot densities are all zero."
            )
        return k_hat, floor

    def _pilot_points(
        self,
        source: DataStream,
        estimator: DensityEstimator,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, bool]:
        """The pilot sample, plus whether it is the estimator's centers."""
        centers = getattr(estimator, "centers_", None)
        if centers is not None and centers.shape[0] >= 2:
            return centers, True
        # Non-kernel estimator: spend one extra pass on a pilot sample.
        return (
            reservoir_sample(None, self.pilot_size, rng, stream=source),
            False,
        )

    def _floored_power(self, densities: np.ndarray, floor: float) -> np.ndarray:
        a = self.exponent
        if a == 0.0:
            return np.ones_like(densities)
        if a > 0:
            return densities**a
        return np.maximum(densities, max(floor, 1e-300)) ** a


def _self_kernel_density(estimator: DensityEstimator) -> float:
    """A kernel center's own contribution to its density estimate.

    For a product-kernel estimator with ``m`` centers over ``n`` points,
    the fitted density at center ``c_i`` includes the term contributed
    by kernel ``i`` itself: ``(n/m) * prod_j K(0)/h_j``. Estimators
    without per-attribute bandwidths get no correction (returns 0).
    """
    kernel = getattr(estimator, "kernel", None)
    bandwidths = getattr(estimator, "bandwidths_", None)
    centers = getattr(estimator, "centers_", None)
    if kernel is None or bandwidths is None or centers is None:
        return 0.0
    k0 = float(kernel.profile(np.zeros(1))[0])
    return float(
        (estimator.n_points_ / centers.shape[0])
        * np.prod(k0 / np.asarray(bandwidths, dtype=np.float64))
    )
