"""Uniform random sampling baselines.

The paper's comparison point (section 4.2): read the dataset size ``N``
first, then scan once and keep each point with probability ``b/N`` —
expected sample size ``b``. An exact-size reservoir variant is also
provided for callers that need a hard budget.
"""

from __future__ import annotations

import numpy as np
from numpy.typing import ArrayLike

from repro.core.biased import BiasedSample
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.sharding import sharded_gather
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import RandomStateLike, check_random_state

__all__ = ["UniformSampler"]


class UniformSampler:
    """Uniform (unbiased) random sampling.

    Dataset passes: 1 — both the Bernoulli and the reservoir mode draw
    in a single scan.

    Memory: O(n) — exact-size mode draws the kept index set against
    ``len(source)`` up front; the reservoir path alone is O(b).

    Parameters
    ----------
    sample_size:
        Expected (Bernoulli mode) or exact (reservoir mode) size ``b``.
    exact_size:
        When true, use reservoir sampling to return exactly
        ``sample_size`` rows in one pass.
    random_state:
        Seed or generator for the draws.
    """

    #: Per-phase dataset scans of sample() (runtime-checked).
    __n_passes__ = {"draw": 1}

    #: Peak working-memory bound of sample() (runtime-checked).
    __space__ = "O(n)"

    def __init__(
        self,
        sample_size: int = 1000,
        exact_size: bool = False,
        random_state: RandomStateLike = None,
    ) -> None:
        if sample_size < 1:
            raise ParameterError(f"sample_size must be >= 1; got {sample_size}.")
        self.sample_size = int(sample_size)
        self.exact_size = bool(exact_size)
        self.random_state = random_state

    def sample(
        self, data: ArrayLike | None = None, *, stream: DataStream | None = None
    ) -> BiasedSample:
        """Draw a uniform sample; returns the same result type as the
        biased sampler so downstream code is sampler-agnostic."""
        source = stream if stream is not None else as_stream(data)
        rng = check_random_state(self.random_state)
        recorder = get_recorder()
        n = len(source)
        # Clipped inclusion probability: with b > n every point is kept
        # (probability 1), so at most n points can ever be drawn and the
        # expected size is n * min(1, b/n), not b.
        prob = min(1.0, self.sample_size / n)
        if self.exact_size:
            indices = rng.choice(n, size=min(self.sample_size, n), replace=False)
            indices.sort()
        else:
            indices = np.nonzero(rng.random(n) < prob)[0]
        mask = np.zeros(n, dtype=bool)
        mask[indices] = True
        with recorder.phase("draw"):
            points = sharded_gather(source, mask)
        recorder.count("sample_size", indices.shape[0])
        return BiasedSample(
            points=points,
            indices=indices,
            probabilities=np.full(indices.shape[0], prob),
            exponent=0.0,
            expected_size=float(n * prob),
            n_source=n,
        )
