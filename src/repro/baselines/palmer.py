"""Grid/hash density-biased sampling (Palmer & Faloutsos, SIGMOD 2000).

The prior technique the paper compares against in Figure 5(c). The data
space is partitioned by an equi-width grid; because the number of cells
is exponential in the dimension, cell counts are kept in a *bounded hash
table* and distinct cells that collide share a counter. A point in a
group holding ``n_i`` points is sampled with probability

``P = b * n_i^(e-1) / sum_j n_j^e``

so ``e = 1`` reduces to uniform sampling, ``e = 0`` gives every occupied
group the same expected number of sample points, and ``e < 0``
oversamples sparse groups aggressively (the paper runs ``e = -0.5``).

The collision behaviour is intentional and faithful: the paper's
critique is exactly that "the quality of the sample degrades with
collisions implicit to any hash based approach", so this implementation
reproduces it (a 5 MB table by default, as in the paper's experiments).
"""

from __future__ import annotations

import numpy as np

from repro.core.biased import BiasedSample
from repro.exceptions import ParameterError
from repro.utils.scaling import MinMaxScaler
from repro.utils.streams import DataStream, as_stream
from repro.utils.validation import check_positive, check_random_state

__all__ = ["GridBiasedSampler"]

_BYTES_PER_COUNTER = 8  # one int64 counter per bucket


class GridBiasedSampler:
    """Hash-of-grid density-biased sampler.

    Dataset passes: 3 — one scan fits the bounding-box scaler, one
    fills the hashed bucket counters, and one performs the biased
    draws.

    Memory: O(m + chunk) — the ``n_buckets`` hashed counters plus one
    in-flight chunk; the accepted rows are an expected-``b`` subset of
    the chunk buffers.

    Parameters
    ----------
    sample_size:
        Target expected sample size ``b``.
    exponent:
        The group exponent ``e`` (``1`` = uniform; the comparison in the
        paper uses ``-0.5``).
    bins_per_dim:
        Grid resolution along each attribute.
    memory_bytes:
        Hash-table budget; the number of buckets is
        ``memory_bytes / 8``. The paper grants 5 MB.
    random_state:
        Seed for the hash mixing constants and the sampling draws.
    """

    #: Dataset scans one sample() costs (runtime-checked).
    __n_passes__ = 3

    #: Peak working-memory bound of sample() (runtime-checked).
    __space__ = "O(m + chunk)"

    def __init__(
        self,
        sample_size: int = 1000,
        exponent: float = -0.5,
        bins_per_dim: int = 32,
        memory_bytes: int = 5 * 1024 * 1024,
        random_state=None,
    ) -> None:
        if sample_size < 1:
            raise ParameterError(f"sample_size must be >= 1; got {sample_size}.")
        if bins_per_dim < 1:
            raise ParameterError(
                f"bins_per_dim must be >= 1; got {bins_per_dim}."
            )
        check_positive(memory_bytes, name="memory_bytes")
        self.sample_size = int(sample_size)
        self.exponent = float(exponent)
        self.bins_per_dim = int(bins_per_dim)
        self.n_buckets = max(1, int(memory_bytes) // _BYTES_PER_COUNTER)
        self.random_state = random_state
        # Diagnostics populated by sample().
        self.n_occupied_buckets_: int | None = None
        self.collision_rate_: float | None = None

    def sample(self, data, *, stream: DataStream | None = None) -> BiasedSample:
        """Draw the grid-biased sample (three sequential passes)."""
        source = stream if stream is not None else as_stream(data)
        rng = check_random_state(self.random_state)
        # Multiplicative hashing constants, odd so they are invertible
        # mod 2^64 and mix all index bits.
        mixers = rng.integers(
            1, 2**62, size=source.n_dims, dtype=np.uint64
        ) * np.uint64(2) + np.uint64(1)

        scaler = MinMaxScaler()
        for chunk in source:
            scaler.partial_fit(chunk)

        counts = np.zeros(self.n_buckets, dtype=np.int64)
        n_cells_seen: set[int] = set()
        for chunk in source:
            buckets = self._bucket_ids(chunk, scaler, mixers)
            np.add.at(counts, buckets, 1)
            n_cells_seen.update(np.unique(buckets).tolist())
        occupied = counts > 0
        self.n_occupied_buckets_ = int(occupied.sum())

        # Normaliser over groups: sum of n_i^e for occupied buckets.
        group_mass = float((counts[occupied].astype(float) ** self.exponent).sum())
        if group_mass <= 0:
            raise ParameterError("grid sampler saw no data.")

        n = len(source)
        idx_parts, pt_parts, prob_parts = [], [], []
        expected = 0.0
        for start, chunk in source.iter_with_offsets():
            buckets = self._bucket_ids(chunk, scaler, mixers)
            group_n = counts[buckets].astype(float)
            probs = np.minimum(
                1.0,
                self.sample_size * group_n ** (self.exponent - 1.0) / group_mass,
            )
            expected += float(probs.sum())
            keep = rng.random(chunk.shape[0]) < probs
            if keep.any():
                idx_parts.append(start + np.nonzero(keep)[0])
                pt_parts.append(chunk[keep])
                prob_parts.append(probs[keep])

        if pt_parts:
            points = np.vstack(pt_parts)
            indices = np.concatenate(idx_parts)
            probabilities = np.concatenate(prob_parts)
        else:
            points = np.empty((0, source.n_dims))
            indices = np.empty(0, dtype=np.int64)
            probabilities = np.empty(0)
        return BiasedSample(
            points=points,
            indices=indices,
            probabilities=probabilities,
            exponent=self.exponent,
            expected_size=expected,
            n_source=n,
        )

    # -- hashing ---------------------------------------------------------------------

    def _bucket_ids(
        self, chunk: np.ndarray, scaler: MinMaxScaler, mixers: np.ndarray
    ) -> np.ndarray:
        """Hash each point's grid cell into the bounded table."""
        unit = scaler.transform(chunk)
        cells = np.clip(
            (unit * self.bins_per_dim).astype(np.int64),
            0,
            self.bins_per_dim - 1,
        ).astype(np.uint64)
        mixed = np.zeros(chunk.shape[0], dtype=np.uint64)
        for j in range(cells.shape[1]):
            mixed = mixed * np.uint64(0x9E3779B97F4A7C15) + cells[:, j] * mixers[j]
        return (mixed % np.uint64(self.n_buckets)).astype(np.int64)
