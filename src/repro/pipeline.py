"""One-call pipelines bundling the paper's sample-then-mine recipe.

The primitives (sampler, clusterer, assignment) compose in three lines,
but the composition *is* the paper's method — these classes package it
with the right defaults so application code can run approximate
clustering on a huge dataset as a single call:

    result = ApproximateClusteringPipeline(n_clusters=10).fit(data)
    result.labels            # every input point labelled
    result.clustering        # the sample-level ClusteringResult
    result.sample            # the biased sample that was used
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.clustering.assignment import assign_to_clusters
from repro.clustering.base import Clusterer, ClusteringResult
from repro.clustering.cure import CureClustering
from repro.config import use_config
from repro.core.biased import BiasedSample
from repro.core.guide import recommend_settings
from repro.exceptions import ParameterError
from repro.obs import Recorder, get_recorder, use_recorder
from repro.utils.streams import DataStream, as_stream

__all__ = [
    "PipelineResult",
    "ApproximateClusteringPipeline",
]


@dataclass(frozen=True)
class PipelineResult:
    """Everything one pipeline run produced.

    Attributes
    ----------
    labels:
        Cluster label per input point (``-1`` where the sample-level
        clusterer marked its members as noise does *not* propagate —
        full-data assignment always picks the nearest cluster).
    clustering:
        The sample-level :class:`ClusteringResult` (centers,
        representatives, sample labels).
    sample:
        The :class:`BiasedSample` the clusterer consumed.
    n_passes:
        Sequential dataset passes spent end to end.
    """

    labels: np.ndarray
    clustering: ClusteringResult
    sample: BiasedSample
    n_passes: int


class ApproximateClusteringPipeline:
    """Biased sample -> cluster -> label the full dataset.

    Parameters
    ----------
    n_clusters:
        Clusters to report.
    task, noise_level:
        Practitioner's-guide knobs choosing the exponent and sample
        fraction (see :func:`repro.core.recommend_settings`); ignored
        when an explicit ``sampler`` is supplied.
    sampler:
        Optional pre-configured sampler (any object with
        ``sample(data, stream=...) -> BiasedSample``).
    clusterer:
        Optional sample-level clusterer; defaults to the paper's
        CURE-style hierarchical algorithm with a small over-clustering
        margin for noise.
    assignment_policy:
        ``"representatives"`` (CURE's rule, default) or ``"centers"``.
    random_state:
        Seed for the default sampler.
    density_backend, n_jobs, fault_policy:
        Run settings installed for the whole fit with one
        :func:`repro.config.use_config` call; ``None`` leaves a
        setting's ambient value in place. ``density_backend`` (``"kde"``,
        ``"tree"``) only shapes the default sampler. ``fault_policy`` (a
        mode name or a :class:`repro.faults.RowQuarantine`) binds every
        stream built inside the fit, including the one wrapping a plain
        ``data`` array; a pre-built ``stream`` keeps its own policy.
        Results are byte-identical for any ``n_jobs``.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(0)
    >>> data = np.vstack([rng.normal(c, 0.05, (2000, 2))
    ...                   for c in ((0, 0), (1, 1))])
    >>> result = ApproximateClusteringPipeline(
    ...     n_clusters=2, random_state=0).fit(data)
    >>> result.labels.shape
    (4000,)
    >>> result.n_passes
    4
    """

    def __init__(
        self,
        n_clusters: int,
        task: str = "dense-clusters",
        noise_level: float = 0.0,
        sampler=None,
        clusterer: Clusterer | None = None,
        assignment_policy: str = "representatives",
        random_state=None,
        density_backend: str | None = None,
        n_jobs: int | None = None,
        fault_policy=None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        self.n_clusters = int(n_clusters)
        self.task = task
        self.noise_level = noise_level
        self.sampler = sampler
        self.clusterer = clusterer
        self.assignment_policy = assignment_policy
        self.random_state = random_state
        self.density_backend = density_backend
        self.n_jobs = n_jobs
        self.fault_policy = fault_policy

    def fit(self, data, *, stream: DataStream | None = None) -> PipelineResult:
        """Run the full pipeline over ``data`` (or an explicit stream).

        Dataset passes are counted by the ambient :mod:`repro.obs`
        recorder; when observability is off, a private recorder is
        installed for the duration of the fit so
        :attr:`PipelineResult.n_passes` is still exact.
        """
        recorder = get_recorder()
        if not recorder.enabled:
            recorder = Recorder()
        with use_recorder(recorder), use_config(
            n_jobs=self.n_jobs,
            density_backend=self.density_backend,
            fault_policy=self.fault_policy,
        ):
            # The stream is built inside the contexts so a plain array
            # binds the pipeline's fault policy and its construction-time
            # quarantine counts land on this recorder.
            source = stream if stream is not None else as_stream(data)
            passes_before = recorder.counters.get("data_passes", 0)
            with recorder.phase("pipeline_fit"):
                result = self._fit(source)
            n_passes = int(
                recorder.counters.get("data_passes", 0) - passes_before
            )
        return PipelineResult(
            labels=result[0],
            clustering=result[1],
            sample=result[2],
            n_passes=n_passes,
        )

    def _fit(self, source: DataStream):
        """The three pipeline stages; returns (labels, clustering, sample)."""
        recorder = get_recorder()
        sampler = self.sampler
        if sampler is None:
            recommendation = recommend_settings(
                self.task, noise_level=self.noise_level
            )
            sampler = recommendation.make_sampler(
                len(source), random_state=self.random_state
            )
            # The guide's 1% rule targets 100k+ datasets; on small
            # inputs keep enough points per cluster to be clusterable.
            floor = min(40 * self.n_clusters, len(source) // 2)
            sampler.sample_size = max(sampler.sample_size, floor)
        with recorder.phase("sample"):
            sample = sampler.sample(None, stream=source)
        if len(sample) <= self.n_clusters:
            raise ParameterError(
                f"the sample holds only {len(sample)} points for "
                f"{self.n_clusters} clusters; raise the sample size."
            )

        clusterer = self.clusterer
        if clusterer is None:
            # A small over-clustering margin lets residual noise form
            # its own clusters; the largest n_clusters are reported.
            clusterer = CureClustering(
                n_clusters=min(self.n_clusters + 3, len(sample) - 1)
            )
        with recorder.phase("cluster"):
            clustering = clusterer.fit(sample.points)
            clustering = _keep_largest(clustering, self.n_clusters)

        with recorder.phase("assign"):
            labels = assign_to_clusters(
                None,
                clustering,
                policy=self.assignment_policy,
                stream=source,
            )
        return labels, clustering, sample


def _keep_largest(
    clustering: ClusteringResult, n_clusters: int
) -> ClusteringResult:
    """Restrict a clustering to its ``n_clusters`` largest clusters."""
    if clustering.n_clusters <= n_clusters:
        return clustering
    order = np.argsort(-clustering.sizes)[:n_clusters]
    relabel = {int(old): new for new, old in enumerate(order)}
    labels = np.array(
        [relabel.get(int(label), -1) for label in clustering.labels],
        dtype=np.int64,
    )
    return ClusteringResult(
        labels=labels,
        centers=clustering.centers[order],
        representatives=[clustering.representatives[i] for i in order],
        sizes=clustering.sizes[order],
    )
