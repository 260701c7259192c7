"""repro: density-biased sampling for approximate data mining.

A full reproduction of G. Kollios, D. Gunopulos, N. Koudas and
S. Berchtold, *An Efficient Approximation Scheme for Data Mining Tasks*
(ICDE 2001): density-biased sampling built on one-pass kernel density
estimation, with the clustering (CURE-style hierarchical, BIRCH,
K-means/K-medoids) and outlier-detection (DB(p, k)) stacks it plugs
into, the Palmer-Faloutsos grid baseline it is compared against, the
paper's synthetic and geospatial workloads, and an experiment harness
regenerating every table and figure of the evaluation section.

Quick start::

    import numpy as np
    from repro import DensityBiasedSampler, CureClustering

    data = np.random.default_rng(0).normal(size=(100_000, 2))
    sample = DensityBiasedSampler(sample_size=1000, exponent=1.0,
                                  random_state=0).sample(data)
    clusters = CureClustering(n_clusters=10).fit(sample.points)
"""

from repro.core import (
    BiasedSample,
    DensityBiasedSampler,
    OnePassBiasedSampler,
    SamplerRecommendation,
    UniformSampler,
    recommend_settings,
)
from repro.density import (
    DctDensityEstimator,
    GridDensityEstimator,
    KernelDensityEstimator,
    KnnDensityEstimator,
    TreeDensityEstimator,
    WaveletDensityEstimator,
    make_density_estimator,
    use_density_backend,
)
from repro.clustering import (
    AgglomerativeClustering,
    Birch,
    Clarans,
    CureClustering,
    SublinearKMedian,
    KMeans,
    KMedoids,
    assign_to_clusters,
)
from repro.outliers import (
    ApproximateOutlierDetector,
    CellBasedOutlierDetector,
    IndexedOutlierDetector,
    NestedLoopOutlierDetector,
)
from repro.baselines import GridBiasedSampler
from repro.faults import (
    FaultPlan,
    FaultyStream,
    RetryPolicy,
    RowQuarantine,
    use_fault_policy,
)
from repro.obs import (
    Recorder,
    RunManifest,
    get_recorder,
    recording,
    use_recorder,
)
from repro.pipeline import ApproximateClusteringPipeline, PipelineResult
from repro.config import RunConfig, current_config, use_config
from repro.exceptions import (
    ConvergenceWarning,
    DataValidationError,
    NotFittedError,
    ParameterError,
    ReproError,
    StreamReadError,
    TransientIOError,
)

__version__ = "1.0.0"

__all__ = [
    "BiasedSample",
    "DensityBiasedSampler",
    "OnePassBiasedSampler",
    "UniformSampler",
    "recommend_settings",
    "SamplerRecommendation",
    "KernelDensityEstimator",
    "GridDensityEstimator",
    "TreeDensityEstimator",
    "KnnDensityEstimator",
    "WaveletDensityEstimator",
    "DctDensityEstimator",
    "make_density_estimator",
    "use_density_backend",
    "CureClustering",
    "Birch",
    "KMeans",
    "KMedoids",
    "Clarans",
    "SublinearKMedian",
    "AgglomerativeClustering",
    "assign_to_clusters",
    "ApproximateOutlierDetector",
    "IndexedOutlierDetector",
    "CellBasedOutlierDetector",
    "NestedLoopOutlierDetector",
    "GridBiasedSampler",
    "FaultPlan",
    "FaultyStream",
    "RetryPolicy",
    "RowQuarantine",
    "use_fault_policy",
    "ApproximateClusteringPipeline",
    "PipelineResult",
    "RunConfig",
    "current_config",
    "use_config",
    "Recorder",
    "RunManifest",
    "get_recorder",
    "recording",
    "use_recorder",
    "ReproError",
    "NotFittedError",
    "DataValidationError",
    "ParameterError",
    "ConvergenceWarning",
    "StreamReadError",
    "TransientIOError",
    "__version__",
]
