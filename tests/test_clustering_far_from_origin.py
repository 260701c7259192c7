"""Clusterings must not depend on how far the data sit from the origin.

The Gram expansion ``|x|^2 + |y|^2 - 2 x.y`` cancels catastrophically
at large offsets: two blobs 1e-2 apart blur into one. Every clusterer
here measures through the exact per-coordinate kernel instead, so
shifting the data leaves the labelling unchanged.
"""

import numpy as np
import pytest

from repro.clustering import (
    AgglomerativeClustering,
    Birch,
    Clarans,
    KMeans,
    KMedoids,
    SublinearKMedian,
)

CLUSTERERS = {
    "kmeans": lambda: KMeans(n_clusters=2, random_state=0),
    "kmedoids": lambda: KMedoids(n_clusters=2),
    "clarans": lambda: Clarans(n_clusters=2, random_state=0),
    "agglomerative": lambda: AgglomerativeClustering(n_clusters=2),
    "birch": lambda: Birch(n_clusters=2),
    "sublinear": lambda: SublinearKMedian(n_clusters=2, random_state=0),
}


def two_blobs(offset: float) -> tuple[np.ndarray, np.ndarray]:
    """Two 2-D blobs 1e-2 apart with spread 1e-4, shifted by ``offset``."""
    rng = np.random.default_rng(7)
    centres = np.array([[0.0, 0.0], [1e-2, 0.0]])
    truth = np.repeat([0, 1], 60)
    points = centres[truth] + rng.normal(0.0, 1e-4, size=(truth.size, 2))
    return points + offset, truth


@pytest.mark.parametrize("offset", [0.0, 1e6, 1e8], ids=["0", "1e6", "1e8"])
@pytest.mark.parametrize("name", sorted(CLUSTERERS))
def test_label_agreement_is_exact(name, offset):
    points, truth = two_blobs(offset)
    labels = CLUSTERERS[name]().fit(points).labels
    assert set(labels.tolist()) <= {0, 1}
    agreement = max(np.mean(labels == truth), np.mean(labels != truth))
    assert agreement == 1.0
