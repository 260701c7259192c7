"""Oracle test: the heap/pool CURE against a brute-force reference.

The optimised implementation maintains nearest-neighbour pointers
incrementally through merges; the reference recomputes every
cluster-to-cluster distance from scratch each round. Both use the
exact per-pair distance, so on identical inputs (and with outlier
elimination off) the two must produce the same labels.
"""

import numpy as np
import pytest

from repro.clustering import CureClustering
from repro.clustering.cure import select_scattered_points
from repro.utils.geometry import pair_sq_distances

pytestmark = pytest.mark.slow


def _reference_cure(pts, n_clusters, n_reps, alpha):
    """Brute-force CURE: O(rounds * clusters^2) but unambiguous."""
    clusters = [
        {"members": [i], "mean": pts[i].copy(), "reps": pts[i : i + 1].copy()}
        for i in range(pts.shape[0])
    ]
    while len(clusters) > n_clusters:
        best = (np.inf, None, None)
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                d = np.sqrt(
                    pair_sq_distances(
                        clusters[i]["reps"], clusters[j]["reps"]
                    ).min()
                )
                if d < best[0]:
                    best = (d, i, j)
        _, i, j = best
        a, b = clusters[i], clusters[j]
        members = a["members"] + b["members"]
        size_a, size_b = len(a["members"]), len(b["members"])
        mean = (size_a * a["mean"] + size_b * b["mean"]) / (size_a + size_b)
        scattered = select_scattered_points(pts[members], mean, n_reps)
        reps = scattered + alpha * (mean - scattered)
        merged = {"members": members, "mean": mean, "reps": reps}
        clusters = [
            c for k, c in enumerate(clusters) if k not in (i, j)
        ] + [merged]
    labels = np.empty(pts.shape[0], dtype=np.int64)
    order = sorted(range(len(clusters)),
                   key=lambda k: -len(clusters[k]["members"]))
    for new_id, k in enumerate(order):
        labels[clusters[k]["members"]] = new_id
    return labels


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n_clusters", [2, 4])
def test_optimised_matches_reference(seed, n_clusters):
    rng = np.random.default_rng(seed)
    pts = rng.random((36, 2))
    fast = CureClustering(
        n_clusters=n_clusters,
        n_representatives=4,
        shrink_factor=0.3,
        remove_outliers=False,
    ).fit(pts)
    slow_labels = _reference_cure(pts, n_clusters, n_reps=4, alpha=0.3)
    np.testing.assert_array_equal(fast.labels, slow_labels)
    # Same partition up to label permutation: compare co-membership.
    fast_co = fast.labels[:, None] == fast.labels[None, :]
    slow_co = slow_labels[:, None] == slow_labels[None, :]
    assert (fast_co == slow_co).all()


def test_pool_compaction_path():
    """Force repeated pool compaction and check the result stays sane."""
    rng = np.random.default_rng(3)
    blobs = np.vstack(
        [rng.normal(c, 0.03, size=(60, 2)) for c in ((0, 0), (2, 2), (0, 2))]
    )
    model = CureClustering(
        n_clusters=3, n_representatives=8, remove_outliers=False
    )
    # Shrink the initial pool so growth triggers compaction quickly.
    original = model._init_state

    def tiny_pool(pts):
        original(pts)
        keep = model._pool[: model._pool_used].copy()
        owners = model._owner[: model._pool_used].copy()
        cap = model._pool_used + 4  # nearly full from the start
        model._pool = np.empty((cap, pts.shape[1]))
        model._owner = np.full(cap, -1, dtype=np.int64)
        model._pool[: keep.shape[0]] = keep
        model._owner[: owners.shape[0]] = owners

    model._init_state = tiny_pool
    result = model.fit(blobs)
    assert sorted(result.sizes.tolist()) == [60, 60, 60]
