"""CURE-style hierarchical clustering (Guha, Rastogi, Shim, SIGMOD 1998).

The algorithm the paper runs on its samples (section 3.1 / 4.2): start
with singletons and repeatedly merge the pair of clusters at minimum
*representative* distance. Each cluster is summarised by up to ``c``
well-scattered points shrunk a fraction ``alpha`` towards the cluster
mean — scattering captures non-spherical shape, shrinking suppresses the
single-link chaining that noise would otherwise cause.

The paper's settings (section 4.2, following the CURE study): ``c = 10``
representatives, ``alpha = 0.3``, one partition.

Implementation notes
--------------------
Cluster-to-cluster distance is the minimum Euclidean distance between
representative sets. Every pair distance comes from
:func:`~repro.utils.geometry.pair_sq_distances`, which sums the squared
coordinate differences of its two points and nothing else, so a
distance is a pure, symmetric function of the two clusters: it has the
same bits whichever side computes it, in whatever batch, which is what
lets the cache below be exact.

Start-up computes the singletons' distances in one pass over the lower
triangle, in row blocks of about :data:`_STARTUP_BLOCK_PAIRS` pairs. A
global representative pool (one array, with an owner id per row) lets
every merge compute the distances from the new cluster to *all* live
clusters in one vectorised sweep. Up to :data:`_DIST_CACHE_CAP` points,
both passes also write a condensed lower-triangle cache of
cluster-cluster distances indexed by slot (a merged cluster takes the
slot of the cluster popped from the heap). A cluster whose nearest
neighbour was merged away then finds its new one by reading one cache
row; above the cap it re-sweeps the pool instead, with the same bits.
Per-cluster nearest neighbours live in an indexed min-heap. A cluster's
nearest neighbour, at start-up and in rescans, is the smallest id among
those at the minimum distance. Which cluster the next merge pops is the
heap's root: among equal keys (a merge pair usually shares its key) that
is whichever cluster :class:`IndexedMinHeap`'s sift order left on top,
often not the smaller id. The order follows from the sequence of pushes
and updates alone, so it is deterministic.

CURE's optional outlier elimination (drop slow-growing singleton
clusters part-way through the hierarchy) is included and enabled by
default, as the noise experiments rely on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.exceptions import ParameterError
from repro.obs import get_recorder
from repro.utils.geometry import pair_sq_distances
from repro.utils.heaps import IndexedMinHeap
from repro.utils.validation import check_array, check_fraction

__all__ = [
    "select_scattered_points",
    "CureClustering",
]

#: Largest input (in points) whose cluster-cluster distances are cached:
#: n(n-1)/2 float64 values, 16.8 MB at 2048. Larger inputs rescan by
#: sweeping the representative pool.
_DIST_CACHE_CAP = 2048

#: Pairs per row block of the start-up pass.
_STARTUP_BLOCK_PAIRS = 1 << 16


@dataclass
class _Cluster:
    members: list[int]
    mean: np.ndarray
    reps: np.ndarray
    rep_rows: list[int] = field(default_factory=list)


def select_scattered_points(
    points: np.ndarray, mean: np.ndarray, n_reps: int
) -> np.ndarray:
    """Pick up to ``n_reps`` well-scattered points (farthest-point walk).

    The first pick is the point farthest from the mean; each subsequent
    pick maximises the distance to the already-chosen set. Returns all
    points when there are no more than ``n_reps``.
    """
    m = points.shape[0]
    if m <= n_reps:
        return points.copy()
    chosen = np.empty(n_reps, dtype=np.int64)
    min_d = pair_sq_distances(points, mean[None, :]).ravel()
    for i in range(n_reps):
        pick = int(min_d.argmax())
        chosen[i] = pick
        d_new = pair_sq_distances(points, points[pick][None, :]).ravel()
        np.minimum(min_d, d_new, out=min_d)
    return points[chosen]


class CureClustering(Clusterer):
    """Hierarchical clustering with shrunk scattered representatives.

    Parameters
    ----------
    n_clusters:
        Number of clusters to stop at.
    n_representatives:
        Scattered points kept per cluster (``c``; paper uses 10).
    shrink_factor:
        Fraction ``alpha`` each representative moves towards the cluster
        mean (paper uses 0.3).
    remove_outliers:
        Enable CURE's mid-hierarchy outlier elimination: when the number
        of live clusters first falls below ``outlier_check_fraction`` of
        the input size, clusters still holding fewer than
        ``outlier_min_size`` points are dropped as noise.
    outlier_check_fraction, outlier_min_size:
        Elimination tuning (CURE defaults: one third, < 3 points).
    random_state:
        Reserved for API uniformity; the algorithm itself is
        deterministic.

    Attributes
    ----------
    n_distance_sweeps_:
        Vectorised distance passes of the last fit: one per start-up
        row block, one per merge, plus one per nearest-neighbour rescan
        when the input exceeds the distance-cache cap. A work count,
        not a runtime proxy: below the cap it grows with the merges and
        start-up blocks only, not with the rescans.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(3)
    >>> blobs = np.vstack([rng.normal(c, 0.05, size=(60, 2))
    ...                    for c in ((0, 0), (1, 1), (0, 1))])
    >>> result = CureClustering(n_clusters=3, random_state=0).fit(blobs)
    >>> result.n_clusters
    3
    """

    def __init__(
        self,
        n_clusters: int = 2,
        n_representatives: int = 10,
        shrink_factor: float = 0.3,
        remove_outliers: bool = True,
        outlier_check_fraction: float = 1.0 / 3.0,
        outlier_min_size: int = 3,
        random_state=None,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        if n_representatives < 1:
            raise ParameterError(
                f"n_representatives must be >= 1; got {n_representatives}."
            )
        self.n_clusters = int(n_clusters)
        self.n_representatives = int(n_representatives)
        self.shrink_factor = check_fraction(shrink_factor, name="shrink_factor")
        self.remove_outliers = bool(remove_outliers)
        self.outlier_check_fraction = check_fraction(
            outlier_check_fraction, name="outlier_check_fraction"
        )
        self.outlier_min_size = int(outlier_min_size)
        self.random_state = random_state  # reserved; algorithm is deterministic
        self.n_distance_sweeps_: int = 0

    # -- public API -----------------------------------------------------------

    def fit(self, points, sample_weight=None) -> ClusteringResult:
        pts = check_array(points, name="points")
        if sample_weight is not None:
            raise ParameterError(
                "CureClustering does not support sample_weight; the paper "
                "uses it on (unweighted) samples directly."
            )
        n = pts.shape[0]
        self._pts = pts
        self.n_distance_sweeps_ = 0
        with get_recorder().phase("cure_fit") as span:
            self._init_state(pts)
            target = min(self.n_clusters, n)
            outlier_trigger = (
                int(np.ceil(n * self.outlier_check_fraction))
                if self.remove_outliers
                else -1
            )
            outliers_done = not self.remove_outliers

            while len(self._clusters) > target and len(self._heap) > 1:
                if not outliers_done and len(self._clusters) <= outlier_trigger:
                    self._eliminate_outliers()
                    outliers_done = True
                    if len(self._clusters) <= target:
                        break
                    continue
                u_id, _ = self._heap.pop()
                v_id = int(self._closest_id[u_id])
                self._merge(u_id, v_id)
            span.set(rows=int(n), clusters=len(self._clusters))

        return self._build_result(pts, n)

    # -- state ------------------------------------------------------------------

    def _init_state(self, pts: np.ndarray) -> None:
        n = pts.shape[0]
        self._clusters: dict[int, _Cluster] = {}
        self._next_id = n
        # Representative pool: grows by <= c rows per merge; compacted
        # when mostly dead.
        cap = max(16, 2 * n)
        self._pool = np.empty((cap, pts.shape[1]))
        self._pool[:n] = pts
        self._owner = np.full(cap, -1, dtype=np.int64)
        self._owner[:n] = np.arange(n)
        self._alive_rows = n
        self._pool_used = n
        # Cluster state, dense and id-indexed (ids never exceed 2n:
        # n singletons + at most n-1 merge products). Ids are handed out
        # in increasing order, so flatnonzero(_alive) lists live clusters
        # oldest first and the newest last.
        self._alive = np.zeros(2 * n + 2, dtype=bool)
        self._alive[:n] = True
        self._slot = np.zeros(2 * n + 2, dtype=np.int64)
        self._slot[:n] = np.arange(n)
        self._closest_id = np.full(2 * n + 2, -1, dtype=np.int64)
        self._closest_dist = np.full(2 * n + 2, np.inf)
        self._heap = IndexedMinHeap()
        # Condensed lower triangle over slots: pair (i, j), i > j, lives
        # at _tri[i] + j. A slot's own index lands on another pair or on
        # the spare last entry, and readers mask it.
        self._tri = np.arange(n + 1, dtype=np.int64) * np.arange(-1, n) // 2
        self._cache = (
            np.empty(self._tri[n] + 1) if n <= _DIST_CACHE_CAP else None
        )
        for i in range(n):
            self._clusters[i] = _Cluster(
                members=[i], mean=pts[i].copy(), reps=pts[i : i + 1].copy(),
                rep_rows=[i],
            )
        nearest, dist = self._startup_pass(pts)
        self._closest_id[:n] = nearest
        self._closest_dist[:n] = dist
        for cid in range(n):
            self._heap.push(cid, float(dist[cid]))

    def _startup_pass(self, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Each singleton's nearest neighbour and distance, in one blocked pass.

        Computes the lower triangle only, filling the distance cache when
        there is one. Row ``i`` of the triangle holds ``i``'s neighbours
        with smaller ids and column ``i`` those with larger ids; ties go
        to the smaller id, as in :meth:`_rescan`.
        """
        n = pts.shape[0]
        row_best = np.full(n, np.inf)
        row_arg = np.zeros(n, dtype=np.int64)
        col_best = np.full(n, np.inf)
        col_arg = np.zeros(n, dtype=np.int64)
        step = max(1, _STARTUP_BLOCK_PAIRS // n)
        for r0 in range(1, n, step):
            r1 = min(n, r0 + step)
            self.n_distance_sweeps_ += 1
            get_recorder().count("distance_evals", (r1 - r0) * r1)
            block = np.sqrt(pair_sq_distances(pts[r0:r1], pts[:r1]))
            upper = np.arange(r1) >= np.arange(r0, r1)[:, None]
            if self._cache is not None:
                self._cache[self._tri[r0] : self._tri[r1]] = block[~upper]
            block[upper] = np.inf
            arg = block.argmin(axis=1)
            row_arg[r0:r1] = arg
            row_best[r0:r1] = block[np.arange(r1 - r0), arg]
            # Earlier blocks hold smaller row ids, so only a strictly
            # smaller column minimum replaces theirs.
            arg = block.argmin(axis=0)
            best = block[arg, np.arange(r1)]
            better = np.flatnonzero(best < col_best[:r1])
            col_best[better] = best[better]
            col_arg[better] = arg[better] + r0
        lower = row_best <= col_best
        return np.where(lower, row_arg, col_arg), np.where(lower, row_best, col_best)

    def _recompute_all_closest(self) -> None:
        """Set every cluster's nearest neighbour from scratch."""
        self._heap = IndexedMinHeap()
        live = np.flatnonzero(self._alive)
        for cid in live:
            self._rescan(int(cid), live)

    def _rescan(self, cid: int, live: np.ndarray) -> None:
        """Point ``cid`` at its nearest cluster among the ascending ``live`` ids.

        Reads one cache row when there is a cache, else sweeps the pool;
        both give the same bits. Ties go to the smallest id.
        """
        if self._cache is not None:
            row = self._cache[self._cache_index(self._slot[cid], live)]
        else:
            row = self._dists_to_all(self._clusters[cid])[live]
        row[live == cid] = np.inf
        pos = int(row.argmin())
        self._closest_id[cid] = live[pos]
        self._closest_dist[cid] = row[pos]
        self._heap.push(cid, float(row[pos]))

    def _cache_index(self, slot: int, ids: np.ndarray) -> np.ndarray:
        """Cache positions of the pairs (``slot``, slot of each of ``ids``)."""
        slots = self._slot[ids]
        return self._tri[np.maximum(slots, slot)] + np.minimum(slots, slot)

    # -- distance machinery --------------------------------------------------------

    def _dists_to_all(self, cluster: _Cluster) -> np.ndarray:
        """Min representative distance from ``cluster`` to every cluster id.

        Returns a dense array indexed by cluster id (inf for dead ids).
        One vectorised sweep over the live representative pool.
        """
        self.n_distance_sweeps_ += 1
        used = self._pool_used
        owners = self._owner[:used]
        live = owners >= 0
        live_reps = self._pool[:used][live]
        live_owners = owners[live]
        get_recorder().count(
            "distance_evals", live_reps.shape[0] * cluster.reps.shape[0]
        )
        # (n_cluster_reps, n_live_reps) squared distances -> per-live-rep min.
        d = pair_sq_distances(cluster.reps, live_reps).min(axis=0)
        out = np.full(self._next_id + 1, np.inf)
        np.minimum.at(out, live_owners, d)
        return np.sqrt(out)

    def _add_reps(self, cid: int, reps: np.ndarray) -> list[int]:
        needed = reps.shape[0]
        if self._pool_used + needed > self._pool.shape[0]:
            self._compact_pool(extra=needed)
        rows = list(range(self._pool_used, self._pool_used + needed))
        self._pool[rows] = reps
        self._owner[rows] = cid
        self._pool_used += needed
        self._alive_rows += needed
        return rows

    def _kill_reps(self, cluster: _Cluster) -> None:
        self._owner[cluster.rep_rows] = -1
        self._alive_rows -= len(cluster.rep_rows)
        cluster.rep_rows = []

    def _compact_pool(self, extra: int) -> None:
        used = self._pool_used
        live = self._owner[:used] >= 0
        kept = int(live.sum())
        cap = max(2 * (kept + extra), 16)
        new_pool = np.empty((cap, self._pool.shape[1]))
        new_owner = np.full(cap, -1, dtype=np.int64)
        new_pool[:kept] = self._pool[:used][live]
        new_owner[:kept] = self._owner[:used][live]
        # Re-point each live cluster at its new rows.
        self._pool, self._owner = new_pool, new_owner
        self._pool_used = kept
        self._alive_rows = kept
        rows_of: dict[int, list[int]] = {}
        for row, owner in enumerate(new_owner[:kept]):
            rows_of.setdefault(int(owner), []).append(row)
        for cid, cluster in self._clusters.items():
            cluster.rep_rows = rows_of.get(cid, [])

    # -- merging ---------------------------------------------------------------------

    def _merge(self, u_id: int, v_id: int) -> None:
        u = self._clusters.pop(u_id)
        v = self._clusters.pop(v_id)
        if v_id in self._heap:
            self._heap.remove(v_id)
        self._kill_reps(u)
        self._kill_reps(v)

        members = u.members + v.members
        size_u, size_v = len(u.members), len(v.members)
        mean = (size_u * u.mean + size_v * v.mean) / (size_u + size_v)
        member_pts = self._pts[members]
        scattered = select_scattered_points(
            member_pts, mean, self.n_representatives
        )
        reps = scattered + self.shrink_factor * (mean - scattered)

        w_id = self._next_id
        self._next_id += 1
        w = _Cluster(members=members, mean=mean, reps=reps)
        w.rep_rows = self._add_reps(w_id, reps)
        self._clusters[w_id] = w
        self._alive[[u_id, v_id]] = False
        self._alive[w_id] = True
        self._slot[w_id] = self._slot[u_id]

        dists = self._dists_to_all(w)
        self._rewire_after_change(w_id, dists, u_id, v_id)

    def _rewire_after_change(
        self, w_id: int, dists: np.ndarray, u_id: int, v_id: int
    ) -> None:
        """Fix nearest-neighbour pointers after ``w`` replaced ``u`` and ``v``.

        The scan over live clusters is vectorised: per-cluster state is
        read from dense id-indexed arrays, the three update cases are
        computed as masks, and only the (few) clusters that actually
        change touch the heap or need a rescan.
        """
        live = np.flatnonzero(self._alive)
        ids = live[:-1]  # every live id but w_id, the newest
        if ids.size == 0:
            return
        d_xw = dists[ids]
        if self._cache is not None:
            self._cache[self._cache_index(self._slot[w_id], ids)] = d_xw
        closest = self._closest_id[ids]
        closest_dist = self._closest_dist[ids]

        orphaned = (closest == u_id) | (closest == v_id)
        adopt = (orphaned & (d_xw <= closest_dist)) | (
            ~orphaned & (d_xw < closest_dist)
        )
        rescan = orphaned & ~adopt

        adopt_ids = ids[adopt]
        self._closest_id[adopt_ids] = w_id
        self._closest_dist[adopt_ids] = d_xw[adopt]
        for cid, dist in zip(adopt_ids, d_xw[adopt]):
            self._heap.push(int(cid), float(dist))
        for cid in ids[rescan]:
            # The old parent vanished and the merged cluster is farther
            # than it was: only a full rescan finds the new nearest.
            self._rescan(int(cid), live)

        best_pos = int(d_xw.argmin())
        self._closest_id[w_id] = int(ids[best_pos])
        self._closest_dist[w_id] = float(d_xw[best_pos])
        self._heap.push(w_id, float(d_xw[best_pos]))

    # -- outlier elimination ------------------------------------------------------------

    def _eliminate_outliers(self) -> None:
        """Drop clusters that grew slower than ``outlier_min_size``."""
        doomed = [
            cid
            for cid, cluster in self._clusters.items()
            if len(cluster.members) < self.outlier_min_size
        ]
        if len(doomed) == len(self._clusters):
            # Everything is tiny (e.g. pure-noise input); keep the data.
            return
        for cid in doomed:
            self._kill_reps(self._clusters.pop(cid))
        self._alive[doomed] = False
        self._recompute_all_closest()

    # -- result ------------------------------------------------------------------------

    def _build_result(self, pts: np.ndarray, n: int) -> ClusteringResult:
        order = sorted(
            self._clusters.items(), key=lambda kv: -len(kv[1].members)
        )
        labels = np.full(n, -1, dtype=np.int64)
        centers = np.empty((len(order), pts.shape[1]))
        representatives = []
        sizes = np.empty(len(order), dtype=np.int64)
        for new_id, (_, cluster) in enumerate(order):
            labels[cluster.members] = new_id
            centers[new_id] = cluster.mean
            representatives.append(cluster.reps.copy())
            sizes[new_id] = len(cluster.members)
        # Free the fit-time state.
        del self._pts, self._pool, self._owner, self._clusters, self._heap
        del self._alive, self._slot, self._tri, self._cache
        del self._closest_id, self._closest_dist
        return ClusteringResult(
            labels=labels,
            centers=centers,
            representatives=representatives,
            sizes=sizes,
        )
