"""BIRCH (Zhang, Ramakrishnan, Livny, SIGMOD 1996).

The comparison method of section 4: BIRCH compresses the *entire*
dataset into a CF-tree whose size is capped — the paper allows it "as
much space as the size of the sample" — and then clusters the leaf
entries globally. A clustering feature (CF) is the triple
``(n, LS, SS)`` (count, linear sum, sum of squared norms), which is
enough to compute centroids, radii and merge tests without revisiting
the data.

This implementation follows the original paper:

* insertion descends to the closest leaf entry and absorbs the point if
  the merged entry's radius stays within the threshold ``T``;
* leaves (and internal nodes) split around the two farthest entries when
  they exceed the branching factor;
* when the number of leaf entries exceeds the memory budget the tree is
  rebuilt with a larger ``T`` by reinserting the existing leaf entries;
* a global phase runs centroid-linkage agglomerative clustering over the
  leaf-entry centroids (weighted by entry counts) down to ``n_clusters``,
  and input points are labelled by their nearest global center.
"""

from __future__ import annotations

import numpy as np

from repro.clustering.base import Clusterer, ClusteringResult
from repro.clustering.hierarchical import AgglomerativeClustering
from repro.exceptions import ParameterError
from repro.utils.geometry import nearest, pair_sq_distances
from repro.utils.validation import check_array

__all__ = [
    "CFEntry",
    "CFNode",
    "CFTree",
    "Birch",
]


class CFEntry:
    """A clustering feature: ``(n, LS, SS)`` plus an optional child node."""

    __slots__ = ("n", "ls", "ss", "child")

    def __init__(self, n: float, ls: np.ndarray, ss: float, child=None) -> None:
        self.n = n
        self.ls = ls
        self.ss = ss
        self.child = child

    @classmethod
    def from_point(cls, point: np.ndarray) -> "CFEntry":
        return cls(1.0, point.copy(), float(point @ point))

    @property
    def centroid(self) -> np.ndarray:
        return self.ls / self.n

    @property
    def radius(self) -> float:
        """RMS distance of the entry's points from its centroid."""
        sq = self.ss / self.n - float(self.centroid @ self.centroid)
        return float(np.sqrt(max(sq, 0.0)))

    def merged_radius(self, other: "CFEntry") -> float:
        """Radius the entry would have after absorbing ``other``."""
        n = self.n + other.n
        ls = self.ls + other.ls
        ss = self.ss + other.ss
        sq = ss / n - float(ls @ ls) / n**2
        return float(np.sqrt(max(sq, 0.0)))

    def absorb(self, other: "CFEntry") -> None:
        self.n += other.n
        self.ls = self.ls + other.ls
        self.ss += other.ss

    def copy_cf(self) -> "CFEntry":
        return CFEntry(self.n, self.ls.copy(), self.ss)


class CFNode:
    """A CF-tree node holding up to ``branching_factor`` entries."""

    __slots__ = ("entries", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.entries: list[CFEntry] = []
        self.is_leaf = is_leaf

    def centroids(self) -> np.ndarray:
        return np.array([e.centroid for e in self.entries])

    def closest_entry_index(self, centroid: np.ndarray) -> int:
        d = pair_sq_distances(self.centroids(), centroid[None, :])
        return int(d.argmin())


class CFTree:
    """The growable CF-tree; :class:`Birch` drives it."""

    def __init__(self, threshold: float, branching_factor: int) -> None:
        self.threshold = threshold
        self.branching_factor = branching_factor
        self.root = CFNode(is_leaf=True)
        self.n_leaf_entries = 0

    # -- insertion --------------------------------------------------------------

    def insert(self, entry: CFEntry) -> None:
        split = self._insert_into(self.root, entry)
        if split is not None:
            # Root split: grow a new root one level up.
            left, right = split
            new_root = CFNode(is_leaf=False)
            new_root.entries.append(self._summarise(left))
            new_root.entries.append(self._summarise(right))
            self.root = new_root

    def _insert_into(self, node: CFNode, entry: CFEntry):
        """Insert; return (left, right) nodes if ``node`` split, else None."""
        if node.is_leaf:
            return self._insert_into_leaf(node, entry)
        idx = node.closest_entry_index(entry.centroid)
        parent_entry = node.entries[idx]
        split = self._insert_into(parent_entry.child, entry)
        # The child's CF grew either way.
        parent_entry.n += entry.n
        parent_entry.ls = parent_entry.ls + entry.ls
        parent_entry.ss += entry.ss
        if split is None:
            return None
        left, right = split
        node.entries[idx] = self._summarise(left)
        node.entries.append(self._summarise(right))
        if len(node.entries) > self.branching_factor:
            return self._split(node)
        return None

    def _insert_into_leaf(self, node: CFNode, entry: CFEntry):
        if node.entries:
            idx = node.closest_entry_index(entry.centroid)
            closest = node.entries[idx]
            if closest.merged_radius(entry) <= self.threshold:
                closest.absorb(entry)
                return None
        node.entries.append(entry)
        self.n_leaf_entries += 1
        if len(node.entries) > self.branching_factor:
            return self._split(node)
        return None

    def _split(self, node: CFNode) -> tuple[CFNode, CFNode]:
        """Split around the two farthest entry centroids."""
        centroids = node.centroids()
        d = pair_sq_distances(centroids, centroids)
        i, j = np.unravel_index(d.argmax(), d.shape)
        to_i = d[:, i] <= d[:, j]
        if to_i.all() or not to_i.any():
            # Degenerate geometry (all centroids coincide): halve the
            # entry list so neither side is empty.
            half = len(node.entries) // 2
            to_i = np.arange(len(node.entries)) < half
        left = CFNode(is_leaf=node.is_leaf)
        right = CFNode(is_leaf=node.is_leaf)
        for pos, entry in enumerate(node.entries):
            (left if to_i[pos] else right).entries.append(entry)
        return left, right

    @staticmethod
    def _summarise(node: CFNode) -> CFEntry:
        """Build the parent CF entry that points at ``node``."""
        n = sum(e.n for e in node.entries)
        ls = np.sum([e.ls for e in node.entries], axis=0)
        ss = sum(e.ss for e in node.entries)
        return CFEntry(n, ls, ss, child=node)

    # -- inspection ---------------------------------------------------------------

    def leaf_entries(self) -> list[CFEntry]:
        out: list[CFEntry] = []
        stack = [self.root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                out.extend(node.entries)
            else:
                stack.extend(e.child for e in node.entries)
        return out


class Birch(Clusterer):
    """CF-tree summarisation + global agglomerative phase.

    Parameters
    ----------
    n_clusters:
        Clusters produced by the global phase.
    threshold:
        Initial absorption threshold ``T`` (the paper's experiments start
        at 0 and let rebuilding grow it).
    branching_factor:
        Maximum entries per node.
    max_leaf_entries:
        Memory budget: when the number of leaf entries exceeds it the
        tree is rebuilt with a doubled (at minimum) threshold. The
        paper's comparisons set this to the sample size granted to the
        sampling methods.
    outlier_entry_fraction:
        BIRCH's phase-3 outlier treatment: leaf entries holding fewer
        than this fraction of the *average* entry count are considered
        outliers and excluded from the global clustering ("a leaf entry
        with far fewer data points than the average is treated as an
        outlier", Zhang et al.). ``0`` disables the discard. This is
        also why BIRCH loses genuinely small clusters — their entries
        look like outliers — matching the behaviour the paper reports.

    Examples
    --------
    >>> import numpy as np
    >>> rng = np.random.default_rng(5)
    >>> pts = np.vstack([rng.normal(c, 0.1, (200, 2)) for c in ((0, 0), (3, 3))])
    >>> result = Birch(n_clusters=2, max_leaf_entries=50).fit(pts)
    >>> result.n_clusters
    2
    """

    def __init__(
        self,
        n_clusters: int = 8,
        threshold: float = 0.0,
        branching_factor: int = 50,
        max_leaf_entries: int | None = None,
        outlier_entry_fraction: float = 1.0,
    ) -> None:
        if n_clusters < 1:
            raise ParameterError(f"n_clusters must be >= 1; got {n_clusters}.")
        if branching_factor < 2:
            raise ParameterError(
                f"branching_factor must be >= 2; got {branching_factor}."
            )
        if threshold < 0:
            raise ParameterError(f"threshold must be >= 0; got {threshold}.")
        if max_leaf_entries is not None and max_leaf_entries < 2:
            raise ParameterError(
                f"max_leaf_entries must be >= 2; got {max_leaf_entries}."
            )
        if outlier_entry_fraction < 0:
            raise ParameterError(
                "outlier_entry_fraction must be >= 0; "
                f"got {outlier_entry_fraction}."
            )
        self.n_clusters = int(n_clusters)
        self.threshold = float(threshold)
        self.branching_factor = int(branching_factor)
        self.max_leaf_entries = max_leaf_entries
        self.outlier_entry_fraction = float(outlier_entry_fraction)
        self.final_threshold_: float | None = None
        self.n_rebuilds_: int = 0
        self.n_leaf_entries_: int | None = None

    def fit(self, points, sample_weight=None) -> ClusteringResult:
        pts = check_array(points, name="points")
        if sample_weight is not None:
            raise ParameterError(
                "Birch consumes the raw dataset; sample_weight is not used."
            )
        tree = self._build_tree(pts)
        self.final_threshold_ = tree.threshold
        entries = tree.leaf_entries()
        self.n_leaf_entries_ = len(entries)
        entries = self._discard_outlier_entries(entries)
        centroids = np.array([e.centroid for e in entries])
        counts = np.array([e.n for e in entries])

        n_global = min(self.n_clusters, len(entries))
        global_phase = AgglomerativeClustering(
            n_clusters=n_global, linkage="centroid"
        )
        summary = global_phase.fit(centroids, sample_weight=counts)

        centers = summary.centers
        labels, _ = nearest(pts, centers)
        sizes = np.bincount(labels, minlength=n_global)
        return ClusteringResult(
            labels=labels,
            centers=centers,
            representatives=[c[None, :] for c in centers],
            sizes=sizes,
        )

    def _discard_outlier_entries(
        self, entries: list[CFEntry]
    ) -> list[CFEntry]:
        """Phase-3 outlier handling: drop sparse leaf entries."""
        if self.outlier_entry_fraction == 0 or len(entries) <= self.n_clusters:
            return entries
        counts = np.array([e.n for e in entries])
        cutoff = self.outlier_entry_fraction * counts.mean()
        kept = [e for e, n in zip(entries, counts) if n >= cutoff]
        if len(kept) < self.n_clusters:
            # Keep at least n_clusters entries, largest first.
            order = np.argsort(-counts)
            kept = [entries[i] for i in order[: self.n_clusters]]
        return kept

    # -- tree construction -----------------------------------------------------------

    def _build_tree(self, pts: np.ndarray) -> CFTree:
        self.n_rebuilds_ = 0
        tree = CFTree(self.threshold, self.branching_factor)
        for row in pts:
            tree.insert(CFEntry.from_point(row))
            if (
                self.max_leaf_entries is not None
                and tree.n_leaf_entries > self.max_leaf_entries
            ):
                tree = self._rebuild(tree)
        return tree

    def _rebuild(self, tree: CFTree) -> CFTree:
        """Reinsert the leaf entries into a tree with a larger threshold."""
        entries = tree.leaf_entries()
        new_threshold = self._next_threshold(tree, entries)
        while True:
            self.n_rebuilds_ += 1
            rebuilt = CFTree(new_threshold, self.branching_factor)
            for entry in entries:
                rebuilt.insert(entry.copy_cf())
            if (
                self.max_leaf_entries is None
                or rebuilt.n_leaf_entries <= self.max_leaf_entries
            ):
                return rebuilt
            new_threshold *= 2.0

    @staticmethod
    def _next_threshold(tree: CFTree, entries: list[CFEntry]) -> float:
        """Heuristic from the BIRCH paper: grow T past the closest pair
        of leaf centroids so at least one absorption happens."""
        centroids = np.array([e.centroid for e in entries])
        if centroids.shape[0] > 2048:
            centroids = centroids[:: centroids.shape[0] // 2048 + 1]
        d = pair_sq_distances(centroids, centroids)
        np.fill_diagonal(d, np.inf)
        spacing = float(np.sqrt(d.min(axis=1).mean()))
        return max(2.0 * tree.threshold, spacing, 1e-12)
