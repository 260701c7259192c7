"""Abstract interface shared by all density estimators.

The contract follows the paper's definition (section 2.1): a density
estimator ``f`` for a dataset ``D`` of ``n`` points satisfies, for any
region ``R``, ``integral_R f ~= |D ∩ R|``. Densities therefore integrate
to ``n`` over the data domain, *not* to 1 — this normalisation is what
makes the biased-sampling algebra in the paper work out.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.exceptions import NotFittedError
from repro.utils.streams import DataStream, as_stream

__all__ = ["DensityEstimator"]


class DensityEstimator(abc.ABC):
    """Base class: fit on a bounded number of dataset passes, then
    evaluate anywhere.

    Subclasses must set ``n_points_`` and ``n_dims_`` during :meth:`fit`
    and implement :meth:`_evaluate` on raw (unscaled) coordinates.

    ``__n_passes__`` declares how many dataset scans :meth:`fit` costs;
    the class-level value of 1 is the *contract* assumed by callers that
    receive an estimator dynamically: a sampler's ``fit_density`` phase
    budgets for it. Subclasses whose fit needs more scans (e.g. bounds
    pass + counting pass) must override it with their true count, and
    the runtime contract test (``tests/test_runtime_contracts.py``)
    charges a sampler's fit phase that count instead. ``__space__`` is
    the matching peak-allocation contract: fitting or evaluating an
    estimator costs at most O(m) working memory in the summary size
    ``m`` — never O(n) in the dataset.

    Memory: O(m) — the fitted summary (centers/coefficients/cells).
    """

    #: Dataset scans one fit() costs (runtime-checked).
    __n_passes__ = 1

    #: Peak working-memory bound of fit()/evaluate() (runtime-checked).
    __space__ = "O(m)"

    n_points_: int | None = None
    n_dims_: int | None = None

    @abc.abstractmethod
    def fit(self, data, *, stream: DataStream | None = None) -> "DensityEstimator":
        """Fit the estimator in a single pass over the dataset."""

    @abc.abstractmethod
    def _evaluate(self, points: np.ndarray) -> np.ndarray:
        """Density at each row of ``points`` (already validated)."""

    # -- public evaluation ---------------------------------------------------

    def evaluate(self, points) -> np.ndarray:
        """Estimated density at each query point.

        Returns an array of non-negative values that integrate
        (approximately) to ``n_points_`` over the data domain.
        """
        return self._evaluate(self._query_points(points))

    def density_lower_bound(self, points) -> np.ndarray:
        """A cheap per-row lower bound ``L(x) <= evaluate(x)``.

        The inequality holds for the floating-point values themselves,
        so a caller may skip evaluating a row whose bound already
        decides its fate (the DB(p, k) screen does). Estimators that
        can bound their density override this; the base bound is zero,
        which clears nothing.
        """
        return np.zeros(self._query_points(points).shape[0])

    def __call__(self, points) -> np.ndarray:
        return self.evaluate(points)

    def ball_mass(
        self,
        centers,
        radius: float,
        *,
        n_mc: int = 256,
        random_state=None,
    ) -> np.ndarray:
        """Approximate ``integral_{Ball(c, r)} f`` for each center.

        This is the quantity ``N'_D(O, k)`` of the paper's outlier
        detector (section 3.2): the expected number of dataset points
        within distance ``radius`` of each center.

        The default implementation uses Monte-Carlo integration with
        ``n_mc`` points drawn uniformly from the ball; subclasses with a
        closed form may override.
        """
        from repro.utils.geometry import ball_volume
        from repro.utils.validation import check_random_state

        self._require_fitted()
        centers = np.asarray(centers, dtype=np.float64)
        if centers.ndim == 1:
            centers = centers.reshape(1, -1)
        rng = check_random_state(random_state)
        d = self.n_dims_
        volume = ball_volume(radius, d)
        # Uniform sampling in a d-ball: gaussian direction * U^(1/d) radius.
        directions = rng.standard_normal((n_mc, d))
        directions /= np.linalg.norm(directions, axis=1, keepdims=True)
        radii = radius * rng.random(n_mc) ** (1.0 / d)
        offsets = directions * radii[:, None]
        masses = np.empty(centers.shape[0])
        for i, center in enumerate(centers):
            values = self._evaluate(center[None, :] + offsets)
            masses[i] = values.mean() * volume
        return masses

    def total_mass(self) -> float:
        """The mass the estimator integrates to (== number of points)."""
        self._require_fitted()
        return float(self.n_points_)

    # -- helpers ---------------------------------------------------------------

    def _query_points(self, points) -> np.ndarray:
        """Query rows as a validated float64 ``(r, d)`` array."""
        self._require_fitted()
        points = np.asarray(points, dtype=np.float64)
        if points.ndim == 1:
            points = points.reshape(1, -1)
        if points.shape[1] != self.n_dims_:
            raise ValueError(
                f"query points have {points.shape[1]} dims; estimator was "
                f"fit on {self.n_dims_}."
            )
        return points

    def _require_fitted(self) -> None:
        if self.n_points_ is None:
            raise NotFittedError(
                f"{type(self).__name__} is not fitted; call fit() first."
            )

    @staticmethod
    def _as_stream(data, stream: DataStream | None) -> DataStream:
        """Resolve the (data, stream) argument pair used by fit()."""
        if stream is not None:
            return stream
        return as_stream(data)
