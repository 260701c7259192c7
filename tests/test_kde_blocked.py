"""Property tests: the blocked KDE hot path is bit-for-bit stable.

``KernelDensityEstimator._evaluate_block`` is a cache-blocked loop over
row tiles with reusable scratch buffers and ``out=``-capable kernel
profiles; for compact-support kernels ``evaluate`` visits the rows in
grid-cell order, tiles them along whole cells, computes only each
tile's candidate centres and scatters them into dense rows kept zero
outside the candidate columns. These tests pin the *pre-blocking*
implementation — the straightforward allocating formulation, every
(row, centre) pair computed — as an in-test oracle and require byte
identity across random tile sizes, query dtypes, shapes and kernels,
on both the all-columns and the pruned route, at the support's edge,
for non-finite queries and for every shape of cell tile. Any
reassociation of the arithmetic (a changed operation order, a fused
multiply, a different reduction) or a dropped non-zero pair shows up
here as a diff.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import make_fig5_dataset
from repro.density import KernelDensityEstimator, get_kernel
from repro.density import kde as kde_module
from repro.obs import Recorder, use_recorder
from repro.parallel import use_n_jobs
from repro.sharding import (
    SHARD_EVAL_PHASE,
    ShardPlan,
    evaluate_chunks,
    shard_map,
)
from repro.utils.streams import DataStream

KERNEL_NAMES = (
    "epanechnikov",
    "gaussian",
    "uniform",
    "triangular",
    "biweight",
)
BOUNDED_KERNELS = tuple(name for name in KERNEL_NAMES if name != "gaussian")


def _reference_profile(name: str, u: np.ndarray) -> np.ndarray:
    """The pre-``out=`` kernel profiles, verbatim."""
    if name == "epanechnikov":
        return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)
    if name == "gaussian":
        norm = 1.0 / np.sqrt(2.0 * np.pi)
        return norm * np.exp(-0.5 * u * u)
    if name == "uniform":
        return np.where(np.abs(u) <= 1.0, 0.5, 0.0)
    if name == "triangular":
        out = 1.0 - np.abs(u)
        return np.where(out > 0.0, out, 0.0)
    if name == "biweight":
        w = 1.0 - u * u
        return np.where(np.abs(u) <= 1.0, (15.0 / 16.0) * w * w, 0.0)
    raise AssertionError(name)


def _reference_evaluate_block(estimator, block, name):
    """The pre-blocking ``_evaluate_block`` body, verbatim."""
    m = estimator.centers_.shape[0]
    weights = np.ones((block.shape[0], m))
    for j in range(estimator.n_dims_):
        h = estimator.bandwidths_[j]
        u = (block[:, j, None] - estimator.centers_[None, :, j]) / h
        weights *= _reference_profile(name, u) / h
    return (estimator.n_points_ / m) * weights.sum(axis=1)


def _traced(evaluate, block, tile_elements):
    """``evaluate(block)`` under a recorder and an optionally patched
    tile budget: (densities, the ``kde_eval_block`` span's attributes)."""
    original = kde_module._EVAL_TILE_ELEMENTS
    if tile_elements is not None:
        kde_module._EVAL_TILE_ELEMENTS = tile_elements
    recorder = Recorder()
    try:
        with use_recorder(recorder):
            values = evaluate(block)
    finally:
        kde_module._EVAL_TILE_ELEMENTS = original
    (span,) = recorder.spans
    return values, span.attrs


def _evaluate_traced(estimator, block, tile_elements=None):
    """``_evaluate_block`` under a recorder: (densities, pairs computed)."""
    values, attrs = _traced(estimator._evaluate_block, block, tile_elements)
    return values, attrs["pairs"]


def _evaluate_cells_traced(estimator, queries, tile_elements=None):
    """The whole ``evaluate`` — rows in grid-cell order, tiles along
    whole cells — under a recorder: (densities, span attributes)."""
    return _traced(estimator.evaluate, queries, tile_elements)


def _cell_keys(estimator, queries):
    """The grid cell of each query row, as ``_evaluate`` keys it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.floor(
            queries / (estimator.bandwidths_ * estimator.kernel.support)
        )


def _clustered_estimator(kernel, m, d, seed):
    """Centres in four tight blobs far apart, with small bandwidths, so
    a tile of queries near one blob has at most ``ceil(m / 4)``
    candidates and takes the pruned route."""
    rng = np.random.default_rng(seed)
    offsets = np.array([[0.0], [10.0], [-10.0], [20.0]]) * np.ones(d)
    centers = offsets[np.arange(m) % 4] + rng.normal(scale=0.3, size=(m, d))
    estimator = KernelDensityEstimator(kernel=kernel)
    estimator.fit_from_centers(
        centers, n_points=10_000, bandwidths=rng.uniform(0.01, 0.5, size=d)
    )
    return estimator


def _make_estimator(kernel, m, d, seed):
    rng = np.random.default_rng(seed)
    estimator = KernelDensityEstimator(kernel=kernel)
    estimator.fit_from_centers(
        rng.normal(size=(m, d)),
        n_points=10_000,
        bandwidths=rng.uniform(0.05, 2.0, size=d),
    )
    return estimator


@settings(deadline=None, max_examples=120)
@given(
    rows=st.integers(1, 200),
    m=st.integers(1, 64),
    d=st.integers(1, 4),
    kernel=st.sampled_from(KERNEL_NAMES),
    tile_elements=st.integers(1, 4_096),
    dtype=st.sampled_from(("float64", "float32")),
    seed=st.integers(0, 2**31 - 1),
)
def test_blocked_evaluate_matches_pre_blocking_oracle(
    rows, m, d, kernel, tile_elements, seed, dtype
):
    estimator = _make_estimator(kernel, m, d, seed)
    rng = np.random.default_rng(seed + 1)
    block = rng.normal(scale=2.0, size=(rows, d)).astype(dtype)
    expected = _reference_evaluate_block(estimator, block, kernel)
    original = kde_module._EVAL_TILE_ELEMENTS
    kde_module._EVAL_TILE_ELEMENTS = tile_elements
    try:
        actual = estimator._evaluate_block(block)
    finally:
        kde_module._EVAL_TILE_ELEMENTS = original
    assert actual.tobytes() == expected.tobytes()


@settings(deadline=None, max_examples=80)
@given(
    kernel=st.sampled_from(KERNEL_NAMES),
    seed=st.integers(0, 2**31 - 1),
    scale=st.sampled_from((0.1, 1.0, 10.0)),
)
def test_profile_out_matches_allocating_path(kernel, seed, scale):
    u = np.random.default_rng(seed).normal(scale=scale, size=257)
    u[::41] = np.nan
    u[::43] = np.inf
    u[::47] = -np.inf
    u[0] = 1.0
    u[1] = -1.0
    resolved = get_kernel(kernel)
    expected = _reference_profile(kernel, u)
    scratch = np.full_like(u, -99.0)
    actual = resolved.profile(u, out=scratch)
    assert actual is scratch
    assert actual.tobytes() == expected.tobytes()
    assert resolved.profile(u).tobytes() == expected.tobytes()


#: Offsets where a clamp-form profile could part from its reference
#: mask: both zeros, the support edge and the doubles either side of
#: it, ``u * u`` overflowing to inf, the smallest subnormal (whose
#: square underflows to zero), the infinities and NaN.
_EDGE_OFFSETS = np.array(
    [
        0.0, -0.0, 1.0, -1.0,
        np.nextafter(1.0, np.inf), -np.nextafter(1.0, np.inf),
        np.nextafter(1.0, -np.inf), -np.nextafter(1.0, -np.inf),
        0.5, -0.5, 1e200, -1e200, 5e-324, -5e-324,
        np.inf, -np.inf, np.nan,
    ]
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_profile_edge_offsets_match_reference(kernel):
    """Each compact profile, in its ``out=`` and allocating forms,
    returns the reference profile's bytes at every edge offset — the
    sign of every zero included."""
    resolved = get_kernel(kernel)
    expected = _reference_profile(kernel, _EDGE_OFFSETS)
    scratch = np.full_like(_EDGE_OFFSETS, -99.0)
    assert resolved.profile(_EDGE_OFFSETS, out=scratch) is scratch
    assert scratch.tobytes() == expected.tobytes()
    assert resolved.profile(_EDGE_OFFSETS).tobytes() == expected.tobytes()
    assert not np.signbit(expected).any()


def test_fig5_shaped_evaluate_matches_oracle():
    """The paper's default recipe at fig5's shape — 2-D, m = 1000
    reservoir centres, Scott widths — evaluated on 5,000 of its rows,
    against the dense oracle."""
    points = make_fig5_dataset(n_points=5_000, random_state=0).points[:5_000]
    estimator = KernelDensityEstimator(n_kernels=1_000, random_state=0)
    estimator.fit(points)
    expected = np.concatenate([
        _reference_evaluate_block(
            estimator, points[i : i + 500], "epanechnikov"
        )
        for i in range(0, points.shape[0], 500)
    ])
    assert estimator.evaluate(points).tobytes() == expected.tobytes()


def _eval_scan(estimator, queries, n_jobs):
    """One-shard eval scan of ``queries`` in 4,096-row chunks under
    ``use_n_jobs(n_jobs)``; returns (densities, counters)."""
    recorder = Recorder()
    with use_recorder(recorder), use_n_jobs(n_jobs):
        plan = ShardPlan(DataStream(queries, chunk_size=4_096), 1)
        values = shard_map(
            plan, estimator.evaluate, phase=SHARD_EVAL_PHASE, row_local=True
        )
    return np.concatenate(values), dict(recorder.counters)


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_chunked_parallel_evaluate_is_byte_stable(n_jobs):
    """The eval scan (the runner's chunk fan-out over the serial blocked
    body) returns the bytes of one ``evaluate`` call, and the counters
    of the serial scan, for every worker count. Three chunks: two
    workers take whole chunks, four split them into row ranges."""
    rng = np.random.default_rng(0)
    data = rng.normal(size=(30_000, 2))
    queries = rng.normal(size=(9_000, 2))
    estimator = KernelDensityEstimator(n_kernels=400, random_state=0).fit(data)
    baseline = estimator.evaluate(queries)
    _, serial_counters = _eval_scan(estimator, queries, 1)
    densities, counters = _eval_scan(estimator, queries, n_jobs)
    assert densities.tobytes() == baseline.tobytes()
    assert counters == serial_counters


@settings(deadline=None, max_examples=120)
@given(
    rows=st.integers(1, 200),
    m=st.integers(4, 64),
    d=st.integers(1, 4),
    kernel=st.sampled_from(BOUNDED_KERNELS),
    tile_elements=st.integers(1, 4_096),
    dtype=st.sampled_from(("float64", "float32")),
    seed=st.integers(0, 2**31 - 1),
)
def test_pruned_evaluate_matches_oracle(
    rows, m, d, kernel, tile_elements, dtype, seed
):
    """Clustered queries and small bandwidths: the candidate route runs
    (fewer pairs computed than rows x m) and the bytes still match."""
    estimator = _clustered_estimator(kernel, m, d, seed)
    rng = np.random.default_rng(seed + 1)
    block = rng.normal(scale=0.5, size=(rows, d)).astype(dtype)
    expected = _reference_evaluate_block(estimator, block, kernel)
    actual, pairs = _evaluate_traced(estimator, block, tile_elements)
    assert pairs < rows * m
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=80)
@given(
    kernel=st.sampled_from(KERNEL_NAMES),
    d=st.integers(1, 3),
    injected=st.sampled_from(("nan", "inf", "-inf", "mixed")),
    tile_elements=st.integers(1, 4_096),
    seed=st.integers(0, 2**31 - 1),
)
def test_non_finite_query_rows_match_oracle(
    kernel, d, injected, tile_elements, seed
):
    """NaN rows drop out of a tile's bounding box and ±inf rows widen
    it; either way every row keeps the dense path's bytes."""
    estimator = _clustered_estimator(kernel, 40, d, seed)
    rng = np.random.default_rng(seed + 1)
    block = rng.normal(scale=0.5, size=(120, d))
    values = {"nan": [np.nan], "inf": [np.inf], "-inf": [-np.inf]}.get(
        injected, [np.nan, np.inf, -np.inf]
    )
    hit = rng.random(block.shape) < 0.1
    hit[::7] = True  # whole non-finite rows as well as single attributes
    block[hit] = rng.choice(values, size=int(hit.sum()))
    expected = _reference_evaluate_block(estimator, block, kernel)
    actual, pairs = _evaluate_traced(estimator, block, tile_elements)
    assert actual.tobytes() == expected.tobytes()
    if injected == "nan" and kernel != "gaussian":
        assert pairs < block.shape[0] * 40


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_centres_on_the_support_edge_match_oracle(kernel, d):
    """Centres at ``c = x ± h`` with ``fl((x - c) / h) == ±1`` exactly
    (the uniform kernel is non-zero there), and one ulp further out."""
    rng = np.random.default_rng(d)
    h = rng.uniform(0.05, 0.5, size=d)
    x = rng.normal(size=(400, d))
    sign = rng.choice([-1.0, 1.0], size=x.shape)
    centers = x - sign * h
    u = (x - centers) / h
    on_edge = np.all(np.abs(u) == 1.0, axis=1)
    assert on_edge.sum() >= 10
    x, centers = x[on_edge], centers[on_edge]
    past = np.nextafter(centers, centers - np.sign(x - centers))
    estimator = KernelDensityEstimator(kernel=kernel).fit_from_centers(
        np.vstack([centers, past]), n_points=1_000, bandwidths=h
    )
    m = estimator.centers_.shape[0]
    expected = _reference_evaluate_block(estimator, x, kernel)
    # One row per tile: each tile's box is the row itself, so the
    # candidate test sits exactly on the edge.
    for tile_elements in (m, kde_module._EVAL_TILE_ELEMENTS):
        actual, pairs = _evaluate_traced(estimator, x, tile_elements)
        assert actual.tobytes() == expected.tobytes()
        if tile_elements == m:
            assert pairs < x.shape[0] * m
    if kernel == "uniform":
        assert np.all(expected > 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_tiny_bandwidth_overflow_guard(kernel, d):
    """With ``h = 1e-300`` a dense row product can overflow to inf and
    then meet a zero factor (NaN). Beyond one attribute the partial
    products of ``1/h`` are infinite, so every column is computed."""
    rng = np.random.default_rng(d)
    centers = rng.normal(size=(30, d))
    h = np.full(d, 1e-300)
    estimator = KernelDensityEstimator(kernel=kernel).fit_from_centers(
        centers, n_points=1_000, bandwidths=h
    )
    block = np.vstack([
        centers,
        centers + 0.5e-300,
        # In support in the first attributes only.
        np.hstack([centers[:, :-1], centers[:, -1:] + 1.0]),
        rng.normal(size=(20, d)),
    ])
    expected = _reference_evaluate_block(estimator, block, kernel)
    # One row per tile, so a tile's box stays within one row's support.
    actual, pairs = _evaluate_traced(estimator, block, tile_elements=30)
    assert actual.tobytes() == expected.tobytes()
    if d == 1:
        assert pairs < block.shape[0] * 30
    else:
        assert pairs == block.shape[0] * 30


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("n_jobs", [1, 2])
def test_full_evaluate_matches_oracle(n_jobs):
    """The whole ``evaluate`` — spatial row order, pruned blocks and the
    scatter back to caller order — fanned out by the scan runner's
    ``evaluate_chunks`` (row ranges of one chunk at two workers),
    against the oracle."""
    rng = np.random.default_rng(7)
    m, d = 2_000, 2
    estimator = _clustered_estimator("epanechnikov", m, d, 7)
    queries = estimator.centers_[rng.integers(0, m, size=3_500)]
    queries = queries + rng.normal(scale=0.3, size=queries.shape)
    queries[::97] = np.nan
    queries[::89, 0] = np.inf
    queries[::83, 1] = -np.inf
    # The oracle is row-local, so it may run in row slices.
    expected = np.concatenate([
        _reference_evaluate_block(estimator, queries[i : i + 500], "epanechnikov")
        for i in range(0, queries.shape[0], 500)
    ])
    recorder = Recorder()
    with use_recorder(recorder), use_n_jobs(n_jobs):
        [(_, _, actual)] = evaluate_chunks([(0, queries)], estimator.evaluate)
    assert actual.tobytes() == expected.tobytes()
    assert recorder.counters["kernel_evals"] == queries.shape[0] * m


@settings(deadline=None, max_examples=60)
@given(
    rows=st.integers(2, 300),
    m=st.integers(4, 64),
    d=st.integers(1, 4),
    kernel=st.sampled_from(BOUNDED_KERNELS),
    tile_elements=st.integers(1, 4_096),
    seed=st.integers(0, 2**31 - 1),
)
def test_cell_tiles_match_oracle(rows, m, d, kernel, tile_elements, seed):
    """The cell-tiled ``evaluate`` — merged small cells, split large
    ones, the zero-kept scatter rows reused across candidate sets —
    returns the dense oracle's bytes."""
    estimator = _clustered_estimator(kernel, m, d, seed)
    rng = np.random.default_rng(seed + 1)
    queries = estimator.centers_[rng.integers(0, m, size=rows)]
    queries = queries + rng.normal(scale=0.3, size=queries.shape)
    expected = _reference_evaluate_block(estimator, queries, kernel)
    actual, attrs = _evaluate_cells_traced(estimator, queries, tile_elements)
    assert attrs["tiles"] <= rows
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_one_cell_split_into_sub_tiles_matches_oracle(kernel):
    """Every query in one grid cell and a 64-element budget: the cell is
    one tile with one candidate test, run as several budget-sized
    sub-tiles (and one-row scatters) over that candidate set."""
    rng = np.random.default_rng(3)
    m = 40
    h = np.array([0.4, 0.3])
    estimator = KernelDensityEstimator(kernel=kernel).fit_from_centers(
        rng.normal(size=(m, 2)), n_points=1_000, bandwidths=h
    )
    queries = rng.uniform(0.05, 0.95, size=(60, 2)) * h
    assert np.unique(_cell_keys(estimator, queries), axis=0).shape[0] == 1
    expected = _reference_evaluate_block(estimator, queries, kernel)
    actual, attrs = _evaluate_cells_traced(estimator, queries, 64)
    k = attrs["pairs"] // queries.shape[0]
    assert attrs["tiles"] == 1
    assert 2 <= k < m  # the candidate route, in 64 // k < 60-row sub-tiles
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("tile_elements", [None, 1_500])
@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_singleton_cells_match_oracle(kernel, tile_elements):
    """d = 6 Gaussian data, one 256-row call: nearly every query row is
    alone in its grid cell, so tiles are merged runs of one-row cells.
    Full tiles hold ``budget // m`` rows; only a cell of several rows
    can close a tile early."""
    rng = np.random.default_rng(11)
    estimator = KernelDensityEstimator(
        n_kernels=300, kernel=kernel, random_state=11
    ).fit(rng.normal(size=(4_000, 6)))
    queries = rng.normal(size=(256, 6))
    cells = np.unique(_cell_keys(estimator, queries), axis=0).shape[0]
    assert cells >= 0.9 * queries.shape[0]
    expected = _reference_evaluate_block(estimator, queries, kernel)
    actual, attrs = _evaluate_cells_traced(estimator, queries, tile_elements)
    tile_rows = (tile_elements or kde_module._EVAL_TILE_ELEMENTS) // 300
    shared = queries.shape[0] - cells
    assert attrs["tiles"] <= queries.shape[0] // tile_rows + 1 + shared
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize("offset", [1e6, 1e8])
@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_large_cell_keys_match_oracle(kernel, offset):
    """Centres and queries far from the origin: cell keys reach
    ``offset / h`` (up to 1e10), where neighbouring keys are still
    distinct floats."""
    base = _clustered_estimator(kernel, 64, 2, 5)
    estimator = KernelDensityEstimator(kernel=kernel).fit_from_centers(
        base.centers_ + offset, n_points=10_000, bandwidths=base.bandwidths_
    )
    rng = np.random.default_rng(5)
    queries = estimator.centers_[rng.integers(0, 64, size=300)]
    queries = queries + rng.normal(scale=0.3, size=queries.shape)
    assert np.abs(_cell_keys(estimator, queries)).min() > offset
    expected = _reference_evaluate_block(estimator, queries, kernel)
    actual, attrs = _evaluate_cells_traced(estimator, queries, 640)
    assert attrs["pairs"] < queries.shape[0] * 64
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_infinite_cell_keys_match_oracle(kernel):
    """Half the queries moved out to ±1e300, against widths below 1e-9:
    ``x / (h * support)`` overflows, so those rows share the four
    infinite cell keys. Each tile's box still comes from its rows."""
    rng = np.random.default_rng(9)
    estimator = KernelDensityEstimator(kernel=kernel).fit_from_centers(
        rng.normal(scale=1e-8, size=(40, 2)),
        n_points=1_000,
        bandwidths=rng.uniform(1e-10, 1e-9, size=2),
    )
    queries = rng.normal(scale=1e-8, size=(200, 2))
    queries[::2] = np.sign(queries[::2]) * rng.uniform(1e300, 2e300, size=(100, 2))
    keys = _cell_keys(estimator, queries)
    assert np.isinf(keys).all(axis=1).sum() == 100
    expected = _reference_evaluate_block(estimator, queries, kernel)
    actual, attrs = _evaluate_cells_traced(estimator, queries, 400)
    assert attrs["pairs"] < queries.shape[0] * 40
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("kernel", BOUNDED_KERNELS)
def test_nan_only_tiles_match_oracle(kernel):
    """NaN cell keys sort last and each NaN row is a cell of its own,
    so whole tiles hold only NaN rows: their box is empty, no centre is
    a candidate, and each row sums m zeros to +0.0."""
    estimator = _clustered_estimator(kernel, 40, 2, 13)
    rng = np.random.default_rng(13)
    queries = rng.normal(scale=0.5, size=(300, 2))
    queries[100:] = np.nan
    expected = _reference_evaluate_block(estimator, queries, kernel)
    actual, attrs = _evaluate_cells_traced(estimator, queries, 400)
    tile_rows = 400 // 40
    assert attrs["tiles"] >= 200 // tile_rows
    # Only the one tile that may straddle the last finite rows computes
    # any pair for a NaN row.
    assert attrs["pairs"] <= (100 + tile_rows) * 40
    assert actual.tobytes() == expected.tobytes()
    assert not np.signbit(actual[100:]).any() and not actual[100:].any()
