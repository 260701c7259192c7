"""Tests for reservoir sampling (Li's Algorithm L)."""

import numpy as np
import pytest

from repro.density.reservoir import (
    ReservoirPlan,
    ReservoirSampler,
    reservoir_sample,
)
from repro.utils.streams import DataStream


def _algorithm_r_inclusion(capacity, n, seed):
    """Vitter's Algorithm R reference: which indices end up retained.

    The textbook offer-every-row loop — the distributional oracle the
    vectorised Algorithm L implementation must agree with.
    """
    rng = np.random.default_rng(seed)
    kept = list(range(capacity))
    for i in range(capacity, n):
        j = int(rng.integers(0, i + 1))
        if j < capacity:
            kept[j] = i
    return set(kept)


class TestReservoirSampler:
    def test_keeps_everything_when_under_capacity(self):
        sampler = ReservoirSampler(10, random_state=0)
        data = np.arange(6, dtype=float).reshape(3, 2)
        sampler.extend(data)
        np.testing.assert_array_equal(sampler.sample, data)

    def test_capacity_respected(self):
        sampler = ReservoirSampler(5, random_state=0)
        sampler.extend(np.random.default_rng(0).normal(size=(100, 2)))
        assert sampler.sample.shape == (5, 2)
        assert sampler.n_seen == 100

    def test_sample_rows_come_from_stream(self):
        data = np.arange(200, dtype=float).reshape(100, 2)
        sampler = ReservoirSampler(10, random_state=1)
        sampler.extend(data)
        rows = {tuple(r) for r in data}
        assert all(tuple(r) in rows for r in sampler.sample)

    def test_uniformity(self):
        """Each of 20 items should land in a size-5 reservoir ~25% of
        the time over repeated runs."""
        hits = np.zeros(20)
        n_runs = 2000
        for seed in range(n_runs):
            sampler = ReservoirSampler(5, random_state=seed)
            sampler.extend(np.arange(20, dtype=float).reshape(20, 1))
            for value in sampler.sample.ravel():
                hits[int(value)] += 1
        rates = hits / n_runs
        # True probability is 5/20 = 0.25 for every item.
        assert (np.abs(rates - 0.25) < 0.05).all()

    def test_empty_sample(self):
        assert ReservoirSampler(3).sample.shape == (0, 0)

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError, match="capacity"):
            ReservoirSampler(0)


class TestFillBoundary:
    """The Algorithm L (w, next_accept) hand-off when a chunk ends
    exactly at capacity — the boundary the sharded plan() must also
    replay exactly."""

    @pytest.mark.parametrize("splits", [(8,), (8, 12), (3, 5, 12), (4, 4, 4, 8)])
    def test_exact_fill_chunking_matches_one_shot(self, splits):
        capacity = 8
        data = np.arange(40, dtype=float).reshape(20, 2)
        one_shot = ReservoirSampler(capacity, random_state=123)
        one_shot.extend(data)
        chunked = ReservoirSampler(capacity, random_state=123)
        start = 0
        for size in splits:
            chunked.extend(data[start : start + size])
            start += size
        chunked.extend(data[start:])
        np.testing.assert_array_equal(one_shot.sample, chunked.sample)
        assert one_shot.n_seen == chunked.n_seen == 20
        assert one_shot._w == chunked._w
        assert one_shot._next_accept == chunked._next_accept

    def test_extend_exactly_filling_schedules_next_accept(self):
        sampler = ReservoirSampler(6, random_state=0)
        sampler.extend(np.zeros((6, 2)))
        # The skip draw must have happened at the fill boundary, not be
        # deferred to the next extend: w advanced and a future absolute
        # index is scheduled.
        assert sampler._filled == sampler.capacity
        assert 0.0 < sampler._w < 1.0
        assert sampler._next_accept >= sampler.n_seen

    def test_state_identical_however_the_boundary_is_reached(self):
        exact = ReservoirSampler(5, random_state=9)
        exact.extend(np.zeros((5, 1)))
        ragged = ReservoirSampler(5, random_state=9)
        ragged.extend(np.zeros((3, 1)))
        ragged.extend(np.zeros((2, 1)))
        assert exact._w == ragged._w
        assert exact._next_accept == ragged._next_accept


class TestAlgorithmLDistribution:
    """Statistical acceptance: Algorithm L inclusion frequencies agree
    with a hand-written Vitter Algorithm R oracle."""

    def test_inclusion_rates_match_algorithm_r(self):
        capacity, n, n_runs = 6, 30, 1500
        hits_l = np.zeros(n)
        hits_r = np.zeros(n)
        data = np.arange(n, dtype=float).reshape(n, 1)
        for seed in range(n_runs):
            sampler = ReservoirSampler(capacity, random_state=seed)
            sampler.extend(data)
            for value in sampler.sample.ravel():
                hits_l[int(value)] += 1
            for index in _algorithm_r_inclusion(capacity, n, seed):
                hits_r[index] += 1
        rates_l = hits_l / n_runs
        rates_r = hits_r / n_runs
        expected = capacity / n
        # Both implementations must sit on the uniform rate, and on
        # each other, within Monte-Carlo noise (~3 sigma of a binomial
        # at p=0.2 over 1500 runs is ~0.031).
        assert (np.abs(rates_l - expected) < 0.04).all()
        assert (np.abs(rates_r - expected) < 0.04).all()
        assert (np.abs(rates_l - rates_r) < 0.055).all()


class TestReservoirPlan:
    def test_plan_matches_extend_byte_for_byte(self):
        capacity, n = 13, 557
        data = np.random.default_rng(5).normal(size=(n, 2))
        serial = ReservoirSampler(capacity, random_state=77)
        for start in range(0, n, 101):
            serial.extend(data[start : start + 101])
        planner = ReservoirSampler(capacity, random_state=77)
        plan = planner.plan(n)
        wanted = plan.wanted_indices()
        np.testing.assert_array_equal(
            serial.sample, plan.assemble(wanted, data[wanted])
        )
        # Fetch order does not matter: rows are matched by index.
        np.testing.assert_array_equal(
            serial.sample, plan.assemble(wanted[::-1], data[wanted[::-1]])
        )
        # Generator state after planning equals the post-fit serial
        # state: downstream draws are unaffected by sharding.
        assert (
            serial._rng.bit_generator.state
            == planner._rng.bit_generator.state
        )

    def test_plan_counts_accepts_like_extend(self):
        planner = ReservoirSampler(10, random_state=1)
        plan = planner.plan(200)
        assert plan.accepts == plan.fill + len(plan.events)
        assert plan.fill == 10

    def test_short_stream_plan_is_fill_only(self):
        plan = ReservoirSampler(10, random_state=0).plan(4)
        assert plan.fill == 4
        assert plan.events == ()
        rows = np.arange(4.0).reshape(4, 1)
        np.testing.assert_array_equal(plan.assemble(np.arange(4), rows), rows)

    def test_planned_sampler_rejects_extend(self):
        sampler = ReservoirSampler(3, random_state=0)
        sampler.plan(10)
        with pytest.raises(ValueError, match="consumed by plan"):
            sampler.extend(np.zeros((2, 2)))

    def test_plan_requires_fresh_sampler(self):
        sampler = ReservoirSampler(3, random_state=0)
        sampler.extend(np.zeros((2, 2)))
        with pytest.raises(ValueError, match="fresh sampler"):
            sampler.plan(10)

    def test_assemble_reports_missing_rows(self):
        planner = ReservoirSampler(4, random_state=0)
        plan = planner.plan(8)
        with pytest.raises(ValueError, match="missing"):
            plan.assemble([0], np.zeros((1, 2)))

    def test_plan_is_frozen(self):
        plan = ReservoirSampler(3, random_state=0).plan(5)
        assert isinstance(plan, ReservoirPlan)
        with pytest.raises(AttributeError):
            plan.fill = 99


class TestReservoirSampleFunction:
    def test_one_pass(self):
        stream = DataStream(np.random.default_rng(0).normal(size=(50, 2)))
        sample = reservoir_sample(None, 10, random_state=0, stream=stream)
        assert sample.shape == (10, 2)
        assert stream.passes == 1

    def test_accepts_raw_arrays(self):
        sample = reservoir_sample(np.zeros((30, 3)), 4, random_state=0)
        assert sample.shape == (4, 3)
