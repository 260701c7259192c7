"""Tests for the sample-size theory (section 2 / Theorem 1)."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import theory
from repro.exceptions import ParameterError


class TestUniformBound:
    def test_papers_example(self):
        """'to guarantee with probability 90% that a fraction 0.2 of a
        cluster with 1000 points is in the sample, we need to sample 25%
        of the dataset' (section 2)."""
        s = theory.uniform_sample_size(
            n=100_000, cluster_size=1000, eta=0.2, delta=0.1
        )
        assert 0.20 <= s / 100_000 <= 0.25

    def test_monotone_in_eta(self):
        lo = theory.uniform_sample_size(10_000, 500, 0.1, 0.1)
        hi = theory.uniform_sample_size(10_000, 500, 0.5, 0.1)
        assert hi > lo

    def test_monotone_in_confidence(self):
        loose = theory.uniform_sample_size(10_000, 500, 0.2, 0.2)
        tight = theory.uniform_sample_size(10_000, 500, 0.2, 0.01)
        assert tight > loose

    def test_smaller_clusters_need_bigger_samples(self):
        small = theory.uniform_sample_size(100_000, 200, 0.2, 0.1)
        large = theory.uniform_sample_size(100_000, 5000, 0.2, 0.1)
        assert small > large

    def test_validates_inputs(self):
        with pytest.raises(ParameterError):
            theory.uniform_sample_size(100, 200, 0.2, 0.1)
        with pytest.raises(ParameterError):
            theory.uniform_sample_size(100, 50, 1.5, 0.1)
        with pytest.raises(ParameterError):
            theory.uniform_sample_size(100, 50, 0.2, 0.0)


class TestTheorem1:
    def test_crossover_at_cluster_fraction(self):
        """s_R <= s exactly when p >= |u|/n."""
        n, u = 100_000, 1000
        s = theory.uniform_sample_size(n, u, 0.2, 0.1)
        at = theory.biased_sample_size(n, u, 0.2, 0.1, p=u / n)
        below = theory.biased_sample_size(n, u, 0.2, 0.1, p=u / n / 2)
        above = theory.biased_sample_size(n, u, 0.2, 0.1, p=2 * u / n)
        assert at == pytest.approx(s)
        assert below > s
        assert above < s

    def test_predicate(self):
        assert theory.theorem1_holds(100_000, 1000, 0.01)
        assert theory.theorem1_holds(100_000, 1000, 0.5)
        assert not theory.theorem1_holds(100_000, 1000, 0.005)

    def test_biased_size_decreases_with_p(self):
        sizes = [
            theory.biased_sample_size(50_000, 500, 0.2, 0.1, p)
            for p in (0.05, 0.2, 0.8)
        ]
        assert sizes[0] > sizes[1] > sizes[2]

    def test_rule_r_probabilities(self):
        inside, outside = theory.rule_r_probabilities(
            n=10_000, cluster_size=500, sample_size=1000, p=0.5
        )
        assert inside == pytest.approx(0.5 * 1000 / 500)
        assert outside == pytest.approx(0.5 * 1000 / 9500)

    def test_rule_r_expected_size(self):
        n, u, b, p = 10_000, 500, 800, 0.4
        inside, outside = theory.rule_r_probabilities(n, u, b, p)
        assert inside * u + outside * (n - u) == pytest.approx(b)

    def test_rule_r_degenerate_all_cluster(self):
        inside, outside = theory.rule_r_probabilities(
            n=100, cluster_size=100, sample_size=10, p=1.0
        )
        assert outside == 0.0


class TestInclusionProbability:
    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(0)
        u, q, eta = 400, 0.3, 0.25
        analytic = theory.cluster_inclusion_probability(u, q, eta)
        draws = rng.binomial(u, q, size=20_000)
        empirical = (draws > eta * u).mean()
        assert analytic == pytest.approx(empirical, abs=0.01)

    def test_guarantee_holds_at_bound(self):
        """Sampling at the bound's rate achieves >= 1 - delta success."""
        n, u, eta, delta = 100_000, 1000, 0.2, 0.1
        q = theory.required_inclusion_probability(n, u, eta, delta)
        assert theory.cluster_inclusion_probability(u, q, eta) >= 1 - delta

    def test_extremes(self):
        assert theory.cluster_inclusion_probability(100, 1.0, 0.5) == 1.0
        assert theory.cluster_inclusion_probability(100, 0.0, 0.5) == 0.0


def test_import_repro_does_not_load_scipy_stats():
    """``scipy.stats`` is slow to import; only the binomial tail needs it."""
    code = "import sys, repro; print('scipy.stats' in sys.modules)"
    src = str(Path(theory.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]
    ))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env=env,
    )
    assert out.stdout.strip() == "False"
