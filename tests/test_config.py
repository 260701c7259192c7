"""Tests for repro.config: the one run configuration, its resolution
order (override, environment variable, default), the eager validation
of every field, and the manifest record of the config a run used."""

import io
import os

import pytest

from repro.config import RunConfig, current_config, use_config
from repro.density import use_density_backend
from repro.exceptions import ParameterError
from repro.faults import RowQuarantine, use_fault_policy
from repro.parallel import use_n_jobs
from repro.sharding import use_shards

ENV_VARS = (
    "REPRO_N_JOBS",
    "REPRO_SHARDS",
    "REPRO_DENSITY_BACKEND",
    "REPRO_PARALLEL_BACKEND",
)


@pytest.fixture
def clean_env(monkeypatch):
    for var in ENV_VARS:
        monkeypatch.delenv(var, raising=False)


def test_defaults(clean_env):
    assert current_config() == RunConfig(
        n_jobs=1,
        shards=1,
        density_backend="kde",
        fault_policy=RowQuarantine("strict"),
        parallel_backend="thread",
    )


def test_environment_fills_every_variable(clean_env, monkeypatch):
    monkeypatch.setenv("REPRO_N_JOBS", "2")
    monkeypatch.setenv("REPRO_SHARDS", " 3 ")
    monkeypatch.setenv("REPRO_DENSITY_BACKEND", "TREE")
    monkeypatch.setenv("REPRO_PARALLEL_BACKEND", "process")
    config = current_config()
    assert (config.n_jobs, config.shards) == (2, 3)
    assert config.density_backend == "tree"
    assert config.parallel_backend == "process"


@pytest.mark.parametrize(
    "var, raw",
    [
        ("REPRO_N_JOBS", "lots"),
        ("REPRO_N_JOBS", "0"),
        ("REPRO_SHARDS", "1.5"),
        ("REPRO_SHARDS", "0"),
        ("REPRO_DENSITY_BACKEND", "gmm"),
        ("REPRO_PARALLEL_BACKEND", "gpu"),
    ],
)
def test_bad_environment_value_names_the_variable(
    clean_env, monkeypatch, var, raw
):
    monkeypatch.setenv(var, raw)
    with pytest.raises(ParameterError, match=var):
        current_config()


def test_override_beats_environment_and_shadows_it(clean_env, monkeypatch):
    monkeypatch.setenv("REPRO_SHARDS", "5")
    with use_config(shards=2):
        assert current_config().shards == 2
    assert current_config().shards == 5
    # An overridden field never reads its variable.
    monkeypatch.setenv("REPRO_N_JOBS", "lots")
    with use_config(n_jobs=3):
        assert current_config().n_jobs == 3
    with pytest.raises(ParameterError, match="REPRO_N_JOBS"):
        current_config()


def test_none_leaves_every_field_in_place(clean_env):
    with use_config(
        n_jobs=2, shards=3, density_backend="tree", fault_policy="repair"
    ):
        outer = current_config()
        with use_config(n_jobs=None, shards=None), use_n_jobs(None), (
            use_shards(None)
        ), use_density_backend(None), use_fault_policy(None):
            assert current_config() == outer
        assert current_config() == outer
    assert current_config() == RunConfig()


def test_nested_overrides_restore_on_exit_and_on_error(clean_env):
    with use_config(shards=4):
        with pytest.raises(RuntimeError):
            with use_config(shards=2, density_backend="tree"):
                assert current_config().shards == 2
                raise RuntimeError("inner")
        assert current_config() == RunConfig(shards=4)
    assert current_config() == RunConfig()


def test_forwards_install_the_same_overrides(clean_env):
    with use_n_jobs(2), use_shards(3), use_density_backend("tree"), (
        use_fault_policy("quarantine")
    ):
        via_forwards = current_config()
    with use_config(
        n_jobs=2, shards=3, density_backend="tree", fault_policy="quarantine"
    ):
        assert current_config() == via_forwards


@pytest.mark.parametrize(
    "settings",
    [
        {"n_jobs": 0},
        {"shards": 0},
        {"density_backend": "gmm"},
        {"fault_policy": 3},
        {"fault_policy": "lenient"},
        {"parallel_backend": "gpu"},
        {"chunk_size": 10},
    ],
)
def test_invalid_override_rejected_eagerly(clean_env, settings):
    with pytest.raises(ParameterError):
        with use_config(**settings):
            pass


def test_negative_n_jobs_counts_from_machine(clean_env):
    with use_config(n_jobs=-1):
        assert current_config().n_jobs == (os.cpu_count() or 1)


def test_manifest_records_the_config_that_ran(clean_env, monkeypatch):
    # Shards and worker count come from the environment only.
    from repro.experiments import run_experiment

    monkeypatch.setenv("REPRO_SHARDS", "3")
    monkeypatch.setenv("REPRO_N_JOBS", "2")
    result = run_experiment(
        "lemma1", scale=0.05, seed=0, verbose=False, out=io.StringIO()
    )
    params = result.manifest.params
    assert params["shards"] == 3
    assert params["n_jobs"] == 2
    assert params["density_backend"] == "kde"
    assert params["fault_policy"] == "strict"
    assert params["parallel_backend"] == "thread"
    assert (params["scale"], params["seed"]) == (0.05, 0)


def test_backend_names_match_the_registries():
    from repro.config import DENSITY_BACKENDS, PARALLEL_BACKENDS
    from repro.density import backends as density_backends
    from repro.parallel import backend as parallel_backend

    assert set(density_backends._BACKENDS) == set(DENSITY_BACKENDS)
    assert set(parallel_backend._BACKENDS) == set(PARALLEL_BACKENDS)
