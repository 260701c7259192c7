"""Tests for tools/repro_audit: every whole-program rule positive +
negative + suppression, why-traces, the SARIF reporter (validated
against an embedded SARIF 2.1.0 subset schema), the CLI exit codes, and
the tier gate that pins ``src/repro`` audit-clean. The per-file RL
rules are in test_repro_lint.py; the declared scan and memory contracts
are checked by running the code, in test_runtime_contracts.py, whose
declaration check and observed phases also back the ``TestParseBound``,
``TestRA005`` and ``TestSrcRepro`` pins kept here from the deleted
static RA001/RA005 rules."""

from __future__ import annotations

import json
import sys
import textwrap
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.repro_audit import audit_paths, iter_rules  # noqa: E402
from tools.repro_audit.__main__ import main  # noqa: E402
from tools.repro_audit.reporting import render_json, render_sarif  # noqa: E402

from repro.core import DensityBiasedSampler, OnePassBiasedSampler  # noqa: E402
from repro.density import make_density_estimator  # noqa: E402
from tests.test_runtime_contracts import (  # noqa: E402
    DATA_SHARE,
    N_SMALL,
    SAMPLE_SIZE,
    SCALE,
    SIZE_ORDER,
    Malformed,
    MaskedBernoulli,
    OneScan,
    Phased,
    _points,
    bound_rank,
    declaration_problems,
    observe,
    parse_bound,
)


def audit_snippet(tmp_path: Path, source: str, *, select=None, name="mod.py"):
    """Write ``source`` to a scratch module and audit it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return audit_paths([path], select=select)


def codes(findings) -> list[str]:
    return [f.rule for f in findings]


# ---------------------------------------------------------------------------
# RA002 — parallel-determinism audit
# ---------------------------------------------------------------------------


class TestRA002:
    def test_rng_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import numpy as np

            def _worker(chunk):
                rng = np.random.default_rng()
                return rng.random(3)

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002"],
        )
        assert "RA002" in codes(found)
        assert any("default_rng" in f.message for f in found)
        # The trace walks from the dispatch site into the worker.
        flagged = [f for f in found if "default_rng" in f.message][0]
        assert any("dispatched by" in hop for hop in flagged.trace)

    def test_pure_worker_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                return chunk.sum()

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002"],
        )
        assert found == []

    def test_context_installer_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                use_recorder(None)
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002"],
        )
        assert codes(found) == ["RA002"]
        assert "use_recorder" in found[0].message

    def test_run_config_installer_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                with use_config(shards=1):
                    return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002", "RA009"],
        )
        assert codes(found) == ["RA002"]
        assert "use_config" in found[0].message

    @pytest.mark.parametrize("bound", ["per_chunk", "combine"])
    def test_rng_in_callable_forwarded_through_partial_flagged(
        self, tmp_path, bound
    ):
        # shard_map's shape: the caller's per-chunk function and fold
        # reach the worker only as arguments a partial binds.
        per_chunk, combine = "_count", "_add"
        if bound == "per_chunk":
            per_chunk = "_noisy"
        else:
            combine = "_noisy"
        found = audit_snippet(
            tmp_path,
            f"""
            from functools import partial

            import numpy as np

            def _noisy(*args):
                return np.random.default_rng().random()

            def _count(offset, chunk):
                return chunk.shape[0]

            def _add(left, right):
                return left + right

            def _run(per_chunk, combine, view):
                return [per_chunk(0, chunk) for chunk in view]

            def scan(views, per_chunk, *, combine=None):
                return parallel_map_chunks(
                    partial(_run, per_chunk, combine), views
                )

            def fit(views):
                return scan(views, {per_chunk}, combine={combine})
            """,
            select=["RA002"],
        )
        assert codes(found) == ["RA002"]
        assert any("worker bound at" in hop for hop in found[0].trace)

    def test_rng_outside_worker_not_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import numpy as np

            def _worker(chunk):
                return chunk.sum()

            def run(chunks, seed):
                rng = np.random.default_rng(seed)
                order = rng.permutation(len(chunks))
                return parallel_map_chunks(_worker, [chunks[i] for i in order])
            """,
            select=["RA002"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# Declarations — RA005's bound parser and declaration fixtures, now
# checked by the runtime contract test's declaration check
# ---------------------------------------------------------------------------


class TestParseBound:
    def test_unknown_component_is_none(self):
        assert parse_bound("O(n log n)") is None
        assert parse_bound("O(b * m)") is None
        assert parse_bound("linear") is None
        assert parse_bound(None) is None


class TestRA005:
    def test_declared_matching_bound_clean(self):
        # Plain-string bounds whose join matches the Memory line.
        assert declaration_problems(OneScan) == []
        assert declaration_problems(MaskedBernoulli) == []

    def test_per_phase_dict_declaration_clean(self):
        # {phase: bound} joins to its largest bound, O(n) here, and the
        # scan and space dicts name the same phases.
        assert isinstance(Phased.__space__, dict)
        joined = max(map(bound_rank, Phased.__space__.values()))
        assert joined == SIZE_ORDER.index("n")
        assert declaration_problems(Phased) == []

    def test_malformed_declaration_flagged(self):
        class MalformedPhase(Phased):
            """Dataset passes: 2

            Memory: O(n)
            """

            __space__ = {"fit": "O(m)", "draw": "everything"}

        class MalformedPasses(OneScan):
            """Dataset passes: 1

            Memory: O(n)
            """

            __n_passes__ = "one"

        for toy in (Malformed, MalformedPhase):
            problems = declaration_problems(toy)
            assert any('must be an "O(...)" bound' in p for p in problems)
        assert any(
            "must be an int or a {phase: int} dict" in p
            for p in declaration_problems(MalformedPasses)
        )


# ---------------------------------------------------------------------------
# RA006 — quadratic-growth allocation audit
# ---------------------------------------------------------------------------


class TestRA006:
    def test_self_growing_concatenate_in_loop_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def grow(chunks):
                out = np.empty(0)
                for chunk in chunks:
                    out = np.concatenate([out, chunk])
                return out
            """,
            select=["RA006"],
        )
        assert codes(found) == ["RA006"]
        assert "grows its own operand 'out'" in found[0].message

    def test_vstack_in_stream_loop_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class S:
                def sample(self, data=None, *, stream=None):
                    parts = []
                    for chunk in stream:
                        parts = np.vstack([parts, chunk])
                    return parts
            """,
            select=["RA006"],
        )
        assert codes(found) == ["RA006"]

    def test_concat_wrapping_dispatch_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def collect(blocks):
                return np.concatenate(parallel_map_chunks(f, blocks))
            """,
            select=["RA006"],
        )
        assert codes(found) == ["RA006"]
        assert "preallocat" in found[0].message

    def test_single_post_loop_concat_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class S:
                '''Memory: O(n)'''

                __space__ = "O(n)"

                def sample(self, data=None, *, stream=None):
                    parts = []
                    for chunk in stream:
                        parts.append(chunk)
                    return np.vstack(parts)
            """,
            select=["RA006"],
        )
        assert found == []

    def test_list_append_lookalike_not_flagged(self, tmp_path):
        # ``parts.append(x)`` is amortised O(1) list growth, not the
        # two-argument np.append reallocation idiom.
        found = audit_snippet(
            tmp_path,
            """
            def gather(chunks):
                parts = []
                for chunk in chunks:
                    parts.append(chunk[chunk > 0])
                return parts
            """,
            select=["RA006"],
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA006
            def grow(chunks):
                out = np.empty(0)
                for chunk in chunks:
                    out = np.concatenate([out, chunk])
                return out
            """,
            select=["RA006"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA009 — shared-state race audit
# ---------------------------------------------------------------------------


class TestRA009:
    def test_module_global_mutation_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            RESULTS = []

            def _worker(chunk):
                RESULTS.append(chunk.sum())
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert codes(found) == ["RA009"]
        assert "RESULTS" in found[0].message
        assert any("dispatched by" in hop for hop in found[0].trace)

    def test_global_rebinding_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            TOTAL = 0.0

            def _worker(chunk):
                global TOTAL
                TOTAL = TOTAL + chunk.sum()
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert codes(found) == ["RA009"]
        assert "TOTAL" in found[0].message

    def test_mutable_default_mutation_in_worker_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk, cache={}):
                cache[id(chunk)] = chunk.sum()
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert codes(found) == ["RA009"]
        assert "cache" in found[0].message

    def test_local_state_in_worker_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                out = []
                out.append(chunk.sum())
                return out

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert found == []

    def test_coordinator_side_mutation_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            RESULTS = []

            def _worker(chunk):
                return chunk.sum()

            def run(chunks):
                for part in parallel_map_chunks(_worker, chunks):
                    RESULTS.append(part)
                return RESULTS
            """,
            select=["RA009"],
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA009
            RESULTS = []

            def _worker(chunk):
                RESULTS.append(chunk.sum())
                return chunk

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA009"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA010 — RNG consumption-order audit
# ---------------------------------------------------------------------------


class TestRA010:
    def test_worker_draw_reachable_from_entry_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import numpy as np

            def _worker(chunk):
                rng = np.random.default_rng(0)
                return rng.random(3)

            class Estimator:
                def fit(self, chunks):
                    return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA010"],
        )
        assert "RA010" in codes(found)
        assert any("fit" in f.message for f in found)

    def test_draw_under_nondeterministic_iteration_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            import os

            def draw(rng, root):
                out = []
                for name in os.listdir(root):
                    out.append(rng.random())
                return out
            """,
            select=["RA010"],
        )
        assert "RA010" in codes(found)
        assert any("listdir" in f.message for f in found)

    def test_draw_over_set_literal_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def sample(rng):
                return [rng.random() for mode in {"a", "b"}]
            """,
            select=["RA010"],
        )
        assert "RA010" in codes(found)

    def test_coordinator_draw_over_ordered_iterable_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def _worker(chunk):
                return chunk.sum()

            def fit(rng, chunks):
                parts = parallel_map_chunks(_worker, chunks)
                return [rng.random() for part in parts]
            """,
            select=["RA010"],
        )
        assert found == []

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA010
            import os

            def draw(rng, root):
                return [rng.random() for name in os.listdir(root)]
            """,
            select=["RA010"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RA011 — must-release lifecycle audit
# ---------------------------------------------------------------------------


class TestRA011:
    def test_never_released_handle_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path):
                f = open(path)
                data = f.read()
                return data
            """,
            select=["RA011"],
        )
        assert codes(found) == ["RA011"]
        assert "never closed" in found[0].message

    def test_exception_path_leak_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path, limit):
                f = open(path)
                data = f.read(limit)
                f.close()
                return data
            """,
            select=["RA011"],
        )
        assert codes(found) == ["RA011"]
        assert "skips its release" in found[0].message

    def test_try_finally_release_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path, limit):
                f = open(path)
                try:
                    return f.read(limit)
                finally:
                    f.close()
            """,
            select=["RA011"],
        )
        assert found == []

    def test_with_managed_acquire_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def read_all(path):
                with open(path) as f:
                    return f.read()
            """,
            select=["RA011"],
        )
        assert found == []

    def test_returned_handle_transfers_ownership(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            def acquire(path):
                f = open(path)
                return f
            """,
            select=["RA011"],
        )
        assert found == []

    def test_park_on_releasing_owner_clean(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Owner:
                def __init__(self, path):
                    f = open(path)
                    self._handle = f

                def close(self):
                    self._handle.close()
            """,
            select=["RA011"],
        )
        assert found == []

    def test_park_without_release_method_flagged(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            class Hoarder:
                def __init__(self, path):
                    f = open(path)
                    self._handle = f
            """,
            select=["RA011"],
        )
        assert codes(found) == ["RA011"]
        assert "no release" in found[0].message

    def test_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA011
            def read_all(path):
                f = open(path)
                return f.read()
            """,
            select=["RA011"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# Suppression + syntax handling
# ---------------------------------------------------------------------------


class TestRunner:
    def test_file_level_suppression(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # justified: fixture exercises the auditor itself
            # repro-audit: disable=RA002
            import numpy as np

            def _worker(chunk):
                return np.random.default_rng().random(3)

            def run(chunks):
                return parallel_map_chunks(_worker, chunks)
            """,
            select=["RA002"],
        )
        assert found == []

    def test_suppression_is_per_rule(self, tmp_path):
        found = audit_snippet(
            tmp_path,
            """
            # repro-audit: disable=RA009
            def f(acc=[]):
                return acc
            """,
            select=["RL003"],
        )
        assert codes(found) == ["RL003"]

    def test_syntax_error_reported_not_fatal(self, tmp_path):
        found = audit_snippet(tmp_path, "def broken(:\n    pass\n")
        assert codes(found) == ["RA000"]


# ---------------------------------------------------------------------------
# Reporters
# ---------------------------------------------------------------------------


#: Subset of the SARIF 2.1.0 schema: the structural properties GitHub
#: code scanning requires of an upload. Embedded so validation needs no
#: network access.
SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "$schema": {"type": "string"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name"],
                                "properties": {
                                    "name": {"type": "string"},
                                    "rules": {
                                        "type": "array",
                                        "items": {
                                            "type": "object",
                                            "required": ["id"],
                                        },
                                    },
                                },
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "message", "locations"],
                            "properties": {
                                "ruleId": {"type": "string"},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                        "properties": {
                                            "physicalLocation": {
                                                "type": "object",
                                                "required": [
                                                    "artifactLocation",
                                                    "region",
                                                ],
                                            }
                                        },
                                    },
                                },
                                "codeFlows": {
                                    "type": "array",
                                    "items": {
                                        "type": "object",
                                        "required": ["threadFlows"],
                                    },
                                },
                                "partialFingerprints": {"type": "object"},
                            },
                        },
                    },
                },
            },
        },
    },
}


WORKER_RNG = """
    import numpy as np

    def _worker(chunk):
        return np.random.default_rng().random(3)

    def run(chunks):
        return parallel_map_chunks(_worker, chunks)
    """


def _sample_findings(tmp_path):
    return audit_snippet(tmp_path, WORKER_RNG, select=["RA002"])


class TestReporters:
    def test_json_roundtrip(self, tmp_path):
        found = _sample_findings(tmp_path)
        payload = json.loads(render_json(found))
        assert payload["count"] == len(found) > 0
        assert payload["findings"][0]["rule"] == "RA002"

    def test_sarif_validates_against_subset_schema(self, tmp_path):
        jsonschema = pytest.importorskip("jsonschema")
        found = _sample_findings(tmp_path)
        log = json.loads(render_sarif(found, iter_rules()))
        jsonschema.validate(log, SARIF_SUBSET_SCHEMA)

    def test_sarif_carries_fingerprints_and_rule_ids(self, tmp_path):
        found = _sample_findings(tmp_path)
        log = json.loads(render_sarif(found, iter_rules()))
        run = log["runs"][0]
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {
            "RA002",
            "RA006",
            "RA009",
            "RA010",
            "RA011",
        }
        result = run["results"][0]
        assert result["ruleId"] == "RA002"
        assert "reproAudit/v1" in result["partialFingerprints"]

    def test_sarif_one_driver_carries_every_rule(self, tmp_path):
        # Per-file (RL) and whole-program (RA) findings share one run.
        found = _sample_findings(tmp_path) + audit_snippet(
            tmp_path, "def f(acc=[]):\n    return acc\n", select=["RL003"]
        )
        log = json.loads(render_sarif(found, iter_rules()))
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-audit"
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert rule_ids == [
            f"RA{i:03d}" for i in (2, 6, 9, 10, 11)
        ] + [f"RL{i:03d}" for i in range(1, 9)]
        assert {r["ruleId"] for r in run["results"]} == {"RA002", "RL003"}

    def test_sarif_code_flow_mirrors_trace(self, tmp_path):
        found = _sample_findings(tmp_path)
        assert found[0].trace
        log = json.loads(render_sarif(found, iter_rules()))
        result = log["runs"][0]["results"][0]
        locations = result["codeFlows"][0]["threadFlows"][0]["locations"]
        # One location per trace hop plus the terminal finding location.
        assert len(locations) == len(found[0].trace) + 1


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestCli:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        # __all__ keeps the per-file RL004 quiet on the fixture.
        path.write_text(
            '__all__ = ["double"]\n\n\ndef double(x):\n    return 2 * x\n'
        )
        assert main([str(path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        path = tmp_path / "bad.py"
        path.write_text("def f(acc=[]):\n    return acc\n")
        assert main([str(path)]) == 1
        assert "RL003" in capsys.readouterr().out

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        path = tmp_path / "ok.py"
        path.write_text("x = 1\n")
        assert main([str(path), "--select", "RA999"]) == 2

    def test_missing_path_exits_two(self, tmp_path):
        assert main([str(tmp_path / "absent.py")]) == 2

    def test_sarif_output_to_file(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text("def f(acc=[]):\n    return acc\n")
        out = tmp_path / "audit.sarif"
        assert (
            main(
                [
                    str(path),
                    "--format",
                    "sarif",
                    "--output",
                    str(out),
                ]
            )
            == 1
        )
        assert json.loads(out.read_text())["version"] == "2.1.0"


# ---------------------------------------------------------------------------
# Tier gates on the real tree
# ---------------------------------------------------------------------------


def _kde_sampler_runs(cls):
    """Observed runs of ``cls`` with a KDE at ``a = 1``, on ``N_SMALL``
    rows and on ``SCALE`` times as many."""

    def make():
        estimator = make_density_estimator("kde", budget=256, random_state=0)
        return cls(SAMPLE_SIZE, 1.0, estimator, random_state=0)

    return observe(make(), N_SMALL, 1), observe(make(), SCALE * N_SMALL, 1)


@pytest.fixture(scope="module")
def one_pass_runs():
    return _kde_sampler_runs(OnePassBiasedSampler)


@pytest.fixture(scope="module")
def two_pass_runs():
    return _kde_sampler_runs(DensityBiasedSampler)


def _data_growth() -> int:
    """Bytes the large runs' data has over the small runs'."""
    return _points(SCALE * N_SMALL).nbytes - _points(N_SMALL).nbytes


class TestSrcRepro:
    def test_src_repro_is_audit_clean(self):
        assert audit_paths([REPO_ROOT / "src" / "repro"]) == []

    def test_one_pass_sampler_fit_is_statically_one_scan(self, one_pass_runs):
        # Declared one scan a phase; with the KDE the normaliser reuses
        # the fitted centres, so the fit scan is the only one before
        # the draw.
        assert OnePassBiasedSampler.__n_passes__ == {
            "fit_density": 1,
            "estimate_normalizer": 1,
            "draw": 1,
        }
        for run in one_pass_runs:
            assert run.passes["fit_density"] == 1
            assert run.passes["estimate_normalizer"] == 0
            assert run.passes["sample"] == 2

    def test_two_pass_sampler_totals_three_scans(self, two_pass_runs):
        # The pipeline's documented data_passes == 4 is these three
        # sampler scans plus the full-dataset cluster-assignment pass
        # (pinned at runtime in tests/test_obs.py).
        assert sum(DensityBiasedSampler.__n_passes__.values()) == 3
        for run in two_pass_runs:
            assert run.passes["sample"] == 3

    def test_one_pass_sampler_fit_state_is_b_plus_m(self, one_pass_runs):
        # The paper's memory claim: the fit phases of
        # OnePassBiasedSampler.sample() hold O(b + m) state, declared so
        # and measured so (their peaks barely move from n to 8 n rows).
        space = OnePassBiasedSampler.__space__
        small, large = one_pass_runs
        for phase in ("fit_density", "estimate_normalizer"):
            assert bound_rank(space[phase]) <= SIZE_ORDER.index("m")
            growth = large.peaks[phase] - small.peaks[phase]
            assert growth < DATA_SHARE * _data_growth(), phase

    def test_one_pass_sampler_never_materialises_the_stream(
        self, one_pass_runs
    ):
        # Even the draw scan holds a bounded window of chunks: from n to
        # 8 n rows neither the draw nor the whole call grows its peak by
        # half of the data's growth, which holding the stream would take.
        draw = parse_bound(OnePassBiasedSampler.__space__["draw"])
        assert draw == ("b", "chunk")
        small, large = one_pass_runs
        for phase in ("draw", "sample"):
            growth = large.peaks[phase] - small.peaks[phase]
            assert growth < _data_growth() / 2, phase

    def test_two_pass_sampler_is_linear_by_design(self, two_pass_runs):
        # The exact-normaliser baseline keeps every density: declared
        # O(n), and measured to grow faster than the contract check
        # allows a sublinear phase.
        assert DensityBiasedSampler.__space__["eval_density"] == "O(n)"
        small, large = two_pass_runs
        growth = large.peaks["eval_density"] - small.peaks["eval_density"]
        assert growth > DATA_SHARE * _data_growth()
