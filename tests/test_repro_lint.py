"""Tests for the per-file rules of tools/repro_audit (RL001-RL008):
every rule positive + negative + suppression, the reporters and CLI
on their findings, and the tier gate that keeps ``src/repro`` itself
clean."""

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
from tools.repro_audit.reporting import (  # noqa: E402
    render_json,
    render_sarif,
    render_text,
)
from tools.repro_audit.rules_docstrings import documented_parameters  # noqa: E402


def lint_snippet(tmp_path: Path, source: str, *, select=None, name="mod.py"):
    """Write ``source`` to a scratch module and lint it."""
    path = tmp_path / name
    path.write_text(textwrap.dedent(source))
    return audit_paths([path], select=select)


def codes(violations) -> list[str]:
    return [v.rule for v in violations]


# ---------------------------------------------------------------------------
# RL001 — global-state randomness
# ---------------------------------------------------------------------------


class TestRL001:
    def test_legacy_global_call_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f():
                np.random.seed(0)
                return np.random.rand(3)
            """,
            select=["RL001"],
        )
        assert codes(found) == ["RL001", "RL001"]
        assert "np.random.seed" in found[0].message

    def test_unseeded_default_rng_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f():
                return np.random.default_rng()
            """,
            select=["RL001"],
        )
        assert codes(found) == ["RL001"]

    def test_legacy_from_import_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from numpy.random import shuffle

            def f(x):
                shuffle(x)
            """,
            select=["RL001"],
        )
        assert codes(found) == ["RL001"]

    def test_seeded_generator_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f(seed):
                return np.random.default_rng(seed).random(3)
            """,
            select=["RL001"],
        )
        assert found == []

    def test_tests_directory_exempt(self, tmp_path):
        testdir = tmp_path / "tests"
        testdir.mkdir()
        found = lint_snippet(
            testdir,
            """
            import numpy as np

            def f():
                np.random.seed(0)
            """,
            select=["RL001"],
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            # repro-audit: disable=RL001
            import numpy as np

            def f():
                np.random.seed(0)
            """,
            select=["RL001"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RL002 — random_state routing
# ---------------------------------------------------------------------------


class TestRL002:
    def test_raw_rng_use_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def draw(n, random_state=None):
                return random_state.random(n)
            """,
            select=["RL002"],
        )
        assert codes(found) == ["RL002"]
        assert "check_random_state" in found[0].message

    def test_dead_rng_parameter_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def draw(n, rng=None):
                return list(range(n))
            """,
            select=["RL002"],
        )
        assert codes(found) == ["RL002"]
        assert "never stores" in found[0].message

    def test_hardcoded_seed_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import numpy as np

            def f():
                return np.random.default_rng(42).random()
            """,
            select=["RL002"],
        )
        assert codes(found) == ["RL002"]

    def test_normalised_use_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from repro.utils.validation import check_random_state

            def draw(n, random_state=None):
                rng = check_random_state(random_state)
                return rng.random(n)
            """,
            select=["RL002"],
        )
        assert found == []

    def test_stored_and_forwarded_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            class Sampler:
                def __init__(self, random_state=None):
                    self.random_state = random_state

            def wrapper(rng=None):
                return Sampler(random_state=rng)
            """,
            select=["RL002"],
        )
        assert found == []

    def test_abstract_and_stub_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import abc

            class Base(abc.ABC):
                @abc.abstractmethod
                def draw(self, rng=None):
                    ...

            def protocol_stub(rng=None):
                raise NotImplementedError
            """,
            select=["RL002"],
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            # repro-audit: disable=RL002
            def draw(n, random_state=None):
                return random_state.random(n)
            """,
            select=["RL002"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RL003 — mutable defaults
# ---------------------------------------------------------------------------


class TestRL003:
    @pytest.mark.parametrize(
        "default", ["[]", "{}", "set()", "dict()", "list()", "[1, 2]"]
    )
    def test_mutable_default_flagged(self, tmp_path, default):
        found = lint_snippet(
            tmp_path,
            f"""
            def f(x, acc={default}):
                return acc
            """,
            select=["RL003"],
        )
        assert codes(found) == ["RL003"]

    def test_keyword_only_mutable_default_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def f(x, *, acc=[]):
                return acc
            """,
            select=["RL003"],
        )
        assert codes(found) == ["RL003"]

    def test_none_and_immutable_defaults_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def f(x, acc=None, name="data", k=(1, 2), n=3):
                return acc
            """,
            select=["RL003"],
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            # repro-audit: disable=RL003
            def f(x, acc=[]):
                return acc
            """,
            select=["RL003"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RL004 — __all__ and re-export resolution
# ---------------------------------------------------------------------------


class TestRL004:
    def test_missing_all_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def public():
                return 1
            """,
            select=["RL004"],
        )
        assert codes(found) == ["RL004"]
        assert "__all__" in found[0].message

    def test_unbound_name_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            __all__ = ["exists", "ghost"]

            def exists():
                return 1
            """,
            select=["RL004"],
        )
        assert codes(found) == ["RL004"]
        assert "ghost" in found[0].message

    def test_dynamic_all_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            names = ["f"]
            __all__ = sorted(names)

            def f():
                return 1
            """,
            select=["RL004"],
        )
        assert codes(found) == ["RL004"]
        assert "static" in found[0].message

    def test_duplicate_name_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            __all__ = ["f", "f"]

            def f():
                return 1
            """,
            select=["RL004"],
        )
        assert codes(found) == ["RL004"]
        assert "duplicate" in found[0].message

    def test_broken_reexport_flagged(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            '__all__ = ["gone"]\nfrom pkg.mod import gone\n'
        )
        (pkg / "mod.py").write_text(
            '__all__ = ["here"]\n\ndef here():\n    return 1\n'
        )
        found = audit_paths([pkg], select=["RL004"])
        assert codes(found) == ["RL004"]
        assert "does not resolve" in found[0].message

    def test_clean_module_and_valid_reexport(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text(
            '__all__ = ["here", "mod"]\nfrom pkg.mod import here\n'
            "from pkg import mod\n"
        )
        (pkg / "mod.py").write_text(
            '__all__ = ["here"]\n\ndef here():\n    return 1\n'
        )
        assert audit_paths([pkg], select=["RL004"]) == []

    def test_main_and_conftest_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def main():
                return 0
            """,
            select=["RL004"],
            name="__main__.py",
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            # repro-audit: disable=RL004
            def public():
                return 1
            """,
            select=["RL004"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RL005 — estimator-API conformance
# ---------------------------------------------------------------------------

_BASE = """
import abc

__all__ = ["Base"]


class Base(abc.ABC):
    @abc.abstractmethod
    def fit(self, data, *, stream=None):
        ...
"""


class TestRL005:
    def test_missing_abstract_method_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _BASE
            + """

class Broken(Base):
    def other(self):
        return 1
            """,
            select=["RL005"],
        )
        assert codes(found) == ["RL005"]
        assert "does not implement abstract method 'fit'" in found[0].message

    def test_renamed_positional_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _BASE
            + """

class Renamed(Base):
    def fit(self, points, *, stream=None):
        return self
            """,
            select=["RL005"],
        )
        assert codes(found) == ["RL005"]
        assert "positional parameter 1" in found[0].message

    def test_missing_kwonly_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _BASE
            + """

class NoStream(Base):
    def fit(self, data):
        return self
            """,
            select=["RL005"],
        )
        assert codes(found) == ["RL005"]
        assert "keyword-only parameter 'stream'" in found[0].message

    def test_extra_required_param_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _BASE
            + """

class Extra(Base):
    def fit(self, data, extra, *, stream=None):
        return self
            """,
            select=["RL005"],
        )
        assert codes(found) == ["RL005"]

    def test_compatible_subclass_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _BASE
            + """

class Good(Base):
    def fit(self, data=None, *, stream=None, extra=1):
        return self
            """,
            select=["RL005"],
        )
        assert found == []

    def test_cross_module_and_inherited_impl(self, tmp_path):
        pkg = tmp_path / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("__all__ = []\n")
        (pkg / "base.py").write_text(textwrap.dedent(_BASE))
        (pkg / "impl.py").write_text(
            textwrap.dedent(
                """
                from pkg.base import Base

                __all__ = ["Mid", "Leaf"]


                class Mid(Base):
                    def fit(self, data, *, stream=None):
                        return self


                class Leaf(Mid):
                    pass
                """
            )
        )
        assert audit_paths([pkg], select=["RL005"]) == []

    def test_abstract_intermediate_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            _BASE
            + """

class StillAbstract(Base, abc.ABC):
    pass
            """,
            select=["RL005"],
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            "# repro-audit: disable=RL005\n"
            + _BASE
            + """

class Broken(Base):
    pass
            """,
            select=["RL005"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RL006 — numpydoc Parameters vs signature
# ---------------------------------------------------------------------------


class TestRL006:
    def test_unknown_documented_parameter_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            '''
            def f(x):
                """Do.

                Parameters
                ----------
                x:
                    Input.
                ghost:
                    Does not exist.
                """
                return x
            ''',
            select=["RL006"],
        )
        assert codes(found) == ["RL006"]
        assert "ghost" in found[0].message

    def test_omitted_parameter_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            '''
            def f(x, y):
                """Do.

                Parameters
                ----------
                x:
                    Input.
                """
                return x + y
            ''',
            select=["RL006"],
        )
        assert codes(found) == ["RL006"]
        assert "omits parameter 'y'" in found[0].message

    def test_order_mismatch_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            '''
            def f(x, y):
                """Do.

                Parameters
                ----------
                y:
                    Second.
                x:
                    First.
                """
                return x + y
            ''',
            select=["RL006"],
        )
        assert codes(found) == ["RL006"]
        assert "order" in found[0].message

    def test_class_docstring_checks_init(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            '''
            class Estimator:
                """Thing.

                Parameters
                ----------
                alpha:
                    Rate.
                """

                def __init__(self, alpha, beta):
                    self.alpha = alpha
                    self.beta = beta
            ''',
            select=["RL006"],
        )
        assert codes(found) == ["RL006"]
        assert "omits parameter 'beta'" in found[0].message

    def test_matching_section_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            '''
            def f(x, y, *, mode="fast", **extra):
                """Do.

                Parameters
                ----------
                x, y:
                    Inputs.
                mode:
                    How.
                **extra:
                    Passed through.

                Returns
                -------
                int
                """
                return x + y
            ''',
            select=["RL006"],
        )
        assert found == []

    def test_no_parameters_section_not_required(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            '''
            def f(x, y):
                """Add the things (no formal section here)."""
                return x + y
            ''',
            select=["RL006"],
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            '''
            # repro-audit: disable=RL006
            def f(x):
                """Do.

                Parameters
                ----------
                ghost:
                    Nope.
                """
                return x
            ''',
            select=["RL006"],
        )
        assert found == []

    def test_documented_parameters_helper(self):
        doc = (
            "Summary.\n\n    Parameters\n    ----------\n    a : int\n"
            "        First.\n    b, c:\n        Pair.\n\n    Returns\n"
            "    -------\n    int\n"
        )
        assert documented_parameters(doc) == ["a", "b", "c"]
        assert documented_parameters("No section.") is None


# ---------------------------------------------------------------------------
# RL007 — observability discipline (no bare print / time.time)
# ---------------------------------------------------------------------------


class TestRL007:
    def test_bare_print_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def f(x):
                print("progress:", x)
                return x
            """,
            select=["RL007"],
        )
        assert codes(found) == ["RL007"]
        assert "bare print()" in found[0].message

    def test_print_with_explicit_file_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import sys

            def f(x, stream=None):
                print(x, file=stream or sys.stderr)
            """,
            select=["RL007"],
        )
        assert found == []

    def test_time_time_call_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import time

            def f():
                return time.time()
            """,
            select=["RL007"],
        )
        assert codes(found) == ["RL007"]
        assert "time.time()" in found[0].message

    def test_time_import_alias_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import time as clock

            def f():
                return clock.time()
            """,
            select=["RL007"],
        )
        assert codes(found) == ["RL007"]

    def test_from_time_import_time_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from time import time

            def f():
                return time()
            """,
            select=["RL007"],
        )
        assert codes(found) == ["RL007"]

    def test_perf_counter_clean(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import time

            def f():
                return time.perf_counter()
            """,
            select=["RL007"],
        )
        assert found == []

    def test_tests_directory_exempt(self, tmp_path):
        testdir = tmp_path / "tests"
        testdir.mkdir()
        found = lint_snippet(
            testdir,
            """
            def f(x):
                print(x)
            """,
            select=["RL007"],
        )
        assert found == []

    def test_main_module_exempt(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            def f(x):
                print(x)
            """,
            select=["RL007"],
            name="__main__.py",
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            # repro-audit: disable=RL007
            def f(x):
                print(x)
            """,
            select=["RL007"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# RL008 — parallelism discipline (workers only via repro.parallel)
# ---------------------------------------------------------------------------


class TestRL008:
    def test_multiprocessing_import_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import multiprocessing

            def f(items):
                with multiprocessing.Pool(2) as pool:
                    return pool.map(str, items)
            """,
            select=["RL008"],
        )
        assert codes(found) == ["RL008"]
        assert "repro.parallel" in found[0].message

    def test_concurrent_futures_from_import_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            from concurrent.futures import ThreadPoolExecutor

            def f(items):
                with ThreadPoolExecutor(2) as pool:
                    return list(pool.map(str, items))
            """,
            select=["RL008"],
        )
        assert codes(found) == ["RL008"]

    def test_aliased_import_flagged(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            import concurrent.futures as cf
            """,
            select=["RL008"],
        )
        assert codes(found) == ["RL008"]

    def test_repro_parallel_package_exempt(self, tmp_path):
        pkg = tmp_path / "repro" / "parallel"
        pkg.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        found = lint_snippet(
            pkg,
            """
            from concurrent.futures import ThreadPoolExecutor

            __all__ = ["ThreadPoolExecutor"]
            """,
            name="backend.py",
            select=["RL008"],
        )
        assert found == []

    def test_tests_directory_exempt(self, tmp_path):
        testdir = tmp_path / "tests"
        testdir.mkdir()
        found = lint_snippet(
            testdir,
            """
            import multiprocessing
            """,
            select=["RL008"],
        )
        assert found == []

    def test_suppression_comment(self, tmp_path):
        found = lint_snippet(
            tmp_path,
            """
            # repro-audit: disable=RL008
            import multiprocessing
            """,
            select=["RL008"],
        )
        assert found == []


# ---------------------------------------------------------------------------
# Reporters and CLI
# ---------------------------------------------------------------------------


class TestReporting:
    def test_text_reporter_format(self, tmp_path):
        found = lint_snippet(
            tmp_path, "def f(acc=[]):\n    return acc\n", select=["RL003"]
        )
        text = render_text(found)
        assert "RL003" in text
        assert ":1:" in text  # file:line anchor
        assert "1 finding(s) [RL003 x1]" in text

    def test_text_reporter_clean(self):
        assert "clean" in render_text([])

    def test_json_reporter(self, tmp_path):
        found = lint_snippet(
            tmp_path, "def f(acc=[]):\n    return acc\n", select=["RL003"]
        )
        payload = json.loads(render_json(found))
        assert payload["count"] == 1
        assert payload["counts"] == {"RL003": 1}
        record = payload["findings"][0]
        assert record["rule"] == "RL003"
        assert record["line"] == 1

    def test_unknown_select_raises(self, tmp_path):
        with pytest.raises(KeyError):
            audit_paths([tmp_path], select=["RL999"])

    def test_sarif_reporter_driver_and_results(self, tmp_path):
        found = lint_snippet(
            tmp_path, "def f(acc=[]):\n    return acc\n", select=["RL003"]
        )
        log = json.loads(render_sarif(found, iter_rules()))
        assert log["version"] == "2.1.0"
        # One run, one driver: the per-file and whole-program rules
        # share a single code-scanning log.
        (run,) = log["runs"]
        assert run["tool"]["driver"]["name"] == "repro-audit"
        assert {r["id"] for r in run["tool"]["driver"]["rules"]} >= {
            "RL001",
            "RL003",
            "RL007",
        }
        (result,) = [r for r in run["results"] if r["ruleId"] == "RL003"]
        assert "reproAudit/v1" in result["partialFingerprints"]
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] == 1


class TestCli:
    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text('__all__ = ["f"]\n\ndef f():\n    return 1\n')
        assert main([str(tmp_path)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_exit_one_with_code_and_location(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('__all__ = []\n\ndef f(acc=[]):\n    return acc\n')
        assert main([str(bad)]) == 1
        out = capsys.readouterr().out
        assert "RL003" in out
        assert ":3:" in out  # file:line of the mutable default

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('__all__ = []\n\ndef f(acc=[]):\n    return acc\n')
        assert main([str(bad), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"RL003": 1}

    def test_select_filters_rules(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n")  # RL003 + RL004
        assert main([str(bad), "--select", "RL004"]) == 1
        out = capsys.readouterr().out
        assert "RL004" in out and "RL003" not in out

    def test_sarif_format_to_output_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.py"
        bad.write_text('__all__ = []\n\ndef f(acc=[]):\n    return acc\n')
        out_file = tmp_path / "lint.sarif"
        assert (
            main(
                [str(bad), "--format", "sarif", "--output", str(out_file)]
            )
            == 1
        )
        assert capsys.readouterr().out == ""
        log = json.loads(out_file.read_text())
        assert log["runs"][0]["tool"]["driver"]["name"] == "repro-audit"
        assert log["runs"][0]["results"]

    def test_unknown_select_exit_two(self, tmp_path):
        assert main([str(tmp_path), "--select", "RL999"]) == 2

    def test_missing_path_exit_two(self, tmp_path, capsys):
        # A typo'd path must not masquerade as a clean run.
        assert main([str(tmp_path / "nope")]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
            assert code in out

    def test_syntax_error_reported_not_crash(self, tmp_path, capsys):
        bad = tmp_path / "broken.py"
        bad.write_text("def f(:\n")
        assert main([str(bad)]) == 1
        assert "RA000" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The tier gate: the shipped library must stay clean.
# ---------------------------------------------------------------------------


class TestSourceTreeClean:
    # The zero-findings gate on src/repro is
    # tests/test_repro_audit.py::TestSrcRepro::test_src_repro_is_audit_clean,
    # which runs every rule listed here in one parse of the tree.

    def test_all_rules_exercised_by_src_scan(self):
        # The scan must actually run every registered rule (a regression
        # here would silently hollow out the gate).
        assert [r.code for r in iter_rules()] == [
            "RA001",
            "RA002",
            "RA003",
            "RA004",
            "RA005",
            "RA006",
            "RA007",
            "RA008",
            "RA009",
            "RA010",
            "RA011",
            "RL001",
            "RL002",
            "RL003",
            "RL004",
            "RL005",
            "RL006",
            "RL007",
            "RL008",
        ]
