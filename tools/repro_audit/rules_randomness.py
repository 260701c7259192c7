"""RL001/RL002 — determinism of every randomness source.

The paper's comparisons (Figures 3–7: biased vs uniform sampling at
equal sample size) are only meaningful when both samplers consume
randomness from an explicitly threaded generator. A single call into
numpy's *global* RandomState, or a generator constructed without a seed
argument, silently decouples two "identical" runs and invalidates the
figure. These two rules machine-check the repo convention:

* library code never touches ``np.random.<legacy fn>`` or constructs an
  unseeded generator (RL001);
* every public callable that accepts randomness takes a
  ``random_state``/``rng`` parameter and routes it through
  :func:`repro.utils.validation.check_random_state` (RL002).
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.astkit import ModuleInfo, ProjectModel
from tools.repro_audit.core import Finding, ModuleRule, register

__all__ = ["NoGlobalRandomness", "RandomStateContract"]

#: numpy.random attributes that are NOT the legacy global-state API.
_NEW_STYLE_API = frozenset(
    {
        "default_rng",
        "Generator",
        "RandomState",
        "SeedSequence",
        "BitGenerator",
        "PCG64",
        "PCG64DXSM",
        "Philox",
        "MT19937",
        "SFC64",
    }
)

#: Parameter names recognised as "this callable accepts randomness".
RNG_PARAM_NAMES = frozenset({"random_state", "rng"})


def _numpy_random_aliases(tree: ast.Module) -> tuple[set[str], set[str]]:
    """Names bound in this module that refer to numpy / numpy.random."""
    numpy_aliases: set[str] = set()
    random_aliases: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "numpy.random" and alias.asname:
                    random_aliases.add(alias.asname)
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy":
                for alias in node.names:
                    if alias.name == "random":
                        random_aliases.add(alias.asname or "random")
    return numpy_aliases, random_aliases


def _is_np_random(node: ast.expr, numpy_aliases: set[str], random_aliases: set[str]) -> bool:
    """Whether ``node`` is an expression referring to the numpy.random module."""
    if isinstance(node, ast.Name):
        return node.id in random_aliases
    return (
        isinstance(node, ast.Attribute)
        and node.attr == "random"
        and isinstance(node.value, ast.Name)
        and node.value.id in numpy_aliases
    )


def _is_unseeded(call: ast.Call) -> bool:
    """``default_rng()`` / ``RandomState()`` with no (or None) seed."""
    if not call.args and not call.keywords:
        return True
    first = call.args[0] if call.args else None
    if first is None:
        for kw in call.keywords:
            if kw.arg in (None, "seed"):
                first = kw.value
                break
    return isinstance(first, ast.Constant) and first.value is None


@register
class NoGlobalRandomness(ModuleRule):
    """RL001: no global-state or unseeded randomness in library code.

    Flags, outside ``tests/``/``benchmarks/``/``examples/``:

    * calls to the legacy module-level API (``np.random.seed``,
      ``np.random.rand``, ``np.random.choice``, ...), which mutate or
      read numpy's hidden global RandomState;
    * ``np.random.default_rng()`` / ``np.random.RandomState()`` with no
      seed argument (fresh OS entropy — unreproducible by construction);
    * ``from numpy.random import <legacy fn>`` imports.
    """

    code = "RL001"
    summary = "no global-state or unseeded numpy randomness in library code"

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        if not info.is_library:
            return
        numpy_aliases, random_aliases = _numpy_random_aliases(info.tree)
        for node in ast.walk(info.tree):
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.random":
                for alias in node.names:
                    if alias.name not in _NEW_STYLE_API and alias.name != "*":
                        yield self.finding(
                            info,
                            node,
                            f"import of legacy global-state RNG function "
                            f"'numpy.random.{alias.name}'; use a seeded "
                            f"Generator via check_random_state instead",
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if not _is_np_random(func.value, numpy_aliases, random_aliases):
                continue
            if func.attr not in _NEW_STYLE_API:
                yield self.finding(
                    info,
                    node,
                    f"call to 'np.random.{func.attr}' uses numpy's global "
                    f"RandomState; thread a Generator through "
                    f"check_random_state instead",
                )
            elif func.attr in ("default_rng", "RandomState") and _is_unseeded(node):
                yield self.finding(
                    info,
                    node,
                    f"'np.random.{func.attr}()' without a seed draws fresh "
                    f"OS entropy in library code; accept a random_state "
                    f"parameter and seed explicitly",
                )


def _is_abstract(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    for dec in func.decorator_list:
        name = dec.attr if isinstance(dec, ast.Attribute) else getattr(dec, "id", "")
        if name in ("abstractmethod", "abstractproperty"):
            return True
    return False


def _is_stub_body(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Body is only a docstring / ``pass`` / ``...`` / ``raise``."""
    for stmt in func.body:
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue
        if isinstance(stmt, (ast.Pass, ast.Raise)):
            continue
        return False
    return True


def iter_public_callables(
    tree: ast.Module,
) -> Iterator[tuple[ast.FunctionDef | ast.AsyncFunctionDef, str]]:
    """(function node, qualified display name) for the module's public API.

    Covers top-level functions and methods of top-level public classes.
    ``__init__``/``__call__``/``__new__`` count as public methods.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not node.name.startswith("_"):
                yield node, node.name
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    public = not sub.name.startswith("_") or sub.name in (
                        "__init__",
                        "__call__",
                        "__new__",
                    )
                    if public:
                        yield sub, f"{node.name}.{sub.name}"


def _param_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    args = func.args
    return [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]


def _calls_check_random_state(body: list[ast.stmt], param: str) -> bool:
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name != "check_random_state":
            continue
        candidates = list(node.args) + [kw.value for kw in node.keywords]
        if any(isinstance(a, ast.Name) and a.id == param for a in candidates):
            return True
    return False


def _routes_param(body: list[ast.stmt], param: str) -> bool:
    """Whether ``param`` is stored, forwarded, or otherwise consumed."""
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            value = node.value
            if isinstance(value, ast.Name) and value.id == param:
                return True
        elif isinstance(node, ast.Call):
            candidates = list(node.args) + [kw.value for kw in node.keywords]
            if any(isinstance(a, ast.Name) and a.id == param for a in candidates):
                return True
    return False


def _direct_rng_use(
    body: list[ast.stmt], param: str
) -> ast.Attribute | None:
    """First ``param.<attr>`` access (using the raw value as a Generator)."""
    for node in ast.walk(ast.Module(body=body, type_ignores=[])):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == param
        ):
            return node
    return None


@register
class RandomStateContract(ModuleRule):
    """RL002: randomness parameters must route through check_random_state.

    For every public callable with a ``random_state``/``rng`` parameter:

    * calling methods on the raw parameter (``rng.choice(...)``) without
      first normalising it via ``check_random_state`` rejects ints/None
      and breaks the uniform seeding API — violation;
    * a randomness parameter that is never stored, forwarded, or
      normalised is dead API surface — violation.

    Additionally, any library callable that builds a generator from a
    hardcoded literal seed (``np.random.default_rng(42)``) hides the
    randomness from callers — it must expose the seed as a parameter.
    """

    code = "RL002"
    summary = "randomness parameters must route through check_random_state"

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        if not info.is_library:
            return
        numpy_aliases, random_aliases = _numpy_random_aliases(info.tree)

        for func, display in iter_public_callables(info.tree):
            if _is_abstract(func) or _is_stub_body(func):
                continue
            rng_params = [p for p in _param_names(func) if p in RNG_PARAM_NAMES]
            for param in rng_params:
                direct = _direct_rng_use(func.body, param)
                if direct is not None and not _calls_check_random_state(
                    func.body, param
                ):
                    yield self.finding(
                        info,
                        direct,
                        f"'{display}' uses parameter '{param}' as a raw RNG "
                        f"without normalising it via check_random_state() "
                        f"(ints and None would break)",
                    )
                elif direct is None and not _routes_param(func.body, param):
                    yield self.finding(
                        info,
                        func,
                        f"'{display}' accepts randomness parameter '{param}' "
                        f"but never stores, forwards, or normalises it",
                    )

        # Hardcoded literal seeds anywhere in library code.
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Call):
                continue
            func_expr = node.func
            is_default_rng = (
                isinstance(func_expr, ast.Attribute)
                and func_expr.attr == "default_rng"
                and _is_np_random(func_expr.value, numpy_aliases, random_aliases)
            ) or (
                isinstance(func_expr, ast.Name) and func_expr.id == "default_rng"
            )
            if not is_default_rng or not node.args:
                continue
            seed = node.args[0]
            if isinstance(seed, ast.Constant) and isinstance(seed.value, int):
                yield self.finding(
                    info,
                    node,
                    f"hardcoded seed default_rng({seed.value}) hides the "
                    f"randomness source; expose a random_state parameter "
                    f"and route it through check_random_state",
                )
