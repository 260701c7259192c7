"""RL005 — static conformance to the estimator base-class contracts.

The sampling pipeline treats density estimators, clusterers, and outlier
detectors as interchangeable behind their base classes
(:class:`repro.density.base.DensityEstimator`,
:class:`repro.clustering.base.Clusterer`,
:class:`repro.outliers.base.OutlierDetector`, kernel functions behind
:class:`repro.density.kernels.Kernel`). Python only enforces the
abstract surface at *instantiation* time and never checks signatures, so
a subclass with a misspelt override or an incompatible ``fit`` signature
imports cleanly and fails deep inside an experiment run. This rule
checks both statically, without importing anything: every concrete
subclass of an in-tree ABC must define each abstract method, and the
override's signature must accept everything the base signature does.
"""

from __future__ import annotations

import ast
from typing import Iterator

from tools.astkit import ModuleInfo, ProjectModel
from tools.repro_audit.core import Finding, ModuleRule, register

__all__ = ["EstimatorConformance"]

_ABC_NAMES = frozenset({"ABC", "ABCMeta"})
_MAX_DEPTH = 20


def _decorator_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    names: set[str] = set()
    for dec in func.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute):
            names.add(target.attr)
        elif isinstance(target, ast.Name):
            names.add(target.id)
    return names


def _is_abstract_method(func: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    return bool(
        _decorator_names(func) & {"abstractmethod", "abstractproperty"}
    )


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None


def _methods(cls: ast.ClassDef) -> dict[str, ast.FunctionDef | ast.AsyncFunctionDef]:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _ancestors(
    info: ModuleInfo, cls: ast.ClassDef, project: ProjectModel
) -> list[tuple[ModuleInfo, ast.ClassDef]]:
    """In-tree ancestor classes, nearest first (DFS over resolvable bases)."""
    out: list[tuple[ModuleInfo, ast.ClassDef]] = []
    seen: set[tuple[str, str]] = {(info.module, cls.name)}
    stack: list[tuple[ModuleInfo, ast.ClassDef, int]] = [(info, cls, 0)]
    while stack:
        owner, node, depth = stack.pop(0)
        if depth >= _MAX_DEPTH:
            continue
        for base in node.bases:
            name = _base_name(base)
            if name is None or name in _ABC_NAMES:
                continue
            resolved = project.class_def(owner.module, name)
            if resolved is None:
                continue
            key = (resolved[0].module, resolved[1].name)
            if key in seen:
                continue
            seen.add(key)
            out.append(resolved)
            stack.append((resolved[0], resolved[1], depth + 1))
    return out


def _declares_abc(cls: ast.ClassDef) -> bool:
    for base in cls.bases:
        if _base_name(base) in _ABC_NAMES:
            return True
    for kw in cls.keywords:
        if kw.arg == "metaclass" and _base_name(kw.value) in _ABC_NAMES:
            return True
    return False


def _positional_names(func: ast.FunctionDef | ast.AsyncFunctionDef) -> list[str]:
    return [a.arg for a in func.args.posonlyargs + func.args.args]


def _signature_problems(
    abstract: ast.FunctionDef | ast.AsyncFunctionDef,
    impl: ast.FunctionDef | ast.AsyncFunctionDef,
) -> list[str]:
    """Ways ``impl`` fails to accept what ``abstract`` promises."""
    problems: list[str] = []
    pos_a = _positional_names(abstract)
    pos_i = _positional_names(impl)
    impl_all = set(pos_i) | {a.arg for a in impl.args.kwonlyargs}

    for idx, name in enumerate(pos_a):
        if idx < len(pos_i):
            if pos_i[idx] != name:
                problems.append(
                    f"positional parameter {idx} is '{pos_i[idx]}', base "
                    f"declares '{name}'"
                )
        elif impl.args.vararg is None:
            problems.append(
                f"missing positional parameter '{name}' declared by the base"
            )

    extra = len(pos_i) - len(pos_a)
    if extra > 0 and extra > len(impl.args.defaults):
        problems.append(
            "adds required positional parameters beyond the base signature"
        )

    for kw in abstract.args.kwonlyargs:
        if kw.arg not in impl_all and impl.args.kwarg is None:
            problems.append(
                f"missing keyword-only parameter '{kw.arg}' declared by the base"
            )

    abstract_names = set(pos_a) | {a.arg for a in abstract.args.kwonlyargs}
    for kw, default in zip(impl.args.kwonlyargs, impl.args.kw_defaults):
        if kw.arg not in abstract_names and default is None:
            problems.append(
                f"adds required keyword-only parameter '{kw.arg}' not in the "
                f"base signature"
            )
    return problems


@register
class EstimatorConformance(ModuleRule):
    """RL005: concrete subclasses must satisfy their ABC, compatibly.

    For every top-level class whose (transitively resolved, in-tree)
    ancestors declare ``@abstractmethod`` methods, unless the class is
    itself abstract (subclasses ``abc.ABC`` directly or declares new
    abstract methods):

    * each abstract method must be overridden somewhere at or below the
      declaring base;
    * each override's signature must be call-compatible with the
      abstract signature — same positional names in the same order, any
      added parameters optional, every base keyword-only parameter
      accepted.
    """

    code = "RL005"
    summary = "subclasses must implement base abstract methods compatibly"

    def check_module(
        self, info: ModuleInfo, project: ProjectModel
    ) -> Iterator[Finding]:
        if not info.is_library:
            return
        for cls in info.tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            own_methods = _methods(cls)
            is_abstract = _declares_abc(cls) or any(
                _is_abstract_method(m) for m in own_methods.values()
            )
            if is_abstract:
                continue
            ancestors = _ancestors(info, cls, project)
            if not ancestors:
                continue

            # Abstract surface: nearest declaration of each name wins.
            required: dict[str, tuple[ast.ClassDef, ast.FunctionDef]] = {}
            resolved_chain = [(info, cls)] + ancestors
            for owner_info, ancestor in ancestors:
                for name, method in _methods(ancestor).items():
                    if name not in required and _is_abstract_method(method):
                        required[name] = (ancestor, method)

            for name, (base_cls, base_method) in sorted(required.items()):
                impl = None
                for owner_info, candidate in resolved_chain:
                    if candidate is base_cls:
                        break
                    method = _methods(candidate).get(name)
                    if method is not None and not _is_abstract_method(method):
                        impl = method
                        break
                if impl is None:
                    yield self.finding(
                        info,
                        cls,
                        f"class '{cls.name}' subclasses '{base_cls.name}' but "
                        f"does not implement abstract method '{name}'",
                    )
                    continue
                for problem in _signature_problems(base_method, impl):
                    yield self.finding(
                        info,
                        impl,
                        f"'{cls.name}.{name}' is incompatible with "
                        f"'{base_cls.name}.{name}': {problem}",
                    )
