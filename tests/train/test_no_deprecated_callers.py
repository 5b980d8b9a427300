"""No caller may use the removed or deprecated training entry points.

The free functions ``repro.core.pretrain`` / ``fine_tune_forecasting`` /
``fine_tune_classification`` / ``transfer_forecasting`` are gone; callers
use the ``run_*`` functions or :class:`repro.train.TrainSession`.  This
test walks the AST of the package and of ``examples/`` and fails if a
module imports one of those names from ``repro.core``.  The examples
must also not call the removed embedding accessors of ``TimeDRL``
(``embed``, ``timestamp_embeddings``, ``instance_embeddings``) or of the
SSL baselines (``timestamp_embeddings``, ``instance_embeddings``,
``forecast_features``); ``encode`` replaces all of them.
"""

from __future__ import annotations

import ast
import pathlib

import repro

DEPRECATED = {
    "pretrain",
    "fine_tune_forecasting",
    "fine_tune_classification",
    "transfer_forecasting",
}

DEPRECATED_ACCESSORS = {"embed", "timestamp_embeddings", "instance_embeddings",
                        "forecast_features"}

SRC_ROOT = pathlib.Path(repro.__file__).resolve().parent
EXAMPLES_ROOT = SRC_ROOT.parent.parent / "examples"


def _deprecated_imports(tree: ast.Module) -> list[str]:
    hits = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = node.module or ""
        # Relative imports inside repro resolve to repro.* too; any
        # "core"-ish source of a deprecated name counts.
        if "core" not in module and node.level == 0:
            continue
        for alias in node.names:
            if alias.name in DEPRECATED:
                hits.append(f"from {'.' * node.level}{module} "
                            f"import {alias.name}")
    return hits


def _accessor_calls(tree: ast.Module) -> list[str]:
    return [f"line {node.lineno}: .{node.func.attr}()"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in DEPRECATED_ACCESSORS]


def _offenders(root: pathlib.Path, check) -> dict[str, list[str]]:
    offenders = {}
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        hits = check(tree)
        if hits:
            offenders[path.relative_to(root).as_posix()] = hits
    return offenders


def test_src_tree_does_not_import_deprecated_names():
    offenders = _offenders(SRC_ROOT, _deprecated_imports)
    assert not offenders, (
        "removed training entry points are still imported; use the run_* "
        f"functions or repro.train.TrainSession: {offenders}")


def test_examples_do_not_import_deprecated_names():
    assert EXAMPLES_ROOT.is_dir()
    offenders = _offenders(EXAMPLES_ROOT, _deprecated_imports)
    assert not offenders, (
        "examples import removed training entry points; use the run_* "
        f"functions or repro.train.TrainSession: {offenders}")


def test_examples_do_not_call_deprecated_accessors():
    offenders = _offenders(EXAMPLES_ROOT, _accessor_calls)
    assert not offenders, (
        f"examples call deprecated embedding accessors; use encode(): "
        f"{offenders}")


def test_guard_actually_detects_offenders():
    tree = ast.parse("from repro.core import pretrain\n"
                     "from ..core.finetune import fine_tune_forecasting\n"
                     "model.embed(x)\n"
                     "baseline.forecast_features(x)\n")
    assert len(_deprecated_imports(tree)) == 2
    assert len(_accessor_calls(tree)) == 2
