import ast
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import momentbounds

_MODULES = sorted(m.name for m in pkgutil.iter_modules(momentbounds.__path__, "momentbounds."))


@pytest.mark.parametrize("name", _MODULES)
def test_every_exported_name_exists(name):
    # perfbench's tracer wraps each module's __all__ and skips a name it cannot find
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [x for x in exported if not hasattr(module, x)] == []


def test_every_engine_function_is_exported():
    # perfbench's tracer wraps exported names only: an unexported engine would drop out of its metrics
    from momentbounds import summoments

    for name, engine in summoments.ENGINES.items():
        assert engine.function in summoments.__all__, name
        assert callable(getattr(summoments, engine.function)), name


def test_every_bound_source_function_is_exported():
    # applicable_bounds looks each evaluator up in bounds, where perfbench's tracer wraps exported names only
    from momentbounds import bounds

    for name, source in bounds.BOUND_SOURCES.items():
        assert source.function in bounds.__all__, name
        assert callable(getattr(bounds, source.function)), name


def test_cli_jobs_leave_scipy_integrate_and_optimize_unloaded():
    # every CLI job is a fresh process that pays for each module it imports
    code = (
        "import contextlib, io, sys\n"
        "from momentbounds import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['search', '--iterations', '200', '--seed', '1']) == 0\n"
        "    assert cli.main(['moment', '--coeffs', '1,1,1', '--dist', 'rademacher', '--p', '4']) == 0\n"
        "print(sorted(m for m in ('scipy.integrate', 'scipy.optimize') if m in sys.modules))\n"
    )
    src = str(Path(momentbounds.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the one comparison of a law outside dists, and why it stays: a sweep row of
# Weibull-law sums needs p >= 3, where the logconc interval applies
_LAW_COMPARISON_EXEMPT = {("cli.py", "_run_sweep")}


def test_laws_are_read_from_one_table():
    # what a law is lives in its dists.LAWS record: outside dists no line
    # compares a law kind, its constant or string, or a shape alpha
    from momentbounds import dists

    constants = {"RADEMACHER", "SYM_EXPONENTIAL", "GAUSSIAN", "WEIBULL_TAIL"}
    found = []
    for path in sorted(Path(momentbounds.__file__).parent.glob("*.py")):
        if path.name == "dists.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [f for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for node in ast.walk(tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            operands += [e for o in operands if isinstance(o, (ast.Tuple, ast.List, ast.Set)) for e in o.elts]
            kind = any(
                (isinstance(o, ast.Attribute) and o.attr in constants)
                or (isinstance(o, ast.Name) and o.id in constants)
                or (isinstance(o, ast.Constant) and o.value in dists.KINDS)
                for o in operands
            )
            shape = any(isinstance(o, ast.Attribute) and o.attr == "alpha" for o in operands) and any(
                isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops
            )
            if kind or shape:
                owners = [f for f in functions if f.lineno <= node.lineno <= f.end_lineno]
                owner = max(owners, key=lambda f: f.lineno).name if owners else None
                found.append((path.name, owner, node.lineno))
    assert [f for f in found if f[:2] not in _LAW_COMPARISON_EXEMPT] == []
