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
