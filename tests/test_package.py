import importlib
import pkgutil

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
