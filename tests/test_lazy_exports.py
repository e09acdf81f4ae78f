"""The lazy-export contract of the packages a cache hit imports.

``repro.harness``, ``repro.sim`` and ``repro.transports`` export through one
``{name: defining module}`` table each (:mod:`repro._lazy`): the public
surface is what the eager ``__init__`` files offered, and importing the
package alone imports none of its modules.
"""

from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import repro

PACKAGES = ["repro.harness", "repro.sim", "repro.transports"]
SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


@pytest.mark.parametrize("package", PACKAGES)
class TestLazyExports:
    def test_every_export_is_the_object_its_defining_module_holds(self, package):
        module = importlib.import_module(package)
        assert module.__all__ == list(module._EXPORTS) and module.__all__
        for name, defining in module._EXPORTS.items():
            home = importlib.import_module(defining)
            expected = home if defining == f"{package}.{name}" else getattr(home, name)
            assert getattr(module, name) is expected, name

    def test_dir_and_star_import_offer_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        for name in module.__all__:
            assert namespace[name] is getattr(module, name), name

    def test_an_unknown_attribute_names_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"{package!r} has no attribute 'nope'"):
            module.nope
        with pytest.raises(ImportError):
            exec(f"from {package} import nope", {})

    def test_importing_the_bare_package_loads_none_of_its_modules(self, package):
        script = (
            f"import sys, {package}\n"
            f"print([m for m in sys.modules if m.startswith('{package}.')])\n"
        )
        env = dict(os.environ, PYTHONPATH=SRC)
        loaded = subprocess.run(
            [sys.executable, "-c", script], env=env, check=True,
            stdout=subprocess.PIPE, text=True,
        ).stdout
        assert loaded.strip() == "[]"
