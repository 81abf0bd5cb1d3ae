import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import biquot

MODULES = sorted(info.name for info in pkgutil.iter_modules(biquot.__path__, "biquot."))


def test_every_module_is_listed():
    assert MODULES == ["biquot.certify", "biquot.checks", "biquot.cli", "biquot.embeddings",
                       "biquot.liealg", "biquot.quat", "biquot.zeroplane"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_the_only_dataclasses_are_the_reports_and_the_scalar_quaternion():
    # checks, residuals and splits return plain values, a point is its
    # matrix; the scalar Quaternion is the tests' oracle and the bench tracer's hook
    found = sorted(name for module in map(importlib.import_module, MODULES)
                   for name, obj in vars(module).items()
                   if inspect.isclass(obj) and dataclasses.is_dataclass(obj)
                   and obj.__module__ == module.__name__)
    assert found == ["Certificate", "Quaternion", "SearchReport"]


def test_the_package_exports_no_function_or_class():
    # the modules are the API; `import biquot` gives only `__version__`
    found = sorted(name for name, obj in vars(biquot).items()
                   if inspect.isfunction(obj) or inspect.isclass(obj))
    assert found == []
    assert biquot.__version__ == "0.1.0"
