import importlib
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
