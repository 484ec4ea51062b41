import importlib

import pytest

MODULES = ("exactmath", "catalog", "sieve", "geometry", "designs", "permgroup")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"psu4designs.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
