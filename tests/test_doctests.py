"""The examples in module docstrings run and pass."""

import doctest
import importlib
import pkgutil

import twistzeta


def test_every_module_doctest_passes():
    attempted = 0
    for info in pkgutil.iter_modules(twistzeta.__path__, "twistzeta."):
        result = doctest.testmod(importlib.import_module(info.name))
        assert result.failed == 0, info.name
        attempted += result.attempted
    assert attempted > 0
