"""Shared fixtures."""

import sys

import pytest


@pytest.fixture
def rebind(monkeypatch):
    """rebind(module, name, make) replaces module.name by make(original)
    in every fqdist namespace that binds the original, so callers that
    imported it by name see the replacement too.  Returns the
    replacement; monkeypatch restores every binding after the test."""

    def rebind_everywhere(module, name, make):
        original = getattr(module, name)
        replacement = make(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "fqdist" and not mod_name.startswith("fqdist."):
                continue
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, replacement)
        return replacement

    return rebind_everywhere
