"""Fixtures shared by every test module."""

import pytest


@pytest.fixture(autouse=True)
def _no_seed_variable(monkeypatch):
    # the CLI refuses to run while HODGE_ASYM_SEED is set, and the children of
    # the subprocess tests inherit the environment; test_seed_guard sets it itself
    monkeypatch.delenv("HODGE_ASYM_SEED", raising=False)
