"""Settings shared by every test."""

from __future__ import annotations

import pytest


@pytest.fixture(autouse=True)
def _default_guard(monkeypatch):
    # the tests assume the default degree guard; a test that needs another
    # bound sets CELLRIM_MAX_N itself
    monkeypatch.delenv("CELLRIM_MAX_N", raising=False)
