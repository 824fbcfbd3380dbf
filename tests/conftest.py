"""Helpers shared by the test modules."""
from __future__ import annotations

import os

import pytest

import siflag
from siflag import weylchar


def fresh_env() -> dict:
    """The environment for a fresh interpreter that imports siflag from this checkout."""
    src = os.path.dirname(os.path.dirname(siflag.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def fresh_char_caches(monkeypatch):
    """Empty weylchar base and character caches for one test, restored after it.

    What the test computes, under a mutation or not, does not outlive it.
    """
    monkeypatch.setattr(weylchar, "_BASE_CACHE", {})
    monkeypatch.setattr(weylchar, "_CHAR_CACHE", {})
