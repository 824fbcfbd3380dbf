"""Helpers shared by the test modules."""
from __future__ import annotations

import os

import siflag


def fresh_env() -> dict:
    """The environment for a fresh interpreter that imports siflag from this checkout."""
    src = os.path.dirname(os.path.dirname(siflag.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
