"""Fixtures shared by the test modules."""

import pytest

import sumdiff.linalg as linalg


@pytest.fixture
def cold_solves(monkeypatch):
    """An empty solve cache for one test; the process's cache is restored after it."""
    monkeypatch.setattr(linalg, "_solves", {})
    monkeypatch.setattr(linalg, "_solves_size", 0)
