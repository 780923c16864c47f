import pytest

from prstab.workers import resolve_threads


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("PRSTAB_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) >= 1
    monkeypatch.setenv("PRSTAB_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2  # explicit flag beats the environment
    with pytest.raises(ValueError):
        resolve_threads(0)
