import pytest

from prstab.workers import chunk_ranges, resolve_threads


def test_chunk_ranges_cover_without_overlap():
    ranges = chunk_ranges(100, 7)
    assert ranges[0] == (0, 7)
    assert ranges[-1][1] == 100
    flat = [i for lo, hi in ranges for i in range(lo, hi)]
    assert flat == list(range(100))
    with pytest.raises(ValueError):
        chunk_ranges(10, 0)


def test_resolve_threads_precedence(monkeypatch):
    monkeypatch.delenv("PRSTAB_THREADS", raising=False)
    assert resolve_threads(3) == 3
    assert resolve_threads(None) >= 1
    monkeypatch.setenv("PRSTAB_THREADS", "5")
    assert resolve_threads(None) == 5
    assert resolve_threads(2) == 2  # explicit flag beats the environment
    with pytest.raises(ValueError):
        resolve_threads(0)
