"""Thread-count validation and fixed-width work ranges.

No command runs a thread pool: the `--threads` flag is validated and
otherwise ignored.  Chunk boundaries depend on the input alone, never on a
worker count.
"""

from __future__ import annotations

import os

ENV_THREADS = "PRSTAB_THREADS"


def resolve_threads(threads: int | None) -> int:
    """CLI-facing thread count: explicit value, else env var, else cores."""
    if threads is not None:
        n = int(threads)
    else:
        env = os.environ.get(ENV_THREADS)
        n = int(env) if env else (os.cpu_count() or 1)
    if n < 1:
        raise ValueError(f"thread count must be >= 1, got {n}")
    return n


def chunk_ranges(total: int, chunk: int) -> list[tuple[int, int]]:
    """Split [0, total) into contiguous [lo, hi) ranges of fixed width."""
    if chunk < 1:
        raise ValueError("chunk must be >= 1")
    return [(lo, min(lo + chunk, total)) for lo in range(0, total, chunk)]
