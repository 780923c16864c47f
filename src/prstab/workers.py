"""Thread-count validation.

No command runs a thread pool: the `--threads` flag is validated and
otherwise ignored.
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

