"""Thread counts for the package's pools.

`SLAG_LAB_THREADS` (a positive integer) caps each pool on its own: the
experiment runner's `--parallel` and the slope-row chunks of
`conjugate.refined_sup`.
"""

from __future__ import annotations

import os


def usable_cores() -> int:
    """Cores this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def max_workers(requested: int) -> int:
    """`requested` capped by the SLAG_LAB_THREADS environment variable."""
    cap = os.environ.get("SLAG_LAB_THREADS")
    if not cap:
        return max(1, requested)
    try:
        limit = int(cap)
    except ValueError:
        limit = 0
    if limit < 1:
        raise ValueError(
            f"SLAG_LAB_THREADS must be a positive integer, got {cap!r}")
    return max(1, min(requested, limit))
