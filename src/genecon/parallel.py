"""Sequential, order-preserving map, and the GENECON_THREADS check.

GENECON_THREADS is accepted for compatibility and ignored: a thread pool
never beat one thread, because the interpreter lock serializes the Python
work. A malformed value is still a usage error.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def thread_count() -> int:
    """GENECON_THREADS as a validated count (1 when unset); checked, never acted on."""
    raw = os.environ.get("GENECON_THREADS", "").strip()
    if not raw:
        return 1
    try:
        n = int(raw)
    except ValueError as exc:
        raise ValueError(f"GENECON_THREADS must be an integer, got {raw!r}") from exc
    if n < 0:
        raise ValueError(f"GENECON_THREADS must be nonnegative, got {n}")
    return n


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    return [fn(x) for x in items]
