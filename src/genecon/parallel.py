"""An order-preserving map, kept in its own module because the benchmark's
tracer (``bench/tracer.py``) wraps ``parallel.ordered_map`` by name."""

from typing import Callable, Iterable, TypeVar

T, R = TypeVar("T"), TypeVar("R")


def ordered_map(fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
    return [fn(x) for x in items]
