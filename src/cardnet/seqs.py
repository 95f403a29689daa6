"""Finite sequence operators used by the network constructors.

Positions are 1-based: odd(x) holds x1, x3, ... and even(x) holds x2, x4, ...
Sorted always means non-increasing.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

T = TypeVar("T")


def odd(xs: Sequence[T]) -> list[T]:
    """Elements at odd 1-based positions: x1, x3, ..."""
    return list(xs[0::2])


def even(xs: Sequence[T]) -> list[T]:
    """Elements at even 1-based positions: x2, x4, ..."""
    return list(xs[1::2])


def zip_cols(*cols: Sequence[T]) -> list[T]:
    """Row-major interleave of columns whose lengths are non-increasing."""
    lens = [len(c) for c in cols]
    if any(lens[i] < lens[i + 1] for i in range(len(lens) - 1)):
        raise ValueError(f"zip requires non-increasing column lengths, got {lens}")
    out: list[T] = []
    for row in range(lens[0] if lens else 0):
        for col in cols:
            if row < len(col):
                out.append(col[row])
    return out
