"""Equality of large outputs that fails fast.

On a failing ``assert a == b`` pytest's assertion rewriting diffs both
sides; for multi-megabyte capture JSON or trace streams that takes
minutes.  :func:`first_difference` compares first and describes only a
mismatch, so the assertion reports in seconds.
"""

from __future__ import annotations


def first_difference(actual: str | bytes, expected: str | bytes) -> str | None:
    """``None`` when equal, else both lengths and the first differing offset."""
    if actual == expected:
        return None
    offset = next(
        (index for index, (a, b) in enumerate(zip(actual, expected)) if a != b),
        min(len(actual), len(expected)),
    )
    return f"lengths {len(actual)} and {len(expected)}, first difference at offset {offset}"
