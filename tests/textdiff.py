"""Whole-export comparison that fails in a moment, however long the texts."""

from __future__ import annotations


def assert_same_text(got: str | bytes, want: str | bytes, context: int = 60) -> None:
    """Assert got == want. A mismatch reports the lengths, the first
    differing offset and context characters on each side of it, in place of
    the full diff pytest would work out for two multi-megabyte strings."""
    __tracebackhide__ = True  # pytest reports the failure at the caller
    if got == want:
        return
    # binary search for the first difference: got[:lo] == want[:lo] and
    # the first difference is at or before hi
    lo, hi = 0, min(len(got), len(want))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if got[lo:mid] == want[lo:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = max(lo - context, 0)
    raise AssertionError(
        f"texts differ at offset {lo} (lengths {len(got)} and {len(want)}):\n"
        f"  got:  {got[start:lo + context]!r}\n"
        f"  want: {want[start:lo + context]!r}"
    )
