"""Capped exponential backoff: the one retry-delay schedule.

The campaign pool's re-dispatch loop and the service client's retry
loops all sleep ``base * 2**attempt`` seconds, capped.
"""

from __future__ import annotations

__all__ = ["BACKOFF_CAP", "capped_backoff"]

#: default ceiling on one backoff sleep, in seconds.
BACKOFF_CAP = 2.0


def capped_backoff(base: float, attempt: int, cap: float = BACKOFF_CAP) -> float:
    """Sleep before retry ``attempt`` (0-based); the exponent is clamped
    so a long retry loop cannot overflow the float."""
    return min(base * 2.0 ** min(attempt, 64), cap)
