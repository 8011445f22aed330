"""Canonical JSON: the one serialisation every ledger hashes (sweep
metrics lines and digest, service job keys, journal record digests)."""

from __future__ import annotations

import json

__all__ = ["canonical_json"]


def canonical_json(obj) -> str:
    """``obj`` as compact JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))
