"""Canonical JSON and sealed records: the one serialisation every ledger
hashes (sweep metrics lines and digest, service job keys, campaign keys)
and the one integrity framing every durable record carries (journal
lines, campaign checkpoints)."""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Optional

__all__ = ["canonical_json", "seal", "seal_digest", "verify"]


def canonical_json(obj) -> str:
    """``obj`` as compact JSON with sorted keys."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def seal_digest(body: Dict[str, object]) -> str:
    """Hex SHA-256 over the canonical JSON of ``body``."""
    return hashlib.sha256(canonical_json(body).encode("utf-8")).hexdigest()


def seal(body: Dict[str, object]) -> str:
    """``body`` as one sealed record: its canonical JSON with a
    ``sha256`` field added that hashes every other field."""
    return canonical_json(dict(body, sha256=seal_digest(body)))


def verify(record: Dict[str, object]) -> Optional[str]:
    """Why the parsed ``record`` fails its seal, or ``None`` when its
    ``sha256`` matches the rest of its fields."""
    claimed = record.get("sha256")
    actual = seal_digest({k: v for k, v in record.items() if k != "sha256"})
    if claimed == actual:
        return None
    return (
        f"sha256 mismatch: record claims {str(claimed)[:12]}..., "
        f"bytes hash to {actual[:12]}..."
    )
