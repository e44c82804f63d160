"""Named child seed streams.

Every workflow takes one top-level seed; sub-procedures (fold shuffling,
batch sampling, corruption) draw from independent child streams derived
from that seed and a stream name. Derivation must be stable across runs
and machines, so names are hashed with sha256 rather than ``hash()``.
"""

from __future__ import annotations

import hashlib

_SEED_SPACE = 2**63


def child_seed(seed: int, name: str) -> int:
    """Derive a deterministic child seed for the named stream."""
    digest = hashlib.sha256(f"{seed}/{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE
