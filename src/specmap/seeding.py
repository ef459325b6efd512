"""Deterministic seed derivation.

Every random draw in the toolkit is reachable from one user-visible master
seed. Per-purpose child seeds are derived by hashing ``"{master}:{label}"``
so that adding a new consumer never shifts the streams of existing ones.
"""

import hashlib


def derive_seed(master: int, label: str) -> int:
    digest = hashlib.sha256(f"{int(master)}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") >> 1
