"""Seeded operation scripts.

A read script replays the fixed query list in whole *passes*, each a
seeded shuffle of the list.  Every pass therefore holds the same
multiset of queries — the paper's list already repeats its frequent
paths — so equal blocks do equal work, and per-read counters do not
depend on the seed.  Only the order does.
"""

from __future__ import annotations

import hashlib
import random
from collections.abc import Iterable, Sequence


def shuffled_passes(items: Sequence, passes: int,
                    rng: random.Random) -> list[list]:
    """``passes`` seeded permutations of ``items``."""
    return [rng.sample(items, len(items)) for _ in range(passes)]


def read_blocks(items: Sequence, blocks: int, passes_per_block: int,
                rng: random.Random) -> list[list]:
    """Equal blocks, each ``passes_per_block`` shuffled passes long."""
    out = []
    for _ in range(blocks):
        block: list = []
        for one_pass in shuffled_passes(items, passes_per_block, rng):
            block.extend(one_pass)
        out.append(block)
    return out


def script_hash(operations: Iterable) -> str:
    """Stable digest of an operation sequence (str() of each, in order)."""
    digest = hashlib.sha256()
    for operation in operations:
        digest.update(str(operation).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()
