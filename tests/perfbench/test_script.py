"""Seeded operation scripts."""

import random
from collections import Counter

from perfbench.script import read_blocks, script_hash, shuffled_passes

ITEMS = ["//a", "//a/b", "//a", "//c/d/e", "//f", "//a/b"]


def flat(blocks):
    return [item for block in blocks for item in block]


def test_same_seed_same_script_hash():
    first = read_blocks(ITEMS, 5, 3, random.Random(11))
    second = read_blocks(ITEMS, 5, 3, random.Random(11))
    assert script_hash(flat(first)) == script_hash(flat(second))


def test_different_seed_different_script():
    first = read_blocks(ITEMS, 5, 3, random.Random(11))
    second = read_blocks(ITEMS, 5, 3, random.Random(12))
    assert script_hash(flat(first)) != script_hash(flat(second))


def test_every_pass_and_block_holds_the_same_multiset():
    for one_pass in shuffled_passes(ITEMS, 4, random.Random(3)):
        assert Counter(one_pass) == Counter(ITEMS)
    blocks = read_blocks(ITEMS, 5, 3, random.Random(3))
    assert len(blocks) == 5
    assert all(Counter(block) == Counter(ITEMS * 3) for block in blocks)


def test_hash_depends_on_order():
    assert script_hash(["x", "y"]) != script_hash(["y", "x"])
    assert script_hash(["xy"]) != script_hash(["x", "y"])
