"""Bracket arrangements: full binary commutator shapes of a given weight.

A bracket arrangement of weight t is a full binary tree with t leaves; leaf
positions are numbered 1..t left to right, e.g. the two weight-3 shapes are
[[a1, a2], a3] and [a1, [a2, a3]]. The module holds only the enumeration;
the left comb [[...[a1, a2], ...], ak] is ``commlab.words.left_normed``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True)
class Leaf:
    position: int


@dataclass(frozen=True)
class Node:
    left: BracketArrangement
    right: BracketArrangement


BracketArrangement = Union[Leaf, Node]


def enumerate_brackets(t: int) -> list[BracketArrangement]:
    """All bracket arrangements of weight t (Catalan(t-1) of them).

    Ordering: the left subtree weight descends from t-1 to 1, recursively,
    so enumerate_brackets(3) yields [[1,2],3] before [1,[2,3]].
    """
    if t < 1:
        raise ValueError(f"weight must be >= 1, got {t}")
    return list(_enumerate(t))


@functools.cache
def _enumerate(t: int) -> tuple[BracketArrangement, ...]:
    if t == 1:
        return (Leaf(1),)
    out: list[BracketArrangement] = []
    for lw in range(t - 1, 0, -1):
        for left in _enumerate(lw):
            for right in _enumerate(t - lw):
                out.append(Node(left, _shift(right, lw)))
    return tuple(out)


@functools.cache
def _shift(b: BracketArrangement, offset: int) -> BracketArrangement:
    if isinstance(b, Leaf):
        return Leaf(b.position + offset)
    return Node(_shift(b.left, offset), _shift(b.right, offset))

