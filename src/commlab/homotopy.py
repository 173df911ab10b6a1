"""Normal-closure membership and certificates in the sphere group.

The central object is the group G = <x_1..x_m | x_1 x_2 ... x_m = 1>, which
is concretely free of rank m-1 once x_m is rewritten as (x_1...x_{m-1})^-1.
For a subset P of the generators, membership in the normal closure <<P>> is
decided by killing the letters of P and eliminating the first survivor,
which occurs exactly once in the surviving relator (a Tietze move onto an
explicit free basis).

On top of membership sit two certificate routines:

* pi2_check: for m=2 both closures are the whole group and all sampled
  commutators vanish, so the quotient of the intersection by the symmetric
  commutator subgroup is the free group of rank 1.
* pi3_certificate: for m=3 the word [x1, x2] lies in the intersection of all
  three closures but not in gamma_3, while every sampled symmetric-commutator
  generator lies in both; the quotient at n=3 is therefore nontrivial.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable

from commlab import kernels
from commlab.magnus import gamma_membership
from commlab.sampling import SubgroupSpec, random_reduced_word, symmetric_generators
from commlab.words import Word, _check_count, _is_int, commutator, render_word


@dataclass(frozen=True)
class SpherePresentation:
    """<x_1..x_m | x_1...x_m = 1>, free of rank m-1, for 2 <= m <= MAX_INDEX."""

    m: int

    def __post_init__(self) -> None:
        if not _is_int(self.m) or not 2 <= self.m <= kernels.MAX_INDEX:
            raise ValueError(f"need an int m in 2..{kernels.MAX_INDEX}, got {self.m!r}")

    @property
    def rank(self) -> int:
        return self.m - 1


def one_relator_membership(
    pres: SpherePresentation, w: Word, killed: Iterable[int]
) -> bool:
    """Whether w (over x_1..x_m) lies in the normal closure of ``killed``.

    Killing those generators leaves the relator s_1 s_2 ... s_k over the
    survivors s_1 < ... < s_k, so the quotient is free on s_2..s_k with
    s_1 = s_k^-1 ... s_2^-1. w is a member iff its killed image, with s_1
    substituted, reduces to the identity. With no survivor the quotient is
    trivial and every w is a member.
    """
    killed = tuple(killed)
    for g in killed:
        if not _is_int(g) or not 1 <= g <= pres.m:
            raise ValueError(f"generator index {g!r} out of range")
    if w.max_index() > pres.m:
        raise ValueError("word uses generators beyond the presentation")
    killed = bytes(killed)
    survivors = bytes(range(1, pres.m + 1)).translate(None, killed)
    if not survivors:
        return True
    first, rest = survivors[:1], survivors[1:]
    word = w.word.translate(None, killed + kernels.invert_signed(killed))
    word = word.replace(first, kernels.invert_signed(rest))
    word = word.replace(kernels.invert_signed(first), rest)
    return not kernels.reduce_signed(word)


@dataclass(frozen=True)
class Partition:
    """Disjoint nonempty blocks of generator indices covering {1..m}."""

    m: int
    blocks: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        if not _is_int(self.m):
            raise ValueError(f"need an int m, got {self.m!r}")
        seen: set[int] = set()
        for block in self.blocks:
            if not isinstance(block, (set, frozenset)) or not all(map(_is_int, block)):
                raise ValueError(f"partition block {block!r} is not a set of ints")
            if not block:
                raise ValueError("partition blocks must be nonempty")
            if block & seen:
                raise ValueError("partition blocks must be disjoint")
            seen |= block
        if seen != set(range(1, self.m + 1)):
            raise ValueError(f"blocks must cover exactly 1..{self.m}")

    @classmethod
    def singletons(cls, m: int) -> Partition:
        return cls(m, tuple(frozenset({i}) for i in range(1, m + 1)))


def in_block_closure(pres: SpherePresentation, w: Word, block: Iterable[int]) -> bool:
    """Whether w (over x_1..x_{m-1}) lies in the normal closure of the block."""
    block = frozenset(block)
    if not block:
        raise ValueError("block must be nonempty")
    if w.max_index() >= pres.m:
        raise ValueError("word is not in eliminated form")
    return one_relator_membership(pres, w, block)


def in_intersection(pres: SpherePresentation, w: Word, partition: Partition) -> bool:
    if partition.m != pres.m:
        raise ValueError(f"partition is over m={partition.m}, group has m={pres.m}")
    return all(in_block_closure(pres, w, block) for block in partition.blocks)


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class Pi2Report:
    trials: int
    in_r1_passes: int
    in_r2_passes: int
    commutator_passes: int
    quotient_rank: int

    @property
    def passed(self) -> bool:
        return (
            self.in_r1_passes
            == self.in_r2_passes
            == self.commutator_passes
            == self.trials
            and self.quotient_rank == 1
        )


def pi2_check(seed: int, trials: int = 1000, conj_depth: int = 4) -> Pi2Report:
    """Fuzzed evidence that for m=2 both closures fill the whole group.

    Every sampled element must lie in <<x_1>> and in <<x_2>>, and every
    sampled symmetric-commutator generator must reduce to the identity (the
    rank-1 free group is abelian), leaving the quotient free of rank 1.
    """
    _check_count("trials", trials)
    _check_count("conj_depth", conj_depth)  # before the trials, not at the first sample
    pres = SpherePresentation(2)
    rng = random.Random(seed)
    in_r1 = in_r2 = 0
    for _ in range(trials):
        w = random_reduced_word(rng, 1, rng.randint(0, 12))
        in_r1 += in_block_closure(pres, w, {1})
        in_r2 += in_block_closure(pres, w, {2})
    specs = (
        SubgroupSpec((Word((1,)),), "R1"),
        SubgroupSpec((Word((-1,)),), "R2"),
    )
    trivial = sum(
        g.is_identity
        for g in symmetric_generators(specs, conj_depth, seed, count=trials)
    )
    return Pi2Report(
        trials=trials,
        in_r1_passes=in_r1,
        in_r2_passes=in_r2,
        commutator_passes=trivial,
        quotient_rank=pres.rank,
    )


@dataclass(frozen=True)
class Pi3Report:
    m: int
    n: int
    partition: tuple[tuple[int, ...], ...]
    witness_word: str
    witness_in_intersection: bool
    witness_in_gamma: bool
    gamma_level: int
    samples: int
    intersection_passes: int
    gamma_passes: int

    @property
    def passed(self) -> bool:
        return (
            self.witness_in_intersection
            and not self.witness_in_gamma
            and self.intersection_passes == self.samples
            and self.gamma_passes == self.samples
        )


def pi3_certificate(seed: int, samples: int = 500, conj_depth: int = 4) -> Pi3Report:
    """Certificate that the m=n=3 quotient is nontrivial.

    The witness [x1, x2] lies in all three closures but not in gamma_3,
    while every sampled symmetric-commutator generator lies in both the
    intersection and gamma_3; its coset is therefore nontrivial.
    """
    _check_count("samples", samples)
    _check_count("conj_depth", conj_depth)
    pres = SpherePresentation(3)
    partition = Partition.singletons(3)
    witness = commutator(Word((1,)), Word((2,)))
    specs = (
        SubgroupSpec((Word((1,)),), "R1"),
        SubgroupSpec((Word((2,)),), "R2"),
        SubgroupSpec((Word((-2, -1)),), "R3"),
    )
    in_inter = in_gamma = 0
    for g in symmetric_generators(specs, conj_depth, seed, count=samples):
        in_inter += in_intersection(pres, g, partition)
        in_gamma += gamma_membership(g, 3)
    return Pi3Report(
        m=3,
        n=3,
        partition=tuple(tuple(sorted(b)) for b in partition.blocks),
        witness_word=render_word(witness),
        witness_in_intersection=in_intersection(pres, witness, partition),
        witness_in_gamma=gamma_membership(witness, 3),
        gamma_level=3,
        samples=samples,
        intersection_passes=in_inter,
        gamma_passes=in_gamma,
    )
