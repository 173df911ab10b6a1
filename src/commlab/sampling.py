"""Seeded word streams: sampled generators of symmetric commutator subgroups.

Given normal subgroups R_1..R_n of a free group, each described by a finite
generator list (SubgroupSpec, standing for the normal closure), the stream
emits random elements of the symmetric commutator subgroup: left-normed
commutators [[r_{s(1)}, r_{s(2)}], ..., r_{s(n)}] over sampled permutations
s, where each r_i is a conjugated generator of the matching subgroup.

All sampling is driven by random.Random(seed), so streams are reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Sequence

from commlab import kernels
from commlab.words import Word, _check_count, _is_int, conjugate, left_normed


@dataclass(frozen=True)
class SubgroupSpec:
    """Normal closure of ``generators`` in the ambient free group; they are
    stored as a tuple, so specs hash and compare by value."""

    generators: tuple[Word, ...]
    label: str = ""

    def __post_init__(self) -> None:
        generators = tuple(self.generators)
        if not generators:
            raise ValueError("SubgroupSpec needs at least one generator")
        for g in generators:
            if not isinstance(g, Word):
                raise ValueError(f"subgroup generator {g!r} is not a Word")
        if not isinstance(self.label, str):
            raise ValueError(f"subgroup label {self.label!r} is not a str")
        object.__setattr__(self, "generators", generators)


def random_reduced_word(rng: random.Random, rank: int, length: int) -> Word:
    """Uniformly random freely reduced word of exactly ``length`` letters."""
    top = kernels.MAX_INDEX
    if not (_is_int(rank) and _is_int(length) and 0 <= rank <= top and length >= 0):
        raise ValueError(
            f"need ints 0 <= rank <= {top} and length >= 0,"
            f" got rank={rank!r}, length={length!r}"
        )
    if rank == 0 or length == 0:
        return Word.identity()
    letters = [rng.choice([1, -1]) * rng.randint(1, rank)]
    while len(letters) < length:
        c = rng.choice([1, -1]) * rng.randint(1, rank)
        if c == -letters[-1]:
            continue
        letters.append(c)
    return Word._trusted(kernels.pack_signed(letters))


def symmetric_generators(
    subgroups: Sequence[SubgroupSpec],
    conj_depth: int,
    seed: int,
    count: int | None = None,
) -> Iterator[Word]:
    """Stream of sampled symmetric-commutator generators."""
    subgroups = list(subgroups)
    if not subgroups:
        raise ValueError("need at least one subgroup")
    _check_count("conj_depth", conj_depth)
    if count is not None:
        _check_count("count", count)
    rank = max(g.max_index() for s in subgroups for g in s.generators)
    rng = random.Random(seed)
    emitted = 0
    while count is None or emitted < count:
        order = list(range(len(subgroups)))
        rng.shuffle(order)
        args = [
            _conjugated_generator(rng, subgroups[i], rank, conj_depth)
            for i in order
        ]
        yield left_normed(args)
        emitted += 1


def _conjugated_generator(
    rng: random.Random, spec: SubgroupSpec, rank: int, conj_depth: int
) -> Word:
    gen = rng.choice(spec.generators)
    length = rng.randint(0, conj_depth) if conj_depth else 0
    return conjugate(gen, random_reduced_word(rng, rank, length))
