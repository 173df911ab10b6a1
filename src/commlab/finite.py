"""Brute-force subgroup identities in small finite permutation groups.

Subgroups are materialised element sets, so every identity under test
(product rule for commutators, Hall containments, fat = symmetric, the
first-slot reduction, the connectivity condition) becomes a set comparison.

Internally a permutation of degree d is a length-d ``bytes`` mapping position
i to p[i] (0-based); the public ``Permutation`` type is a bytes subclass, so
raw kernel output and wrapped values mix freely in sets. Composition is left
to right: ``(p * q)(i) = q[p[i]]``, conjugation is ``p^g = g^-1 p g`` and the
commutator is ``[a, b] = a^-1 b^-1 a b``, matching the word module.

Commutator subgroups are computed as normal closures of generator
commutators, which agrees with the element-level definition because all
subgroups here are normal in their parent; the element-level enumeration is
kept in the test suite as an independent oracle.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from commlab import kernels

DEFAULT_ORDER_CAP = 20000
DEFAULT_FAT_BUDGET = 10**7


class CapExceeded(RuntimeError):
    """Closure grew past the configured element cap."""


class BudgetExceeded(RuntimeError):
    """Fat-commutator enumeration grew past the evaluation budget."""


class Permutation(bytes):
    """Permutation of {1..d}, stored 0-based as bytes; p maps i to p[i]."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int] | bytes) -> Permutation:
        self = super().__new__(cls, images)
        if sorted(self) != list(range(len(self))):
            raise ValueError(f"not a permutation of 0..{len(self) - 1}")
        return self

    @classmethod
    def identity(cls, degree: int) -> Permutation:
        if degree < 1:
            raise ValueError(f"degree must be >= 1, got {degree}")
        return cls(range(degree))

    @classmethod
    def from_images(cls, images: Sequence[int]) -> Permutation:
        """Build from 1-based images, e.g. [2, 1, 3] for the transposition."""
        return cls(i - 1 for i in images)

    @classmethod
    def from_cycles(cls, degree: int, *cycles: Sequence[int]) -> Permutation:
        """Build from 1-based cycles, e.g. from_cycles(3, (1, 2))."""
        out = list(range(degree))
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)((cycle[0],))):
                out[a - 1] = b - 1
        return cls(out)

    @property
    def degree(self) -> int:
        return len(self)

    def images(self) -> tuple[int, ...]:
        """1-based image tuple."""
        return tuple(v + 1 for v in self)

    def __mul__(self, other: Permutation) -> Permutation:  # type: ignore[override]
        return Permutation(kernels.compose(self, other))

    def inverse(self) -> Permutation:
        return Permutation(kernels.invert_perm(self))

    def conjugate(self, by: bytes) -> Permutation:
        return Permutation(_conj(self, by))

    @property
    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self))

    def cycle_string(self) -> str:
        seen: set[int] = set()
        parts: list[str] = []
        for start in range(len(self)):
            if start in seen or self[start] == start:
                continue
            cycle = [start]
            seen.add(start)
            nxt = self[start]
            while nxt != start:
                cycle.append(nxt)
                seen.add(nxt)
                nxt = self[nxt]
            parts.append("(" + " ".join(str(v + 1) for v in cycle) + ")")
        return "".join(parts) or "()"

    def __repr__(self) -> str:
        return f"Permutation{self.cycle_string()}"


def _conj(p: bytes, g: bytes) -> bytes:
    return kernels.compose(kernels.compose(kernels.invert_perm(g), p), g)


def _commutator(a: bytes, b: bytes) -> bytes:
    ab = kernels.compose(a, b)
    ba = kernels.compose(b, a)
    return kernels.compose(kernels.invert_perm(ba), ab)


@dataclass(frozen=True)
class PermGroup:
    degree: int
    elements: frozenset[bytes]
    gens: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def __contains__(self, p: bytes) -> bool:
        return p in self.elements

    def members(self) -> Iterator[Permutation]:
        for p in sorted(self.elements):
            yield Permutation(p)


@dataclass(frozen=True)
class NormalSubgroup:
    parent: PermGroup
    elements: frozenset[bytes]
    gens: tuple[Permutation, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def is_trivial(self) -> bool:
        return len(self.elements) == 1

    def __contains__(self, p: bytes) -> bool:
        return p in self.elements

    def members(self) -> Iterator[Permutation]:
        for p in sorted(self.elements):
            yield Permutation(p)

    @classmethod
    def trivial(cls, parent: PermGroup) -> NormalSubgroup:
        ident = bytes(parent.identity)
        return cls(parent, frozenset((ident,)), ())

    def is_normal_in_parent(self) -> bool:
        """Full conjugation scan; quadratic, intended for tests."""
        return all(
            _conj(p, g) in self.elements
            for p in self.elements
            for g in self.parent.elements
        )


def _same_parent(a: NormalSubgroup, b: NormalSubgroup) -> PermGroup:
    if a.parent is b.parent:
        return a.parent
    if (
        a.parent.degree == b.parent.degree
        and a.parent.elements == b.parent.elements
    ):
        return a.parent
    raise ValueError("subgroups live in different parent groups")


def closure(
    gens: Sequence[bytes],
    cap: int = DEFAULT_ORDER_CAP,
    degree: int | None = None,
) -> PermGroup:
    """Materialise the group generated by ``gens``; error past ``cap``."""
    gens = [bytes(g) for g in gens]
    if degree is None:
        if not gens:
            raise ValueError("degree is required when gens is empty")
        degree = len(gens[0])
    if any(len(g) != degree for g in gens):
        raise ValueError("generators must share one degree")
    elems = kernels.closure_set(gens, degree, cap)
    if elems is None:
        raise CapExceeded(f"closure exceeds cap of {cap} elements")
    return PermGroup(degree, frozenset(elems), tuple(Permutation(g) for g in gens))


def normal_closure(G: PermGroup, seeds: Sequence[bytes]) -> NormalSubgroup:
    """Smallest normal subgroup of G containing the seeds."""
    for s in seeds:
        if s not in G.elements:
            raise ValueError(f"seed {Permutation(s)!r} lies outside the group")
    ident = bytes(G.identity)
    elems: set[bytes] = {ident}
    sub_gens: list[bytes] = []
    pending = [bytes(s) for s in seeds]
    gen_raw = [bytes(g) for g in G.gens]
    while pending:
        s = pending.pop()
        if s in elems:
            continue
        grown = kernels.extend_subgroup(elems, sub_gens, s, G.order)
        assert grown is not None  # bounded by |G|
        elems = grown
        sub_gens.append(s)
        for g in gen_raw:
            pending.append(_conj(s, g))
    return NormalSubgroup(
        G, frozenset(elems), tuple(Permutation(g) for g in sub_gens)
    )


def generating_set(parent: PermGroup, elements: Iterable[bytes]) -> list[bytes]:
    """Small deterministic generating set for a materialised subgroup."""
    ident = bytes(parent.identity)
    have: set[bytes] = {ident}
    gens: list[bytes] = []
    pool = sorted(set(elements))
    for x in pool:
        if x not in have:
            grown = kernels.extend_subgroup(have, gens, x, parent.order)
            assert grown is not None
            have = grown
            gens.append(x)
        if len(have) == len(pool):
            break
    return gens


class SubgroupCache:
    """Interns subgroups by element set and memoises commutator subgroups."""

    def __init__(self) -> None:
        self._interned: dict[frozenset[bytes], NormalSubgroup] = {}
        self._commutators: dict[
            tuple[frozenset[bytes], frozenset[bytes]], NormalSubgroup
        ] = {}

    def intern(self, sub: NormalSubgroup) -> NormalSubgroup:
        return self._interned.setdefault(sub.elements, sub)

    def commutator(
        self, a: NormalSubgroup, b: NormalSubgroup
    ) -> NormalSubgroup | None:
        return self._commutators.get((a.elements, b.elements))

    def store(
        self, a: NormalSubgroup, b: NormalSubgroup, result: NormalSubgroup
    ) -> NormalSubgroup:
        """Memoise [a, b] = [b, a]; returns the interned result."""
        result = self.intern(result)
        self._commutators[(a.elements, b.elements)] = result
        self._commutators[(b.elements, a.elements)] = result
        return result


def commutator_subgroup(
    A: NormalSubgroup, B: NormalSubgroup, cache: SubgroupCache | None = None
) -> NormalSubgroup:
    """[A, B] for normal subgroups of a common parent.

    Equals the normal closure of the pairwise commutators of the generating
    sets; [A, B] = [B, A] always, so the cache stores both orders.
    """
    parent = _same_parent(A, B)
    if cache is not None:
        hit = cache.commutator(A, B)
        if hit is not None:
            return hit
    ident = bytes(parent.identity)
    seeds: set[bytes] = set()
    for a in A.gens:
        for b in B.gens:
            c = _commutator(a, b)
            if c != ident:
                seeds.add(c)
    result = normal_closure(parent, sorted(seeds))
    if cache is not None:
        result = cache.store(A, B, result)
    return result


def product_subgroup(A: NormalSubgroup, B: NormalSubgroup) -> NormalSubgroup:
    """A*B = {a b}; a subgroup since both factors are normal."""
    parent = _same_parent(A, B)
    if B.elements <= A.elements:
        return A
    if A.elements <= B.elements:
        return B
    elems = set(A.elements)
    gens = [bytes(g) for g in A.gens]
    for g in B.gens:
        g = bytes(g)
        grown = kernels.extend_subgroup(elems, gens, g, parent.order)
        assert grown is not None
        if grown is not elems:
            gens.append(g)
        elems = grown
    return NormalSubgroup(
        parent, frozenset(elems), tuple(Permutation(g) for g in gens)
    )


def product_of(
    parent: PermGroup, subgroups: Sequence[NormalSubgroup]
) -> NormalSubgroup:
    out = NormalSubgroup.trivial(parent)
    for sub in subgroups:
        out = product_subgroup(out, sub)
    return out


def intersection_of(
    parent: PermGroup, subgroups: Sequence[NormalSubgroup]
) -> NormalSubgroup:
    if not subgroups:
        raise ValueError("need at least one subgroup to intersect")
    elems = frozenset.intersection(*(s.elements for s in subgroups))
    gens = generating_set(parent, elems)
    return NormalSubgroup(parent, elems, tuple(Permutation(g) for g in gens))


def symmetric_commutator(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    cache: SubgroupCache | None = None,
) -> NormalSubgroup:
    """Product over all orderings of the left-iterated commutator subgroups."""
    return _ordered_product(G, Rs, range(len(Rs)), cache)


def restricted_symmetric_commutator(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    cache: SubgroupCache | None = None,
) -> NormalSubgroup:
    """Same product but only over orderings that keep R_1 in the first slot."""
    return _ordered_product(G, Rs, (0,), cache)


def _ordered_product(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    starts: Iterable[int],
    cache: SubgroupCache | None,
) -> NormalSubgroup:
    """Product of the left-normed [R_s, ...] over s in ``starts``, all orders.

    ``layer[S]`` holds the distinct left-normed values over index set S, and
    ``layer[S + {i}]`` collects ``[X, R_i]`` for X in ``layer[S]``.
    """
    if not Rs:
        raise ValueError("need at least one subgroup")
    for R in Rs[1:]:
        _same_parent(Rs[0], R)
    if len(Rs) == 1:
        return Rs[0]
    cache = cache or SubgroupCache()
    Rs = [cache.intern(R) for R in Rs]
    n = len(Rs)
    layer = {1 << s: {Rs[s].elements: Rs[s]} for s in starts}
    for _ in range(n - 1):
        grown: dict[int, dict[frozenset[bytes], NormalSubgroup]] = {}
        for mask, values in layer.items():
            for i in range(n):
                if mask >> i & 1:
                    continue
                out = grown.setdefault(mask | 1 << i, {})
                for X in values.values():
                    C = commutator_subgroup(X, Rs[i], cache)
                    out.setdefault(C.elements, C)
        layer = grown
    total = NormalSubgroup.trivial(G)
    for values in layer.values():
        for X in values.values():
            total = product_subgroup(total, X)
    return total


@dataclass(frozen=True)
class FatResult:
    subgroup: NormalSubgroup
    evaluations: int
    rounds: int


def fat_commutator(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    budget: int = DEFAULT_FAT_BUDGET,
    cache: SubgroupCache | None = None,
) -> FatResult:
    """Subgroup generated by all bracket values, of every weight, in the R_i.

    The element-level values of one bracket arrangement on one surjective
    assignment of the R_i to its leaves generate the corresponding iterated
    commutator subgroup, so the computation runs over subgroups. It saturates
    the set of distinct ``(mask, subgroup)`` entries, where ``mask`` is the
    index set of the leaves: the entries start as ``(1 << i, R_i)``, and each
    round pairs every entry added in the previous round with every known
    entry, itself included, adding ``(m1 | m2, [A, B])``. Since
    ``[A, B] = [B, A]`` each unordered pair is taken once. The rounds stop
    when one adds nothing, which happens because G has finitely many normal
    subgroups; every bracket value is then an entry, and the fat subgroup is
    the product of the full-mask entries.

    ``evaluations`` counts ``commutator_subgroup`` calls, which the budget
    bounds; ``rounds`` counts the rounds, the last of which added nothing.
    """
    n = len(Rs)
    if n < 1:
        raise ValueError("need at least one subgroup")
    cache = cache or SubgroupCache()
    entries = [(1 << i, cache.intern(R)) for i, R in enumerate(Rs)]
    seen = {(mask, R.elements) for mask, R in entries}
    start = evaluations = rounds = 0  # entries[start:] are last round's
    while start < len(entries):
        rounds += 1
        end = len(entries)
        for j in range(start, end):
            m1, A = entries[j]
            for m2, B in entries[: j + 1]:
                evaluations += 1
                if evaluations > budget:
                    raise BudgetExceeded(
                        f"fat computation exceeds budget of {budget} evaluations"
                    )
                C = commutator_subgroup(A, B, cache)
                key = (m1 | m2, C.elements)
                if key not in seen:
                    seen.add(key)
                    entries.append((m1 | m2, C))
        start = end
    full = (1 << n) - 1
    total = NormalSubgroup.trivial(G)
    for mask, sub in entries:
        if mask == full:
            total = product_subgroup(total, sub)
    return FatResult(total, evaluations, rounds)


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class FatSymReport:
    n: int
    degree: int
    group_order: int
    fat_order: int
    symmetric_order: int
    stabilized: bool  # always True: the fat computation runs to saturation
    passed: bool
    evaluations: int
    rounds: int


def verify_fat_equals_symmetric(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    _unused: None = None,
    budget: int = DEFAULT_FAT_BUDGET,
    cache: SubgroupCache | None = None,
) -> FatSymReport:
    """Fat subgroup (all weights) vs symmetric product, as element sets."""
    # perfbench/workloads.py passes None in the third slot, once a weight cap
    if _unused is not None:
        raise ValueError("the third argument must be None; there is no weight cap")
    cache = cache or SubgroupCache()
    fat = fat_commutator(G, Rs, budget, cache)
    sym = symmetric_commutator(G, Rs, cache)
    return FatSymReport(
        n=len(Rs),
        degree=G.degree,
        group_order=G.order,
        fat_order=fat.subgroup.order,
        symmetric_order=sym.order,
        stabilized=True,
        passed=fat.subgroup.elements == sym.elements,
        evaluations=fat.evaluations,
        rounds=fat.rounds,
    )


@dataclass(frozen=True)
class RestrictionReport:
    n: int
    symmetric_order: int
    restricted_order: int
    passed: bool


def verify_first_slot_restriction(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    cache: SubgroupCache | None = None,
) -> RestrictionReport:
    """Full symmetric product vs the product over orderings fixing R_1."""
    cache = cache or SubgroupCache()
    sym = symmetric_commutator(G, Rs, cache)
    restricted = restricted_symmetric_commutator(G, Rs, cache)
    return RestrictionReport(
        n=len(Rs),
        symmetric_order=sym.order,
        restricted_order=restricted.order,
        passed=sym.elements == restricted.elements,
    )


@dataclass(frozen=True)
class ProductRuleReport:
    lhs_order: int
    rhs_order: int
    passed: bool


def verify_product_rule(
    A: NormalSubgroup,
    B: NormalSubgroup,
    C: NormalSubgroup,
    cache: SubgroupCache | None = None,
) -> ProductRuleReport:
    """[AB, C] = [A, C][B, C] as element sets."""
    cache = cache or SubgroupCache()
    lhs = commutator_subgroup(product_subgroup(A, B), C, cache)
    rhs = product_subgroup(
        commutator_subgroup(A, C, cache), commutator_subgroup(B, C, cache)
    )
    return ProductRuleReport(lhs.order, rhs.order, lhs.elements == rhs.elements)


@dataclass(frozen=True)
class HallReport:
    term_orders: tuple[int, int, int]
    containments: tuple[bool, bool, bool]
    passed: bool


def verify_hall(
    A: NormalSubgroup,
    B: NormalSubgroup,
    C: NormalSubgroup,
    cache: SubgroupCache | None = None,
) -> HallReport:
    """Each of [A,[B,C]], [[A,B],C], [[A,C],B] sits in the others' product."""
    cache = cache or SubgroupCache()
    t1 = commutator_subgroup(A, commutator_subgroup(B, C, cache), cache)
    t2 = commutator_subgroup(commutator_subgroup(A, B, cache), C, cache)
    t3 = commutator_subgroup(commutator_subgroup(A, C, cache), B, cache)
    checks = (
        t1.elements <= product_subgroup(t2, t3).elements,
        t2.elements <= product_subgroup(t1, t3).elements,
        t3.elements <= product_subgroup(t1, t2).elements,
    )
    return HallReport(
        (t1.order, t2.order, t3.order), checks, all(checks)
    )


@dataclass(frozen=True)
class ConnectivityReport:
    I: tuple[int, ...]
    J: tuple[int, ...]
    lhs_order: int
    rhs_order: int
    equal: bool


def verify_connectivity(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    I: Sequence[int],
    J: Sequence[int],
) -> ConnectivityReport:
    """(cap_I R_i) * prod_J R_j vs cap_I (R_i * prod_J R_j); may fail honestly.

    I and J are 1-based index sets into Rs with |I| >= 2 and |J| >= 1.
    """
    I = tuple(sorted(set(I)))
    J = tuple(sorted(set(J)))
    if len(I) < 2 or len(J) < 1:
        raise ValueError("need |I| >= 2 and |J| >= 1")
    if any(not 1 <= k <= len(Rs) for k in (*I, *J)):
        raise ValueError("index sets must point into the subgroup list")
    prod_j = product_of(G, [Rs[j - 1] for j in J])
    lhs = product_subgroup(intersection_of(G, [Rs[i - 1] for i in I]), prod_j)
    rhs = intersection_of(
        G, [product_subgroup(Rs[i - 1], prod_j) for i in I]
    )
    return ConnectivityReport(
        I, J, lhs.order, rhs.order, lhs.elements == rhs.elements
    )


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class Instance:
    seed: int
    group: PermGroup
    subgroups: tuple[NormalSubgroup, ...]

    @property
    def n(self) -> int:
        return len(self.subgroups)


def random_instance(
    seed: int,
    n: int,
    degree_cap: int = 10,
    order_cap: int = 2000,
) -> Instance:
    """Seeded random carrier: a small permutation group with n normal subgroups.

    Degree <= degree_cap, 2-3 random generators, retried deterministically
    until the closure fits under order_cap; each R_i is the normal closure of
    1-2 random elements.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 subgroups, got {n}")
    rng = random.Random(seed)
    while True:
        degree = rng.randint(3, degree_cap)
        gens = [_random_perm(rng, degree) for _ in range(rng.randint(2, 3))]
        try:
            G = closure(gens, cap=order_cap, degree=degree)
        except CapExceeded:
            continue
        if G.order < 2:
            continue
        pool = sorted(G.elements)
        subs = tuple(
            normal_closure(G, [rng.choice(pool) for _ in range(rng.randint(1, 2))])
            for _ in range(n)
        )
        return Instance(seed, G, subs)


def random_normal_triple(
    G: PermGroup, seed: int
) -> tuple[NormalSubgroup, NormalSubgroup, NormalSubgroup]:
    """Three seeded normal closures of 1-2 random elements each."""
    rng = random.Random(seed)
    pool = sorted(G.elements)
    a, b, c = (
        normal_closure(G, [rng.choice(pool) for _ in range(rng.randint(1, 2))])
        for _ in range(3)
    )
    return a, b, c


def _random_perm(rng: random.Random, degree: int) -> Permutation:
    images = list(range(degree))
    rng.shuffle(images)
    return Permutation(images)
