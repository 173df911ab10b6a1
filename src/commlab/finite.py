"""Brute-force subgroup identities in small finite permutation groups.

Subgroups are materialised element sets, so every identity under test
(product rule for commutators, Hall containments, fat = symmetric, the
first-slot reduction, the connectivity condition) becomes a set comparison.

A permutation of degree d is a plain length-d ``bytes`` mapping position i to
p[i] (0-based), in element sets, generator tuples and kernel output alike;
there is no wrapper type. Composition is left to right:
``(p * q)(i) = q[p[i]]``, conjugation is ``p^g = g^-1 p g`` and the
commutator is ``[a, b] = a^-1 b^-1 a b``, matching the word module.

Commutator subgroups are computed as normal closures of generator
commutators, which agrees with the element-level definition because all
subgroups here are normal in their parent; the element-level enumeration is
kept in the test suite as an independent oracle. The fat and symmetric
commutator subgroups are each one table with a subgroup per index mask, a
product of commutators of smaller masks' entries. Two identities for normal
subgroups make that exact: [XY, Z] = [X, Z][Y, Z], and [X, Z] <= X. The fat
entry of a mask needs only its two-block partitions {A, M - A}: every other
cover's commutator lies in one of theirs (see ``fat_commutator``).

Normal closures, products and intersections inside a parent G are built by
one growth loop: Dimino extensions by seeds and their conjugates, each capped
at |G|/p, p the least prime dividing |G|. Most of these subgroups turn out to
be the whole parent, which is never enumerated twice: by Lagrange a subgroup's
order divides |G|, so one that passes the cap is G itself, and G's own element
set is returned. An intersection as large as one of its inputs is that input,
since it lies inside every input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

from commlab import kernels

DEFAULT_ORDER_CAP = 20000
DEFAULT_FAT_BUDGET = 10**7
# random_instance gives up after this many carrier draws. No seed in 0-299
# needed more than 7 at the default caps; at order cap 2 and degree cap 255,
# the sparsest caps allowed, seeds 0-59 needed about 1200 on average and 5526
# at most.
MAX_INSTANCE_DRAWS = 20_000


class CapExceeded(RuntimeError):
    """Closure grew past the configured element cap."""


class BudgetExceeded(RuntimeError):
    """The fat commutator needs more mask pairs than the budget allows."""


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
    gens: tuple[bytes, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def identity(self) -> bytes:
        return bytes(range(self.degree))

    @cached_property
    def sorted_elements(self) -> tuple[bytes, ...]:
        """The elements in sorted order: the seed pool of the random draws."""
        return tuple(sorted(self.elements))


@dataclass(frozen=True)
class NormalSubgroup:
    parent: PermGroup
    elements: frozenset[bytes]
    gens: tuple[bytes, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @classmethod
    def trivial(cls, parent: PermGroup) -> NormalSubgroup:
        return cls(parent, frozenset((parent.identity,)), ())


def _same_parent(a: NormalSubgroup, b: NormalSubgroup) -> PermGroup:
    if a.parent is not b.parent:
        raise ValueError("subgroups live in different parent groups")
    return a.parent


def closure(
    gens: Sequence[bytes],
    cap: int = DEFAULT_ORDER_CAP,
    degree: int | None = None,
) -> PermGroup:
    """Materialise the group generated by ``gens``; error past ``cap``.

    Each generator is checked to be a permutation of the common degree and
    kept as plain bytes, like every other element and generator set here.
    """
    gens = [bytes(g) for g in gens]
    if degree is None:
        if not gens:
            raise ValueError("degree is required when gens is empty")
        degree = len(gens[0])
    ident = list(range(degree))
    if any(sorted(g) != ident for g in gens):
        raise ValueError(f"generators must be permutations of 0..{degree - 1}")
    elems = kernels.closure_set(gens, degree, cap)
    if elems is None:
        raise CapExceeded(f"closure exceeds cap of {cap} elements")
    return PermGroup(degree, frozenset(elems), tuple(gens))


def normal_closure(G: PermGroup, seeds: Sequence[bytes]) -> NormalSubgroup:
    """Smallest normal subgroup of G containing the seeds."""
    for s in seeds:
        try:
            if bytes(s) in G.elements:
                continue
        except (TypeError, ValueError):  # not byte values: in no carrier
            pass
        ints = isinstance(s, Iterable) and all(isinstance(x, int) for x in s)
        raise ValueError(f"seed {list(s) if ints else s!r} lies outside the group")
    return _grow_normal(G, {G.identity}, (), [bytes(s) for s in seeds])


def _grow_normal(
    G: PermGroup,
    elems: set[bytes] | frozenset[bytes],
    gens: Sequence[bytes],
    seeds: list[bytes],
) -> NormalSubgroup:
    """Normal closure in G of the normal subgroup <gens> = elems and the seeds.

    The seeds list is the queue: pops a seed, skips it if it is a member, and
    otherwise adds it as a generator by one Dimino extension and queues its
    conjugates by G's generators. Each extension is capped at the largest
    proper divisor of |G|. The subgroup it builds lies in G, so by Lagrange
    its order divides |G|, and an order past that cap leaves only |G|: the
    closure is G itself, returned with G's own element set and without
    enumerating the rest of it. Its gens are those taken so far, which
    generate G.
    """
    cap = _largest_proper_divisor(G.order)
    gens = list(gens)
    while seeds:
        s = seeds.pop()
        if s in elems:
            continue
        grown = kernels.extend_subgroup(elems, gens, s, cap)
        gens.append(s)
        if grown is None:
            return NormalSubgroup(G, G.elements, tuple(gens))
        elems = grown
        seeds.extend(_conj(s, g) for g in G.gens)
    return NormalSubgroup(G, frozenset(elems), tuple(gens))


def _largest_proper_divisor(order: int) -> int:
    """order // p for the least prime p dividing order (1 for order <= 1).

    A subgroup of a group of this order that has more elements than this is
    the whole group, by Lagrange.
    """
    p = 2
    while p * p <= order:
        if order % p == 0:
            return order // p
        p += 1
    return 1


class SubgroupCache:
    """Interns subgroups by element set and memoises commutator subgroups.

    Interning keeps one frozenset per subgroup, so memo lookups reuse its
    cached hash and stop comparing keys at identity; a memo without it ran
    about 7% slower on verify_finite and subgroup_rules (Python 3.11, 2 cores).
    """

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
    seeds: set[bytes] = set()
    for a in A.gens:
        for b in B.gens:
            c = _commutator(a, b)
            if c != parent.identity:
                seeds.add(c)
    result = normal_closure(parent, sorted(seeds))
    if cache is not None:
        result = cache.store(A, B, result)
    return result


def product_subgroup(A: NormalSubgroup, B: NormalSubgroup) -> NormalSubgroup:
    """A*B = {a b}; a subgroup since both factors are normal.

    Grown from A by B's gens. A*B is normal in the parent, so the normal
    closure of A and B's gens is A*B: the conjugates queued lie in B.
    """
    parent = _same_parent(A, B)
    if B.elements <= A.elements:
        return A
    if A.elements <= B.elements:
        return B
    return _grow_normal(parent, A.elements, A.gens, list(B.gens))


def intersection_of(
    parent: PermGroup, subgroups: Sequence[NormalSubgroup]
) -> NormalSubgroup:
    """Common elements of the subgroups.

    The intersection lies in every input, so an input of the same order has
    the same elements and is returned as it is. Otherwise it is a proper
    normal subgroup of the parent, its own normal closure.
    """
    if not subgroups:
        raise ValueError("need at least one subgroup to intersect")
    elems = frozenset.intersection(*(s.elements for s in subgroups))
    for s in subgroups:
        if s.order == len(elems):
            return s
    return normal_closure(parent, sorted(elems))


def _mask_table(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    splits: Callable[[int], Iterable[tuple[int, int]]],
    cache: SubgroupCache | None,
) -> NormalSubgroup:
    """One subgroup per index mask, R_i on {i}; returns the full mask's.

    Masks run in increasing order, so each proper submask of M is filled
    first. ``table[M]`` is the product of ``[table[a], table[b]]`` over the
    pairs ``splits(M)`` yields, each distinct pair of subgroups taken once.
    """
    if not Rs:
        raise ValueError("need at least one subgroup")
    for R in Rs[1:]:
        _same_parent(Rs[0], R)
    cache = cache or SubgroupCache()
    trivial = NormalSubgroup.trivial(G)
    table = [trivial] * (1 << len(Rs))
    for i, R in enumerate(Rs):
        table[1 << i] = cache.intern(R)
    for mask in range(3, len(table)):
        if not mask & (mask - 1):
            continue
        distinct = {}
        for a, b in splits(mask):
            X, Y = table[a], table[b]
            if (Y.elements, X.elements) not in distinct:
                distinct.setdefault((X.elements, Y.elements), (X, Y))
        total = trivial
        for X, Y in distinct.values():
            total = product_subgroup(total, commutator_subgroup(X, Y, cache))
        table[mask] = cache.intern(total)
    return table[-1]


def symmetric_commutator(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    cache: SubgroupCache | None = None,
) -> NormalSubgroup:
    """Product over all orderings of the left-iterated commutator subgroups.

    Let S(M) be that product over the orderings of the index mask M. Grouped
    by the last slot i, and by [XY, Z] = [X, Z][Y, Z], S(M) is the product of
    [S(M - {i}), R_i] over i in M.
    """
    return _mask_table(G, Rs, _last_slots, cache)


def restricted_symmetric_commutator(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    cache: SubgroupCache | None = None,
) -> NormalSubgroup:
    """Same product but only over orderings that keep R_1 in the first slot.

    Masks without index 0 stay trivial, and index 0 is never the last slot.
    """
    return _mask_table(G, Rs, lambda m: _last_slots(m, 1) if m & 1 else (), cache)


def _last_slots(mask: int, first: int = 0) -> Iterator[tuple[int, int]]:
    """(mask - {i}, {i}) for each index i >= first in mask."""
    for i in range(first, mask.bit_length()):
        if mask >> i & 1:
            yield mask ^ 1 << i, 1 << i


@dataclass(frozen=True)
class FatResult:
    subgroup: NormalSubgroup
    evaluations: int


def fat_commutator(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    budget: int = DEFAULT_FAT_BUDGET,
    cache: SubgroupCache | None = None,
) -> FatResult:
    """Subgroup generated by all bracket values, of every weight, in the R_i.

    Let F(M) be the subgroup generated by the brackets whose leaves use
    exactly the index mask M; F({i}) = R_i. A bracket [u, v] on M with a child
    on all of M lies in that child, as [X, Z] <= X. Any other lies in
    [F(A), F(B)] for proper submasks A | B = M, and by [XY, Z] = [X, Z][Y, Z]
    such brackets generate that commutator. So F(M) is the product of
    [F(A), F(B)] over those covers, and the two-block partitions suffice.

    Lemma: F(M) <= F(M - {j}) for j in M, |M| >= 2, so F shrinks as M grows.
    By induction on |M|, take a cover {A, B} of M. If a block is M - {j},
    [F(A), F(B)] <= F(M - {j}) as [X, Z] <= X & Z. Otherwise A - {j} and
    B - {j} are proper nonempty submasks covering M - {j}, and by induction and
    monotonicity [F(A), F(B)] <= [F(A - {j}), F(B - {j})] <= F(M - {j}).
    So for a cover with A proper, M - A is nonempty and inside B, and
    [F(A), F(B)] <= [F(A), F(M - A)]. Fat is F(full).

    ``evaluations`` is the number of such partitions, (3^n + 1) / 2 - 2^n,
    which ``budget`` bounds; it is checked before any work.
    """
    n = len(Rs)
    pairs = (3**n + 1) // 2 - 2**n
    if pairs > budget:
        raise BudgetExceeded(
            f"fat computation at n = {n} needs {pairs} mask pairs, "
            f"over the budget of {budget}"
        )
    return FatResult(_mask_table(G, Rs, _fat_splits, cache), pairs)


def _fat_splits(mask: int) -> Iterator[tuple[int, int]]:
    """Each two-block partition {A, mask - A} of the mask, once."""
    a = mask
    while a := (a - 1) & mask:
        if a < mask ^ a:
            yield a, mask ^ a


# ---------------------------------------------------------------------------
# verification reports


@dataclass(frozen=True)
class FatSymReport:
    fat_order: int
    symmetric_order: int
    stabilized: bool  # always True: the fat subgroup covers every weight
    passed: bool
    evaluations: int


def verify_fat_equals_symmetric(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    _unused: None = None,
    budget: int = DEFAULT_FAT_BUDGET,
    cache: SubgroupCache | None = None,
) -> FatSymReport:
    """Fat subgroup (all weights) vs symmetric product, as element sets.

    Up to n = 3 both tables split each mask alike and share the memo, so this
    passes whatever ``commutator_subgroup`` computes: it has content from n = 4.
    """
    # perfbench/workloads.py passes None in the third slot, once a weight cap
    if _unused is not None:
        raise ValueError("the third argument must be None; there is no weight cap")
    cache = cache or SubgroupCache()
    fat = fat_commutator(G, Rs, budget, cache)
    sym = symmetric_commutator(G, Rs, cache)
    return FatSymReport(
        fat_order=fat.subgroup.order,
        symmetric_order=sym.order,
        stabilized=True,
        passed=fat.subgroup.elements == sym.elements,
        evaluations=fat.evaluations,
    )


@dataclass(frozen=True)
class RestrictionReport:
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
    return HallReport(checks, all(checks))


@dataclass(frozen=True)
class ConnectivityReport:
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
    prod_j = reduce(product_subgroup, (Rs[j - 1] for j in J))
    lhs = product_subgroup(intersection_of(G, [Rs[i - 1] for i in I]), prod_j)
    rhs = intersection_of(G, [product_subgroup(Rs[i - 1], prod_j) for i in I])
    return ConnectivityReport(lhs.order, rhs.order, lhs.elements == rhs.elements)


# ---------------------------------------------------------------------------
# random instances


@dataclass(frozen=True)
class Instance:
    seed: int
    group: PermGroup
    subgroups: tuple[NormalSubgroup, ...]


def random_instance(
    seed: int,
    n: int,
    degree_cap: int = 10,
    order_cap: int = 2000,
) -> Instance:
    """Seeded random carrier: a small permutation group with n normal subgroups.

    Degree <= degree_cap, 2-3 random generators, retried deterministically
    until the closure fits under order_cap; each R_i is the normal closure of
    1-2 random elements. Raises ValueError on caps that admit no carrier and
    when MAX_INSTANCE_DRAWS draws find none.
    """
    if n < 1:
        raise ValueError(f"need n >= 1 subgroups, got {n}")
    if not 3 <= degree_cap <= 255:
        raise ValueError(f"degree_cap must be in 3..255, got {degree_cap}")
    if order_cap < 2:
        raise ValueError(f"order_cap must be >= 2, got {order_cap}")
    rng = random.Random(seed)
    for _ in range(MAX_INSTANCE_DRAWS):
        degree = rng.randint(3, degree_cap)
        gens = [_random_perm(rng, degree) for _ in range(rng.randint(2, 3))]
        try:
            G = closure(gens, cap=order_cap, degree=degree)
        except CapExceeded:
            continue
        if G.order < 2:
            continue
        subs = tuple(_random_normal(G, rng) for _ in range(n))
        return Instance(seed, G, subs)
    raise ValueError(
        f"seed {seed}: no group of order 2..{order_cap} and degree "
        f"<= {degree_cap} in {MAX_INSTANCE_DRAWS} draws"
    )


def random_normal_triple(
    G: PermGroup, seed: int
) -> tuple[NormalSubgroup, NormalSubgroup, NormalSubgroup]:
    """Three seeded normal closures of 1-2 random elements each."""
    rng = random.Random(seed)
    return _random_normal(G, rng), _random_normal(G, rng), _random_normal(G, rng)


def _random_normal(G: PermGroup, rng: random.Random) -> NormalSubgroup:
    """Normal closure of 1-2 elements drawn from G's sorted elements."""
    pool = G.sorted_elements
    return normal_closure(G, [rng.choice(pool) for _ in range(rng.randint(1, 2))])


def _random_perm(rng: random.Random, degree: int) -> bytes:
    images = list(range(degree))
    rng.shuffle(images)
    return bytes(images)
