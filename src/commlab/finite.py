"""Brute-force subgroup identities in small finite permutation groups.

Every subgroup built here is normal in its parent G, so it is a union of
conjugacy classes of G, and every identity under test (product rule for
commutators, Hall containments, fat = symmetric, the first-slot reduction,
the connectivity condition) becomes a comparison of such unions.

A permutation of degree d is a plain length-d ``bytes`` mapping position i to
p[i] (0-based), in element sets, generator tuples and kernel output alike;
there is no wrapper type. Composition is left to right:
``(p * q)(i) = q[p[i]]``, conjugation is ``p^g = g^-1 p g`` and the
commutator is ``[a, b] = a^-1 b^-1 a b``, matching the word module.

Each group has one class table (``PermGroup.classes``), built on its first
subgroup request. Classes are numbered by least element in sorted order, so
the identity is class 0 and, unlike set iteration, the numbers do not depend
on the hash seed. A normal subgroup is named by its mask, bit k set iff class
k's least element lies in it, one test per class: equal masks are equal
subgroups, ``a & ~b == 0`` is containment and ``a & b`` is the intersection.
The group keeps one ``NormalSubgroup`` per mask, and the work runs on masks.

Commutator subgroups are computed as normal closures of generator
commutators, which agrees with the element-level definition because all
subgroups here are normal in their parent; the element-level enumeration is
kept in the test suite as an independent oracle. The fat and symmetric
commutator subgroups are each one table with a subgroup per index mask, a
product of commutators of smaller masks' entries. Two identities for normal
subgroups make that exact: [XY, Z] = [X, Z][Y, Z], and [X, Z] <= X. The fat
entry of a mask needs only its two-block partitions {A, M - A}: every other
cover's commutator lies in one of theirs (see ``fat_commutator``).

Every normal subgroup of G comes from two primitives. The growth step builds
the class closure <<s>> of a class's least element and the product A*B of two
normal subgroups, by Dimino extensions by seeds and their conjugates, each
capped at |G|/2. Most of these subgroups turn out to be the whole parent,
which is never enumerated twice: by Lagrange a proper subgroup has index at
least 2, so one that passes the cap is G itself, and G's own element set is
taken. The fold builds the normal subgroup generated by some classes as the
product of their class closures (see ``_fold``): normal closures, commutator
subgroups and new intersections all go through it.

Seeded trials draw the same few carriers again and again (S_5, S_6, S_7), so
work on a carrier is kept from one trial to the next, on the group itself.
``closure`` registers each group it enumerates, keyed by element set, and
returns the registered group when it recognises one: while registered, an
element set has one ``PermGroup``, the parent of all its subgroups. The
registry is bounded because each group holds its element set and class table,
|G| entries each and up to 20,000 at the largest caps, and it is bounded
twice: it evicts only while it holds more than ``CARRIER_SLOTS`` groups and
more than ``CARRIER_ELEMENTS`` of charge, a group charged its order plus
``CARRIER_OVERHEAD``. So it keeps many of the small carriers that come back,
and at least ``CARRIER_SLOTS`` large ones; at most it holds the larger of
``CARRIER_SLOTS`` groups at the order cap and the budget, so never more than
their sum, with subgroups and memos on top. Most carriers are drawn once, and
a few recur in most trials, so the registry evicts the least recently used
group not recognised since it was registered, other than the newest, and only
when every other group was recognised the least recently used one: one-shot
draws evict each other, not the carriers that recur. A group memoises its
class closures, the commutator subgroup of each unordered pair of masks and
its mask tables, as masks, each for the work it saves (see ``PermGroup``);
products are grown again on every call. A subgroup points back to its group, a
reference cycle, so the registry clears the subgroups and memos of an evicted
group: eviction alone frees it, at once, without waiting for the cyclic
garbage collector, which frees a group built by hand as ``PermGroup(...)``.
Such a group never enters the registry, so an element set that is not a group
is never recognised, and two such groups are different parents even over equal
element sets (groups compare by identity). Registered gens come from whichever
trial got there first, or from a class's least element, so only element sets,
masks and orders, never gens, may reach a report.
"""

from __future__ import annotations

import random
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Iterable, Iterator, Sequence

from commlab import kernels
from commlab.words import _check_count, _is_int

DEFAULT_ORDER_CAP = 20000
DEFAULT_FAT_BUDGET = 10**7
# random_instance gives up after this many carrier draws. No seed in 0-299
# needed more than 7 at the default caps; at order cap 2 and degree cap 255,
# the sparsest caps allowed, seeds 0-59 needed about 1200 on average and 5526
# at most.
MAX_INSTANCE_DRAWS = 20_000
# closure() keeps up to this many carriers (see _Registry.evict). With
# 1 / 4 / 8 / 16 / 32 slots, the Dimino extensions of 3,000 verify_finite ops
# (workload seed 11) built 1.46M / 0.62M / 0.27M / 0.22M / 0.21M elements and
# those of 1,000 subgroup_rules ops 3.06M / 1.05M / 0.41M / 0.32M / 0.29M:
# past 16 the gain is small, and each slot may hold 20,000 elements and its
# memos.
CARRIER_SLOTS = 16
# ...and past CARRIER_SLOTS, as many as fit this many elements of charge (see
# _register). With a budget of 0 (slots alone) / 2,500 / 5,000 / 7,500 /
# 10,000 / 15,000 / 20,000, 20,000 verify_finite ops (workload seed 91, 980
# distinct element sets enumerated) made 4,153 / 3,902 / 2,639 / 2,145 /
# 1,932 / 1,620 / 1,509 Dimino enumerations at an in-process peak RSS of
# 16.7 / 16.8 / 17.5 / 18.2 / 18.9 / 20.4 / 22.2 MB; 10,000 held 79 carriers
# at the end. The registry's worst case is CARRIER_SLOTS carriers at the order
# cap (at 20,000 about 1.8 MB each as element sets) plus the budget, with their
# memos on top.
CARRIER_ELEMENTS = 10_000
# Each registered carrier is charged its order plus this many elements, so
# that tiny carriers cannot pile up: an order-2 carrier with its memos takes
# about 3.2 KB, about 13 elements of about 250 B.
CARRIER_OVERHEAD = 13


class CapExceeded(RuntimeError):
    """Closure grew past the configured element cap."""


class BudgetExceeded(RuntimeError):
    """The fat commutator needs more mask pairs than the budget allows."""


def _commutator(a: bytes, b: bytes) -> bytes:
    ab = kernels.compose(a, b)
    ba = kernels.compose(b, a)
    return kernels.compose(kernels.invert_perm(ba), ab)


@dataclass(frozen=True, eq=False)
class PermGroup:
    """A permutation group, its class table, its subgroups by mask and memos.

    ``subgroups`` holds one ``NormalSubgroup`` per mask met. Three memos of
    masks stay for the work they save over the first 3,000 ``verify_finite``
    / 2,000 ``subgroup_rules`` benchmark ops at workload seed 91, from an
    empty registry. ``closures`` (class number -> class closure) cuts Dimino
    extensions from 43,867 / 31,074 to 4,922 / 4,474. ``commutators`` ([A, B]
    per unordered pair of masks, the lesser mask first) cuts permutation
    commutators from 144,994 / 112,118 to 7,800 / 6,202. Without ``tables``
    (``(splits, m_1, ..., m_n)`` -> that mask table's full-mask entry),
    ``verify_finite`` takes 6% / 9% more CPU time (minimum / median of 9
    alternating runs, CPython 3.11.7). Products are not memoised (see
    ``_product_mask``). The memos are bounded by the group: one entry per
    class, unordered pair or tuple of masks met.
    """

    degree: int
    elements: frozenset[bytes]
    gens: tuple[bytes, ...]
    subgroups: dict[int, NormalSubgroup] = field(
        default_factory=dict, init=False, repr=False
    )
    closures: dict[int, int] = field(default_factory=dict, init=False, repr=False)
    commutators: dict[tuple[int, int], int] = field(
        default_factory=dict, init=False, repr=False
    )
    tables: dict[tuple, int] = field(default_factory=dict, init=False, repr=False)

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def memos(self) -> tuple[dict, ...]:
        return self.subgroups, self.closures, self.commutators, self.tables

    @cached_property
    def identity(self) -> bytes:
        return bytes(range(self.degree))

    @cached_property
    def sorted_elements(self) -> tuple[bytes, ...]:
        """The elements in sorted order: the seed pool of the random draws."""
        return tuple(sorted(self.elements))

    @cached_property
    def classes(self) -> tuple[dict[bytes, int], tuple[bytes, ...]]:
        """The class table: each element's class number, and each class's
        least element, by number. A class is walked by G's generators when
        its first element in sorted order is met, so it is numbered by its
        least element, and the identity, the least permutation, is 0."""
        number: dict[bytes, int] = {}
        reps: list[bytes] = []
        conjugators = self.conjugators
        for s in self.sorted_elements:
            if s in number:
                continue
            k = number[s] = len(reps)
            reps.append(s)
            todo = [s]
            while todo:  # as _conjugates, inlined: |G| elements are walked
                table = kernels.perm_table(todo.pop())
                for inv, g in conjugators:
                    c = inv.translate(table).translate(g)
                    if c not in number:
                        number[c] = k
                        todo.append(c)
        return number, tuple(reps)

    @cached_property
    def conjugators(self) -> tuple[tuple[bytes, bytes], ...]:
        """(g^-1, translate table of g) for each generator g."""
        return tuple(
            (kernels.invert_perm(g), kernels.perm_table(g)) for g in self.gens
        )


class _Registry(OrderedDict):
    """The groups closure() built or recognised, keyed by element set, least
    recently used first, with the keys recognised since they were registered.

    ``size`` is the registry's charge, the sum of ``_charge`` over its
    groups, and ``index`` maps (degree, order) to the groups of that degree
    and order, by key. Groups enter through ``add`` and leave through
    ``evict`` or ``clear``, which keep the marks, the size and the index
    with the entries.
    """

    def __init__(self) -> None:
        super().__init__()
        self.recognised: set[frozenset[bytes]] = set()
        self.size = 0
        self.index: dict[tuple[int, int], dict[frozenset[bytes], PermGroup]] = {}

    def clear(self) -> None:
        super().clear()
        self.recognised.clear()
        self.size = 0
        self.index.clear()

    def add(self, G: PermGroup) -> None:
        """Register a group whose element set is not registered yet."""
        self[G.elements] = G
        self.size += _charge(G)
        self.index.setdefault((G.degree, G.order), {})[G.elements] = G

    def recognise(self, key: frozenset[bytes]) -> None:
        """Mark a registered key recognised and most recently used."""
        self.move_to_end(key)
        self.recognised.add(key)

    def evict(self) -> PermGroup:
        """Remove and return the least recently used group, other than the
        newest, that was not recognised since it was registered; the least
        recently used group if every other one was."""
        newest = next(reversed(self))
        key = next(
            (k for k in self if k not in self.recognised and k is not newest),
            next(iter(self)),
        )
        self.recognised.discard(key)
        G = self.pop(key)
        self.size -= _charge(G)
        shelf = self.index[G.degree, G.order]
        del shelf[key]
        if not shelf:
            del self.index[G.degree, G.order]
        return G


def _charge(G: PermGroup) -> int:
    """What a registered group counts against ``CARRIER_ELEMENTS``."""
    return G.order + CARRIER_OVERHEAD


_CARRIERS = _Registry()


def _recognise(gens: Sequence[bytes], degree: int, bound: int) -> PermGroup | None:
    """The registered group K equal to <gens>, given |<gens>| >= bound.

    <gens> <= K when every generator lies in K, and |K| = bound then leaves
    |<gens>| = |K|, so <gens> = K: at most one registered group qualifies,
    so the candidates, those of the degree and order, may be tried in any
    order. K must have the degree too: empty gens have bound 1 and lie in the
    trivial group of every degree.
    """
    for K in _CARRIERS.index.get((degree, bound), {}).values():
        if K.elements.issuperset(gens):
            _CARRIERS.recognise(K.elements)
            return K
    return None


def _register(G: PermGroup) -> PermGroup:
    """The registered group on G's element set, G itself if there was none.

    An element set registered already is recognised. A new group is added,
    and then groups are evicted (see ``_Registry.evict``), their subgroups
    and memos cleared, which frees them, while the registry holds more than
    ``CARRIER_SLOTS`` groups and more than ``CARRIER_ELEMENTS`` of charge.
    """
    known = _CARRIERS.get(G.elements)
    if known is not None:
        _CARRIERS.recognise(G.elements)
        return known
    _CARRIERS.add(G)
    while len(_CARRIERS) > CARRIER_SLOTS and _CARRIERS.size > CARRIER_ELEMENTS:
        for memo in _CARRIERS.evict().memos:
            memo.clear()
    return G


def _conjugates(G: PermGroup, p: bytes) -> list[bytes]:
    """p^g = g^-1 p g for each generator g of G, by G's own tables."""
    table = kernels.perm_table(p)
    return [inv.translate(table).translate(g) for inv, g in G.conjugators]


@dataclass(frozen=True)
class NormalSubgroup:
    parent: PermGroup
    elements: frozenset[bytes]
    gens: tuple[bytes, ...]

    @property
    def order(self) -> int:
        return len(self.elements)

    @cached_property
    def mask(self) -> int:
        """Bit k set iff class k's least element lies in the subgroup: a
        union of classes, the subgroup is named by one test per class."""
        reps = self.parent.classes[1]
        return sum(1 << k for k, s in enumerate(reps) if s in self.elements)


def _subgroup(G: PermGroup, mask: int) -> NormalSubgroup:
    """The subgroup of G under a mask met. Each is registered when built or
    passed in, but the trivial one (mask 1, the identity's class 0) on use."""
    if mask == 1 and mask not in G.subgroups:
        G.subgroups[1] = NormalSubgroup(G, frozenset((G.identity,)), ())
    return G.subgroups[mask]


def _mask(G: PermGroup, s: NormalSubgroup) -> int:
    """The subgroup's mask, once it is checked to have G as its parent: one
    check and one registration per subgroup passed to a public call. A mask
    with no subgroup yet (after an eviction, say) takes the one passed."""
    if s.parent is not G:
        raise ValueError("subgroups live in different parent groups")
    return G.subgroups.setdefault(s.mask, s).mask


def closure(
    gens: Sequence[bytes],
    cap: int = DEFAULT_ORDER_CAP,
    degree: int | None = None,
) -> PermGroup:
    """Materialise the group generated by ``gens``; error past ``cap``.

    Each generator is checked to be a permutation of the common degree and
    kept as plain bytes, like every other element and generator set here.

    Returns the registered group on the generated element set, with the
    gens it was registered with, which need not be ``gens``. The orbit bound
    ``kernels._order_bound`` is taken once per call, at every degree (only
    ``kernels.closure_set`` skips it where d! <= cap), and one past the cap
    raises ``CapExceeded`` before the registry is read. A registered group
    of the degree that holds every generator and has the bound as its order
    is recognised without enumeration (see ``_recognise``). A bound that
    reads low (on A_14, for one) only costs an enumeration, never a wrong
    group: an enumerated element set that is registered already returns the
    registered group and counts as recognised, and a new one is registered.
    ``cap``, an int (not a bool) >= 0, and ``degree``, None or an int (not a
    bool) in 0..256, are checked before any work.
    """
    _check_count("cap", cap)
    if degree is not None and not (_is_int(degree) and 0 <= degree <= 256):
        raise ValueError(f"degree must be an int in 0..256, got {degree!r}")
    gens = [bytes(g) for g in gens]
    if degree is None:
        if not gens:
            raise ValueError("degree is required when gens is empty")
        degree = len(gens[0])
    ident = list(range(degree))
    if any(sorted(g) != ident for g in gens):
        raise ValueError(f"generators must be permutations of 0..{degree - 1}")
    bound = kernels._order_bound(gens, degree, cap)
    if bound > max(cap, 1):  # as in closure_set
        raise CapExceeded(f"closure exceeds cap of {cap} elements")
    G = _recognise(gens, degree, bound)
    if G is None:
        elems = kernels.dimino(gens, degree, cap)
        if elems is None:
            raise CapExceeded(f"closure exceeds cap of {cap} elements")
        G = _register(PermGroup(degree, frozenset(elems), tuple(gens)))
    return G


def normal_closure(G: PermGroup, seeds: Sequence[bytes]) -> NormalSubgroup:
    """Smallest normal subgroup of G containing the seeds.

    The seeds come from the caller, so each is checked to lie in G; their
    classes are folded by ``_fold``. With one seed the memoised class
    closure itself is returned, the identity's included.
    """
    for s in seeds:
        try:
            if bytes(s) in G.elements:
                continue
        except (TypeError, ValueError):  # not byte values: in no carrier
            pass
        ints = isinstance(s, Iterable) and all(isinstance(x, int) for x in s)
        raise ValueError(f"seed {list(s) if ints else s!r} lies outside the group")
    number = G.classes[0]
    return _subgroup(G, _fold(G, {number[bytes(s)] for s in seeds}))


def _fold(G: PermGroup, classes: Iterable[int]) -> int:
    """The mask of the normal subgroup of G generated by some classes: the
    product of their class closures, by increasing class number (never set
    iteration, so the gens do not depend on the hash seed), each class the
    running product holds already skipped."""
    total = 1
    for k in sorted(classes):
        if not total >> k & 1:
            total = _product_mask(G, total, _class_closure(G, k))
    return total


def _class_closure(G: PermGroup, k: int) -> int:
    """The mask of <<s>>, s the least element of class k, memoised under k:
    <<s>> depends only on the class of s."""
    mask = G.closures.get(k)
    if mask is None:
        mask = G.closures[k] = _grow_normal(G, {G.identity}, (), [G.classes[1][k]])
    return mask


def _grow_normal(
    G: PermGroup,
    elems: set[bytes] | frozenset[bytes],
    gens: Sequence[bytes],
    seeds: list[bytes],
) -> int:
    """The mask of the normal closure in G of <gens> = elems and the seeds.

    The seeds list is the queue: pops a seed, skips it if it is a member, and
    otherwise adds it as a generator by one Dimino extension and queues its
    conjugates by G's generators. Each extension is capped at |G|/2. The
    subgroup it builds lies in G, and by Lagrange a proper subgroup of G has
    index at least 2, so an order past the cap leaves only G: the closure is
    G itself, taken with G's own element set and without enumerating the
    rest of it. Its gens are those taken so far, which generate G. A new
    mask's subgroup is registered.
    """
    cap = G.order // 2
    gens = list(gens)
    while seeds:
        s = seeds.pop()
        if s in elems:
            continue
        grown = kernels.extend_subgroup(elems, gens, s, cap)
        gens.append(s)
        if grown is None:
            elems = G.elements
            break
        elems = grown
        seeds.extend(_conjugates(G, s))
    sub = NormalSubgroup(G, frozenset(elems), tuple(gens))
    return G.subgroups.setdefault(sub.mask, sub).mask


class SubgroupCache:
    """A benchmark-only stub: no code in the package calls it.

    ``perfbench/workloads.py`` builds one per trial and passes it to the four
    verifiers as their trailing ``cache`` argument (accepted and ignored), and
    ``perfbench/tracing.py`` patches ``commutator``, a read of the commutator
    memo on the parent, to count hits.
    """

    def commutator(self, a: NormalSubgroup, b: NormalSubgroup) -> NormalSubgroup | None:
        G, x, y = a.parent, a.mask, b.mask
        hit = G.commutators.get((x, y) if x <= y else (y, x))
        return None if hit is None else _subgroup(G, hit)


def commutator_subgroup(A: NormalSubgroup, B: NormalSubgroup) -> NormalSubgroup:
    """[A, B] for normal subgroups of a common parent: one read of the
    commutator memo (see ``_commutator_mask``)."""
    G = A.parent
    return _subgroup(G, _commutator_mask(G, _mask(G, A), _mask(G, B)))


def _commutator_mask(G: PermGroup, a: int, b: int) -> int:
    """The mask of [A, B] for the subgroups of G under masks a and b: the
    normal subgroup generated by the commutators of the generating sets,
    whose classes ``_fold`` folds (the identity's, class 0, adds nothing).
    [A, B] = [B, A], so the memo holds one entry per unordered pair, keyed by
    one comparison, the lesser mask first; the first call's order builds it.
    """
    key = (a, b) if a <= b else (b, a)
    mask = G.commutators.get(key)
    if mask is None:
        A, B = _subgroup(G, a), _subgroup(G, b)
        number = G.classes[0]
        seeds = {number[_commutator(x, y)] for x in A.gens for y in B.gens}
        mask = G.commutators[key] = _fold(G, seeds)
    return mask


def product_subgroup(A: NormalSubgroup, B: NormalSubgroup) -> NormalSubgroup:
    """A*B = {a b}, a subgroup as both are normal (see ``_product_mask``)."""
    G = A.parent
    return _subgroup(G, _product_mask(G, _mask(G, A), _mask(G, B)))


def _product_mask(G: PermGroup, a: int, b: int) -> int:
    """The mask of A*B for the subgroups of G under masks a and b: a factor
    that holds the other, or else A*B grown from A by B's gens. A*B is
    normal in the parent, so the normal closure of A and B's gens is A*B, as
    the conjugates queued lie in B. A memo would save 4% / 2% of the Dimino
    extensions counted in ``PermGroup`` and no enumeration.
    """
    if not a & ~b:
        return b
    if not b & ~a:
        return a
    A, B = G.subgroups[a], G.subgroups[b]
    return _grow_normal(G, A.elements, A.gens, list(B.gens))


def intersection_of(
    parent: PermGroup, subgroups: Sequence[NormalSubgroup]
) -> NormalSubgroup:
    """Common elements of the subgroups: the AND of their masks, looked up
    among the parent's subgroups, the inputs included, or else folded from
    its classes by ``_fold``."""
    if not subgroups:
        raise ValueError("need at least one subgroup to intersect")
    meet = reduce(int.__and__, (_mask(parent, s) for s in subgroups))
    if meet not in parent.subgroups:
        meet = _fold(parent, (k for k in range(meet.bit_length()) if meet >> k & 1))
    return _subgroup(parent, meet)


def _mask_table(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    splits: Callable[[int], Iterable[tuple[int, int]]],
) -> NormalSubgroup:
    """One subgroup per index mask, R_i on {i}; returns the full mask's.

    Index masks run in increasing order, so each proper submask of M is
    filled first. ``table[M]`` is the mask of the product of
    ``[table[a], table[b]]`` over the pairs ``splits(M)`` yields (a pair met
    twice is a memo hit). The result is memoised on G under ``(splits, m_1,
    ..., m_n)``, the masks of the R_i; the split functions live at module
    level, so a repeated call finds its entry.
    """
    if not Rs:
        raise ValueError("need at least one subgroup")
    masks = [_mask(G, R) for R in Rs]
    key = (splits, *masks)
    full = G.tables.get(key)
    if full is None:
        table = {1 << i: m for i, m in enumerate(masks)}
        for mask in range(3, 1 << len(masks)):
            if mask not in table:
                total = 1
                for a, b in splits(mask):
                    bracket = _commutator_mask(G, table[a], table[b])
                    total = _product_mask(G, total, bracket)
                table[mask] = total
        full = G.tables[key] = table[(1 << len(masks)) - 1]
    return _subgroup(G, full)


def symmetric_commutator(G: PermGroup, Rs: Sequence[NormalSubgroup]) -> NormalSubgroup:
    """Product over all orderings of the left-iterated commutator subgroups.

    Let S(M) be that product over the orderings of the index mask M. Grouped
    by the last slot i, and by [XY, Z] = [X, Z][Y, Z], S(M) is the product of
    [S(M - {i}), R_i] over i in M.
    """
    return _mask_table(G, Rs, _last_slots)


def restricted_symmetric_commutator(
    G: PermGroup, Rs: Sequence[NormalSubgroup]
) -> NormalSubgroup:
    """Same product but only over orderings that keep R_1 in the first slot.

    Masks without index 0 stay trivial, and index 0 is never the last slot.
    """
    return _mask_table(G, Rs, _first_slot_splits)


def _last_slots(mask: int, first: int = 0) -> Iterator[tuple[int, int]]:
    """(mask - {i}, {i}) for each index i >= first in mask."""
    for i in range(first, mask.bit_length()):
        if mask >> i & 1:
            yield mask ^ 1 << i, 1 << i


def _first_slot_splits(mask: int) -> Iterator[tuple[int, int]]:
    """The last-slot splits of a mask holding index 0, other than {0} last."""
    return _last_slots(mask, 1) if mask & 1 else iter(())


@dataclass(frozen=True)
class FatResult:
    subgroup: NormalSubgroup
    evaluations: int


def fat_commutator(
    G: PermGroup,
    Rs: Sequence[NormalSubgroup],
    budget: int = DEFAULT_FAT_BUDGET,
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
    which ``budget``, an int (not a bool) >= 0, bounds; both are checked
    before any work.
    """
    _check_count("budget", budget)
    n = len(Rs)
    pairs = (3**n + 1) // 2 - 2**n
    if pairs > budget:
        raise BudgetExceeded(
            f"fat computation at n = {n} needs {pairs} mask pairs, "
            f"over the budget of {budget}"
        )
    return FatResult(_mask_table(G, Rs, _fat_splits), pairs)


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
    cache: SubgroupCache | None = None,  # ignored: see SubgroupCache
) -> FatSymReport:
    """Fat subgroup (all weights) vs symmetric product, by mask.

    Up to n = 3 both tables split each mask alike and share the memo, so this
    passes whatever ``commutator_subgroup`` computes: it has content from n = 4.
    """
    # perfbench/workloads.py passes None in the third slot, once a weight cap
    if _unused is not None:
        raise ValueError("the third argument must be None; there is no weight cap")
    fat = fat_commutator(G, Rs, budget)
    sym = symmetric_commutator(G, Rs)
    return FatSymReport(
        fat_order=fat.subgroup.order,
        symmetric_order=sym.order,
        stabilized=True,
        passed=fat.subgroup.mask == sym.mask,
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
    cache: SubgroupCache | None = None,  # ignored: see SubgroupCache
) -> RestrictionReport:
    """Full symmetric product vs the product over orderings fixing R_1."""
    sym = symmetric_commutator(G, Rs)
    restricted = restricted_symmetric_commutator(G, Rs)
    return RestrictionReport(
        symmetric_order=sym.order,
        restricted_order=restricted.order,
        passed=sym.mask == restricted.mask,
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
    cache: SubgroupCache | None = None,  # ignored: see SubgroupCache
) -> ProductRuleReport:
    """[AB, C] = [A, C][B, C], by mask."""
    lhs = commutator_subgroup(product_subgroup(A, B), C)
    rhs = product_subgroup(commutator_subgroup(A, C), commutator_subgroup(B, C))
    return ProductRuleReport(lhs.order, rhs.order, lhs.mask == rhs.mask)


@dataclass(frozen=True)
class HallReport:
    containments: tuple[bool, bool, bool]
    passed: bool


def verify_hall(
    A: NormalSubgroup,
    B: NormalSubgroup,
    C: NormalSubgroup,
    cache: SubgroupCache | None = None,  # ignored: see SubgroupCache
) -> HallReport:
    """Each of [A,[B,C]], [[A,B],C], [[A,C],B] sits in the others' product."""
    t1 = commutator_subgroup(A, commutator_subgroup(B, C))
    t2 = commutator_subgroup(commutator_subgroup(A, B), C)
    t3 = commutator_subgroup(commutator_subgroup(A, C), B)
    checks = (
        not t1.mask & ~product_subgroup(t2, t3).mask,
        not t2.mask & ~product_subgroup(t1, t3).mask,
        not t3.mask & ~product_subgroup(t1, t2).mask,
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

    I and J are 1-based int index sets into Rs with |I| >= 2 and |J| >= 1.
    """
    for k in (*I, *J):
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= len(Rs):
            raise ValueError(f"index {k!r} does not point into the subgroup list")
    I = tuple(sorted(set(I)))
    J = tuple(sorted(set(J)))
    if len(I) < 2 or len(J) < 1:
        raise ValueError("need |I| >= 2 and |J| >= 1")
    prod_j = reduce(product_subgroup, (Rs[j - 1] for j in J))
    lhs = product_subgroup(intersection_of(G, [Rs[i - 1] for i in I]), prod_j)
    rhs = intersection_of(G, [product_subgroup(Rs[i - 1], prod_j) for i in I])
    return ConnectivityReport(lhs.order, rhs.order, lhs.mask == rhs.mask)


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
    if not _is_int(n) or n < 1:
        raise ValueError(f"need n >= 1 subgroups, got {n!r}")
    if not _is_int(degree_cap) or not 3 <= degree_cap <= 255:
        raise ValueError(f"degree_cap must be an int in 3..255, got {degree_cap!r}")
    if not _is_int(order_cap) or order_cap < 2:
        raise ValueError(f"order_cap must be an int >= 2, got {order_cap!r}")
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
