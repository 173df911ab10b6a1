import gc
import hashlib
import itertools
import math
import random
import weakref

import pytest

from commlab import finite, kernels
from commlab.finite import (
    BudgetExceeded,
    CapExceeded,
    NormalSubgroup,
    PermGroup,
    closure,
    commutator_subgroup,
    fat_commutator,
    intersection_of,
    normal_closure,
    product_subgroup,
    random_instance,
    random_normal_triple,
    restricted_symmetric_commutator,
    symmetric_commutator,
    verify_connectivity,
    verify_fat_equals_symmetric,
    verify_first_slot_restriction,
    verify_hall,
    verify_product_rule,
)

from _oracles import (
    _shapes,
    from_cycles,
    o_conj,
    oracle_closure,
    oracle_commutator_of_normal,
    oracle_commutator_subgroup,
    oracle_fat,
    oracle_is_normal,
    oracle_normal_closure,
    oracle_normal_closure_by_conjugates,
    oracle_span,
    oracle_symmetric,
    ordered_walk,
)


def tuples(elements):
    return {tuple(p) for p in elements}


def s3():
    return closure([from_cycles(3, (1, 2)), from_cycles(3, (1, 2, 3))])


def s4():
    return closure([from_cycles(4, (1, 2)), from_cycles(4, (1, 2, 3, 4))])


# ---------------------------------------------------------------------------
# conventions


def test_conjugation_convention():
    # normal closures queue the conjugates p^g = g^-1 p g
    # by each generator, through the group's precomputed tables
    rng = random.Random(60)
    S4 = s4()
    pool = S4.sorted_elements
    for _ in range(50):
        p = rng.choice(pool)
        gens = tuple(rng.choice(pool) for _ in range(rng.randint(1, 3)))
        G = PermGroup(4, S4.elements, gens)
        assert [tuple(c) for c in finite._conjugates(G, p)] == [
            o_conj(tuple(p), tuple(g)) for g in gens
        ]


# ---------------------------------------------------------------------------
# closure / normal closure


def test_closure_examples():
    cyc = closure([from_cycles(3, (1, 2, 3))])
    assert cyc.order == 3
    assert closure([], degree=3).order == 1
    assert s3().order == 6
    assert tuples(s3().elements) == oracle_closure(
        [(1, 0, 2), (1, 2, 0)], 3
    )


def test_closure_cap_and_degree_checks():
    with pytest.raises(CapExceeded):
        closure(
            [from_cycles(5, (1, 2)), from_cycles(5, (1, 2, 3, 4, 5))],
            cap=10,
        )
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([bytes(range(2)), bytes(range(3))])
    # generators are kept as bytes, so closure checks them itself
    with pytest.raises(ValueError):
        closure([bytes([0, 0, 1])])


def test_closure_is_independent_of_generator_order():
    rng = random.Random(61)
    gens = [
        from_cycles(4, (1, 2)),
        from_cycles(4, (1, 2, 3, 4)),
        from_cycles(4, (3, 4)),
    ]
    reference = closure(gens).elements
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert closure(shuffled).elements == reference


def test_normal_closure_examples():
    G = s3()
    a3 = normal_closure(G, [from_cycles(3, (1, 2, 3))])
    assert a3.order == 3
    assert tuples(a3.elements) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert tuples(a3.elements) == oracle_normal_closure(
        tuples(G.elements), [(1, 2, 0)]
    )
    assert normal_closure(G, [G.identity]).order == 1
    assert normal_closure(G, list(G.gens)).elements == G.elements
    # a seed may be any byte sequence of images, as for closure()
    for seed in ([1, 2, 0], bytearray([1, 2, 0])):
        same = normal_closure(G, [seed])
        assert same.elements == a3.elements and same.gens == a3.gens
    # seeds must come from the ambient group itself
    outsider = from_cycles(4, (1, 2, 3))
    sub = closure([from_cycles(4, (1, 2))], degree=4)
    with pytest.raises(ValueError):
        normal_closure(PermGroup(4, sub.elements, sub.gens), [outsider])


@pytest.mark.parametrize(
    "seed, shown",
    [
        (from_cycles(3, (1, 2)), "[1, 0, 2]"),  # a permutation outside A_3
        (bytes([1, 1, 2]), "[1, 1, 2]"),  # not a permutation
        (from_cycles(4, (2, 3)), "[0, 2, 1, 3]"),  # the wrong degree
        ([1, 0, 2], "[1, 0, 2]"),  # a list of images outside A_3
        (bytearray([1, 0, 2]), "[1, 0, 2]"),  # a bytearray outside A_3
        ([300, 1, 2], "[300, 1, 2]"),  # an image no byte holds
        (5, "5"),  # bytes(5) is five zero bytes
        ("ab", "'ab'"),  # not byte values
        (None, "None"),
    ],
    ids=[
        "outside", "not-a-permutation", "wrong-degree",
        "list-outside", "bytearray-outside", "image-past-255",
        "int", "str", "none",
    ],
)
def test_normal_closure_names_a_seed_outside_the_group(seed, shown):
    a3 = closure([from_cycles(3, (1, 2, 3))])
    with pytest.raises(ValueError, match="lies outside the group") as err:
        normal_closure(a3, [seed])
    assert f"seed {shown} lies" in str(err.value)


def test_normal_closure_is_conjugation_stable_on_random_instances():
    for seed in range(6):
        inst = random_instance(seed, n=2, degree_cap=6, order_cap=200)
        for R in inst.subgroups:
            assert oracle_is_normal(tuples(inst.group.elements), tuples(R.elements))


def _cyclic(order):
    return closure([bytes(list(range(1, order)) + [0])])


@pytest.mark.parametrize("n", range(3, 8))
def test_three_cycles_close_to_the_alternating_group(n):
    # index 2: the closure has exactly the largest proper divisor of |S_n|
    long_cycle = from_cycles(n, tuple(range(1, n + 1)))
    G = closure([from_cycles(n, (1, 2)), long_cycle])
    A = normal_closure(G, [from_cycles(n, (1, 2, 3))])
    even = {
        p
        for p in itertools.permutations(range(n))
        if sum(a > b for a, b in itertools.combinations(p, 2)) % 2 == 0
    }
    assert tuples(A.elements) == even
    assert closure(A.gens, degree=n).elements == A.elements


def test_closure_of_order_three_in_the_cyclic_group_of_order_nine():
    # the least prime dividing 9 is 3, so the cap sits at 3
    G = _cyclic(9)
    cube, square = (bytes((i + k) % 9 for i in range(9)) for k in (3, 2))
    C3 = normal_closure(G, [cube])
    assert tuples(C3.elements) == oracle_closure([tuple(cube)], 9)
    assert C3.order == 3
    assert normal_closure(G, [square]).elements is G.elements


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11])
def test_closures_in_groups_of_prime_order(p):
    # the cap is 1, so any nontrivial element generates the whole group
    G = _cyclic(p)
    ident = G.identity
    assert normal_closure(G, [ident]).order == 1
    for g in G.elements - {ident}:
        whole = normal_closure(G, [g])
        assert whole.elements is G.elements
        assert closure(whole.gens, degree=p).elements == G.elements


def test_closure_equal_to_the_group_shares_its_element_set():
    G = s4()
    whole = normal_closure(G, [from_cycles(4, (1, 2))])
    assert whole.elements is G.elements
    assert closure(whole.gens, degree=4).elements == G.elements
    assert product_subgroup(
        normal_closure(G, [from_cycles(4, (1, 2, 3))]), whole
    ).elements == G.elements


@pytest.mark.parametrize("degree_cap, order_cap", [(8, 500), (10, 2000)])
def test_subgroup_operations_match_oracles_on_random_instances(
    degree_cap, order_cap
):
    # normal_closure, product_subgroup, intersection_of and commutator_subgroup
    # against oracles that generate from conjugates, never from the results
    whole = proper = 0
    for seed in range(40):
        inst = random_instance(seed, n=1, degree_cap=degree_cap, order_cap=order_cap)
        G, d = inst.group, inst.group.degree
        rng = random.Random(seed)
        pool = sorted(G.elements)
        subs = []
        for _ in range(2):
            seeds = [rng.choice(pool) for _ in range(rng.randint(1, 2))]
            N = normal_closure(G, seeds)
            assert tuples(N.elements) == oracle_normal_closure_by_conjugates(
                G.gens, seeds, d
            )
            subs.append(N)
        A, B = subs
        results = [
            *subs,
            product_subgroup(A, B),
            intersection_of(G, [A, B]),
            commutator_subgroup(A, B),
        ]
        wants = [
            tuples(A.elements),
            tuples(B.elements),
            oracle_span(A.elements | B.elements, d)[1],
            tuples(A.elements) & tuples(B.elements),
            oracle_commutator_of_normal(G.gens, A.elements, B.elements, d),
        ]
        for R, want in zip(results, wants):
            assert tuples(R.elements) == want
            assert closure(R.gens, degree=d).elements == R.elements
            assert len(R.gens) <= max(1, R.order.bit_length())
            if R.elements == G.elements:
                whole += 1
            elif R.order > 1:
                proper += 1
    # both the Lagrange exit and full enumeration are exercised
    assert whole >= 40 and proper >= 20


# ---------------------------------------------------------------------------
# the carrier registry


def _trial(seed, n, degree_cap, order_cap):
    """Every order and verdict of one verify-finite trial, as comparable values."""
    inst = random_instance(seed, n=n, degree_cap=degree_cap, order_cap=order_cap)
    G, Rs = inst.group, inst.subgroups
    A, B, C = random_normal_triple(G, seed)
    return (
        G.degree,
        G.order,
        [R.order for R in Rs],
        verify_fat_equals_symmetric(G, Rs),
        verify_first_slot_restriction(G, Rs),
        (A.order, B.order, C.order),
        verify_product_rule(A, B, C),
        verify_hall(A, B, C),
        verify_connectivity(G, Rs, I=(1, 2), J=tuple(range(3, n + 1))),
    )


# both finite workloads' caps, n = 3 to 5: fat = symmetric has content from
# n = 4, and the memos hold the most state at n = 5
REGISTRY_CAPS = [(10, 2000), (12, 20000)]
REGISTRY_CASES = [
    (n, degree_cap, order_cap, seeds)
    for degree_cap, order_cap in REGISTRY_CAPS
    for n, seeds in [(3, range(12)), (4, range(6))]
] + [(5, degree_cap, order_cap, range(4)) for degree_cap, order_cap in REGISTRY_CAPS]


@pytest.mark.parametrize("n, degree_cap, order_cap, seeds", REGISTRY_CASES)
def test_results_do_not_depend_on_the_carrier_registry(
    n, degree_cap, order_cap, seeds
):
    finite._CARRIERS.clear()
    fresh = [_trial(s, n, degree_cap, order_cap) for s in seeds]
    finite._CARRIERS.clear()
    for s in range(500, 530):  # other carriers and memos first
        _trial(s, 3, degree_cap, order_cap)
    filled = [_trial(s, n, degree_cap, order_cap) for s in seeds]
    backwards = [_trial(s, n, degree_cap, order_cap) for s in reversed(seeds)]
    assert fresh == filled == backwards[::-1]


def _standard_gens(degree):
    """Generators of S_d and A_d, and of C_d and a point stabiliser S_{d-1}."""
    cycle = from_cycles(degree, tuple(range(1, degree + 1)))
    short = from_cycles(degree, tuple(range(2, degree + 1)))
    three = from_cycles(degree, (1, 2, 3))
    odd_cycle = short if degree % 2 == 0 else cycle
    return [
        [from_cycles(degree, (1, 2)), cycle],
        [three, odd_cycle],
        [cycle],
        [from_cycles(degree, (2, 3)), short],
    ]


def test_recognition_matches_enumeration(monkeypatch):
    # recognise a registered carrier only when it is the generated group,
    # return the one registered group per element set, and reject a group
    # past the cap exactly as kernels.closure_set does, taking the orbit bound
    # once per call; closure enumerates with kernels.dimino
    rng = random.Random(62)
    cases = []
    for degree in range(3, 8):
        cases += _standard_gens(degree)
        for _ in range(12):
            pool = list(range(degree))
            cases.append(
                [bytes(rng.sample(pool, degree)) for _ in range(rng.randint(1, 3))]
            )
    finite._CARRIERS.clear()
    for degree in range(3, 8):  # register S_d and A_d first
        for gens in _standard_gens(degree)[:2]:
            closure(gens, cap=5040)
    enumerated, bounds = [], []
    real, dimino, bound = kernels.closure_set, kernels.dimino, kernels._order_bound

    def counting(gens, degree, cap):
        enumerated.append(None)
        return dimino(gens, degree, cap)

    def counted_bound(*args):
        bounds.append(None)
        return bound(*args)

    monkeypatch.setattr(kernels, "dimino", counting)
    monkeypatch.setattr(kernels, "_order_bound", counted_bound)
    recognised = 0
    for gens in cases:
        degree = len(gens[0])
        want = dimino(gens, degree, 5040)
        enumerated.clear()
        bounds.clear()
        known = finite._CARRIERS.get(frozenset(want))
        G = closure(gens, cap=5040)
        assert G.elements == want and len(bounds) == 1
        if known is None:  # enumerated and registered with its own gens
            assert enumerated and G.gens == tuple(gens)
        else:
            assert G is known
        recognised += not enumerated
        for cap in (len(want) - 1, len(want)):
            expected = real(gens, degree, cap)
            if expected is None:
                with pytest.raises(CapExceeded):
                    closure(gens, cap=cap)
            else:
                assert closure(gens, cap=cap).elements == expected
    # both paths ran: many sets generate a registered S_d or A_d, and many
    # generate a proper subgroup of one, which must be enumerated
    assert recognised >= 30 and len(cases) - recognised >= 30


def test_a_draw_past_the_cap_is_rejected_before_the_registry_is_read(monkeypatch):
    def recognise(*args):
        raise AssertionError("the registry was read for a draw past the cap")

    finite._CARRIERS.clear()
    for degree in range(5, 9):
        closure(_standard_gens(degree)[0], cap=math.factorial(degree))
    monkeypatch.setattr(finite, "_recognise", recognise)
    for degree in range(5, 9):
        for gens in _standard_gens(degree)[:2]:
            with pytest.raises(CapExceeded):
                closure(gens, cap=math.factorial(degree) // 2 - 1)


def test_recognition_keeps_the_degree_of_empty_gens():
    # empty gens generate the trivial group of any degree, with bound 1
    assert closure([], degree=3).degree == 3
    assert closure([], degree=4).degree == 4
    assert closure([], degree=3).elements == {bytes(range(3))}


def test_a_hand_built_group_never_enters_the_registry():
    # six elements of S_4 that are not closed but hold generators of S_3: were
    # the set registered, the orbit bound (|<gens>| >= 6) would "recognise" it
    a, b = from_cycles(4, (1, 2)), from_cycles(4, (1, 2, 3))
    fake = frozenset(
        [bytes(range(4)), a, b, from_cycles(4, (3, 4)), from_cycles(4, (1, 3))]
        + [from_cycles(4, (1, 2, 3, 4))]
    )
    assert len(fake) == 6 and tuples(fake) != oracle_closure([a, b], 4)
    finite._CARRIERS.clear()
    H = PermGroup(4, fake, (a, b))
    product_subgroup(normal_closure(H, [a]), normal_closure(H, [b]))
    assert fake not in finite._CARRIERS and not finite._CARRIERS
    assert tuples(closure([a, b]).elements) == oracle_closure([a, b], 4)
    assert fake not in finite._CARRIERS


def test_the_registry_keeps_the_carriers_used_last():
    finite._CARRIERS.clear()
    groups = [closure([bytes([*range(1, d), 0])]) for d in range(3, 53)]
    assert len(finite._CARRIERS) == finite.CARRIER_SLOTS == 16
    assert list(finite._CARRIERS) == [G.elements for G in groups[-16:]]
    # recognising a carrier makes it the most recent one
    again = closure(groups[-16].gens)
    assert again is groups[-16]
    assert next(reversed(finite._CARRIERS)) is groups[-16].elements


def test_carrier_tables_are_bounded_by_the_carrier():
    # a second pass over the same trials adds nothing to any group's table,
    # seeds are single elements (an intersection is not keyed by its element
    # list), and the commutator memo only holds interned sets
    finite._CARRIERS.clear()
    seeds = range(40)

    def sizes():
        return {
            (key, name): len(getattr(K, name))
            for key, K in finite._CARRIERS.items()
            for name in ("sets", "closures", "commutators")
        }

    for s in seeds:
        _trial(s, 3, 10, 2000)
    before = sizes()
    for s in seeds:
        _trial(s, 3, 10, 2000)
    assert sizes() == before
    for K in finite._CARRIERS.values():
        assert len(K.closures) <= len(K.elements)
        assert all(seed in K.elements for seed in K.closures)
        assert len(K.commutators) <= len(K.sets) ** 2
        for a, b in K.commutators:
            assert K.sets[a] is a and K.sets[b] is b
        # memo entries are the subgroups computed, on interned element sets
        for sub in [*K.closures.values(), *K.commutators.values()]:
            assert isinstance(sub, NormalSubgroup) and sub.parent is K
            assert K.sets[sub.elements] is sub.elements


def _used_carrier():
    """A weak reference to a registered carrier that ran 20 trials' checks,
    and its two memos."""
    G = random_instance(0, n=3).group
    assert G.degree <= 10 and finite._CARRIERS[G.elements] is G
    for seed in range(20):
        A, B, C = random_normal_triple(G, seed)
        verify_fat_equals_symmetric(G, (A, B, C))
        verify_first_slot_restriction(G, (A, B, C))
        verify_product_rule(A, B, C)
        verify_hall(A, B, C)
    assert G.closures and G.commutators
    return weakref.ref(G), (G.closures, G.commutators)


def test_an_evicted_carrier_is_freed_without_the_garbage_collector():
    # memo entries point back to their group, and eviction clears them (see
    # the module docstring), so eviction alone frees a carrier; the benchmark
    # worker runs its op loop with the collector off
    finite._CARRIERS.clear()
    gc.disable()
    try:
        carrier, memos = _used_carrier()
        assert carrier() is not None and all(memos)
        for d in range(11, 11 + finite.CARRIER_SLOTS):  # cycles past degree 10
            closure([bytes([*range(1, d), 0])])
        assert carrier() is None and not any(memos)
    finally:
        gc.enable()


def test_a_hand_built_group_is_freed_by_the_cyclic_collector():
    a, b = from_cycles(4, (1, 2)), from_cycles(4, (1, 2, 3, 4))
    H = PermGroup(4, closure([a, b]).elements, (a, b))
    commutator_subgroup(normal_closure(H, [a]), normal_closure(H, [b]))
    assert H.closures and H.commutators
    group = weakref.ref(H)
    del H
    gc.collect()
    assert group() is None


# ---------------------------------------------------------------------------
# commutator subgroups


def test_commutator_subgroup_examples():
    G = s3()
    R = normal_closure(G, list(G.gens))
    derived = commutator_subgroup(R, R)
    assert derived.order == 3
    assert tuples(derived.elements) == oracle_commutator_subgroup(
        tuples(G.elements), tuples(G.elements)
    )
    triv = NormalSubgroup.trivial(G)
    assert commutator_subgroup(R, triv).order == 1
    abelian = closure([from_cycles(4, (1, 2, 3, 4))])
    A = normal_closure(abelian, list(abelian.gens))
    assert commutator_subgroup(A, A).order == 1


def test_commutator_subgroup_matches_element_level_oracle():
    for seed in range(25):
        inst = random_instance(seed, n=2, degree_cap=5, order_cap=60)
        A, B = inst.subgroups
        fast = commutator_subgroup(A, B)
        brute = oracle_commutator_subgroup(tuples(A.elements), tuples(B.elements))
        assert tuples(fast.elements) == brute


def test_commutator_subgroup_cache_symmetry():
    # one computation of [A, B] fills the memo entry of [B, A] as well
    inst = random_instance(9, n=2, degree_cap=6, order_cap=300)
    G, (A, B) = inst.group, inst.subgroups
    assert A.order == 4 and B.order == 24
    G.commutators.clear()
    ab = commutator_subgroup(A, B)
    assert len(G.commutators) == 2
    assert G.commutators[A.elements, B.elements] is ab
    assert G.commutators[B.elements, A.elements] is ab
    assert commutator_subgroup(B, A) is ab and len(G.commutators) == 2


def test_mismatched_parents_rejected():
    a = random_instance(1, n=1, degree_cap=5, order_cap=100)
    b = random_instance(2, n=1, degree_cap=6, order_cap=100)
    with pytest.raises(ValueError):
        commutator_subgroup(a.subgroups[0], b.subgroups[0])
    # the group given must be the subgroups' parent as well
    A = random_instance(1, n=2, degree_cap=5, order_cap=100)
    B = random_instance(2, n=2, degree_cap=6, order_cap=100)
    with pytest.raises(ValueError, match="different parent"):
        intersection_of(A.group, [B.subgroups[0]])
    for table in (symmetric_commutator, restricted_symmetric_commutator):
        with pytest.raises(ValueError, match="different parent"):
            table(A.group, [B.subgroups[0]])
    with pytest.raises(ValueError, match="different parent"):
        fat_commutator(A.group, B.subgroups)
    with pytest.raises(ValueError, match="different parent"):
        verify_connectivity(
            A.group, B.subgroups + (B.subgroups[0],), I=(1, 2), J=(3,)
        )
    # while registered, closing the same generators gives the same group, so
    # the subgroups of two closures mix
    gens = [from_cycles(4, (1, 2)), from_cycles(4, (1, 2, 3, 4))]
    G = closure(gens)
    assert closure(gens) is G
    R, S = normal_closure(G, [gens[1]]), normal_closure(closure(gens), [gens[0]])
    assert commutator_subgroup(R, S).order == 12
    assert product_subgroup(R, S).order == 24
    # equal element sets are not enough: subgroups of two groups built by
    # hand cannot be mixed
    H1, H2 = (PermGroup(4, G.elements, G.gens) for _ in range(2))
    R1, R2 = (normal_closure(H, [gens[1]]) for H in (H1, H2))
    for op in (commutator_subgroup, product_subgroup):
        with pytest.raises(ValueError):
            op(R1, R2)


# ---------------------------------------------------------------------------
# symmetric / fat


def test_symmetric_commutator_examples():
    inst = random_instance(7, n=1, degree_cap=6, order_cap=300)
    assert symmetric_commutator(inst.group, inst.subgroups) is inst.subgroups[0]

    abelian = closure([from_cycles(5, (1, 2, 3, 4, 5))])
    R = normal_closure(abelian, list(abelian.gens))
    assert symmetric_commutator(abelian, [R, R]).order == 1

    G = s4()
    R1 = normal_closure(G, [from_cycles(4, (1, 2))])
    R2 = normal_closure(G, [from_cycles(4, (1, 2, 3))])
    sym = symmetric_commutator(G, [R1, R2])
    assert sym.elements == commutator_subgroup(R1, R2).elements


def test_symmetric_commutator_matches_oracle():
    for seed in range(12):
        inst = random_instance(seed, n=2, degree_cap=5, order_cap=48)
        sym = symmetric_commutator(inst.group, inst.subgroups)
        brute = oracle_symmetric([tuples(R.elements) for R in inst.subgroups])
        assert tuples(sym.elements) == brute
    inst = random_instance(100, n=3, degree_cap=4, order_cap=24)
    sym = symmetric_commutator(inst.group, inst.subgroups)
    brute = oracle_symmetric([tuples(R.elements) for R in inst.subgroups])
    assert tuples(sym.elements) == brute


def test_symmetric_products_match_the_ordering_walk():
    for n in range(2, 6):
        for seed in range(10):
            inst = random_instance(100 * n + seed, n=n)
            G, Rs = inst.group, inst.subgroups
            sym = symmetric_commutator(G, Rs)
            assert sym.elements == ordered_walk(G, Rs).elements, (n, seed)
            restricted = restricted_symmetric_commutator(G, Rs)
            walk = ordered_walk(G, Rs, first_slot_only=True)
            assert restricted.elements == walk.elements, (n, seed)


def test_fat_commutator_examples():
    inst = random_instance(9, n=1, degree_cap=6, order_cap=300)
    fat = fat_commutator(inst.group, inst.subgroups)
    assert fat.subgroup.elements == inst.subgroups[0].elements
    assert fat.evaluations == 0

    abelian = closure([from_cycles(5, (1, 2, 3, 4, 5))])
    R = normal_closure(abelian, list(abelian.gens))
    out = fat_commutator(abelian, [R, R])
    assert out.subgroup.order == 1
    # the one mask pair {1}, {2}
    assert out.evaluations == 1


def test_fat_commutator_counters_are_frozen():
    # evaluations = unordered two-block partitions {A, M - A}, over the masks M
    for seed, n, expected in [(7, 3, 6), (4001, 4, 25)]:
        inst = random_instance(seed, n=n)
        out = fat_commutator(inst.group, inst.subgroups)
        assert out.evaluations == expected, seed
    for n, expected in enumerate([0, 1, 6, 25, 90, 301], start=1):
        brute = sum(
            1
            for M in range(1 << n)
            for A in range(1, M)
            if A & M == A and A < M ^ A
        )
        inst = random_instance(200 + n, n=n)
        out = fat_commutator(inst.group, inst.subgroups)
        assert brute == out.evaluations == expected, n


def test_fat_commutator_matches_tuple_enumeration_oracle():
    for seed in (0, 2, 5, 8):
        inst = random_instance(seed, n=2, degree_cap=4, order_cap=16)
        out = fat_commutator(inst.group, inst.subgroups)
        brute = oracle_fat([tuples(R.elements) for R in inst.subgroups], 3)
        assert tuples(out.subgroup.elements) == brute


def tree_walk_fat(G, Rs, weight_cap):
    """Reference fat computation: every surjective assignment x bracket tree.

    The trees are the oracle's own ``_shapes``. The subgroup of one
    (assignment, shape) pair is its iterated
    commutator subgroup; the fat subgroup is the product over all pairs of
    weight n..weight_cap.
    """
    n = len(Rs)

    def value(shape, assignment):
        # shape 0 is a leaf; (k, left, right) puts k leaves on the left
        if shape == 0:
            return Rs[assignment[0]]
        k, left, right = shape
        return commutator_subgroup(
            value(left, assignment[:k]), value(right, assignment[k:])
        )

    total = NormalSubgroup.trivial(G)
    for t in range(n, weight_cap + 1):
        shapes = _shapes(t)
        for assignment in itertools.product(range(n), repeat=t):
            if len(set(assignment)) != n:
                continue
            for shape in shapes:
                sub = value(shape, assignment)
                if not sub.elements <= total.elements:
                    total = product_subgroup(total, sub)
    return total


TREE_WALK_CASES = [(1000 + i, 2 + i % 2, 10, 2000) for i in range(30)] + [
    (9, 1, 10, 2000)
]
# n = 4 is the first n where two 3-index masks are paired
TREE_WALK_CASES += [(1030 + i, 4, 10, 2000) for i in range(10)]
# here fat is bigger than some single commutator of the full mask's
# splits, so a table that keeps one commutator per mask falls short
TREE_WALK_CASES += [(134, 3, 6, 720), (249, 3, 6, 720)]


def test_fat_commutator_matches_tree_walk():
    for seed, n, degree_cap, order_cap in TREE_WALK_CASES:
        inst = random_instance(seed, n=n, degree_cap=degree_cap, order_cap=order_cap)
        out = fat_commutator(inst.group, inst.subgroups)
        # the walk reaches fat at weight n; higher caps add nothing
        for cap in sorted({n, n + 1, 2 * n} if n < 4 else {n, n + 1}):
            sub = tree_walk_fat(inst.group, inst.subgroups, cap)
            assert out.subgroup.elements == sub.elements, (seed, cap)


# seeded carriers for the two-block partition lemma, n = 2..5
LEMMA_CASES = [
    (700 + 10 * n + i, n, degree_cap, order_cap)
    for n in range(2, 6)
    for i in range(6)
    for degree_cap, order_cap in [(10, 2000), (6, 720)]
]


def _all_covers(mask):
    """Each unordered {A, B} of proper submasks with A | B = mask, once."""
    a = mask
    while a := (a - 1) & mask:
        sub = a
        while sub:  # B is mask - A plus a proper submask of A, 0 included
            sub = (sub - 1) & a
            b = (mask ^ a) | sub
            if a < b:
                yield a, b


def test_fat_shrinks_when_a_subgroup_is_added():
    # fat(R_1..R_n) <= fat(R_1..R_n without R_i), the lemma behind the partitions
    for seed, n, degree_cap, order_cap in LEMMA_CASES:
        inst = random_instance(seed, n=n, degree_cap=degree_cap, order_cap=order_cap)
        G, Rs = inst.group, inst.subgroups
        fat = fat_commutator(G, Rs).subgroup.elements
        for i in range(n):
            fewer = fat_commutator(G, Rs[:i] + Rs[i + 1 :]).subgroup.elements
            assert fat <= fewer, (seed, i)


def test_fat_partitions_equal_the_table_over_all_covers():
    for seed, n, degree_cap, order_cap in LEMMA_CASES + TREE_WALK_CASES:
        inst = random_instance(seed, n=n, degree_cap=degree_cap, order_cap=order_cap)
        G, Rs = inst.group, inst.subgroups
        covers = finite._mask_table(G, Rs, _all_covers)
        assert fat_commutator(G, Rs).subgroup.elements == covers.elements, seed


def test_fat_and_symmetric_splits_agree_up_to_three_indices():
    # so fat = symmetric can only fail from n = 4 on
    def unordered(pairs):
        return {frozenset(pair) for pair in pairs}

    for mask in range(1 << 6):
        if 2 <= mask.bit_count() <= 3:
            assert unordered(finite._fat_splits(mask)) == unordered(
                finite._last_slots(mask)
            ), bin(mask)
    two_by_two = {
        frozenset({0b0011, 0b1100}),
        frozenset({0b0101, 0b1010}),
        frozenset({0b0110, 0b1001}),
    }
    assert unordered(finite._fat_splits(0b1111)) == (
        unordered(finite._last_slots(0b1111)) | two_by_two
    )


def test_fat_commutator_budget_guard(monkeypatch):
    inst = random_instance(11, n=3, degree_cap=6, order_cap=300)
    with pytest.raises(BudgetExceeded):
        fat_commutator(inst.group, inst.subgroups, budget=5)

    # the pair count is checked before any commutator is computed
    calls = []
    real = finite.commutator_subgroup

    def counting(*args):
        calls.append(None)
        return real(*args)

    monkeypatch.setattr(finite, "commutator_subgroup", counting)
    for n, pairs in [(2, 1), (3, 6), (4, 25), (5, 90)]:
        inst = random_instance(300 + n, n=n)
        calls.clear()
        with pytest.raises(BudgetExceeded, match=f"n = {n} needs {pairs} "):
            fat_commutator(inst.group, inst.subgroups, budget=pairs - 1)
        assert not calls, n
        out = fat_commutator(inst.group, inst.subgroups, budget=pairs)
        assert out.evaluations == pairs and calls, n


# ---------------------------------------------------------------------------
# verification reports


def test_verify_fat_equals_symmetric_on_seeded_instances():
    for seed in range(10):
        n = 2 + seed % 2
        inst = random_instance(seed, n=n, degree_cap=7, order_cap=400)
        report = verify_fat_equals_symmetric(inst.group, inst.subgroups)
        assert report.passed and report.stabilized
        assert report.fat_order == report.symmetric_order
    with pytest.raises(ValueError):
        verify_fat_equals_symmetric(inst.group, inst.subgroups, 6)


def test_verify_first_slot_restriction_on_seeded_instances():
    for seed in range(10):
        n = 2 + seed % 2
        inst = random_instance(seed, n=n, degree_cap=7, order_cap=400)
        report = verify_first_slot_restriction(inst.group, inst.subgroups)
        assert report.passed
    inst = random_instance(40, n=3, degree_cap=6, order_cap=200)
    restricted = restricted_symmetric_commutator(inst.group, inst.subgroups)
    sym = symmetric_commutator(inst.group, inst.subgroups)
    assert restricted.elements == sym.elements


def test_verify_product_rule_and_hall_on_fuzzed_triples():
    for seed in range(20):
        inst = random_instance(seed + 200, n=1, degree_cap=7, order_cap=400)
        A, B, C = random_normal_triple(inst.group, seed)
        pr = verify_product_rule(A, B, C)
        assert pr.passed, (seed, pr)
        hall = verify_hall(A, B, C)
        assert hall.passed, (seed, hall)


def test_verify_trivial_subgroups_pass_vacuously():
    G = s3()
    t = NormalSubgroup.trivial(G)
    assert verify_product_rule(t, t, t).passed
    assert verify_hall(t, t, t).passed
    report = verify_fat_equals_symmetric(G, [t, t])
    assert report.passed and report.fat_order == 1


def test_whole_group_slots_give_derived_subgroup():
    G = s3()
    R = normal_closure(G, list(G.gens))
    report = verify_fat_equals_symmetric(G, [R, R])
    assert report.passed
    assert report.symmetric_order == commutator_subgroup(R, R).order == 3


def test_verify_connectivity_trivial_cases_and_report_shape():
    G = s3()
    R = normal_closure(G, list(G.gens))
    t = NormalSubgroup.trivial(G)
    full = verify_connectivity(G, [R, R, R], I=(1, 2), J=(3,))
    assert full.equal and full.lhs_order == G.order
    empty = verify_connectivity(G, [t, t, t], I=(1, 2), J=(3,))
    assert empty.equal and empty.lhs_order == 1
    with pytest.raises(ValueError):
        verify_connectivity(G, [R, R, R], I=(1,), J=(2,))
    with pytest.raises(ValueError):
        verify_connectivity(G, [R, R], I=(1, 2), J=(5,))


def test_connectivity_reports_both_sides_on_random_instances():
    equal_count = 0
    for seed in range(12):
        inst = random_instance(seed + 50, n=3, degree_cap=6, order_cap=300)
        rep = verify_connectivity(inst.group, inst.subgroups, I=(1, 2), J=(3,))
        assert rep.lhs_order <= rep.rhs_order  # lhs always contained in rhs
        equal_count += rep.equal
    assert equal_count > 0


# ---------------------------------------------------------------------------
# support


def test_product_and_intersection():
    G = s4()
    R1 = normal_closure(G, [from_cycles(4, (1, 2), (3, 4))])
    R2 = normal_closure(G, [from_cycles(4, (1, 2, 3))])
    prod = product_subgroup(R1, R2)
    assert R1.elements <= prod.elements and R2.elements <= prod.elements
    assert prod.order * intersection_of(G, [R1, R2]).order == R1.order * R2.order
    assert intersection_of(G, [R1, R1]).elements == R1.elements
    # R1 < R2, so the intersection is the second input itself
    assert intersection_of(G, [R2, R1]) is R1
    # no input equals the intersection of two incomparable subgroups
    # the generators are named: a registered V's gens may be another pair
    gens = [from_cycles(4, (1, 2)), from_cycles(4, (3, 4))]
    V = closure(gens)
    X, Y = (normal_closure(V, [g]) for g in gens)
    meet = intersection_of(V, [X, Y])
    assert meet.order == 1 and meet.gens == ()


def test_intersections_of_incomparable_subgroups_in_an_elementary_abelian_group():
    # in C_2^5 every subgroup is normal and a normal closure is a span, so
    # random pairs rarely nest and most meets are built, not returned
    V = closure([from_cycles(10, (2 * i + 1, 2 * i + 2)) for i in range(5)])
    assert V.order == 32
    rng = random.Random(13)
    pool = V.sorted_elements
    built = 0
    for _ in range(200):
        X, Y = (normal_closure(V, [rng.choice(pool) for _ in range(3)]) for _ in "XY")
        R = intersection_of(V, [X, Y])
        assert tuples(R.elements) == tuples(X.elements) & tuples(Y.elements)
        assert closure(R.gens, degree=10).elements == R.elements
        assert len(R.gens) <= max(1, R.order.bit_length())
        built += R is not X and R is not Y
    assert built >= 100


def test_random_instance_is_deterministic():
    a = random_instance(123, n=2)
    b = random_instance(123, n=2)
    assert a.group.elements == b.group.elements
    assert [R.elements for R in a.subgroups] == [R.elements for R in b.subgroups]
    assert a.group.order <= 2000 and a.group.degree <= 10


def test_random_instance_rejects_caps_without_carriers():
    # order 1 admits only the trivial group, which is never accepted
    for bad in (
        dict(order_cap=1),
        dict(order_cap=0),
        dict(degree_cap=2),
        dict(degree_cap=256),
    ):
        with pytest.raises(ValueError):
            random_instance(0, n=2, **bad)


def test_random_instance_gives_up_after_a_fixed_number_of_draws(monkeypatch):
    # seed 0 at order cap 2 finds its carrier on the 31st draw
    found = random_instance(0, n=1, degree_cap=10, order_cap=2)
    assert found.group.order == 2
    monkeypatch.setattr(finite, "MAX_INSTANCE_DRAWS", 31)
    again = random_instance(0, n=1, degree_cap=10, order_cap=2)
    assert again.group.elements == found.group.elements
    monkeypatch.setattr(finite, "MAX_INSTANCE_DRAWS", 30)
    with pytest.raises(ValueError, match="30 draws"):
        random_instance(0, n=1, degree_cap=10, order_cap=2)


# SHA-256 over random_instance seeds 0-199 (n = 3) of repr((degree, group
# order, subgroup orders)), keyed by (degree_cap, order_cap). Recorded before
# closure_set gained its order bound: the stream stays the same only if the
# bound rejects exactly the draws the enumeration rejected.
FROZEN_CARRIER_STREAMS = {
    (10, 2000): "e1240754ec74b2e6b9d0be7f367210a34a242f6614aea6231aec2bfc5dd27bfb",
    (12, 20000): "ffa39516c17214caeb7a3ca03f887c48556c76d9478304df7aadd89ceaf9e629",
    (255, 2000): "bd145fb81e0379a0e18d713120ecd372341370c1ea9d95266d05f3140c23cbdb",
    (10, 2): "2680dde1a17d9cfd21c2082462e7dbed2e22bcc07fa4ef4c2bbf74c81ba30346",
}


@pytest.mark.parametrize("degree_cap, order_cap", list(FROZEN_CARRIER_STREAMS))
def test_random_instance_stream_is_frozen(degree_cap, order_cap):
    digest = hashlib.sha256()
    for seed in range(200):
        inst = random_instance(seed, n=3, degree_cap=degree_cap, order_cap=order_cap)
        orders = tuple(R.order for R in inst.subgroups)
        digest.update(repr((inst.group.degree, inst.group.order, orders)).encode())
    assert digest.hexdigest() == FROZEN_CARRIER_STREAMS[degree_cap, order_cap]
