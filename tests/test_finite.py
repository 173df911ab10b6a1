import functools
import gc
import hashlib
import itertools
import json
import math
import os
import pathlib
import random
import subprocess
import sys
import weakref

import pytest
from click.testing import CliRunner

from commlab import finite, kernels
from commlab.cli import main
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
    oracle_conjugates,
    oracle_fat,
    oracle_is_normal,
    oracle_normal_closure,
    oracle_normal_closure_by_conjugates,
    oracle_order_bound,
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
    # a cap that is not an int >= 0 is a setting error: a bool is an int
    # subclass and would read as a cap of one element, or of none
    for cap in (2.5, True, False, -1, "10", None):
        with pytest.raises(ValueError, match="cap must be an int >= 0"):
            closure([bytes([1, 0, 2])], cap=cap)
    # a degree past one byte per point built an identity of another length,
    # and a bool read as a degree of one point
    for degree in (300, 257, -1, True, False, 2.5, "3"):
        with pytest.raises(ValueError, match="degree must be an int in 0..256"):
            closure([], degree=degree)
    assert closure([], degree=256).identity == bytes(range(256))
    assert closure([], degree=0).order == 1


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


@pytest.mark.parametrize(
    "degree_cap, order_cap", [(8, 500), (10, 2000), (12, 20000)]
)
def test_subgroup_operations_match_oracles_on_random_instances(
    degree_cap, order_cap
):
    # normal_closure, product_subgroup, intersection_of and commutator_subgroup
    # against oracles that generate from conjugates, never from the results;
    # a closure of several seeds and an intersection are products of one-seed
    # closures, so three seeds and three subgroups reach the product path
    whole = proper = 0
    for seed in range(40):
        inst = random_instance(seed, n=1, degree_cap=degree_cap, order_cap=order_cap)
        G, d = inst.group, inst.group.degree
        rng = random.Random(seed)
        pool = sorted(G.elements)
        subs = []
        for k in (rng.randint(1, 2), rng.randint(1, 2), 3):
            seeds = [rng.choice(pool) for _ in range(k)]
            N = normal_closure(G, seeds)
            assert tuples(N.elements) == oracle_normal_closure_by_conjugates(
                G.gens, seeds, d
            )
            subs.append(N)
        A, B, C = subs
        results = [
            *subs,
            product_subgroup(A, B),
            intersection_of(G, [A, B]),
            intersection_of(G, [A, B, C]),
            commutator_subgroup(A, B),
        ]
        wants = [
            tuples(A.elements),
            tuples(B.elements),
            tuples(C.elements),
            oracle_span(A.elements | B.elements, d)[1],
            tuples(A.elements) & tuples(B.elements),
            tuples(A.elements) & tuples(B.elements) & tuples(C.elements),
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


@pytest.mark.parametrize("make", ["s5", "registered"])
def test_closures_are_memoised_by_conjugacy_class(make, monkeypatch):
    # <<g>> depends only on the class of g: the memo holds one entry per
    # class, keyed by class number, so each conjugate's closure is the same
    # object, and each class is grown once
    grown = []
    real_grow = finite._grow_normal

    def counting(G, elems, gens, seeds):
        if not gens:  # a class closure: grown from the identity
            grown.append(seeds[0])
        return real_grow(G, elems, gens, seeds)

    monkeypatch.setattr(finite, "_grow_normal", counting)
    finite._CARRIERS.clear()
    if make == "s5":
        G = closure([from_cycles(5, (1, 2)), from_cycles(5, (1, 2, 3, 4, 5))])
    else:  # PGL(2, 7) on 8 points
        G = random_instance(35, n=1, degree_cap=12, order_cap=20000).group
        assert (G.degree, G.order) == (8, 336)
    assert finite._CARRIERS[G.elements] is G
    classes = set()
    for g in G.sorted_elements:
        N = normal_closure(G, [g])
        assert tuples(N.elements) == oracle_normal_closure_by_conjugates(
            G.gens, [g], G.degree
        )
        for h in G.gens:
            assert normal_closure(G, [bytes(o_conj(tuple(g), tuple(h)))]) is N
        classes.add(frozenset(oracle_conjugates(G.gens, [g])))
        assert G.closures.get(G.classes[0][g], 1) == N.mask
    # one key per class (every element was asked for) but the identity's,
    # which is never grown, and each class grown once, from its least element
    number, reps = G.classes
    assert len(reps) == len(classes)
    assert sorted(G.closures) == list(range(1, len(classes)))
    assert sorted(grown) == list(reps[1:])


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


def _class_table_carriers():
    """S_5, the hand-built S_3 x S_3 and seeded carriers at both default caps."""
    yield closure([from_cycles(5, (1, 2)), from_cycles(5, (1, 2, 3, 4, 5))])
    yield _table_case("hand_built", 1, 0)[0]
    for caps in REGISTRY_CAPS:
        for seed in range(12):
            yield random_instance(seed, 1, *caps).group


def test_the_class_table_equals_the_oracle_classes():
    # every element is numbered, each class is the oracle's conjugacy class
    # of its least element, and the classes run in order of least element
    orders = set()
    for G in _class_table_carriers():
        number, reps = G.classes
        assert number.keys() == G.elements
        members = {}
        for g, k in number.items():
            members.setdefault(k, set()).add(tuple(g))
        assert sorted(members) == list(range(len(reps)))
        for k, rep in enumerate(reps):
            assert members[k] == oracle_conjugates(G.gens, [rep])
            assert min(members[k]) == tuple(rep)
        assert list(reps) == sorted(reps) and reps[0] == G.identity
        orders.add(G.order)
    assert max(orders) == 5040  # S_7, at the larger caps


def _subgroups_of_one_trial(seed, n, degree_cap, order_cap):
    """Every subgroup a trial built on its carrier, from cold memos."""
    G = random_instance(seed, n=n, degree_cap=degree_cap, order_cap=order_cap).group
    for memo in G.memos:
        memo.clear()
    _trial(seed, n, degree_cap, order_cap)
    return G, list(G.subgroups.values())


@pytest.mark.parametrize("degree_cap, order_cap", REGISTRY_CAPS)
def test_masks_compare_as_the_element_sets_do(degree_cap, order_cap):
    # a mask is the set of classes a subgroup is the union of: equal masks
    # are equal element sets, and a & ~b == 0 is containment
    pairs = incomparable = 0
    for seed in range(40):
        G, subs = _subgroups_of_one_trial(seed, 4, degree_cap, order_cap)
        number = G.classes[0]
        for A in subs:
            classes = {number[g] for g in A.elements}
            assert A.mask == sum(1 << k for k in classes)
            assert A.elements == {g for g in G.elements if number[g] in classes}
        for A, B in itertools.product(subs, repeat=2):
            assert (A.mask == B.mask) == (A.elements == B.elements)
            assert (A.mask & ~B.mask == 0) == (A.elements <= B.elements)
            pairs += A is not B
            incomparable += bool(A.mask & ~B.mask and B.mask & ~A.mask)
    assert pairs >= 150 and incomparable >= 10


MASK_SCRIPT = """
import json
from commlab import finite
print(json.dumps([
    [R.mask for R in finite.random_instance(seed, n=3, **caps).subgroups]
    for caps in ({}, {"degree_cap": 12, "order_cap": 20000})
    for seed in range(20)
]))
"""


def test_masks_do_not_depend_on_the_hash_seed():
    src = pathlib.Path(finite.__file__).parents[1]
    runs = [
        subprocess.run(
            [sys.executable, "-c", MASK_SCRIPT],
            env={**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": str(h)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for h in (0, 1)
    ]
    masks = json.loads(runs[0])
    assert len(masks) == 40 and any(m > 1 << 8 for ms in masks for m in ms)
    assert runs[0] == runs[1]


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


def test_a_bound_that_reads_low_meets_the_dimino_cap(monkeypatch):
    # these generate S_8, of order 40,320, but their orbit bound reads only
    # 20,160: it passes a cap of 30,000, and the enumeration must stop there
    gens = [bytes([3, 7, 5, 0, 2, 4, 6, 1]), bytes([2, 6, 5, 1, 4, 0, 7, 3])]
    assert kernels._order_bound(gens, 8, 40320) == 20160
    enumerated = []
    real_dimino = kernels.dimino

    def dimino(*args):
        enumerated.append(real_dimino(*args))
        return enumerated[-1]

    monkeypatch.setattr(kernels, "dimino", dimino)
    finite._CARRIERS.clear()
    with pytest.raises(CapExceeded):
        closure(gens, cap=30000)
    assert enumerated == [None]
    # with S_8 registered, the low bound is not its order, so the draw is
    # enumerated, and the enumerated element set returns the registered group
    s8 = closure([from_cycles(8, (1, 2)), from_cycles(8, tuple(range(1, 9)))], 40320)
    assert s8.order == 40320 and len(enumerated) == 2
    assert closure(gens, cap=40320) is s8
    assert len(enumerated) == 3 and enumerated[-1] == s8.elements
    finite._CARRIERS.clear()


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


def _cycle(degree):
    """The cyclic group of a degree-cycle, a carrier of its own per degree."""
    return closure([bytes([*range(1, degree), 0])])


def _keys(*groups):
    return [G.elements for G in groups]


def _recognised(G):
    """Recognise a registered carrier by its own gens."""
    assert closure(G.gens, cap=G.order) is G


def test_the_registry_keeps_the_carriers_used_last(monkeypatch):
    monkeypatch.setattr(finite, "CARRIER_ELEMENTS", 0)  # the slot rule alone
    finite._CARRIERS.clear()
    groups = [_cycle(d) for d in range(3, 53)]
    assert len(finite._CARRIERS) == finite.CARRIER_SLOTS == 16
    assert list(finite._CARRIERS) == _keys(*groups[-16:])
    # recognising a carrier makes it the most recent one
    _recognised(groups[-16])
    assert next(reversed(finite._CARRIERS)) is groups[-16].elements
    # later carriers evict the least recently used unrecognised carrier, so
    # the recognised one is kept and becomes the least recently used
    later = [_cycle(d) for d in range(53, 53 + 16)]
    assert list(finite._CARRIERS) == _keys(groups[-16], *later[-15:])


# S_7 generators whose orbit bound reads 2,520: with S_7 registered, closure
# enumerates them and registers S_7's element set again
LOW_BOUND_S7 = [
    bytes([5, 1, 4, 2, 6, 0, 3]),
    bytes([1, 4, 3, 5, 0, 2, 6]),
    bytes([5, 2, 1, 3, 0, 4, 6]),
]


def test_the_order_bound_equals_the_walk_over_every_rep():
    # the kernel stops a level once its orbit is full and its Schreier
    # generators are in, and skips the identity ones; the oracle walks every
    # rep, so both must return the same bound at every cap
    rng = random.Random(31)
    cases = [LOW_BOUND_S7]
    for degree in range(3, 15):
        cases += _standard_gens(degree)
        for _ in range(6):
            # some sets fix a prefix of points, so the first base is not 0
            fixed = rng.randrange(degree - 1)
            moved = list(range(fixed, degree))
            cases.append(
                [
                    bytes(range(fixed)) + bytes(rng.sample(moved, len(moved)))
                    for _ in range(rng.randint(1, 3))
                ]
            )
    for gens in cases:
        degree = len(gens[0])
        for cap in (0, 1, 2, 24, 2000, 20000, 10**12):
            assert kernels._order_bound(gens, degree, cap) == oracle_order_bound(
                gens, degree, cap, kernels._SCHREIER_GENS
            )


@pytest.mark.parametrize("how", ["recognised", "registered_again"])
def test_a_recognised_carrier_outlives_one_shot_carriers(how, monkeypatch):
    monkeypatch.setattr(finite, "CARRIER_ELEMENTS", 0)  # the slot rule alone
    enumerated = []
    real_dimino = kernels.dimino

    def dimino(*args):
        enumerated.append(None)
        return real_dimino(*args)

    monkeypatch.setattr(kernels, "dimino", dimino)
    finite._CARRIERS.clear()
    s7 = closure(_standard_gens(7)[0], cap=5040)
    if how == "recognised":
        _recognised(s7)
        assert len(enumerated) == 1
    else:
        assert kernels._order_bound(LOW_BOUND_S7, 7, 5040) == 2520
        assert closure(LOW_BOUND_S7, cap=5040) is s7
        assert len(enumerated) == 2
    shots = [_cycle(d) for d in range(8, 8 + 2 * finite.CARRIER_SLOTS)]
    assert list(finite._CARRIERS) == _keys(s7, *shots[-15:])
    enumerated.clear()
    _recognised(s7)
    assert not enumerated


def test_a_newcomer_is_never_its_own_victim(monkeypatch):
    # with every other carrier recognised, a newcomer evicts the least
    # recently used one and stays; then, the only carrier not recognised, it
    # is the next newcomer's victim
    monkeypatch.setattr(finite, "CARRIER_ELEMENTS", 0)  # the slot rule alone
    finite._CARRIERS.clear()
    kept = [_cycle(d) for d in range(3, 19)]
    for G in kept:
        _recognised(G)
    first = _cycle(19)
    assert list(finite._CARRIERS) == _keys(*kept[1:], first)
    second = _cycle(20)
    assert list(finite._CARRIERS) == _keys(*kept[1:], second)


def test_with_every_other_carrier_recognised_the_least_recently_used_goes(
    monkeypatch,
):
    # recognised out of registration order, so use, not registration, orders
    # them: the first one recognised goes first
    monkeypatch.setattr(finite, "CARRIER_ELEMENTS", 0)  # the slot rule alone
    finite._CARRIERS.clear()
    kept = [_cycle(d) for d in range(3, 19)]
    used = kept[1::2] + kept[::2]
    for G in used:
        _recognised(G)
    first = _cycle(19)
    assert list(finite._CARRIERS) == _keys(*used[1:], first)
    second = _cycle(20)  # evicts first, the one carrier not recognised
    _recognised(second)
    third = _cycle(21)
    assert list(finite._CARRIERS) == _keys(*used[2:], second, third)


def test_clearing_the_registry_clears_the_recognised_marks(monkeypatch):
    monkeypatch.setattr(finite, "CARRIER_ELEMENTS", 0)  # the slot rule alone
    finite._CARRIERS.clear()
    G = _cycle(3)
    _recognised(G)
    for d in range(4, 4 + finite.CARRIER_SLOTS):
        _cycle(d)
    assert finite._CARRIERS.get(G.elements) is G
    # the same element set registered anew is not recognised, so as many
    # carriers after it evict it
    finite._CARRIERS.clear()
    again = _cycle(3)
    assert again is not G
    for d in range(4, 4 + finite.CARRIER_SLOTS):
        _cycle(d)
    assert G.elements not in finite._CARRIERS


def _charge(*groups):
    return sum(G.order + finite.CARRIER_OVERHEAD for G in groups)


def _check_registry():
    """The registry's size, index and marks agree with its entries."""
    registry = finite._CARRIERS
    index = {}
    for key, K in registry.items():
        assert K.elements is key
        index.setdefault((K.degree, K.order), {})[key] = K
    assert registry.index == index
    assert registry.size == _charge(*registry.values())
    assert registry.recognised <= registry.keys()


def test_carriers_past_the_slots_are_kept_under_the_budget():
    finite._CARRIERS.clear()
    groups = [_cycle(d) for d in range(3, 43)]
    assert _charge(*groups) <= finite.CARRIER_ELEMENTS
    assert list(finite._CARRIERS) == _keys(*groups)
    finite._CARRIERS.clear()


def test_the_budget_evicts_in_the_same_order(monkeypatch):
    # 20 cycles of degrees 3 to 22 fill the budget exactly
    monkeypatch.setattr(
        finite, "CARRIER_ELEMENTS", sum(d + finite.CARRIER_OVERHEAD for d in range(3, 23))
    )
    finite._CARRIERS.clear()
    groups = [_cycle(d) for d in range(3, 23)]
    assert list(finite._CARRIERS) == _keys(*groups)
    _recognised(groups[0])
    # a newcomer evicts the least recently used carriers not recognised, as
    # many as it takes to fit the budget: those of degrees 4, 5 and 6
    newcomer = _cycle(23)
    assert list(finite._CARRIERS) == _keys(*groups[4:], groups[0], newcomer)
    # past the budget on its own, S_6 evicts down to the slots, not further
    s6 = closure(_standard_gens(6)[0])
    assert len(finite._CARRIERS) == finite.CARRIER_SLOTS
    assert finite._CARRIERS.size > finite.CARRIER_ELEMENTS
    assert list(finite._CARRIERS) == _keys(*groups[7:], groups[0], newcomer, s6)
    finite._CARRIERS.clear()


def test_the_size_and_the_index_follow_the_registry(monkeypatch):
    registered, evicted = [], []
    register, evict = finite._register, finite._Registry.evict

    def checked_register(G):
        registered.append(register(G))
        _check_registry()
        return registered[-1]

    def checked_evict(self):
        evicted.append(evict(self))
        _check_registry()
        return evicted[-1]

    monkeypatch.setattr(finite, "_register", checked_register)
    monkeypatch.setattr(finite._Registry, "evict", checked_evict)
    monkeypatch.setattr(finite, "CARRIER_ELEMENTS", 3000)  # so that draws evict
    finite._CARRIERS.clear()
    for seed in range(100):
        G = random_instance(seed, n=3, degree_cap=12, order_cap=20000).group
        _recognised(G)
        _check_registry()
    assert len(registered) >= 30 and len(evicted) >= 15
    finite._CARRIERS.clear()
    _check_registry()
    assert finite._CARRIERS.size == 0 and not finite._CARRIERS.recognised


def test_carriers_of_order_two_are_bounded_by_the_budget():
    # each is charged its order and the overhead, so they cannot pile up
    most = finite.CARRIER_ELEMENTS // (2 + finite.CARRIER_OVERHEAD)
    assert most > finite.CARRIER_SLOTS
    degree = next(d for d in itertools.count(3) if math.comb(d, 2) > most)
    finite._CARRIERS.clear()
    for i, j in itertools.combinations(range(1, degree + 1), 2):
        closure([from_cycles(degree, (i, j))])
        assert len(finite._CARRIERS) <= most
    assert len(finite._CARRIERS) == most
    finite._CARRIERS.clear()


def test_carrier_tables_are_bounded_by_the_carrier():
    # a second pass over the same trials adds nothing to any group's table;
    # the closure memo is keyed by class numbers, neither intersections nor
    # products are memoised, and the commutator and table memos hold only
    # masks of the group's subgroups, one subgroup per mask
    finite._CARRIERS.clear()
    seeds = range(40)
    splits = {finite._last_slots, finite._first_slot_splits, finite._fat_splits}
    names = ("subgroups", "closures", "commutators", "tables")

    def sizes():
        return {
            (key, name): len(getattr(K, name))
            for key, K in finite._CARRIERS.items()
            for name in names
        }

    for s in seeds:
        _trial(s, 3, 10, 2000)
    before = sizes()
    for s in seeds:
        _trial(s, 3, 10, 2000)
    assert sizes() == before
    for K in finite._CARRIERS.values():
        assert K.memos == tuple(getattr(K, name) for name in names)
        number, reps = K.classes
        assert all(0 < k < len(reps) for k in K.closures)
        # the subgroups computed, each under its own mask, on distinct sets
        for mask, sub in K.subgroups.items():
            assert isinstance(sub, NormalSubgroup) and sub.parent is K
            assert sub.mask == mask
        assert len({sub.elements for sub in K.subgroups.values()}) == len(
            K.subgroups
        )
        known = K.subgroups.keys() | {1}  # the trivial one is registered on use
        # one commutator entry per unordered pair, keyed (min, max)
        assert len(K.commutators) <= len(known) ** 2
        for a, b in K.commutators:
            assert {a, b} <= known and a <= b
        # a table is keyed by its splits and n >= 1 masks
        for key in K.tables:
            assert key[0] in splits and key[1:] and set(key[1:]) <= known
        for memo in K.memos[1:]:
            assert set(memo.values()) <= known


def _used_carrier():
    """A weak reference to a registered carrier that ran 20 trials' checks,
    and its subgroups and memos."""
    G = random_instance(0, n=3).group
    assert G.degree <= 10 and finite._CARRIERS[G.elements] is G
    for seed in range(20):
        A, B, C = random_normal_triple(G, seed)
        verify_fat_equals_symmetric(G, (A, B, C))
        verify_first_slot_restriction(G, (A, B, C))
        verify_product_rule(A, B, C)
        verify_hall(A, B, C)
        verify_connectivity(G, (A, B, C), I=(1, 2), J=(3,))
    # its subgroups point back to it, a cycle that eviction must break
    assert G.subgroups and all(sub.parent is G for sub in G.subgroups.values())
    assert G.closures and G.commutators and G.tables
    return weakref.ref(G), G.memos


def test_an_evicted_carrier_is_freed_without_the_garbage_collector(monkeypatch):
    # a carrier's subgroups point back to it, and eviction clears them and
    # the memos (see the module docstring), so eviction alone frees a carrier
    # at once; with the collector off, a subgroup left would keep it alive
    monkeypatch.setattr(finite, "CARRIER_ELEMENTS", 0)  # the slot rule alone
    gc.disable()
    try:
        for recognised in (False, True):
            finite._CARRIERS.clear()
            carrier, memos = _used_carrier()
            assert carrier() is not None and memos[0]
            degrees = iter(range(11, 11 + 2 * finite.CARRIER_SLOTS))  # past 10
            if recognised:
                # one-shot carriers evict each other, never a recognised one...
                _recognised(carrier())
                for d in itertools.islice(degrees, finite.CARRIER_SLOTS):
                    _cycle(d)
                assert carrier() is not None and memos[0]
            # ...which goes once as many recognised carriers come after it
            for d in itertools.islice(degrees, finite.CARRIER_SLOTS):
                shot = _cycle(d)
                if recognised:
                    _recognised(shot)
            assert carrier() is None and not any(memos)
    finally:
        gc.enable()


def test_a_hand_built_group_is_freed_by_the_cyclic_collector():
    a, b = from_cycles(4, (1, 2)), from_cycles(4, (1, 2, 3, 4))
    H = PermGroup(4, closure([a, b]).elements, (a, b))
    A, B = normal_closure(H, [a]), normal_closure(H, [from_cycles(4, (1, 2), (3, 4))])
    commutator_subgroup(A, B)
    assert product_subgroup(A, B) is product_subgroup(B, A)
    symmetric_commutator(H, [A, B])
    # its subgroups point back to it, a cycle only the collector breaks
    assert H.subgroups and all(sub.parent is H for sub in H.subgroups.values())
    assert H.closures and H.commutators and H.tables
    group = weakref.ref(H)
    del H, A, B
    gc.collect()
    assert group() is None


def _tables(G, Rs):
    """Each table memoised on G for one trial: symmetric, first-slot
    restricted and fat, and the intersections of R_1, R_2 and of every R_i."""
    return (
        symmetric_commutator(G, Rs),
        restricted_symmetric_commutator(G, Rs),
        fat_commutator(G, Rs).subgroup,
        intersection_of(G, Rs[:2]),
        intersection_of(G, Rs),
    )


# seeds whose tables are proper subgroups and some of whose intersections are
# built, not an input returned (rare on random carriers: 3 of seeds 0-299 at
# n = 3 and default caps): S_4, D_4 and S_3 x S_3, and orders 8 to 1152
TABLE_CASES = {"tiny_caps": (4, 24), "default_caps": (10, 2000)}
TABLE_SEEDS = {
    "tiny_caps": (0, 25, 45),
    "hand_built": (0, 3, 6),
    "default_caps": (17, 24, 44, 152),
}


def _table_case(make, n, seed):
    if make == "hand_built":  # S_3 x S_3, richer in normal subgroups than S_n
        gens = [from_cycles(6, c) for c in [(1, 2), (1, 2, 3), (4, 5), (4, 5, 6)]]
        G = PermGroup(6, closure(gens).elements, tuple(gens))
        rng = random.Random(seed)
        pool = G.sorted_elements
        return G, [
            normal_closure(G, [rng.choice(pool) for _ in range(rng.randint(1, 2))])
            for _ in range(n)
        ]
    degree_cap, order_cap = TABLE_CASES[make]
    inst = random_instance(seed, n=n, degree_cap=degree_cap, order_cap=order_cap)
    return inst.group, list(inst.subgroups)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("make", ["tiny_caps", "hand_built", "default_caps"])
def test_memoised_tables_equal_cold_tables_and_the_oracles(make, n):
    # a table is memoised by its inputs' masks, and an intersection is the
    # subgroup under the AND of theirs: a repeated call, or one with other
    # subgroup objects on the same element sets, returns the stored subgroup;
    # a rebuild from cold memos and one from the warm closure, product and
    # commutator memos give the same sets
    built = 0
    for seed in TABLE_SEEDS[make]:
        G, Rs = _table_case(make, n, seed)
        for memo in G.memos:
            memo.clear()
        cold = _tables(G, Rs)
        masks = [R.mask for R in Rs]
        splits = (finite._last_slots, finite._first_slot_splits, finite._fat_splits)
        assert set(G.tables) == {(f, *masks) for f in splits}
        assert cold[3].mask == masks[0] & masks[1]
        assert cold[4].mask == functools.reduce(int.__and__, masks)
        assert all(x is y for x, y in zip(_tables(G, Rs), cold))
        others = [NormalSubgroup(G, R.elements, R.gens[::-1]) for R in Rs]
        assert all(x is y for x, y in zip(_tables(G, others), cold))
        G.tables.clear()
        warm = _tables(G, Rs)
        assert [x.elements for x in warm] == [x.elements for x in cold]
        assert all(x.parent is G for x in warm)
        sym, restricted, fat, meet_two, meet = cold
        built += all(meet is not R for R in Rs)
        sets = [tuples(R.elements) for R in Rs]
        assert tuples(meet_two.elements) == sets[0] & sets[1]
        assert tuples(meet.elements) == set.intersection(*sets)
        # fat = symmetric is the theorem under test; the bracket oracles
        # check fat itself (test_fat_commutator_matches_tuple_enumeration_oracle)
        assert fat.elements == sym.elements
        if make == "default_caps":  # too large for the element-level oracles
            assert sym.elements == ordered_walk(G, Rs).elements
            walk = ordered_walk(G, Rs, first_slot_only=True)
            assert restricted.elements == walk.elements
        else:
            assert tuples(sym.elements) == oracle_symmetric(sets)
            assert tuples(restricted.elements) == oracle_symmetric(
                sets, first_slot_only=True
            )
    assert built


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
    # [A, B] = [B, A] is stored once, under (min, max) of the masks, and
    # either order reads that one entry
    inst = random_instance(9, n=2, degree_cap=6, order_cap=300)
    G, (A, B) = inst.group, inst.subgroups
    assert A.order == 4 and B.order == 24
    G.commutators.clear()
    ab = commutator_subgroup(A, B)
    key = (min(A.mask, B.mask), max(A.mask, B.mask))
    assert G.commutators == {key: ab.mask}
    assert commutator_subgroup(B, A) is ab and len(G.commutators) == 1


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

    # the pair count is checked before any commutator is computed: no entry
    # is added to the commutator memo; each carrier starts with empty memos,
    # so no earlier test's table or commutator is a hit
    for n, pairs in [(2, 1), (3, 6), (4, 25), (5, 90)]:
        finite._CARRIERS.clear()
        inst = random_instance(300 + n, n=n)
        G = inst.group
        for memo in G.memos:
            memo.clear()
        with pytest.raises(BudgetExceeded, match=f"n = {n} needs {pairs} "):
            fat_commutator(G, inst.subgroups, budget=pairs - 1)
        # a budget that is not an int >= 0 is a setting error, not a
        # BudgetExceeded that would read as an undecided trial; the verifier
        # passes it on
        for bad in (2.5, True, False, -1, "100", None):
            with pytest.raises(ValueError, match="budget must be an int >= 0"):
                fat_commutator(G, inst.subgroups, budget=bad)
            with pytest.raises(ValueError, match="budget must be an int >= 0"):
                verify_fat_equals_symmetric(G, inst.subgroups, None, bad)
        assert not G.commutators and not G.tables, n
        out = fat_commutator(G, inst.subgroups, budget=pairs)
        assert out.evaluations == pairs and G.commutators, n
        # the table is memoised: a repeated call computes no commutator
        computed = dict(G.commutators)
        again = fat_commutator(G, inst.subgroups, budget=pairs)
        assert again.subgroup is out.subgroup and G.commutators == computed, n


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
    # bool is an int subclass, and a set would merge True with a real 1
    for I, J in (((1, True, 2), (3,)), ((1, 2), (True,)), ((1, 2), (3.0,))):
        with pytest.raises(ValueError):
            verify_connectivity(G, [R, R, R], I=I, J=J)


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
    # R1 < R2, so the product is R2 itself, read off the masks
    assert prod is R2 and product_subgroup(R2, R1) is prod
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
    # Y X grows to the mask of X Y, whose registered subgroup it returns
    prod = product_subgroup(X, Y)
    assert prod.order == 4 and product_subgroup(Y, X) is prod


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
    with pytest.raises(ValueError):
        random_instance(0, n=True)


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


# SHA-256 of json.dumps(results, sort_keys=True) of verify-finite reports,
# keyed by the run's arguments: every order and verdict of each trial, so a
# rebuild of how finite makes its subgroups is checked against the same
# results and not only against the carrier stream above.
FROZEN_VERIFY_FINITE_RESULTS = {
    "--trials 200 --n 3 --seed 7":
        "09195316dc4a7170e62de5af544ff709e7e299a4f9f6162c037f801319698630",
    "--trials 40 --n 5 --seed 3":
        "463ec5e9df6d8c05e3f5da2812abf2f1392cd3265a1f77543f97a8019bd40f1d",
    "--trials 100 --n 4 --degree-cap 12 --order-cap 20000":
        "3e340d100f94bd716aff4796334f89b6892047ed8eb908f25015b36df7380a29",
}


@pytest.mark.parametrize("args", list(FROZEN_VERIFY_FINITE_RESULTS))
def test_verify_finite_results_are_frozen(args, tmp_path):
    run = CliRunner().invoke(
        main, ["verify-finite", *args.split(), "--out", str(tmp_path)]
    )
    assert run.exit_code == 0, run.output
    results = json.loads(run.stdout)["results"]
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode())
    assert digest.hexdigest() == FROZEN_VERIFY_FINITE_RESULTS[args]
