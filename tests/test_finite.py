import itertools
import random

import pytest

from commlab.brackets import Leaf, enumerate_brackets
from commlab.finite import (
    BudgetExceeded,
    CapExceeded,
    NormalSubgroup,
    PermGroup,
    Permutation,
    SubgroupCache,
    closure,
    commutator_subgroup,
    fat_commutator,
    generating_set,
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
    oracle_closure,
    oracle_commutator_subgroup,
    oracle_fat,
    oracle_normal_closure,
    oracle_symmetric,
    ordered_walk,
)


def tuples(elements):
    return {tuple(p) for p in elements}


def s3():
    return closure([Permutation.from_cycles(3, (1, 2)), Permutation.from_cycles(3, (1, 2, 3))])


def s4():
    return closure([Permutation.from_cycles(4, (1, 2)), Permutation.from_cycles(4, (1, 2, 3, 4))])


# ---------------------------------------------------------------------------
# Permutation basics


def test_permutation_constructors_and_composition():
    p = Permutation.from_cycles(3, (1, 2))
    q = Permutation.from_cycles(3, (2, 3))
    assert p.images() == (2, 1, 3)
    assert Permutation.from_images([2, 1, 3]) == p
    # left-to-right: (p * q)(1) = q(p(1))
    assert (p * q).images() == (3, 1, 2)
    assert (p * p).is_identity
    assert p.inverse() == p
    r = Permutation.from_cycles(3, (1, 2, 3))
    assert (r * r.inverse()).is_identity
    assert r.cycle_string() == "(1 2 3)"
    assert Permutation.identity(3).cycle_string() == "()"


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation.from_images([1, 1, 3])
    with pytest.raises(ValueError):
        Permutation.identity(0)


def test_conjugation_convention():
    rng = random.Random(60)
    G = s4()
    pool = [Permutation(p) for p in sorted(G.elements)]
    for _ in range(50):
        p, g = rng.choice(pool), rng.choice(pool)
        assert p.conjugate(g) == g.inverse() * p * g


# ---------------------------------------------------------------------------
# closure / normal closure


def test_closure_examples():
    cyc = closure([Permutation.from_cycles(3, (1, 2, 3))])
    assert cyc.order == 3
    assert closure([], degree=3).order == 1
    assert s3().order == 6
    assert tuples(s3().elements) == oracle_closure(
        [(1, 0, 2), (1, 2, 0)], 3
    )


def test_closure_cap_and_degree_checks():
    with pytest.raises(CapExceeded):
        closure(
            [Permutation.from_cycles(5, (1, 2)), Permutation.from_cycles(5, (1, 2, 3, 4, 5))],
            cap=10,
        )
    with pytest.raises(ValueError):
        closure([])
    with pytest.raises(ValueError):
        closure([Permutation.identity(2), Permutation.identity(3)])


def test_closure_is_independent_of_generator_order():
    rng = random.Random(61)
    gens = [
        Permutation.from_cycles(4, (1, 2)),
        Permutation.from_cycles(4, (1, 2, 3, 4)),
        Permutation.from_cycles(4, (3, 4)),
    ]
    reference = closure(gens).elements
    for _ in range(10):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert closure(shuffled).elements == reference


def test_normal_closure_examples():
    G = s3()
    a3 = normal_closure(G, [Permutation.from_cycles(3, (1, 2, 3))])
    assert a3.order == 3
    assert tuples(a3.elements) == {(0, 1, 2), (1, 2, 0), (2, 0, 1)}
    assert tuples(a3.elements) == oracle_normal_closure(
        tuples(G.elements), [(1, 2, 0)]
    )
    assert normal_closure(G, [G.identity]).is_trivial
    assert normal_closure(G, list(G.gens)).elements == G.elements
    # seeds must come from the ambient group itself
    outsider = Permutation.from_cycles(4, (1, 2, 3))
    sub = closure([Permutation.from_cycles(4, (1, 2))], degree=4)
    with pytest.raises(ValueError):
        normal_closure(PermGroup(4, sub.elements, sub.gens), [outsider])


def test_normal_closure_is_conjugation_stable_on_random_instances():
    for seed in range(6):
        inst = random_instance(seed, n=2, degree_cap=6, order_cap=200)
        for R in inst.subgroups:
            assert R.is_normal_in_parent()


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
    assert commutator_subgroup(R, triv).is_trivial
    abelian = closure([Permutation.from_cycles(4, (1, 2, 3, 4))])
    A = normal_closure(abelian, list(abelian.gens))
    assert commutator_subgroup(A, A).is_trivial


def test_commutator_subgroup_matches_element_level_oracle():
    for seed in range(25):
        inst = random_instance(seed, n=2, degree_cap=5, order_cap=60)
        A, B = inst.subgroups
        fast = commutator_subgroup(A, B)
        brute = oracle_commutator_subgroup(tuples(A.elements), tuples(B.elements))
        assert tuples(fast.elements) == brute


def test_commutator_subgroup_cache_symmetry():
    inst = random_instance(3, n=2, degree_cap=6, order_cap=300)
    A, B = inst.subgroups
    cache = SubgroupCache()
    ab = commutator_subgroup(A, B, cache)
    ba = commutator_subgroup(B, A, cache)
    assert ab is ba


def test_mismatched_parents_rejected():
    a = random_instance(1, n=1, degree_cap=5, order_cap=100)
    b = random_instance(2, n=1, degree_cap=6, order_cap=100)
    with pytest.raises(ValueError):
        commutator_subgroup(a.subgroups[0], b.subgroups[0])


# ---------------------------------------------------------------------------
# symmetric / fat


def test_symmetric_commutator_examples():
    inst = random_instance(7, n=1, degree_cap=6, order_cap=300)
    assert symmetric_commutator(inst.group, inst.subgroups) is inst.subgroups[0]

    abelian = closure([Permutation.from_cycles(5, (1, 2, 3, 4, 5))])
    R = normal_closure(abelian, list(abelian.gens))
    assert symmetric_commutator(abelian, [R, R]).is_trivial

    G = s4()
    R1 = normal_closure(G, [Permutation.from_cycles(4, (1, 2))])
    R2 = normal_closure(G, [Permutation.from_cycles(4, (1, 2, 3))])
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
    assert fat.rounds >= 1

    abelian = closure([Permutation.from_cycles(5, (1, 2, 3, 4, 5))])
    R = normal_closure(abelian, list(abelian.gens))
    out = fat_commutator(abelian, [R, R])
    assert out.subgroup.is_trivial
    # R1, R2 and the trivial subgroup on masks {1}, {2}, {1, 2}: 15 pairs
    assert (out.evaluations, out.rounds) == (15, 2)


def test_fat_commutator_counters_are_frozen():
    # evaluations = E(E + 1) / 2 over the E distinct (mask, subgroup) entries
    for seed, n, expected in [(7, 3, (136, 3)), (4001, 4, (946, 4))]:
        inst = random_instance(seed, n=n)
        out = fat_commutator(inst.group, inst.subgroups)
        assert (out.evaluations, out.rounds) == expected, seed


def test_fat_commutator_matches_tuple_enumeration_oracle():
    for seed in (0, 2, 5, 8):
        inst = random_instance(seed, n=2, degree_cap=4, order_cap=16)
        out = fat_commutator(inst.group, inst.subgroups)
        brute = oracle_fat([tuples(R.elements) for R in inst.subgroups], 3)
        assert tuples(out.subgroup.elements) == brute


def tree_walk_fat(G, Rs, weight_cap):
    """Reference fat computation: every surjective assignment x bracket tree.

    The subgroup of one (assignment, arrangement) pair is its iterated
    commutator subgroup; the fat subgroup is the product over all pairs of
    weight n..weight_cap.
    """
    n = len(Rs)
    cache = SubgroupCache()
    Rs = [cache.intern(R) for R in Rs]

    def value(b, assignment):
        if isinstance(b, Leaf):
            return Rs[assignment[b.position - 1]]
        left = value(b.left, assignment)
        right = value(b.right, assignment)
        return commutator_subgroup(left, right, cache)

    total = NormalSubgroup.trivial(G)
    for t in range(n, weight_cap + 1):
        for assignment in itertools.product(range(n), repeat=t):
            if len(set(assignment)) != n:
                continue
            for arrangement in enumerate_brackets(t):
                sub = value(arrangement, assignment)
                if not sub.elements <= total.elements:
                    total = product_subgroup(total, sub)
    return total


def test_fat_commutator_matches_tree_walk():
    cases = [(1000 + i, 2 + i % 2) for i in range(30)] + [(9, 1)]
    for seed, n in cases:
        inst = random_instance(seed, n=n, degree_cap=10, order_cap=2000)
        out = fat_commutator(inst.group, inst.subgroups)
        # weight n already gives every bracket value the saturation reaches
        for cap in sorted({n, n + 1, 2 * n}):
            sub = tree_walk_fat(inst.group, inst.subgroups, cap)
            assert out.subgroup.elements == sub.elements, (seed, cap)


def test_fat_commutator_budget_guard():
    inst = random_instance(11, n=3, degree_cap=6, order_cap=300)
    with pytest.raises(BudgetExceeded):
        fat_commutator(inst.group, inst.subgroups, budget=100)


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
    R1 = normal_closure(G, [Permutation.from_cycles(4, (1, 2), (3, 4))])
    R2 = normal_closure(G, [Permutation.from_cycles(4, (1, 2, 3))])
    prod = product_subgroup(R1, R2)
    assert R1.elements <= prod.elements and R2.elements <= prod.elements
    assert prod.order * intersection_of(G, [R1, R2]).order == R1.order * R2.order
    assert intersection_of(G, [R1, R1]).elements == R1.elements


def test_generating_set_reproduces_subgroups():
    for seed in range(10):
        inst = random_instance(seed + 80, n=1, degree_cap=7, order_cap=500)
        R = inst.subgroups[0]
        gens = generating_set(inst.group, R.elements)
        assert closure(gens, degree=inst.group.degree).elements == R.elements
        assert len(gens) <= max(1, R.order.bit_length())


def test_random_instance_is_deterministic():
    a = random_instance(123, n=2)
    b = random_instance(123, n=2)
    assert a.group.elements == b.group.elements
    assert [R.elements for R in a.subgroups] == [R.elements for R in b.subgroups]
    assert a.group.order <= 2000 and a.group.degree <= 10
