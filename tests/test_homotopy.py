import random

import pytest

from commlab import homotopy, sampling
from commlab.homotopy import (
    Partition,
    Pi2Report,
    Pi3Report,
    SpherePresentation,
    in_block_closure,
    in_intersection,
    one_relator_membership,
    pi2_check,
    pi3_certificate,
)
from commlab.magnus import gamma_membership
from commlab.sampling import SubgroupSpec, random_reduced_word, symmetric_generators
from commlab.words import Word, commutator

from _oracles import oracle_reduce


def oracle_member(m, w, killed):
    """Independent decision for the sphere case.

    Same quotient, different route: erase the killed letters, then rewrite
    the LAST surviving generator (the engine picks the first) as the inverse
    of the product of the others and reduce. Both must agree.
    """
    killed = frozenset(killed)
    survivors = [k for k in range(1, m + 1) if k not in killed]
    image = [c for c in w.letters if abs(c) not in killed]
    if not survivors:
        return not oracle_reduce(image)
    e = survivors[-1]
    others = survivors[:-1]
    # s_1 ... s_j e = 1 in the quotient, so e = s_j^-1 ... s_1^-1
    repl = [-k for k in reversed(others)]
    repl_inv = list(others)
    out = []
    for c in image:
        out.extend(repl if c == e else repl_inv if c == -e else [c])
    return not oracle_reduce(out)


def rand_sphere_word(rng, m, length=14):
    return random_reduced_word(rng, m - 1, rng.randint(0, length))


# ---------------------------------------------------------------------------
# the presentation


def test_sphere_group_rank_and_validation():
    pres = SpherePresentation(3)
    assert pres.m == 3
    assert pres.rank == 2
    assert SpherePresentation(2).rank == 1
    with pytest.raises(ValueError):
        SpherePresentation(1)


def test_sphere_group_takes_at_most_127_generators():
    # words are signed bytes, so x_127 is the last generator a word can hold
    assert SpherePresentation(127).rank == 126
    for m in (128, 1000):
        with pytest.raises(ValueError, match=str(m)):
            SpherePresentation(m)


@pytest.mark.parametrize("m", [2.5, 3.0, True, "3"])
def test_sphere_group_takes_only_an_int_rank(m):
    # a float m would pass here and make one_relator_membership raise TypeError
    with pytest.raises(ValueError, match=repr(m)):
        SpherePresentation(m)


# ---------------------------------------------------------------------------
# membership


def test_membership_hand_examples():
    pres = SpherePresentation(3)
    comm = commutator(Word((1,)), Word((2,)))
    # killing x3 leaves <x1,x2 | x1 x2>, where x2 = x1^-1 and commutators die
    assert one_relator_membership(pres, comm, {3}) is True
    assert one_relator_membership(pres, comm, {1}) is True
    assert one_relator_membership(pres, comm, {2}) is True
    assert one_relator_membership(pres, Word((1,)), {3}) is False
    assert one_relator_membership(pres, Word((1,)), {2}) is False
    assert one_relator_membership(pres, Word((1, 2)), {3}) is True
    assert one_relator_membership(pres, Word((1,)), {1}) is True
    assert one_relator_membership(pres, Word((1,)).conjugate(Word((2,))), {1}) is True
    assert one_relator_membership(pres, Word.identity(), {2}) is True


def test_membership_validation():
    pres = SpherePresentation(3)
    with pytest.raises(ValueError):
        one_relator_membership(pres, Word((1,)), {0})
    with pytest.raises(ValueError):
        one_relator_membership(pres, Word((1,)), {4})
    with pytest.raises(ValueError):
        one_relator_membership(pres, Word((4,)), {1})
    # bool is an int subclass: True would kill x_1, even beside a real 1
    for killed in ([True], [1, True]):
        with pytest.raises(ValueError):
            one_relator_membership(pres, Word((1,)), killed)


def test_membership_matches_independent_elimination_on_fuzz():
    rng = random.Random(50)
    for _ in range(400):
        m = rng.randint(2, 5)
        pres = SpherePresentation(m)
        block = set(rng.sample(range(1, m + 1), rng.randint(1, m)))
        w = random_reduced_word(rng, m, rng.randint(0, 14))
        assert one_relator_membership(pres, w, block) == oracle_member(m, w, block)


def test_membership_matches_the_oracle_at_127_generators():
    # the last generator a word can hold, on words dense in the first
    # survivor and its inverse, which the engine rewrites by two byte
    # replacements; the oracle erases and substitutes the last survivor
    rng = random.Random(56)
    m = 127
    pres = SpherePresentation(m)
    relator = Word(tuple(range(1, m + 1)))
    verdicts = []
    for _ in range(300):
        killed = set(rng.sample(range(1, m + 1), rng.choice([0, 1, 5, 60, 120, 126])))
        survivors = [k for k in range(1, m + 1) if k not in killed]
        first = survivors[0]
        pool = [first, -first, first, -first, rng.choice(survivors), m, -m]
        pool += [rng.choice(sorted(killed))] if killed else []
        w = Word(oracle_reduce(
            rng.choice(pool) * rng.choice([1, -1]) for _ in range(rng.randint(0, 40))
        ))
        if rng.random() < 0.5:
            # plant a member: conjugates of the relator and of killed letters
            for _ in range(rng.randint(1, 3)):
                base = relator if not killed or rng.random() < 0.5 else Word(
                    (rng.choice(sorted(killed)),)
                )
                w = w * base.conjugate(Word(oracle_reduce(
                    rng.choice(pool) for _ in range(rng.randint(0, 6))
                )))
            w = w * Word(oracle_reduce(
                rng.choice(pool) for _ in range(rng.randint(0, 2))
            ))
        got = one_relator_membership(pres, w, killed)
        assert got == oracle_member(m, w, killed)
        verdicts.append(got)
    assert 30 <= sum(verdicts) <= 270


def test_planted_members_match_the_oracle_through_the_substitution():
    # random words almost never reach the closure through the Tietze
    # substitution once three or more generators survive, so plant members:
    # products of conjugates of killed generators and of (x_1...x_m)^+-1
    rng = random.Random(55)
    substituted = 0
    for _ in range(600):
        m = rng.randint(2, 8)
        pres = SpherePresentation(m)
        block = set(rng.sample(range(1, m + 1), rng.randint(1, m - 1)))
        relator = Word(tuple(range(1, m + 1)))
        w = Word.identity()
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                base = Word((rng.choice(sorted(block)),))
            else:
                base = relator
            base = base if rng.random() < 0.5 else base.inverse()
            w = w * base.conjugate(random_reduced_word(rng, m, rng.randint(0, 5)))
        assert one_relator_membership(pres, w, block) is True
        assert oracle_member(m, w, block) is True
        # with k survivors the quotient is free of rank k - 1, so a surviving
        # generator is trivial there exactly when k = 1
        survivor = rng.choice([k for k in range(1, m + 1) if k not in block])
        outside = w * Word((survivor,))
        expected = m - len(block) == 1
        assert oracle_member(m, outside, block) is expected
        assert one_relator_membership(pres, outside, block) is expected
        image = oracle_reduce(c for c in w.letters if abs(c) not in block)
        substituted += bool(image)
    assert substituted >= 100


def test_membership_is_conjugation_invariant_and_multiplicative():
    rng = random.Random(51)
    pres = SpherePresentation(4)
    block = {2, 4}
    members = [Word((2,)), Word((4,)).conjugate(Word((1, 3)))]
    for _ in range(200):
        w = random_reduced_word(rng, 4, rng.randint(0, 10))
        g = random_reduced_word(rng, 4, rng.randint(0, 6))
        flag = one_relator_membership(pres, w, block)
        assert one_relator_membership(pres, w.conjugate(g), block) == flag
        if flag:
            members.append(w)
    u = rng.choice(members)
    v = rng.choice(members)
    assert one_relator_membership(pres, u * v, block) is True
    assert one_relator_membership(pres, u.inverse(), block) is True


def test_membership_is_monotone_in_the_block():
    rng = random.Random(52)
    pres = SpherePresentation(4)
    for _ in range(200):
        small = set(rng.sample(range(1, 5), rng.randint(1, 3)))
        big = small | {rng.randint(1, 4)}
        w = random_reduced_word(rng, 4, rng.randint(0, 10))
        if one_relator_membership(pres, w, small):
            assert one_relator_membership(pres, w, big) is True


def test_members_have_balanced_exponent_sums():
    # the closure abelianises onto multiples of the all-ones vector over
    # the surviving generators, a cheap necessary condition
    rng = random.Random(53)
    pres = SpherePresentation(4)
    for _ in range(300):
        block = set(rng.sample(range(1, 5), rng.randint(1, 3)))
        w = random_reduced_word(rng, 4, rng.randint(0, 12))
        if one_relator_membership(pres, w, block):
            survivors = [k for k in range(1, 5) if k not in block]
            sums = {
                sum(1 if c == k else -1 if c == -k else 0 for c in w.letters)
                for k in survivors
            }
            assert len(sums) == 1


# ---------------------------------------------------------------------------
# block closures


def test_block_closure_spec_behaviour():
    pres = SpherePresentation(3)
    comm = commutator(Word((1,)), Word((2,)))
    assert in_block_closure(pres, comm, {1})
    assert in_block_closure(pres, comm, {2})
    assert in_block_closure(pres, comm, {3})
    assert not in_block_closure(pres, Word((1,)), {3})
    with pytest.raises(ValueError):
        in_block_closure(pres, Word((1,)), set())
    with pytest.raises(ValueError):
        in_block_closure(pres, Word((3,)), {1})  # not in eliminated form


def test_block_closure_agrees_with_eliminated_membership():
    rng = random.Random(54)
    pres = SpherePresentation(4)
    for _ in range(200):
        w = rand_sphere_word(rng, 4)
        block = set(rng.sample(range(1, 5), rng.randint(1, 4)))
        assert in_block_closure(pres, w, block) == oracle_member(4, w, block)


def test_partition_validation():
    part = Partition.singletons(3)
    assert len(part.blocks) == 3
    assert part.blocks[0] == frozenset({1})
    with pytest.raises(ValueError):
        Partition(3, (frozenset({1, 2}),))  # misses 3
    with pytest.raises(ValueError):
        Partition(3, (frozenset({1, 2}), frozenset({2, 3})))  # overlap
    with pytest.raises(ValueError):
        Partition(2, (frozenset(), frozenset({1, 2})))
    # a block must be a set of ints: a list block raised TypeError at "&"
    for blocks in (
        ([1], [2]),
        ((1,), (2,)),
        (frozenset({1}), [2]),
        (frozenset({True}), frozenset({2})),
        (frozenset({1.0}), frozenset({2})),
        ("12",),
    ):
        with pytest.raises(ValueError, match="partition block"):
            Partition(2, blocks)
    assert Partition(2, ({1}, frozenset({2}))).blocks[0] == {1}


def test_intersection_checks_every_block():
    pres = SpherePresentation(3)
    part = Partition.singletons(3)
    assert in_intersection(pres, commutator(Word((1,)), Word((2,))), part)
    assert not in_intersection(pres, Word((1,)), part)
    with pytest.raises(ValueError):
        in_intersection(pres, Word((1,)), Partition.singletons(4))


# ---------------------------------------------------------------------------
# certificates


def test_pi2_report_passes_and_is_deterministic():
    rep = pi2_check(seed=60, trials=150)
    assert isinstance(rep, Pi2Report)
    assert rep.passed
    assert rep.quotient_rank == 1
    assert rep.in_r1_passes == rep.in_r2_passes == 150
    assert pi2_check(seed=60, trials=150) == rep
    assert pi2_check(seed=61, trials=0).passed
    with pytest.raises(ValueError):
        pi2_check(seed=0, trials=-1)
    with pytest.raises(ValueError, match="True"):
        pi2_check(seed=0, trials=True)
    for depth in (True, -1):
        with pytest.raises(ValueError, match=f"conj_depth.*{depth}"):
            pi2_check(seed=0, trials=3, conj_depth=depth)


def test_pi3_certificate_passes_and_freezes_the_witness():
    rep = pi3_certificate(seed=62, samples=60)
    assert isinstance(rep, Pi3Report)
    assert rep.passed
    assert rep.witness_word == "x1^-1 x2^-1 x1 x2"
    assert rep.witness_in_intersection
    assert not rep.witness_in_gamma
    assert (rep.m, rep.n, rep.gamma_level) == (3, 3, 3)
    assert rep.partition == ((1,), (2,), (3,))
    assert rep.intersection_passes == rep.gamma_passes == 60
    assert pi3_certificate(seed=62, samples=60) == rep
    assert pi3_certificate(seed=63, samples=0).passed
    with pytest.raises(ValueError):
        pi3_certificate(seed=0, samples=-1)
    with pytest.raises(ValueError, match="True"):
        pi3_certificate(seed=0, samples=True)
    for depth in (True, -1):
        with pytest.raises(ValueError, match=f"conj_depth.*{depth}"):
            pi3_certificate(seed=0, samples=3, conj_depth=depth)


@pytest.mark.parametrize("depth", [True, -1])
def test_a_bad_conj_depth_is_rejected_before_any_trial_is_drawn(depth, monkeypatch):
    def draw(*args):
        raise AssertionError("a trial was drawn before conj_depth was checked")

    monkeypatch.setattr(homotopy, "random_reduced_word", draw)
    monkeypatch.setattr(sampling, "random_reduced_word", draw)
    message = f"conj_depth must be an int >= 0, got {depth!r}"
    with pytest.raises(ValueError, match=message):
        pi2_check(seed=0, trials=20000, conj_depth=depth)
    with pytest.raises(ValueError, match=message):
        pi3_certificate(seed=0, samples=20000, conj_depth=depth)


def test_sampled_symmetric_generators_land_in_intersection_and_gamma():
    pres = SpherePresentation(3)
    part = Partition.singletons(3)
    specs = (
        SubgroupSpec((Word((1,)),), "R1"),
        SubgroupSpec((Word((2,)),), "R2"),
        SubgroupSpec((Word((-2, -1)),), "R3"),
    )
    for g in symmetric_generators(specs, conj_depth=3, seed=64, count=40):
        assert in_intersection(pres, g, part)
        assert gamma_membership(g, 3)
