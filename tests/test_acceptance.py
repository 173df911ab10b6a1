"""Acceptance gate: one test per advertised guarantee, one printed line each.

Run with plain pytest; the `criterion N: PASS/FAIL` lines bypass capture so
they always show. Criteria 1 and 2 intentionally share the same 200 seeded
instances; everything else draws its own seeds. Criterion 9 repeats both
subgroup checks at n = 4 and n = 5.
"""

import random
import time

import pytest

from commlab import finite
from commlab.braids import (
    Braid,
    artin_action,
    gen_a,
    gen_a0,
    gen_t,
    is_brunnian,
    is_trivial,
    sample_brun_generators,
)
from commlab.homotopy import pi2_check, pi3_certificate
from commlab.magnus import TruncatedSeries, expand
from commlab.sampling import random_reduced_word
from commlab.words import Word


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
        assert ok, f"criterion {num}: {detail}"

    return _announce


@pytest.fixture(scope="module")
def shared_instances():
    """200 seeded instances (n alternating 2, 3) with both subgroup checks."""
    t0 = time.perf_counter()
    fat_reports = []
    restriction_reports = []
    for i in range(200):
        inst = finite.random_instance(
            1000 + i, n=2 + (i % 2), degree_cap=10, order_cap=2000
        )
        cache = finite.SubgroupCache()
        fat_reports.append(
            finite.verify_fat_equals_symmetric(
                inst.group,
                inst.subgroups,
                budget=finite.DEFAULT_FAT_BUDGET,
                cache=cache,
            )
        )
        restriction_reports.append(
            finite.verify_first_slot_restriction(inst.group, inst.subgroups, cache)
        )
    return fat_reports, restriction_reports, time.perf_counter() - t0


def test_criterion_1_fat_equals_symmetric(shared_instances, announce):
    fat_reports, _, elapsed = shared_instances
    good = sum(r.passed for r in fat_reports)
    ok = good == 200 and elapsed <= 300
    announce(1, ok, f"fat=symmetric {good}/200, {elapsed:.1f}s")


def test_criterion_2_first_slot_restriction(shared_instances, announce):
    _, restriction_reports, _ = shared_instances
    good = sum(r.passed for r in restriction_reports)
    announce(2, good == 200, f"restricted=symmetric {good}/200")


def test_criterion_3_product_rule_and_hall(announce):
    rule_good = hall_good = 0
    for i in range(500):
        inst = finite.random_instance(3000 + i, n=2, degree_cap=10, order_cap=2000)
        A, B, C = finite.random_normal_triple(inst.group, 3000 + i)
        cache = finite.SubgroupCache()
        rule_good += finite.verify_product_rule(A, B, C, cache).passed
        hall_good += finite.verify_hall(A, B, C, cache).passed
    ok = rule_good == 500 and hall_good == 500
    announce(3, ok, f"product rule {rule_good}/500, Hall {hall_good}/500")


def test_criterion_4_braid_generator_identities(announce):
    closing = all(
        artin_action(form_a) == artin_action(form_b)
        for n in range(1, 7)
        for j in range(1, n + 1)
        for form_a, form_b in [gen_a0(j, n)]
    )
    linking = all(
        artin_action(gen_t(i, n)) == artin_action(gen_a(i, n, n))
        for n in range(2, 8)
        for i in range(1, n)
    )
    relations = True
    for n in range(2, 8):
        for i in range(1, n - 1):
            lhs = Braid.from_letters(n, [i, i + 1, i])
            rhs = Braid.from_letters(n, [i + 1, i, i + 1])
            relations &= artin_action(lhs) == artin_action(rhs)
        for i in range(1, n):
            for j in range(i + 2, n):
                far = Braid.from_letters(n, [i, j, -i, -j])
                relations &= is_trivial(far)
    ok = closing and linking and relations
    announce(
        4,
        ok,
        f"closing forms n<=6: {closing}, linking=A n<=7: {linking}, "
        f"relations n<=7: {relations}",
    )


def test_criterion_5_sampled_braids_are_brunnian(announce):
    t0 = time.perf_counter()
    good = total = 0
    for n in (3, 4, 5):
        for b in sample_brun_generators(n, conj_depth=4, seed=500 + n, count=100):
            total += 1
            good += is_brunnian(b)
    elapsed = time.perf_counter() - t0
    ok = good == total == 300 and elapsed <= 120
    announce(5, ok, f"Brunnian {good}/{total}, {elapsed:.1f}s")


def test_criterion_6_pi2_quotient_is_cyclic(announce):
    report = pi2_check(seed=600, trials=1000)
    ok = report.passed
    announce(
        6,
        ok,
        f"R1 {report.in_r1_passes}/1000, R2 {report.in_r2_passes}/1000, "
        f"trivial commutators {report.commutator_passes}/1000, "
        f"quotient rank {report.quotient_rank}",
    )


def test_criterion_7_pi3_witness_certificate(announce):
    report = pi3_certificate(seed=700, samples=500, conj_depth=4)
    ok = report.passed
    announce(
        7,
        ok,
        f"witness {report.witness_word!r} in intersection: "
        f"{report.witness_in_intersection}, in gamma_3: {report.witness_in_gamma}, "
        f"samples in intersection {report.intersection_passes}/500, "
        f"in gamma_3 {report.gamma_passes}/500",
    )


def test_criterion_8_magnus_laws_and_frozen_expansion(announce):
    rng = random.Random(800)
    law_good = 0
    for _ in range(10_000):
        cutoff = rng.randint(1, 5)
        u = random_reduced_word(rng, 3, rng.randint(0, 6))
        v = random_reduced_word(rng, 3, rng.randint(0, 6))
        homomorphic = expand(u * v, cutoff) == expand(u, cutoff) * expand(v, cutoff)
        inverse = expand(u.inverse(), cutoff) * expand(u, cutoff) == \
            TruncatedSeries.one(cutoff)
        law_good += homomorphic and inverse
    frozen = expand(Word((-1, -2, 1, 2)), 2).terms == {
        (): 1,
        (1, 2): 1,
        (2, 1): -1,
    }
    ok = law_good == 10_000 and frozen
    announce(8, ok, f"laws {law_good}/10000, [x1,x2] = 1 + X1 X2 - X2 X1: {frozen}")


def test_criterion_9_fat_equals_symmetric_for_four_and_five(announce):
    t0 = time.perf_counter()
    cases = [(4000 + i, 4) for i in range(50)] + [(5000 + i, 5) for i in range(10)]
    fat_good = restricted_good = 0
    for seed, n in cases:
        inst = finite.random_instance(seed, n=n, degree_cap=10, order_cap=2000)
        cache = finite.SubgroupCache()
        fat = finite.verify_fat_equals_symmetric(
            inst.group, inst.subgroups, budget=finite.DEFAULT_FAT_BUDGET, cache=cache
        )
        fat_good += fat.passed
        restricted_good += finite.verify_first_slot_restriction(
            inst.group, inst.subgroups, cache
        ).passed
    elapsed = time.perf_counter() - t0
    ok = fat_good == restricted_good == 60
    announce(
        9,
        ok,
        f"n=4,5: fat=symmetric {fat_good}/60, "
        f"restricted=symmetric {restricted_good}/60, {elapsed:.1f}s",
    )
