import itertools
import random

import pytest

from commlab.braids import sample_brun_generators
from commlab.finite import random_instance
from commlab.homotopy import Partition, pi2_check, pi3_certificate
from commlab.magnus import gamma_membership
from commlab.sampling import SubgroupSpec, random_reduced_word, symmetric_generators
from commlab.words import Word, left_normed


def single_letter_specs(n):
    return [
        SubgroupSpec((Word((i,)),), label=f"R{i}") for i in range(1, n + 1)
    ]


def take(stream, k):
    return list(itertools.islice(stream, k))


def test_spec_requires_generators():
    with pytest.raises(ValueError):
        SubgroupSpec(())


def test_single_subgroup_depth_zero_is_the_constant_stream():
    (spec,) = single_letter_specs(1)
    out = take(symmetric_generators([spec], conj_depth=0, seed=5), 10)
    assert out == [Word((1,))] * 10


def test_streams_are_deterministic_given_seed():
    specs = single_letter_specs(3)
    a = take(symmetric_generators(specs, conj_depth=3, seed=11), 30)
    b = take(symmetric_generators(specs, conj_depth=3, seed=11), 30)
    c = take(symmetric_generators(specs, conj_depth=3, seed=12), 30)
    assert a == b
    assert a != c


def test_symmetric_stream_is_frozen():
    # the pi_2/pi_3 certificates read this stream: the order of the draws
    # from random.Random(seed) is part of the contract
    out = take(symmetric_generators(single_letter_specs(3), conj_depth=2, seed=11), 5)
    assert [w.letters for w in out] == [
        (-1, 3, 1, -3, -1, -2, 1, 3, -1, -3, 2, 1),
        (-1, -3, -2, 3, 1, -3, -1, -3, 2, 3, 1, -3, -2, 3, 2, 3),
        (-2, -3, 2, 2, -1, -2, -2, 3, 2, -3, 2, 1, -2, 3),
        (
            -1, -2, -2, -3, 2, 2, 1, -2, -2, 3, 2, 2, -1, -1, -2, 1,
            1, -2, -2, -3, 2, 2, -1, -2, -2, 3, 2, 2, -1, 2, 1, 1,
        ),
        (
            1, 2, -3, -2, -1, -3, -1, 3, 1, 2, 3, -2, -1, -3, 1, 3, -2,
            -3, -1, 3, 1, 2, -3, -2, -1, -3, 1, 3, 1, 2, 3, -2, -1, 2,
        ),
    ]


def test_count_argument_bounds_the_stream():
    specs = single_letter_specs(2)
    assert len(list(symmetric_generators(specs, 0, 1, count=7))) == 7


def test_symmetric_depth_zero_hits_both_orderings():
    specs = single_letter_specs(2)
    x1, x2 = Word((1,)), Word((2,))
    seen = set(take(symmetric_generators(specs, conj_depth=0, seed=3), 40))
    expected = {left_normed([x1, x2]), left_normed([x2, x1])}
    assert seen == expected


def test_emitted_words_lie_in_gamma_n():
    for n in (1, 2, 3):
        specs = single_letter_specs(n)
        for w in take(symmetric_generators(specs, conj_depth=2, seed=n), 25):
            assert gamma_membership(w, n)


def test_empty_subgroup_list_rejected():
    with pytest.raises(ValueError):
        take(symmetric_generators([], 0, 0), 1)
    with pytest.raises(ValueError):
        take(symmetric_generators(single_letter_specs(2), -1, 0), 1)


def test_counts_reject_bool_and_negative_values():
    # bool is an int subclass: count=True would yield one word
    specs = single_letter_specs(2)
    for depth in (True, False, -1):
        with pytest.raises(ValueError, match="conj_depth"):
            take(symmetric_generators(specs, depth, 0), 1)
    for count in (True, False, -1):
        with pytest.raises(ValueError, match="count"):
            take(symmetric_generators(specs, 0, 0, count=count), 1)
    assert len(list(symmetric_generators(specs, 0, 0, count=1))) == 1
    assert len(take(symmetric_generators(specs, 0, 0), 3)) == 3


def test_random_reduced_word_is_reduced_and_sized():
    rng = random.Random(50)
    for _ in range(200):
        length = rng.randint(0, 12)
        w = random_reduced_word(rng, rank=3, length=length)
        assert len(w.letters) == length
        assert Word(w.letters) == w  # the validating constructor accepts it
    assert random_reduced_word(rng, 0, 5).is_identity
    with pytest.raises(ValueError):
        random_reduced_word(rng, -1, 2)


def test_random_reduced_word_takes_a_rank_of_at_most_127():
    rng = random.Random(51)
    w = random_reduced_word(rng, 127, 400)
    assert w.max_index() == 127 and Word(w.letters) == w
    for rank in (128, 300):
        with pytest.raises(ValueError, match=str(rank)):
            random_reduced_word(rng, rank, 3)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda: random_reduced_word(random.Random(0), 2, 2.5), id="length 2.5"),
        pytest.param(lambda: random_reduced_word(random.Random(0), 2.0, 2), id="rank 2.0"),
        pytest.param(lambda: random_reduced_word(random.Random(0), True, 2), id="rank True"),
        pytest.param(lambda: random_reduced_word(random.Random(0), 2, True), id="length True"),
        pytest.param(lambda: pi2_check(0, 2.5), id="pi2_check trials 2.5"),
        pytest.param(lambda: pi3_certificate(0, 2.5), id="pi3_certificate samples 2.5"),
        pytest.param(lambda: pi3_certificate(0, 2, 1.5), id="pi3_certificate depth 1.5"),
        pytest.param(
            lambda: take(symmetric_generators(single_letter_specs(2), 1.5, 0), 1),
            id="symmetric_generators depth 1.5",
        ),
        pytest.param(
            lambda: take(symmetric_generators(single_letter_specs(2), 1, 0, 2.5), 1),
            id="symmetric_generators count 2.5",
        ),
        pytest.param(lambda: next(sample_brun_generators(2.5, 1, 0, 1)), id="brun n 2.5"),
        pytest.param(lambda: next(sample_brun_generators(3, 1.5, 0, 1)), id="brun depth 1.5"),
        pytest.param(lambda: next(sample_brun_generators(3, 1, 0, 1.5)), id="brun count 1.5"),
        pytest.param(lambda: random_instance(0, 2, order_cap=100.5), id="order_cap 100.5"),
        pytest.param(lambda: random_instance(0, 2, degree_cap=5.5), id="degree_cap 5.5"),
        pytest.param(
            lambda: Partition(True, (frozenset({1}),)), id="Partition(True, ...)"
        ),
    ],
)
def test_counts_lengths_and_depths_must_be_ints(call):
    # a float count drew a rounded-up number of samples and reported a false
    # FAIL, or raised TypeError deep inside; a bool passed as 0 or 1
    with pytest.raises(ValueError, match="True|1.5|2.0|2.5|5.5|100.5"):
        call()
