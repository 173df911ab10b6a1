import itertools
import random

import pytest

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
