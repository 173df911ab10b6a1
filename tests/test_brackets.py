import random

import pytest

from commlab.brackets import Leaf, Node, enumerate_brackets
from commlab.words import Word, commutator, left_normed

from _oracles import oracle_reduce


def catalan_count(t):
    """Independent count of full binary trees with t leaves."""
    if t == 1:
        return 1
    return sum(catalan_count(k) * catalan_count(t - k) for k in range(1, t))


def test_enumeration_counts_match_catalan():
    for t in range(1, 8):
        assert len(enumerate_brackets(t)) == catalan_count(t)
    assert [len(enumerate_brackets(t)) for t in range(1, 7)] == [1, 1, 2, 5, 14, 42]


def test_weight_three_shapes_and_order():
    assert enumerate_brackets(3) == [
        Node(Node(Leaf(1), Leaf(2)), Leaf(3)),
        Node(Leaf(1), Node(Leaf(2), Leaf(3))),
    ]


def test_leaf_positions_run_left_to_right():
    def leaves(b):
        if isinstance(b, Leaf):
            return [b.position]
        return leaves(b.left) + leaves(b.right)

    for t in range(1, 7):
        for b in enumerate_brackets(t):
            assert leaves(b) == list(range(1, t + 1))


def test_enumeration_has_no_duplicates():
    for t in range(1, 8):
        shapes = enumerate_brackets(t)
        assert len(set(shapes)) == len(shapes)


def test_invalid_weight_rejected():
    with pytest.raises(ValueError):
        enumerate_brackets(0)


def evaluate_shape(b, args):
    """Reference evaluation of an arrangement: leaf k takes args[k-1]."""
    if isinstance(b, Leaf):
        return args[b.position - 1]
    return commutator(evaluate_shape(b.left, args), evaluate_shape(b.right, args))


def test_evaluate_weight_two_is_the_commutator():
    x1, x2 = Word((1,)), Word((2,))
    (shape,) = enumerate_brackets(2)
    assert evaluate_shape(shape, [x1, x2]) == commutator(x1, x2)
    assert left_normed([x1, x2]) == commutator(x1, x2)


def test_evaluate_weight_three_frozen_expansions():
    # hand expansion with [a, b] = a^-1 b^-1 a b:
    # [[x1,x2],x3] = x2^-1 x1^-1 x2 x1 x3^-1 x1^-1 x2^-1 x1 x2 x3
    # [x1,[x2,x3]] = x1^-1 x3^-1 x2^-1 x3 x2 x1 x2^-1 x3^-1 x2 x3
    x = [Word((i,)) for i in (1, 2, 3)]
    left, right = enumerate_brackets(3)
    assert evaluate_shape(left, x).letters == (-2, -1, 2, 1, -3, -1, -2, 1, 2, 3)
    assert evaluate_shape(right, x).letters == (-1, -3, -2, 3, 2, 1, -2, -3, 2, 3)
    assert left_normed(x) == evaluate_shape(left, x)


def test_left_normed_matches_left_comb_evaluation():
    x1, x2, x3 = (Word((i,)) for i in (1, 2, 3))
    assert left_normed([x1, x2]) == commutator(x1, x2)
    # hand expansion with [a, b] = a^-1 b^-1 a b:
    # [[x1,x2],x3] = x2^-1 x1^-1 x2 x1 x3^-1 x1^-1 x2^-1 x1 x2 x3
    assert left_normed([x1, x2, x3]).letters == (-2, -1, 2, 1, -3, -1, -2, 1, 2, 3)
    rng = random.Random(30)
    for _ in range(50):
        t = rng.randint(2, 5)
        args = [
            Word(oracle_reduce(
                [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(4)]
            ))
            for _ in range(t)
        ]
        # the left comb peels off its last leaf: [comb(a1..ak-1), ak]
        assert left_normed(args) == commutator(left_normed(args[:-1]), args[-1])


def test_left_normed_single_and_empty():
    w = Word((2,))
    assert left_normed([w]) == w
    with pytest.raises(ValueError):
        left_normed([])
