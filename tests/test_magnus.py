import random

import pytest

from commlab.magnus import TruncatedSeries, expand, gamma_membership
from commlab.sampling import random_reduced_word
from commlab.words import Word, commutator, conjugate, left_normed

from _oracles import oracle_expand, oracle_reduce, oracle_series_product


def rand_word(rng, rank=3, length=8):
    return Word(oracle_reduce(
        [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(length)]
    ))


def test_expansion_of_a_generator():
    s = expand(Word((1,)), 3)
    assert s.terms == {(): 1, (1,): 1}


def test_expansion_of_an_inverse_is_the_alternating_series():
    s = expand(Word((1,)).inverse(), 3)
    assert s.terms == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}


def test_commutator_expansion_frozen():
    s = expand(Word((-1, -2, 1, 2)), 2)
    assert s.terms == {(): 1, (1, 2): 1, (2, 1): -1}


def test_identity_expands_to_one():
    s = expand(Word.identity(), 4)
    assert s == TruncatedSeries.one(4)
    assert s.terms == {(): 1}


def test_expansion_matches_the_series_product_oracle():
    # Ranks 1-4, up to 40 letters and cutoffs 0-6; every fourth word is a
    # long commutator, whose low-degree terms cancel to zero on the way.
    rng = random.Random(44)
    for i in range(3000):
        rank, cutoff = rng.randint(1, 4), rng.randint(0, 6)
        if i % 4:
            w = random_reduced_word(rng, rank, rng.randint(0, 40))
        else:
            args = [
                random_reduced_word(rng, rank, rng.randint(1, 6)) for _ in range(3)
            ]
            w = left_normed(args)
        terms = expand(w, cutoff).terms
        # the oracle drops zero terms, so equality also rules out stored zeros
        assert type(terms) is dict
        assert terms == oracle_expand(w.letters, cutoff)


def test_expansion_is_a_homomorphism():
    rng = random.Random(40)
    for _ in range(200):
        cutoff = rng.randint(0, 4)
        u, v = rand_word(rng), rand_word(rng)
        assert expand(u * v, cutoff) == expand(u, cutoff) * expand(v, cutoff)


def test_inverses_expand_to_series_inverses():
    rng = random.Random(41)
    one = TruncatedSeries.one
    for _ in range(200):
        cutoff = rng.randint(0, 4)
        w = rand_word(rng)
        assert expand(w, cutoff) * expand(w.inverse(), cutoff) == one(cutoff)


def test_series_multiplication_respects_cutoff():
    a = expand(Word((1, 2)), 2)
    b = expand(Word((2, 1)), 3)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        TruncatedSeries(2, {(1, 1, 1): 1})
    with pytest.raises(ValueError):
        TruncatedSeries(-1, {})
    with pytest.raises(ValueError):
        TruncatedSeries(2, {(1,): 0})
    # bool is an int subclass: True would pass as the coefficient 1
    for coeff in (1.5, True, False, 2.0, "1", None):
        with pytest.raises(ValueError, match=r"coefficient .* of monomial \(1,\)"):
            TruncatedSeries(2, {(1,): coeff})


def rand_series(rng, cutoff):
    """Up to 12 random terms, nonzero coefficients of either sign, ranks 1-3.

    The top degree is drawn below the cutoff too, so some factors have no
    high-degree terms at all.
    """
    rank, top = rng.randint(1, 3), rng.randint(0, cutoff)
    terms = {}
    for _ in range(rng.randint(0, 12)):
        mono = tuple(rng.randint(1, rank) for _ in range(rng.randint(0, top)))
        terms[mono] = rng.choice([-3, -2, -1, 1, 2, 3])
    return TruncatedSeries(cutoff, terms)


def test_series_product_matches_the_all_pairs_oracle():
    rng = random.Random(45)
    pairs = []
    for _ in range(2000):
        cutoff = rng.randint(0, 6)
        pairs.append((rand_series(rng, cutoff), rand_series(rng, cutoff)))
    for _ in range(300):
        # products that cancel down to the constant term
        cutoff = rng.randint(0, 6)
        w = random_reduced_word(rng, rng.randint(1, 3), rng.randint(0, 8))
        a, b = expand(w, cutoff), expand(w.inverse(), cutoff)
        assert a * b == TruncatedSeries.one(cutoff)
        pairs.append((a, b))
    for a, b in pairs:
        terms = (a * b).terms
        assert type(terms) is dict
        assert 0 not in terms.values()
        assert terms == oracle_series_product(a.terms, b.terms, a.cutoff)


@pytest.mark.parametrize(
    "cutoff, terms",
    [
        (2, {"ab": 1}),
        (2, {(0,): 1}),
        (2, {(-1,): 1}),
        (2, {(1.5,): 1}),
        (2.5, {(): 1}),
        (2, {(True,): 1}),
        (True, {(): 1}),
    ],
    ids=["str", "zero", "negative", "float", "float_cutoff", "bool", "bool_cutoff"],
)
def test_series_rejects_what_it_cannot_multiply(cutoff, terms):
    with pytest.raises(ValueError):
        TruncatedSeries(cutoff, terms)


def test_expand_rejects_a_non_int_cutoff():
    with pytest.raises(ValueError):
        expand(Word((1,)), 2.5)
    with pytest.raises(ValueError):
        expand(Word((1,)), True)


def test_series_products_equal_validated_series():
    rng = random.Random(33)
    for _ in range(100):
        cutoff = rng.randint(0, 4)
        product = expand(rand_word(rng), cutoff) * expand(rand_word(rng), cutoff)
        assert product == TruncatedSeries(cutoff, dict(product.terms))


def test_gamma_membership_basics():
    x1, x2 = Word((1,)), Word((2,))
    assert gamma_membership(x1, 1)
    assert not gamma_membership(x1, 2)
    c = commutator(x1, x2)
    assert gamma_membership(c, 2)
    assert not gamma_membership(c, 3)
    assert gamma_membership(Word.identity(), 7)
    with pytest.raises(ValueError):
        gamma_membership(x1, 0)
    with pytest.raises(ValueError):
        gamma_membership(x1, True)


def test_left_normed_commutators_lie_in_gamma_k():
    rng = random.Random(42)
    for _ in range(60):
        k = rng.randint(1, 4)
        args = [rand_word(rng, rank=2, length=4) for _ in range(k)]
        assert gamma_membership(left_normed(args), k)


def test_gamma_membership_is_conjugation_invariant():
    rng = random.Random(43)
    for _ in range(60):
        w = commutator(rand_word(rng), rand_word(rng))
        g = rand_word(rng)
        for k in (1, 2, 3):
            assert gamma_membership(w, k) == gamma_membership(conjugate(w, g), k)


def test_expansion_of_a_square_has_coefficient_two():
    # x1^2 at cutoff 2: 1 + 2*X1 + X1 X1
    s = expand(Word((1, 1)), 2)
    assert s.terms == {(): 1, (1,): 2, (1, 1): 1}
