import random

import pytest

from commlab.braids import parse_braid
from commlab.words import (
    ParseError,
    Word,
    _parse_letters,
    commutator,
    render_word,
)

from _oracles import oracle_reduce


def rand_letters(rng, rank=3, length=12):
    return [rng.choice([1, -1]) * rng.randint(1, rank) for _ in range(length)]


def rand_word(rng, rank=3, length=8):
    return Word(oracle_reduce(rand_letters(rng, rank, length)))


def test_word_constructor_rejects_unreduced_and_bad_letters():
    with pytest.raises(ValueError):
        Word((1, -1))
    with pytest.raises(ValueError):
        Word((0,))
    with pytest.raises(ValueError):
        Word((1, 2, -2))


def test_multiplication_cancels_at_the_seam():
    a = Word((1, 2))
    b = Word((-2, -1, 3))
    assert (a * b).letters == (3,)


def test_products_and_inverses_equal_validated_words():
    rng = random.Random(25)
    for _ in range(200):
        a, b = rand_word(rng), rand_word(rng)
        for built in (a * b, a.inverse(), commutator(a, b)):
            checked = Word(built.letters)
            assert built == checked
            assert hash(built) == hash(checked)


def test_group_laws_on_fuzzed_triples():
    rng = random.Random(21)
    for _ in range(300):
        a, b, c = (rand_word(rng) for _ in range(3))
        assert (a * b) * c == a * (b * c)
        assert (a * a.inverse()).is_identity
        assert (a.inverse() * a).is_identity
        assert a * Word.identity() == a


def test_conjugate_convention():
    x1, x2 = Word((1,)), Word((2,))
    assert x1.conjugate(x2).letters == (-2, 1, 2)
    rng = random.Random(22)
    for _ in range(100):
        a, g, h = (rand_word(rng) for _ in range(3))
        assert a.conjugate(g).conjugate(h) == a.conjugate(g * h)


def test_commutator_convention():
    x1, x2 = Word((1,)), Word((2,))
    assert commutator(x1, x2).letters == (-1, -2, 1, 2)
    assert commutator(x1, x1).is_identity
    rng = random.Random(23)
    for _ in range(100):
        a, b = rand_word(rng), rand_word(rng)
        assert commutator(a, b).inverse() == commutator(b, a)
        # [a, b] = a^-1 a^b
        assert commutator(a, b) == a.inverse() * a.conjugate(b)


def test_symbols_and_max_index():
    assert Word((3, -1)).max_index() == 3
    assert Word.identity().max_index() == 0


def test_generator_indices_stop_at_127():
    # a word is signed bytes: +-127 are the extreme letters, and -128 would
    # pack as the byte 128, which is its own negation
    for letters in ((128,), (-128,), (1, 128), (127, -128)):
        with pytest.raises(ValueError, match="128"):
            Word(letters)
    w = Word((127, 1, -127))
    assert w.letters == (127, 1, -127)
    assert Word(w.letters) == w
    assert w.inverse().letters == (127, -1, -127)
    assert w.max_index() == 127
    assert Word((-127,)).max_index() == 127
    assert tuple(_parse_letters(render_word(w), "x")) == w.letters
    assert (w * w.inverse()).is_identity


def test_parse_render_round_trip():
    # render_word writes the token grammar that _parse_letters reads
    rng = random.Random(24)
    for _ in range(200):
        w = rand_word(rng, rank=5, length=10)
        assert tuple(_parse_letters(render_word(w), "x")) == w.letters
    assert render_word(Word((2, -1))) == "x2 x1^-1"
    assert render_word(Word.identity()) == ""
    assert _parse_letters("   ", "x") == []


def test_parse_rejects_bad_tokens():
    # parse_braid is the public reader of the token grammar in this module
    for text, pos in [
        ("s0", 1),
        ("s1 s0", 2),
        ("s01", 1),
        ("x1", 1),
        ("s1^1", 1),
        ("s1 ^-1", 2),
        ("s-1", 1),
        ("s1^-2", 1),
        ("s", 1),
        ("s1 s2 s1,", 3),
    ]:
        with pytest.raises(ParseError) as err:
            parse_braid(text, 4)
        assert err.value.position == pos
