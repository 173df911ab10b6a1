import hashlib
import random

import pytest

from commlab import braids, kernels
from commlab.braids import (
    Braid,
    artin_action,
    delete_strand,
    delete_strands,
    dump_corpus,
    gen_a,
    gen_a0,
    gen_t,
    is_brunnian,
    is_pure,
    is_trivial,
    parse_braid,
    render_braid,
    sample_brun_generators,
)
from commlab.words import ParseError, Word, commutator

from _oracles import (
    oracle_artin_images,
    oracle_delete_strand,
    oracle_follow_strand,
    oracle_is_pure,
    oracle_reduce,
)


def rand_braid(rng, strands, length=12):
    letters = [
        rng.choice([1, -1]) * rng.randint(1, strands - 1)
        for _ in range(rng.randint(0, length))
    ]
    return Braid.from_letters(strands, letters)


def rand_pure_braid(rng, strands, factors=4):
    """Random product of A_{i,j} generators and inverses: always pure."""
    b = Braid.identity(strands)
    for _ in range(rng.randint(0, factors)):
        i = rng.randint(1, strands - 1)
        j = rng.randint(i + 1, strands)
        g = gen_a(i, j, strands)
        b = b * (g if rng.choice([1, -1]) == 1 else g.inverse())
    return b


def substituted(images, word):
    """Whole-word substitution oracle: replace each letter by its image."""
    out = Word.identity()
    for c in word.letters:
        img = images[abs(c) - 1]
        out = out * (img if c > 0 else img.inverse())
    return out


# ---------------------------------------------------------------------------
# braid words


def test_braid_constructor_reduces_and_validates():
    assert Braid.from_letters(3, [1, -1]).letters == ()
    assert Braid.from_letters(3, [1, 2, -2]).letters == (1,)
    with pytest.raises(ValueError):
        Braid(3, (1, -1))  # not freely reduced
    with pytest.raises(ValueError):
        Braid(3, (3,))  # only sigma_1, sigma_2 exist on 3 strands
    with pytest.raises(ValueError):
        Braid.from_letters(3, [3])  # reducing does not skip the range check
    with pytest.raises(ValueError):
        Braid(1, (1,))
    with pytest.raises(ValueError):
        Braid(0, ())
    with pytest.raises(ValueError, match="True"):
        Braid(True)  # bool is an int subclass: True would pass as one strand
    # letters are signed bytes, so generator indices stop at 127
    assert Braid(128, (127, 1, -127)).letters == (127, 1, -127)
    for build in (
        lambda: Braid(129, (1,)),
        lambda: Braid.identity(129),
        lambda: Braid.from_letters(129, [128, -128]),
        lambda: parse_braid("s1 s128", 129),
    ):
        with pytest.raises(ValueError, match="at most 128 strands"):
            build()


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: Braid(3.5, (1,)), id="Braid(3.5, (1,))"),
        pytest.param(lambda: Braid(3.0), id="Braid(3.0)"),
        pytest.param(lambda: Braid.identity(4.0), id="Braid.identity(4.0)"),
        pytest.param(lambda: Braid.from_letters(3.0, [1]), id="from_letters(3.0, [1])"),
        pytest.param(lambda: gen_a(1, 2, 3.0), id="gen_a(1, 2, 3.0)"),
        pytest.param(lambda: gen_a(1.0, 2, 3), id="gen_a(1.0, 2, 3)"),
        pytest.param(lambda: gen_a(True, 2, 3), id="gen_a(True, 2, 3)"),
        pytest.param(lambda: gen_t(True, 3), id="gen_t(True, 3)"),
        pytest.param(lambda: gen_t(1, 3.0), id="gen_t(1, 3.0)"),
        pytest.param(lambda: gen_a0(True, 3), id="gen_a0(True, 3)"),
        pytest.param(lambda: gen_a0(1, 3.0), id="gen_a0(1, 3.0)"),
        pytest.param(lambda: delete_strand(Braid(3), True), id="delete_strand(True)"),
        pytest.param(lambda: delete_strand(Braid(3), 1.0), id="delete_strand(1.0)"),
    ],
)
def test_strand_counts_and_indices_must_be_ints(build):
    # a float count would build a braid whose deletions raise TypeError, and
    # a bool would pass as the index 1
    with pytest.raises(ValueError, match="True|1.0|3.0|3.5|4.0"):
        build()


def test_braid_algebra():
    a = Braid(4, (1,))
    b = Braid(4, (-2,))
    assert (a * b).letters == (1, -2)
    assert (a * a.inverse()).letters == ()
    assert (a * a * a).letters == (1, 1, 1)
    assert a.inverse() * a.inverse() == Braid(4, (-1, -1))
    assert a.conjugate(b).letters == (2, 1, -2)
    assert len(a * b) == 2
    with pytest.raises(ValueError):
        a * Braid(3, (1,))


def test_kernel_built_braids_equal_validated_ones():
    rng = random.Random(60)
    for _ in range(100):
        strands = rng.randint(2, 6)
        a = rand_braid(rng, strands)
        b = rand_braid(rng, strands)
        j = rng.randint(1, strands)
        built_by_kernels = (
            a * b, a.inverse(), commutator(a, b), delete_strand(a, j)
        )
        for built in built_by_kernels:
            checked = Braid(built.strands, built.letters)
            assert built == checked
            assert hash(built) == hash(checked)
            assert len(built) == len(built.letters)


def _reduced_letters(rng, strands, length, low=1):
    """A reduced word of exactly length letters, with indices from low up."""
    out = []
    while len(out) < length:
        c = rng.choice([1, -1]) * rng.randint(low, strands - 1)
        if not out or c != -out[-1]:
            out.append(c)
    return out


def _flip(letters):
    """The inverse of a letter tuple: reversed, signs flipped."""
    return tuple(-c for c in reversed(letters))


def test_signed_byte_words_match_the_tuple_oracle():
    # products whose seam cancels every length from none to all of either
    # factor, on 2 to 128 strands; letters reach +-127 on 128 strands
    rng = random.Random(80)
    seams = set()
    extremes = set()
    for case in range(240):
        strands = 128 if case % 4 == 0 else rng.randint(2, 128)
        low = 100 if strands == 128 else 1
        w = _reduced_letters(rng, strands, rng.randint(1, 24), low)
        for k in range(len(w) + 1):
            # b undoes the last k letters of w, then goes on with t
            undo = list(_flip(w[len(w) - k:]))
            t = _reduced_letters(rng, strands, rng.choice([0, 1, 5]), low)
            a = Braid(strands, w)
            b = Braid.from_letters(strands, undo + t)
            product = a * b
            assert product.letters == oracle_reduce(a.letters + b.letters)
            seams.add((len(a) + len(b) - len(product)) // 2)
            for built in (
                product,
                b * a,
                a.inverse(),
                a.conjugate(b),
                commutator(a, b),
                a * a.inverse(),
            ):
                assert built.strands == strands
                checked = Braid(strands, built.letters)
                assert built == checked and hash(built) == hash(checked)
                assert len(built) == len(built.letters)
                extremes.update(c for c in built.letters if abs(c) == 127)
            x, y = a.letters, b.letters
            assert a.inverse().letters == _flip(x)
            assert a.conjugate(b).letters == oracle_reduce(_flip(y) + x + y)
            assert commutator(a, b).letters == oracle_reduce(
                _flip(x) + _flip(y) + x + y
            )
            assert a * a.inverse() == Braid.identity(strands)
            assert kernels.strand_deletions(strands, product.word) == (
                kernels.strand_deletions(strands, product.letters)
            )
    assert seams >= set(range(25))
    assert extremes == {127, -127}


def test_braid_and_word_reject_bool_letters():
    # bool is an int subclass, so True would pass as the letter 1
    with pytest.raises(ValueError, match="True"):
        Braid(3, (True,))
    with pytest.raises(ValueError, match="False"):
        Braid(3, (1, False))
    with pytest.raises(ValueError, match="True"):
        Braid.from_letters(3, [True])
    with pytest.raises(ValueError, match="True"):
        Word((True,))
    with pytest.raises(ValueError, match="False"):
        Word((2, False))
    # nor does a braid pass as a word, or a word as a braid, in a product
    with pytest.raises(TypeError):
        Word((1,)) * Braid(3, [1])
    with pytest.raises(TypeError):
        Braid(3, [1]) * Word((1,))


def test_parse_and_render_round_trip():
    rng = random.Random(40)
    for _ in range(200):
        b = rand_braid(rng, rng.randint(2, 5))
        assert parse_braid(render_braid(b), b.strands) == b
    assert render_braid(Braid.identity(3)) == ""
    assert parse_braid("", 3) == Braid.identity(3)
    assert parse_braid(" s1  s2^-1 ", 3).letters == (1, -2)


def test_parse_rejects_out_of_range_generators():
    with pytest.raises(ParseError) as exc:
        parse_braid("s1 s3", 3)
    assert "out of range" in str(exc.value)
    with pytest.raises(ParseError):
        parse_braid("x1", 3)


# ---------------------------------------------------------------------------
# Artin action


def test_action_of_single_generators_is_the_standard_one():
    assert artin_action(Braid(3, (1,))) == (
        Word((1, 2, -1)),
        Word((1,)),
        Word((3,)),
    )
    assert artin_action(Braid(3, (-1,))) == (
        Word((2,)),
        Word((-2, 1, 2)),
        Word((3,)),
    )
    assert artin_action(Braid.identity(3)) == (Word((1,)), Word((2,)), Word((3,)))


def test_action_matches_whole_word_substitution_oracle():
    # a acts first, so the image of x_k under a*b is act(b) substituted
    # letter by letter into the image of x_k under a
    rng = random.Random(42)
    for _ in range(100):
        strands = rng.randint(2, 5)
        a = rand_braid(rng, strands, length=8)
        b = rand_braid(rng, strands, length=8)
        images_b = artin_action(b)
        combined = artin_action(a * b)
        for k, img in enumerate(artin_action(a)):
            assert substituted(images_b, img) == combined[k]


def test_trivial_detects_relators():
    # braid relations: both defining relation types act trivially
    comm = Braid.from_letters(4, [1, 3, -1, -3])
    assert is_trivial(comm)
    yb = Braid.from_letters(3, [1, 2, 1, -2, -1, -2])
    assert is_trivial(yb)
    assert not is_trivial(Braid(3, (1,)))
    assert not is_trivial(Braid.from_letters(3, [1, 1]))


def test_braid_relations_act_equally_up_to_seven_strands():
    for strands in range(2, 8):
        for i in range(1, strands - 1):
            lhs = Braid.from_letters(strands, [i, i + 1, i])
            rhs = Braid.from_letters(strands, [i + 1, i, i + 1])
            assert artin_action(lhs) == artin_action(rhs)
        for i in range(1, strands):
            for j in range(i + 2, strands):
                assert is_trivial(Braid.from_letters(strands, [i, j, -i, -j]))


def test_equality_by_is_trivial_matches_the_artin_action():
    # a = b iff a * b^-1 is trivial, the test braid-tools runs. A third of
    # the pairs splice the two sides of a braid relation (or of its inverse)
    # into one random word; a third drop a letter of one side, which moves
    # the exponent sum, so they differ; a third are two random words.
    rng = random.Random(64)
    seen = {True: 0, False: 0}
    for case in range(450):
        strands = rng.randint(3, 8)
        if case % 3 == 2:
            a, b = rand_braid(rng, strands), rand_braid(rng, strands)
        else:
            i = rng.randint(1, strands - 2)
            far = [j for j in range(1, strands) if abs(i - j) >= 2]
            if far and rng.random() < 0.5:
                j = rng.choice(far)
                lhs, rhs = [i, j], [j, i]
            else:
                lhs, rhs = [i, i + 1, i], [i + 1, i, i + 1]
            if rng.random() < 0.5:
                lhs, rhs = [-c for c in lhs[::-1]], [-c for c in rhs[::-1]]
            if case % 3 == 1:
                del rhs[rng.randrange(len(rhs))]
            w = list(rand_braid(rng, strands).letters)
            p = rng.randint(0, len(w))
            a = Braid.from_letters(strands, w[:p] + lhs + w[p:])
            b = Braid.from_letters(strands, w[:p] + rhs + w[p:])
        same = artin_action(a) == artin_action(b)
        assert is_trivial(a * b.inverse()) == same
        assert same == (case % 3 == 0) or case % 3 == 2
        seen[same] += 1
    assert min(seen.values()) >= 100


# ---------------------------------------------------------------------------
# permutations, purity, strand deletion


def test_pure_braids_are_not_necessarily_trivial():
    sq = Braid.from_letters(2, [1, 1])
    assert is_pure(sq)
    assert not is_trivial(sq)
    assert not is_pure(Braid(2, (1,)))


def test_is_pure_matches_arrangement_oracle():
    # a third of the braids are products of A_{i,j}, pure by construction;
    # a third are random words; a third are pure braids times one crossing,
    # whose strand permutation is a transposition
    rng = random.Random(63)
    seen = {True: 0, False: 0}
    for case in range(600):
        strands = rng.randint(2, 8)
        if case % 3 == 1:
            b = rand_braid(rng, strands, length=200)
        else:
            # A_{i,j} has at most 2 * strands - 2 letters, so 14 factors of
            # at most 14 letters each stay under 200
            b = rand_pure_braid(rng, strands, factors=14)
            if case % 3 == 2:
                b = b * Braid(strands, (rng.randint(1, strands - 1),))
        assert len(b) <= 200
        expected = oracle_is_pure(strands, b.letters)
        assert is_pure(b) is expected
        seen[expected] += 1
    assert seen[True] >= 200
    assert seen[False] >= 200
    # a braid on one strand has no crossings, and no strand deletions to read
    one = Braid.identity(1)
    assert is_pure(one) is oracle_is_pure(1, one.letters) is True


def test_delete_strand_examples():
    # deleting strand 2 from sigma_1^2 on 2 strands leaves nothing
    assert delete_strand(Braid.from_letters(2, [1, 1]), 2) == Braid.identity(1)
    # sigma_1^2 on 3 strands: strand 3 never crosses, so deleting it keeps
    # the crossing while deleting strand 1 removes it
    b = Braid.from_letters(3, [1, 1])
    assert delete_strand(b, 3) == Braid.from_letters(2, [1, 1])
    assert delete_strand(b, 1) == Braid.identity(2)
    with pytest.raises(ValueError):
        delete_strand(b, 4)
    with pytest.raises(ValueError):
        delete_strand(Braid.identity(1), 1)


def test_deleting_either_linked_strand_trivialises_the_linking_generator():
    for n in range(2, 6):
        for i in range(1, n):
            assert is_trivial(delete_strand(gen_t(i, n), n))
            assert is_trivial(delete_strand(gen_t(i, n), i))


def test_delete_strand_is_a_homomorphism_on_pure_braids():
    rng = random.Random(44)
    for _ in range(120):
        strands = rng.randint(2, 5)
        a = rand_pure_braid(rng, strands)
        b = rand_pure_braid(rng, strands)
        j = rng.randint(1, strands)
        lhs = delete_strand(a * b, j)
        rhs = delete_strand(a, j) * delete_strand(b, j)
        assert artin_action(lhs) == artin_action(rhs)


def _fuzzed_braids(rng, strands):
    """Random, pure, commutator and conjugate braids on the given strands.

    Commutators and conjugates put inverse letters on both sides of the
    crossings of a strand, so their deletions cancel across dropped crossings.
    """
    a = rand_braid(rng, strands)
    b = rand_braid(rng, strands)
    u = rand_braid(rng, strands, length=6)
    index = rng.randint(1, strands - 1)
    sigma = Braid(strands, (rng.choice([1, -1]) * index,))
    return [
        a,
        rand_pure_braid(rng, strands),
        commutator(a, b),
        sigma.conjugate(u),
        rand_pure_braid(rng, strands).conjugate(u),
    ]


def test_delete_strand_matches_oracle_at_every_strand():
    rng = random.Random(61)
    pure = cancelled = 0
    for _ in range(150):
        strands = rng.randint(2, 8)
        for b in _fuzzed_braids(rng, strands):
            pure += is_pure(b)
            for j in range(1, strands + 1):
                got = delete_strand(b, j)
                assert got.strands == strands - 1
                follow = oracle_follow_strand(strands, b.letters, j)
                expected = oracle_reduce(follow)
                assert got.letters == expected
                cancelled += expected != tuple(follow)
    # the fuzz covers pure braids and cancellation across dropped crossings
    assert pure > 200
    assert cancelled > 500


def _forget(b):
    """The same braid, knowing no strand deletions."""
    return Braid(b.strands, b.letters)


def _know(b):
    """The same braid, knowing its strand deletions."""
    b = _forget(b)
    delete_strands(b)
    return b


def _derived_braids(rng, strands):
    """Products, inverses, conjugates and commutators of random pure and
    non-pure braids, with the deletions known on neither factor, on one, or
    on both; yields each with whether it should carry them."""
    factors = [
        rand_braid(rng, strands, length=20),
        rand_pure_braid(rng, strands, factors=6),
        rand_braid(rng, strands, length=6),
    ]
    a, b = rng.sample(factors, 2)
    for known_a, known_b in ((0, 0), (1, 0), (0, 1), (1, 1)):
        x = _know(a) if known_a else _forget(a)
        y = _know(b) if known_b else _forget(b)
        # an inverse knows what its braid knows, and a product knows once a
        # factor does; the other factor then gets its own from the kernel
        yield x.inverse(), bool(known_a)
        either = bool(known_a or known_b)
        yield x * y, either
        yield y * x, either
        yield x.conjugate(y), either
        yield commutator(x, y), either
        yield commutator(x * y, x.inverse()).conjugate(y * y), either
        yield x * x.inverse(), either


def _kernel_deletions(strands, letters):
    """Every strand's deletion by the kernel, as a tuple of ints."""
    _, words = kernels.strand_deletions(strands, letters)
    return [kernels.unpack_signed(w) for w in words]


def test_carried_deletions_match_the_kernel_and_the_oracle():
    rng = random.Random(70)
    carried = cancelled = 0
    for _ in range(200):
        strands = rng.randint(2, 8)
        for b, knows in _derived_braids(rng, strands):
            assert (b._deletions is not None) is knows
            carried += knows
            got = [d.letters for d in delete_strands(b)]
            assert got == _kernel_deletions(strands, b.letters)
            for j, word in enumerate(got, start=1):
                follow = oracle_follow_strand(strands, b.letters, j)
                assert word == oracle_delete_strand(strands, b.letters, j)
                cancelled += len(word) < len(follow)
            assert is_pure(b) is (b._deletions[0] == bytes(range(strands)))
    # 20 of the 28 braids per round carry their deletions
    assert carried == 200 * 20
    assert cancelled > 3000


def test_carried_deletions_on_128_strands():
    # generator indices up to 127, whose inverses are the signed byte -127
    rng = random.Random(71)

    def far_braid():
        letters = [
            rng.choice([1, -1]) * rng.randint(100, 127) for _ in range(150)
        ]
        return Braid.from_letters(128, letters)

    a, b = _know(far_braid()), far_braid()
    for product in (a * b, commutator(a, b) * gen_a(1, 128, 128)):
        assert product._deletions is not None
        got = [d.letters for d in delete_strands(product)]
        assert got == _kernel_deletions(128, product.letters)
        assert max(abs(c) for word in got for c in word) == 126


def test_known_deletions_are_not_part_of_the_value():
    rng = random.Random(72)
    samples = list(sample_brun_generators(5, 3, seed=73, count=4))
    fuzzed = [rand_braid(rng, 5, length=30) for _ in range(4)]
    for b in samples + fuzzed:
        plain, known = _forget(b), _know(b)
        assert plain._deletions is None and known._deletions is not None
        for other in (b, known):
            assert other == plain
            assert hash(other) == hash(plain)
            assert repr(other) == repr(plain)
        assert dump_corpus([b, known], 5, 73) == dump_corpus([plain, plain], 5, 73)
    assert all(b._deletions is not None for b in samples)
    assert dump_corpus(samples, 5, 73) == dump_corpus(
        [_forget(b) for b in samples], 5, 73
    )


def test_the_deletion_kernel_runs_once_per_braid(monkeypatch):
    calls = []
    real = kernels.strand_deletions

    def counted(strands, letters):
        calls.append(strands)
        return real(strands, letters)

    monkeypatch.setattr(kernels, "strand_deletions", counted)
    b = rand_braid(random.Random(74), 7, length=40)
    for j in range(1, 8):
        delete_strand(b, j)
    delete_strands(b)
    is_brunnian(b)
    assert calls == [7]
    # a sampler asks once for each of its t_i and A_{i,j}; their inverses,
    # its samples, and their products with braids that know their
    # deletions, carry their own
    calls.clear()
    stream = sample_brun_generators(6, 3, seed=75, count=5)
    first = next(stream)
    assert calls == [6] * (5 + 15)
    control = gen_a0(2, 6)[0]  # pure, not Brunnian, built knowing none
    for b in (first, *stream):
        assert is_brunnian(b)
        assert not is_brunnian(b * control)
        delete_strand(b.inverse(), 3)
    assert len(calls) == 20 + 1


def _oracle_is_brunnian(b):
    if not oracle_is_pure(b.strands, b.letters):
        return False
    n = b.strands - 1
    identity = [(k,) for k in range(1, n + 1)]
    return all(
        oracle_artin_images(n, oracle_delete_strand(b.strands, b.letters, j))
        == identity
        for j in range(1, b.strands + 1)
    )


def test_is_brunnian_matches_oracle_on_sampled_braids():
    seen = {True: 0, False: 0}
    for n in range(2, 9):
        for b in sample_brun_generators(n, conj_depth=2, seed=62 + n, count=6):
            for candidate in (b, b * gen_a(1, 2, n)):
                expected = _oracle_is_brunnian(candidate)
                assert is_brunnian(candidate) is expected
                seen[expected] += 1
    # every pure braid on two strands is Brunnian, so only n = 3..8 give
    # the 36 non-Brunnian controls
    assert seen == {True: 48, False: 36}


def test_is_brunnian_matches_oracle_on_fuzzed_braids():
    # Most fuzzed braids are not pure; is_brunnian checks the strand ends of
    # the deletion pass before it looks at any deletion.
    rng = random.Random(63)
    cases = [Braid.identity(1)]
    for strands in range(2, 9):
        for _ in range(20):
            cases += _fuzzed_braids(rng, strands)
    seen = {True: 0, False: 0}
    not_pure = 0
    for b in cases:
        expected = _oracle_is_brunnian(b)
        assert is_brunnian(b) is expected
        seen[expected] += 1
        not_pure += b.strands >= 3 and not oracle_is_pure(b.strands, b.letters)
    # the fuzz covers Brunnian braids, and non-pure ones on 3 or more strands
    assert seen[True] > 100
    assert not_pure > 250


def test_brunnian_check_reaches_the_artin_action(monkeypatch):
    # Deleting any strand of a sampled braid leaves a freely trivial word, so
    # is_trivial never needs the Artin action there. The braid relator
    # s3 s4 s3 s4^-1 s3^-1 s4^-1 is trivial, but free reduction leaves letters
    # in some of its deletions, which only the action shows to be trivial.
    cases = []
    for n in (6, 7, 8):
        relator = parse_braid("s3 s4 s3 s4^-1 s3^-1 s4^-1", n)
        for b in sample_brun_generators(n, conj_depth=2, seed=64 + n, count=2):
            assert not any(delete_strands(b))
            assert is_brunnian(b * relator)
            assert any(delete_strands(b * relator))
            cases.append((b, b * relator))
    real = kernels.artin_images

    def swap_two_images(strands, letters):
        images = real(strands, letters)
        if letters:
            images[0], images[1] = images[1], images[0]
        return images

    monkeypatch.setattr(kernels, "artin_images", swap_two_images)
    for b, with_relator in cases:
        assert is_brunnian(b)
        assert not is_brunnian(with_relator)


@pytest.mark.parametrize("check", [
    delete_strands,
    lambda b: delete_strand(b, 1),
    is_brunnian,
], ids=["delete_strands", "delete_strand", "is_brunnian"])
def test_strand_deletion_takes_at_most_128_strands(check):
    # deleted letters are signed bytes: generator indices stop at 127
    check(Braid(128, (127, 127)))
    with pytest.raises(ValueError, match="128"):
        check(Braid(129, (128, 128)))
    with pytest.raises(ValueError, match="128"):
        check(Braid.identity(129))


# ---------------------------------------------------------------------------
# generator families


def test_standard_generator_words_are_frozen():
    assert render_braid(gen_a(1, 2, 4)) == "s1 s1"
    assert render_braid(gen_a(1, 3, 3)) == "s2 s1 s1 s2^-1"
    assert render_braid(gen_a(2, 4, 4)) == "s3 s2 s2 s3^-1"
    assert render_braid(gen_t(2, 3)) == "s2 s2"
    assert render_braid(gen_t(1, 3)) == "s1^-1 s2 s2 s1"
    with pytest.raises(ValueError):
        gen_a(2, 2, 4)
    with pytest.raises(ValueError):
        gen_t(3, 3)


def test_generators_are_pure():
    rng = random.Random(45)
    for _ in range(60):
        n = rng.randint(2, 6)
        i = rng.randint(1, n - 1)
        j = rng.randint(i + 1, n)
        assert is_pure(gen_a(i, j, n))
        assert is_pure(gen_t(rng.randint(1, n - 1), n))


def test_linking_generator_agrees_with_a_family():
    for n in range(2, 8):
        for i in range(1, n):
            assert artin_action(gen_t(i, n)) == artin_action(gen_a(i, n, n))


def test_closing_generator_forms_agree():
    for n in range(1, 7):
        for j in range(1, n + 1):
            product_form, sigma_form = gen_a0(j, n)
            assert artin_action(product_form) == artin_action(sigma_form)
            assert is_pure(sigma_form)
    # with the closing strand adjoined, the full product collapses
    assert gen_a0(1, 1) == (Braid.identity(1), Braid.identity(1))


def test_closing_generator_extends_the_defining_product():
    # A_{0,j} is the inverse of the ordered product of all other A_{i,j},
    # so appending it to that product gives a trivial braid
    for n in range(2, 6):
        for j in range(1, n + 1):
            total = Braid.identity(n)
            for i in range(1, j):
                total = total * gen_a(i, j, n)
            for k in range(j + 1, n + 1):
                total = total * gen_a(j, k, n)
            assert is_trivial(total * gen_a0(j, n)[0])


# ---------------------------------------------------------------------------
# Brunnian braids


def test_brunnian_examples():
    assert is_brunnian(Braid.from_letters(2, [1, 1]))
    assert not is_brunnian(Braid(2, (1,)))  # not pure
    # A_{1,2} on 3 strands survives deleting strand 3
    assert not is_brunnian(gen_a(1, 2, 3))
    assert is_brunnian(Braid.identity(4))
    assert is_brunnian(Braid.identity(1))


def test_commutator_of_linking_generators_is_brunnian_on_three_strands():
    b = commutator(gen_t(1, 3), gen_t(2, 3))
    assert is_brunnian(b)
    assert not is_trivial(b)


def test_sampled_generators_are_brunnian():
    for n in (3, 4):
        for b in sample_brun_generators(n, conj_depth=2, seed=46, count=15):
            assert b.strands == n
            assert is_brunnian(b)


def test_sampling_is_deterministic_and_validates():
    a = list(sample_brun_generators(4, 3, seed=47, count=6))
    b = list(sample_brun_generators(4, 3, seed=47, count=6))
    assert a == b
    c = list(sample_brun_generators(4, 3, seed=48, count=6))
    assert a != c
    with pytest.raises(ValueError):
        list(sample_brun_generators(1, 2, seed=0, count=1))
    with pytest.raises(ValueError):
        list(sample_brun_generators(3, -1, seed=0, count=1))
    with pytest.raises(ValueError):
        list(sample_brun_generators(3, 2, seed=0, count=-1))
    with pytest.raises(ValueError, match="True"):
        list(sample_brun_generators(3, True, seed=0, count=1))
    with pytest.raises(ValueError, match="True"):
        list(sample_brun_generators(3, 2, seed=0, count=True))


def test_sampled_corpus_is_frozen():
    # any change to sampling, multiplication or reduction shows here
    sams = list(sample_brun_generators(6, 4, 3, 20))
    text = dump_corpus(sams, 6, 3)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "869a5d838c479a8406b8a0e908d6b48539c8bb1b1a02a4b992c18f644b02ecd8"
    )


# (strands, conj_depth, seed, count) of the streams behind
# FROZEN_SAMPLE_STREAM: every strand count 2..9 at every depth 0..4, and a few
# long samples on 12 strands.
SAMPLE_STREAMS = [
    *((n, depth, 100 * n + depth, 6) for n in range(2, 10) for depth in range(5)),
    *((12, depth, 1200 + depth, 3) for depth in (0, 2, 4)),
]
# SHA-256 over each sample's word and the strand ends and deletions it
# carries, so the sampler can be rebuilt against the same stream and not only
# against the same words.
FROZEN_SAMPLE_STREAM = (
    "f09c7285d7e193ec3eebc65d820c2b83e6f63fdacbcde455fa5f330796ceb390"
)


def test_sampled_words_and_carried_deletions_are_frozen():
    digest = hashlib.sha256()
    for n, depth, seed, count in SAMPLE_STREAMS:
        for b in sample_brun_generators(n, depth, seed, count):
            ends, words = b._deletions
            digest.update(repr((n, b.word, ends, words)).encode())
    assert digest.hexdigest() == FROZEN_SAMPLE_STREAM


def test_sampled_deletions_equal_the_kernel_on_the_word():
    # the sampler joins each sample's deletions row by row; one pass of the
    # kernel over the finished word must find the same ends and deletions
    for n, depth, seed, count in SAMPLE_STREAMS:
        for b in sample_brun_generators(n, depth, seed, count):
            assert b._deletions == kernels.strand_deletions(n, b.word)


def _rows(b):
    """A pure braid as the sampler holds it: its word, then its deletions,
    computed from scratch."""
    ends, words = kernels.strand_deletions(b.strands, b.word)
    assert ends == bytes(range(b.strands))
    return (b.word, *words)


def test_row_helpers_agree_with_braid_products():
    # Every sample's deletions are empty, so a wrong deletion row that a
    # commutator cancels away shows only here, on arguments whose deletions
    # are not empty.
    rng = random.Random(90)
    nonempty = 0
    for _ in range(150):
        n = rng.randint(3, 7)
        x, y, c = (rand_pure_braid(rng, n, factors=6) for _ in range(3))
        rx, ry, rc = _rows(x), _rows(y), _rows(c)
        nonempty += all(rx[1:]) and all(ry[1:])
        assert braids._join_rows(rx, ry) == _rows(x * y)
        assert braids._invert_rows(rx) == _rows(x.inverse())
        assert braids._conjugate_rows(rx, rc) == _rows(x.conjugate(c))
        assert braids._commutator_rows(rx, ry) == _rows(commutator(x, y))
    assert nonempty >= 20


# ---------------------------------------------------------------------------
# corpus files


def test_corpus_round_trip():
    braids = list(sample_brun_generators(3, 2, seed=49, count=5))
    text = dump_corpus(braids, 3, seed=49)
    header, *lines = text.splitlines()
    assert header == "# strands=3 seed=49"
    assert text.endswith("\n")
    assert [parse_braid(line, 3) for line in lines] == braids


def test_corpus_rejects_bad_input():
    with pytest.raises(ValueError):
        dump_corpus([Braid.identity(3)], 4, seed=0)
