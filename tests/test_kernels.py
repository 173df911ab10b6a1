"""The letter and permutation kernels, checked on examples and against oracles.

The fuzzers compare every kernel with a naive oracle from ``_oracles.py``,
which shares no code with the package.
"""

import hashlib
import itertools
import math
import random

import pytest
from _oracles import (
    o_inv,
    o_mul,
    oracle_artin_images,
    oracle_delete_strand,
    oracle_follow_strand,
    oracle_generated,
    oracle_is_pure,
    oracle_reduce,
)

from commlab import finite, kernels
from commlab.braids import (
    Braid,
    artin_action,
    delete_strand,
    gen_a,
    gen_a0,
    gen_t,
    parse_braid,
    sample_brun_generators,
)
from commlab.homotopy import SpherePresentation, one_relator_membership
from commlab.sampling import SubgroupSpec, random_reduced_word, symmetric_generators
from commlab.words import Word, commutator


def test_reduce_letters_examples():
    assert kernels.reduce_letters([]) == ()
    assert kernels.reduce_letters([1, -1]) == ()
    assert kernels.reduce_letters([1, 2, -2, -1, 3]) == (3,)
    assert kernels.reduce_letters([2, -3, 3, -2, 1]) == (1,)
    assert kernels.reduce_letters(iter([1, 1, -1])) == (1,)


def test_multiply_and_invert_examples():
    assert kernels.multiply_reduced((1, 2), (-2, -1, 3)) == (3,)
    assert kernels.multiply_reduced((), (4,)) == (4,)
    assert kernels.multiply_reduced((4,), ()) == (4,)


def _images(strands, letters):
    """``kernels.artin_images`` of a word given as ints, as tuples of ints."""
    images = kernels.artin_images(strands, _signed(letters))
    assert all(isinstance(img, bytes) for img in images)
    return [kernels.unpack_signed(img) for img in images]


def test_artin_images_of_single_generators():
    # sigma_1 on three strands: x1 -> x1 x2 x1^-1, x2 -> x1, x3 fixed
    assert _images(3, [1]) == [(1, 2, -1), (1,), (3,)]
    assert _images(3, [-1]) == [(2,), (-2, 1, 2), (3,)]
    assert _images(3, []) == [(1,), (2,), (3,)]


def test_artin_images_inverse_word_acts_as_identity():
    rng = random.Random(31)
    for _ in range(150):
        strands = rng.randint(2, 6)
        word = [
            rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 20))
        ]
        trivial = word + [-c for c in reversed(word)]
        images = _images(strands, trivial)
        assert images == [(k,) for k in range(1, strands + 1)]


def test_permutation_compose_and_invert():
    p = bytes([1, 2, 0])
    q = bytes([0, 2, 1])
    assert kernels.compose(p, q) == bytes([2, 1, 0])
    assert kernels.invert_perm(p) == bytes([2, 0, 1])
    ident = bytes(range(5))
    assert kernels.compose(ident, ident) == ident


def test_closure_set_sizes():
    three_cycle = bytes([1, 2, 0])
    transposition = bytes([1, 0, 2])
    assert len(kernels.closure_set([three_cycle], 3, 100)) == 3
    assert len(kernels.closure_set([three_cycle, transposition], 3, 100)) == 6
    assert kernels.closure_set([], 4, 100) == {bytes(range(4))}


def test_closure_set_returns_none_past_cap():
    gens = [bytes([1, 2, 3, 4, 0]), bytes([1, 0, 2, 3, 4])]  # generate S5
    assert kernels.closure_set(gens, 5, 10) is None
    assert kernels.closure_set(gens, 5, 119) is None
    assert len(kernels.closure_set(gens, 5, 120)) == 120


def test_extend_subgroup_is_a_no_op_for_members():
    three_cycle = bytes([1, 2, 0])
    elems = kernels.closure_set([three_cycle], 3, 100)
    again = kernels.extend_subgroup(elems, [three_cycle], three_cycle, 100)
    assert again == elems


def test_letter_kernels_match_the_oracle_on_fuzzed_words():
    rng = random.Random(32)
    for _ in range(500):
        rank = rng.randint(1, 6)
        raw = [
            rng.choice([1, -1]) * rng.randint(1, rank)
            for _ in range(rng.randint(0, 30))
        ]
        a = kernels.reduce_letters(raw)
        assert a == oracle_reduce(raw)
        b = kernels.reduce_letters(raw[::-1])
        assert kernels.multiply_reduced(a, b) == oracle_reduce(a + b)
        # a right factor that starts by undoing half of a cancels at the seam
        undo = oracle_reduce([-c for c in reversed(a)][: len(a) // 2] + list(b))
        assert kernels.multiply_reduced(a, undo) == oracle_reduce(a + undo)
        # the inverse is the one reduced word that cancels a
        inv = kernels.unpack_signed(kernels.invert_signed(_signed(a)))
        assert oracle_reduce(inv) == inv
        assert oracle_reduce(a + inv) == ()


def _artin_oracle_cases():
    rng = random.Random(33)
    for _ in range(300):
        strands = rng.randint(2, 6)
        yield strands, [
            rng.choice([1, -1]) * rng.randint(1, strands - 1)
            for _ in range(rng.randint(0, 25))
        ]
    # long 3-strand words, whose images reach 1.6k letters: the
    # kernel builds them from the last letter, the oracle from the first
    for _ in range(60):
        yield 3, [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(18, 22))]
    # the deleted-strand words is_brunnian builds, for Brunnian samples and
    # for non-Brunnian controls sample * A_{1,2}
    for strands in (6, 7, 8):
        for b in sample_brun_generators(strands, 4, strands, 2):
            for braid in (b, b * gen_a(1, 2, strands)):
                for j in range(1, strands + 1):
                    yield strands - 1, list(delete_strand(braid, j).letters)


def test_artin_images_match_the_substitution_oracle():
    for strands, word in _artin_oracle_cases():
        expected = oracle_artin_images(strands, word)
        assert _images(strands, word) == expected
        # artin_action wraps these images in Word without validating them
        images = artin_action(Braid.from_letters(strands, word))
        assert [img.letters for img in images] == expected
        for img in images:
            assert Word(img.letters) == img


def _rand_letters(rng, strands, length, low=1):
    return [
        rng.choice([1, -1]) * rng.randint(low, strands - 1)
        for _ in range(rng.randint(0, length))
    ]


def _deletion_oracle_cases():
    rng = random.Random(35)
    # random words on 2-9 strands and pure products of A_{i,j}; commutators
    # and conjugates put inverse letters on both sides of a strand's
    # crossings, so their deletions cancel across dropped crossings
    for _ in range(200):
        strands = rng.randint(2, 9)
        a = Braid.from_letters(strands, _rand_letters(rng, strands, 14))
        u = Braid.from_letters(strands, _rand_letters(rng, strands, 6))
        pure = Braid.identity(strands)
        for _ in range(rng.randint(1, 4)):
            i = rng.randint(1, strands - 1)
            g = gen_a(i, rng.randint(i + 1, strands), strands)
            pure = pure * (g if rng.random() < 0.5 else g.inverse())
        for b in (a, pure, commutator(a, pure), a.conjugate(u), pure.conjugate(u)):
            yield strands, b.letters
    # sampled braids, their non-Brunnian controls, and the samples times a
    # braid relator, whose deletions free reduction does not empty
    for strands in (6, 7, 8):
        relator = parse_braid("s3 s4 s3 s4^-1 s3^-1 s4^-1", strands)
        for b in sample_brun_generators(strands, 2, strands, 1):
            for braid in (b, b * gen_a(1, 2, strands), b * relator):
                yield strands, braid.letters
    # 128 strands, with generator indices up to 127, the largest signed byte
    a = Braid.from_letters(128, _rand_letters(rng, 128, 150, low=100))
    b = Braid.from_letters(128, _rand_letters(rng, 128, 150, low=100))
    yield 128, (a * commutator(a, b) * gen_a(1, 128, 128)).letters


def _deletions(strands, letters):
    """Every strand's deletion by the kernel, as a tuple of ints."""
    _, words = kernels.strand_deletions(strands, letters)
    return [kernels.unpack_signed(w) for w in words]


def test_strand_deletions_match_the_oracle_at_every_strand():
    pure = cancelled = 0
    for strands, letters in _deletion_oracle_cases():
        got = _deletions(strands, letters)
        assert len(got) == strands
        pure += oracle_is_pure(strands, letters)
        for j, word in enumerate(got, start=1):
            expected = oracle_delete_strand(strands, letters, j)
            assert word == expected
            cancelled += len(expected) < len(
                oracle_follow_strand(strands, letters, j)
            )
        if strands == 128:
            assert max(abs(c) for word in got for c in word) == 126
    # the cases cover pure braids and cancellation across dropped crossings
    assert pure > 200
    assert cancelled > 1000


def test_strand_deletions_take_at_most_128_strands():
    assert kernels.DELETE_MAX_STRANDS == 128
    assert _deletions(128, [127, 127]) == [(126, 126)] * 126 + [(), ()]
    with pytest.raises(ValueError, match="128"):
        kernels.strand_deletions(129, [128])
    # one strand leaves nothing to delete it from
    with pytest.raises(ValueError, match="2 to 128"):
        kernels.strand_deletions(1, ())


def _signed(letters):
    return bytes(c & 255 for c in letters)


def _flip(letters):
    """The inverse of a word of ints: reversed, every sign flipped."""
    return [-c for c in reversed(letters)]


def _join_cases():
    rng = random.Random(36)

    def reduced(length, rank, after=0):
        """A reduced word of exactly length letters; the first letter does
        not cancel against ``after``."""
        out = []
        prev = after
        for _ in range(length):
            c = prev
            while c == -prev or c == 0:
                c = rng.choice([1, -1]) * rng.randint(1, rank)
            out.append(c)
            prev = c
        return out

    # random reduced words over small and large alphabets, so that some
    # seams cancel and generator indices reach 127
    for _ in range(400):
        rank = rng.choice([2, 3, 127])
        a, b = reduced(rng.randint(0, 40), rank), reduced(rng.randint(0, 40), rank)
        yield a, b
        yield a, _flip(a)  # full cancellation
        yield a, list(oracle_reduce(_flip(a[len(a) // 2:]) + b))
    yield [], []
    yield [5], []
    yield [], [-127, 3]
    # seams of exactly k letters, at and around powers of two
    for k in sorted({1} | {2 ** e + d for e in range(1, 9) for d in (-1, 0, 1)}):
        seam = reduced(k, 4)
        left = _flip(reduced(20, 4, after=-seam[0]))
        inverse = _flip(seam)
        right = reduced(20, 4, after=seam[-1])
        while right[0] == -left[-1]:
            right = reduced(20, 4, after=seam[-1])
        yield left + seam, inverse + right
        yield seam, inverse + right  # the seam takes all of a
        yield left + seam, inverse  # and all of b


def test_join_signed_matches_multiply_reduced_and_the_oracle():
    seams = set()
    for a, b in _join_cases():
        got = kernels.join_signed(_signed(a), _signed(b))
        assert isinstance(got, bytes)
        expected = oracle_reduce(a + b)
        assert kernels.unpack_signed(got) == expected
        assert kernels.multiply_reduced(a, b) == expected
        seams.add((len(a) + len(b) - len(expected)) // 2)
    assert {1, 3, 4, 5, 127, 128, 129, 255, 256, 257} <= seams


def test_reduce_signed_matches_the_oracle():
    assert kernels.reduce_signed(b"") == b""
    assert kernels.reduce_signed(_signed([1, 2, -2, -1, 3])) == _signed([3])
    assert kernels.reduce_signed(_signed([127, -127, -127])) == _signed([-127])
    rng = random.Random(39)
    for _ in range(500):
        rank = rng.choice([2, 5, 127])
        raw = [
            rng.choice([1, -1]) * rng.randint(max(1, rank - 3), rank)
            for _ in range(rng.randint(0, 60))
        ]
        got = kernels.reduce_signed(_signed(raw))
        assert isinstance(got, bytes)
        assert kernels.unpack_signed(got) == oracle_reduce(raw)
        # strand_deletions hands it the bytearray columns of its grid
        assert kernels.reduce_signed(bytearray(_signed(raw))) == got


def test_invert_signed_and_unpack_signed():
    assert kernels.unpack_signed(_signed([1, -127, 127, -3])) == (1, -127, 127, -3)
    assert kernels.invert_signed(_signed([1, -127, 5])) == _signed([-5, 127, -1])
    assert kernels.invert_signed(b"") == b""
    assert kernels.unpack_signed(b"") == ()
    assert kernels.pack_signed([1, -127, 127, -3]) == _signed([1, -127, 127, -3])
    assert kernels.pack_signed(()) == b""


def test_strand_deletions_gives_the_end_positions_and_the_signed_words():
    # sigma_1 sigma_2 on three strands moves strand 1 to position 3
    ends, words = kernels.strand_deletions(3, [1, 2])
    assert ends == bytes([2, 0, 1])
    # strand 1 takes part in both crossings; deleting strand 2 or 3 leaves
    # the other crossing as sigma_1
    assert tuple(map(kernels.unpack_signed, words)) == ((), (1,), (1,))
    assert kernels.strand_deletions(4, [])[0] == bytes(range(4))


def test_permutation_kernels_match_the_oracle_on_fuzzed_generators():
    rng = random.Random(34)
    for _ in range(120):
        degree = rng.randint(2, 7)
        gens = [
            bytes(rng.sample(range(degree), degree))
            for _ in range(rng.randint(1, 3))
        ]
        cap = rng.choice([8, 60, 10000])
        got = kernels.closure_set(gens, degree, cap)
        want = oracle_generated(gens, degree, cap)
        assert (got is None) == (want is None)
        if got is not None:
            assert {tuple(p) for p in got} == want
        p = bytes(rng.sample(range(degree), degree))
        q = bytes(rng.sample(range(degree), degree))
        assert tuple(kernels.compose(p, q)) == o_mul(tuple(p), tuple(q))
        assert tuple(kernels.invert_perm(p)) == o_inv(tuple(p))
    # degree 255, the largest random_instance draws
    p = bytes(rng.sample(range(255), 255))
    assert tuple(kernels.invert_perm(p)) == o_inv(tuple(p))


def _cycle(degree, points):
    p = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        p[a] = b
    return bytes(p)


def _symmetric(degree):
    return [_cycle(degree, [0, 1]), _cycle(degree, list(range(degree)))]


def _alternating(degree):
    long_cycle = range(degree) if degree % 2 else range(1, degree)
    return [_cycle(degree, [0, 1, 2]), _cycle(degree, list(long_cycle))]


def _is_even(p):
    inversions = sum(a > b for a, b in itertools.combinations(p, 2))
    return inversions % 2 == 0


def _forbid_enumeration(monkeypatch):
    def enumerate_anyway(*args):
        raise AssertionError("the order bound let an oversized group through")

    monkeypatch.setattr(kernels, "extend_subgroup", enumerate_anyway)


def test_closure_set_matches_the_oracle_at_the_cap_boundary():
    # the caps sit on the group order, where an unsound bound would show
    rng = random.Random(35)
    checked = nontrivial = rejected = 0
    for _ in range(200):
        degree = rng.randint(3, 8)
        gens = []
        for _ in range(rng.randint(1, 3)):
            support = rng.sample(range(degree), rng.randint(2, degree))
            p = list(range(degree))
            for a, b in zip(support, rng.sample(support, len(support))):
                p[a] = b
            gens.append(bytes(p))
        full = oracle_generated(gens, degree, 5040)
        if full is None:
            continue
        order = len(full)
        for cap in (order - 1, order, order + 1):
            got = kernels.closure_set(gens, degree, cap)
            want = oracle_generated(gens, degree, cap)
            assert (got is None) == (want is None)
            if got is not None:
                assert {tuple(p) for p in got} == want
            rejected += got is None
        checked += 1
        nontrivial += order > 1
    # cap = order - 1 rejects every group but the trivial one at cap 0
    assert checked >= 150 and rejected == nontrivial


@pytest.mark.parametrize("degree", range(8, 13))
def test_symmetric_and_alternating_groups_at_their_order(degree, monkeypatch):
    sym_order = math.factorial(degree)
    for gens, order in (
        (_symmetric(degree), sym_order),
        (_alternating(degree), sym_order // 2),
    ):
        if order <= 40320:
            perms = set(itertools.permutations(range(degree)))
            if order < sym_order:
                perms = {p for p in perms if _is_even(p)}
            got = kernels.closure_set(gens, degree, order)
            assert {tuple(p) for p in got} == perms
        else:
            # too large to enumerate: the bound alone must let it through
            assert kernels._order_bound(gens, degree, order) == order
        with monkeypatch.context() as m:
            _forbid_enumeration(m)
            assert kernels.closure_set(gens, degree, order - 1) is None


@pytest.mark.parametrize("degree", range(3, 14))
def test_the_bound_is_exact_on_symmetric_and_alternating_groups(degree):
    # closure recognises a registered carrier only on an exact bound
    order = math.factorial(degree)
    for gens, want in (_symmetric(degree), order), (_alternating(degree), order // 2):
        assert kernels._order_bound(gens, degree, order) == want
        # below the order it stops early, past the cap but still a lower bound
        assert want - 1 < kernels._order_bound(gens, degree, want - 1) <= want
    assert kernels._order_bound([], degree, 1) == 1


def test_a_bound_that_reads_low_only_costs_an_enumeration(monkeypatch):
    finite._CARRIERS.clear()
    S5 = finite.closure(_symmetric(5))
    enumerated = []
    dimino = kernels.dimino

    def counting(*args):
        enumerated.append(None)
        return dimino(*args)

    monkeypatch.setattr(kernels, "_order_bound", lambda *args: 1)
    monkeypatch.setattr(kernels, "dimino", counting)
    assert finite.closure(_alternating(5) + _symmetric(5)) is S5
    assert enumerated and len(finite._CARRIERS) == 1


def test_closure_set_skips_the_bound_where_no_group_passes_the_cap(monkeypatch):
    # |S_d| = d! <= 720 for d <= 6, so the bound has nothing to reject
    def bound_ran(*args):
        raise AssertionError("the order bound ran although d! <= cap")

    monkeypatch.setattr(kernels, "_order_bound", bound_ran)
    rng = random.Random(36)
    for degree in range(3, 7):
        sets = [_symmetric(degree), _alternating(degree)]
        sets += [
            [bytes(rng.sample(range(degree), degree)) for _ in range(2)]
            for _ in range(5)
        ]
        for gens in sets:
            got = kernels.closure_set(gens, degree, 720)
            assert {tuple(p) for p in got} == oracle_generated(gens, degree, 720)


def test_degree_200_group_is_rejected_without_enumeration(monkeypatch):
    _forbid_enumeration(monkeypatch)
    assert kernels.closure_set(_symmetric(200), 200, 10**6) is None
    assert kernels.closure_set(_alternating(200), 200, 10**6) is None


# ---------------------------------------------------------------------------
# one pin over every consumer of the letter kernels


def _pinned_letter_results():
    """Sampled sphere-group words, Artin images and membership verdicts.

    Everything is hashed as tuples of ints, so the digest does not depend
    on how words are stored:

    * the ``symmetric_generators`` words of the pi_2 and pi_3 specs, for
      seeds 0-4 and conjugation depths 0-4, 50 words each;
    * the Artin images (``artin_action``, which wraps
      ``kernels.artin_images``) of every word ``braid-tools --identities
      --max-n 12`` compares, and of 200 random reduced braid words on
      3-12 strands;
    * the ``one_relator_membership`` verdicts for 2,000 random words over
      m = 2-6, against every subset of killed generators.
    """
    specs = {
        2: (SubgroupSpec((Word((1,)),)), SubgroupSpec((Word((-1,)),))),
        3: (
            SubgroupSpec((Word((1,)),)),
            SubgroupSpec((Word((2,)),)),
            SubgroupSpec((Word((-2, -1)),)),
        ),
    }
    for pi, spec in specs.items():
        for seed in range(5):
            for depth in range(5):
                stream = symmetric_generators(spec, depth, seed, count=50)
                yield pi, seed, depth, tuple(w.letters for w in stream)

    braid_words = []
    for n in range(1, 13):
        for j in range(1, n + 1):
            braid_words += gen_a0(j, n)
    for n in range(2, 14):
        for i in range(1, n):
            braid_words += [gen_t(i, n), gen_a(i, n, n)]
            if i < n - 1:
                braid_words += [
                    Braid.from_letters(n, [i, i + 1, i]),
                    Braid.from_letters(n, [i + 1, i, i + 1]),
                ]
            for j in range(i + 2, n):
                braid_words += [
                    Braid.from_letters(n, [i, j]),
                    Braid.from_letters(n, [j, i]),
                ]
    rng = random.Random(37)
    for _ in range(200):
        strands = rng.randint(3, 12)
        braid_words.append(
            Braid.from_letters(strands, _rand_letters(rng, strands, 40))
        )
    for b in braid_words:
        yield b.strands, b.letters, tuple(w.letters for w in artin_action(b))

    rng = random.Random(38)
    for m in range(2, 7):
        pres = SpherePresentation(m)
        subsets = [
            killed
            for size in range(m + 1)
            for killed in itertools.combinations(range(1, m + 1), size)
        ]
        for _ in range(400):
            w = random_reduced_word(rng, m, rng.randint(0, 16))
            verdicts = "".join(
                "1" if one_relator_membership(pres, w, killed) else "0"
                for killed in subsets
            )
            yield m, w.letters, verdicts


FROZEN_LETTER_RESULTS = (
    "0e015320b3b04c8c4306a2fe3f8a8eabfa38d336ba83aa6f7d90346d8147a755"
)


def test_words_images_and_verdicts_are_frozen():
    digest = hashlib.sha256()
    for item in _pinned_letter_results():
        digest.update(repr(item).encode())
    assert digest.hexdigest() == FROZEN_LETTER_RESULTS
