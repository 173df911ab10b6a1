"""Braid words, pure-braid generators, strand deletion, and Brunnian sampling.

A braid on n strands is a freely reduced word in the Artin generators
sigma_1..sigma_{n-1}, stored as signed bytes like a ``Word``: the byte i for
sigma_i, 256 - i for its inverse; ``letters`` unpacks it. So a braid takes 1
to ``kernels.DELETE_MAX_STRANDS`` = 128 strands. Products and inverses run
on the letter kernels ``Word`` uses (``kernels.join_signed``,
``kernels.invert_signed``), at C speed. Value, hash and length are those of
``(strands, word)``. Only free cancellation is applied in storage;
braid relations are never rewritten. Equality of braids as group elements
is decided by ``is_trivial`` alone, as a = b iff a * b^-1 is trivial: it
reads the induced automorphism of the free group (``artin_action``, whose
one caller it is), which is faithful.

Letter order convention: words act left to right, so in ``a * b`` the braid
``a`` is performed first, and the image of x_k under ``a * b`` is the image
under ``a`` with each letter replaced by its image under ``b``; so the kernel
builds the images from the last letter back, each letter rewriting two.

A braid keeps its n single-strand deletions once they are known, with where
each strand ends; they are not part of its value, so equality, hashing and
rendering ignore them. They come from one pass over the word
(``kernels.strand_deletions``) the first time they are asked for: it follows
every strand's position, records per letter what each strand's deletion
keeps, and freely reduces each strand's column. A product of braids of
which one knows them derives its own instead of reading its letters (an
inverse does not): deletion s of ``a * b`` is deletion s of ``a`` joined to
the deletion of ``b`` at the position where a's strand s ends
(``kernels.join_signed``). This is exact, as deleting a strand commutes with
free reduction and a word's free reduction is unique. The sampler's
arguments are pure, so it skips the ``Braid`` layer for them: it holds each
as rows of signed bytes, its word and then its n deletions, and a product
joins the rows pairwise. Every sample is built knowing its deletions.
``is_pure`` reads the ends, ``is_brunnian`` calls it and reads the deletions,
with no loop over letters of their own, and ``delete_strand`` picks one.
Deletions are signed-byte words like the braid's own, and a deletion braid
is built straight from one.

Validation happens once, at the public boundary: ``Braid(...)``,
``Braid.from_letters``, ``parse_braid``, ``gen_a`` and ``gen_t`` check that
the strand count and every letter are ints (not bools) in range and that the
word is freely reduced (``from_letters`` reduces it), with ``Word``'s
validator ``words._pack_checked``. Values the kernels make from valid
braids (products, inverses, strand deletions, the sampler's rows, and the
image words of ``artin_action``) are reduced and in range by construction,
so they are built with the unchecked ``Braid._trusted`` and ``Word._trusted``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from commlab import kernels
from commlab.words import (
    ParseError,
    Word,
    _check_count,
    _is_int,
    _pack_checked,
    _parse_letters,
    _render_letters,
)


def _check_strands(strands: int) -> None:
    if not _is_int(strands) or not 1 <= strands <= kernels.DELETE_MAX_STRANDS:
        raise ValueError(
            f"a braid takes an int of at least one and at most"
            f" {kernels.DELETE_MAX_STRANDS} strands, got {strands!r}"
        )


@dataclass(frozen=True, init=False)
class Braid:
    """A braid on ``strands`` strands as a reduced word in the sigmas.

    ``word`` holds the letters as signed bytes; ``letters`` unpacks them.
    """

    strands: int
    word: bytes
    # Once known: where each strand ends and its deletions as signed bytes,
    # as ``kernels.strand_deletions`` returns them. Not part of the value.
    _deletions: tuple[bytes, tuple[bytes, ...]] | None = field(
        compare=False, repr=False
    )

    def __init__(self, strands: int, letters: Iterable[int] = ()) -> None:
        _check_strands(strands)
        object.__setattr__(self, "strands", strands)
        object.__setattr__(self, "word", _pack_checked(letters, strands - 1))
        object.__setattr__(self, "_deletions", None)

    @classmethod
    def _trusted(
        cls,
        strands: int,
        word: bytes,
        deletions: tuple[bytes, tuple[bytes, ...]] | None = None,
    ) -> Braid:
        """Build without validation, for kernel output from valid braids."""
        b = object.__new__(cls)
        object.__setattr__(b, "strands", strands)
        object.__setattr__(b, "word", word)
        object.__setattr__(b, "_deletions", deletions)
        return b

    @property
    def letters(self) -> tuple[int, ...]:
        """The word as signed ints: +i for sigma_i, -i for its inverse."""
        return kernels.unpack_signed(self.word)

    def _strand_deletions(self) -> tuple[bytes, tuple[bytes, ...]]:
        """Where each strand ends and its deletions; the kernel runs once."""
        if self._deletions is None:
            deletions = kernels.strand_deletions(self.strands, self.word)
            object.__setattr__(self, "_deletions", deletions)
        return self._deletions

    @classmethod
    def identity(cls, strands: int) -> Braid:
        return cls(strands)

    @classmethod
    def from_letters(cls, strands: int, letters: Iterable[int]) -> Braid:
        _check_strands(strands)
        return cls._trusted(strands, _pack_checked(letters, strands - 1, reduce=True))

    def __mul__(self, other: Braid) -> Braid:
        if not isinstance(other, Braid):
            return NotImplemented
        if self.strands != other.strands:
            raise ValueError(
                f"strand mismatch: {self.strands} vs {other.strands}"
            )
        word = kernels.join_signed(self.word, other.word)
        if self._deletions is None and other._deletions is None:
            return Braid._trusted(self.strands, word)
        # Strand s of self continues as the strand that starts where it ends.
        ends, words = self._strand_deletions()
        other_ends, other_words = other._strand_deletions()
        deletions = (
            kernels.compose(ends, other_ends),
            tuple(map(kernels.join_signed, words, map(other_words.__getitem__, ends))),
        )
        return Braid._trusted(self.strands, word, deletions)

    def inverse(self) -> Braid:
        return Braid._trusted(self.strands, kernels.invert_signed(self.word))

    def __len__(self) -> int:
        return len(self.word)

    def __str__(self) -> str:
        return render_braid(self)

    def __repr__(self) -> str:
        return f"Braid({self.strands}, {str(self)!r})"


def parse_braid(text: str, strands: int) -> Braid:
    """Parse whitespace-separated tokens ``s<i>`` and ``s<i>^-1``.

    Generator indices must satisfy 1 <= i < strands; violations raise
    ParseError carrying the offending token position.
    """
    letters = _parse_letters(text, "s")
    for pos, c in enumerate(letters, start=1):
        if abs(c) >= strands:
            raise ParseError(
                f"generator s{abs(c)} out of range for {strands} strands", pos
            )
    return Braid.from_letters(strands, letters)


def render_braid(b: Braid) -> str:
    """Inverse of parse_braid; the identity renders as the empty string."""
    return _render_letters(b.letters, "s")


# ---------------------------------------------------------------------------
# the induced free-group automorphism


def artin_action(b: Braid) -> tuple[Word, ...]:
    """Images of x_1..x_strands under the free-group automorphism b induces.

    sigma_i sends x_i to x_i x_{i+1} x_i^{-1} and x_{i+1} to x_i; letters of
    the braid word act left to right.
    """
    return tuple(map(Word._trusted, kernels.artin_images(b.strands, b.word)))


def is_trivial(b: Braid) -> bool:
    """True iff b is the identity braid (the Artin action is faithful): the
    package's one braid-equality test, as a = b iff a * b^-1 is trivial."""
    return all(
        img.word == bytes((k,)) for k, img in enumerate(artin_action(b), start=1)
    )


def is_pure(b: Braid) -> bool:
    """True iff every strand ends at the position where it starts, read off
    the ends of ``Braid._strand_deletions``; one strand cannot cross."""
    return b.strands == 1 or b._strand_deletions()[0] == bytes(range(b.strands))


def delete_strands(b: Braid) -> tuple[Braid, ...]:
    """Every single strand deletion of b, indexed by starting position - 1.

    Entry j - 1 removes the strand that starts at position j and renumbers
    the rest: every crossing that strand takes part in is dropped, and the
    other generator indices shift down by one wherever the deleted strand
    sits to their left. A braid built as a product of braids that know
    their deletions carries its own; any other braid gets them from one
    pass of ``kernels.strand_deletions`` over its word, the first time they
    are asked for, and keeps them. Either way each is freely reduced, and it
    needs at least two strands.
    """
    _, words = b._strand_deletions()
    return tuple(Braid._trusted(b.strands - 1, w) for w in words)


def delete_strand(b: Braid, j: int) -> Braid:
    """Remove the strand that starts at position j and renumber the rest.

    The j-th entry of ``delete_strands(b)``.
    """
    if not _is_int(j) or not 1 <= j <= b.strands:
        raise ValueError(f"strand {j!r} out of range for {b.strands} strands")
    return delete_strands(b)[j - 1]


def is_brunnian(b: Braid) -> bool:
    """True iff b is pure (``is_pure``) and every single strand deletion is
    trivial. An empty deletion is trivial; only the others go through
    ``is_trivial``. A braid on one strand is Brunnian.
    """
    if b.strands == 1:
        return True
    return is_pure(b) and all(
        not w or is_trivial(Braid._trusted(b.strands - 1, w))
        for w in b._strand_deletions()[1]
    )


# ---------------------------------------------------------------------------
# pure-braid generators


def gen_a(i: int, j: int, n: int) -> Braid:
    """The generator linking strands i and j in front of the others:
    sigma_{j-1} .. sigma_{i+1} sigma_i^2 sigma_{i+1}^{-1} .. sigma_{j-1}^{-1}.
    """
    if not (_is_int(i) and _is_int(j) and _is_int(n) and 1 <= i < j <= n):
        raise ValueError(f"need ints 1 <= i < j <= n, got i={i!r}, j={j!r}, n={n!r}")
    prefix = list(range(j - 1, i, -1))
    letters = prefix + [i, i] + [-k for k in reversed(prefix)]
    return Braid(n, tuple(letters))


def gen_a0(j: int, n: int) -> tuple[Braid, Braid]:
    """Both closing forms of the front-strand generator at position j.

    Returns the product form
    ``(A_{j,j+1} .. A_{j,n})^{-1} (A_{1,j} .. A_{j-1,j})^{-1}`` and the
    sigma-palindrome form
    ``(s_j .. s_{n-2} s_{n-1}^2 s_{n-2} .. s_j)^{-1}
    (s_{j-1} .. s_2 s_1^2 s_2 .. s_{j-1})^{-1}``;
    the two induce the same Artin automorphism.
    """
    if not (_is_int(j) and _is_int(n) and 1 <= j <= n):
        raise ValueError(f"need ints 1 <= j <= n, got j={j!r}, n={n!r}")
    above = Braid.identity(n)
    for k in range(j + 1, n + 1):
        above = above * gen_a(j, k, n)
    below = Braid.identity(n)
    for i in range(1, j):
        below = below * gen_a(i, j, n)
    product_form = above.inverse() * below.inverse()

    up = list(range(j, n))
    down = list(range(j - 1, 0, -1))
    inv_up = [-c for c in reversed(up + up[::-1])]
    inv_down = [-c for c in reversed(down + down[::-1])]
    sigma_form = Braid.from_letters(n, inv_up + inv_down)
    return product_form, sigma_form


def gen_t(i: int, n: int) -> Braid:
    """The braid linking strand i and strand n in front of all others:
    sigma_i^{-1} .. sigma_{n-2}^{-1} sigma_{n-1}^2 sigma_{n-2} .. sigma_i.

    Equal to gen_a(i, n, n) in the braid group: the stored words differ but
    the induced automorphisms agree.
    """
    if not (_is_int(i) and _is_int(n) and 1 <= i <= n - 1):
        raise ValueError(f"need ints 1 <= i <= n-1, got i={i!r}, n={n!r}")
    prefix = [-k for k in range(i, n - 1)]
    letters = prefix + [n - 1, n - 1] + list(range(n - 2, i - 1, -1))
    return Braid(n, tuple(letters))


# ---------------------------------------------------------------------------
# Brunnian sampling


def _join_rows(x: tuple[bytes, ...], y: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """The rows of the product of two pure braids given by their rows."""
    return tuple(map(kernels.join_signed, x, y))


def _invert_rows(x: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """The rows of the inverse of a pure braid given by its rows."""
    return tuple(map(kernels.invert_signed, x))


def _conjugate_rows(x: tuple[bytes, ...], c: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """x^c = c^{-1} x c, joined as ``words.conjugate`` joins it."""
    return _join_rows(_join_rows(_invert_rows(c), x), c)


def _commutator_rows(x: tuple[bytes, ...], y: tuple[bytes, ...]) -> tuple[bytes, ...]:
    """[x, y] = x^{-1} y^{-1} x y, joined as ``words.commutator`` joins it."""
    return _join_rows(_join_rows(_join_rows(_invert_rows(x), _invert_rows(y)), x), y)


def sample_brun_generators(
    n: int, conj_depth: int, seed: int, count: int
) -> Iterator[Braid]:
    """Seeded stream of symmetric-commutator generators on n strands.

    Each sample is a left-normed commutator [[r_1, r_2], ..., r_{n-1}] whose
    arguments visit t_1..t_{n-1} in a shuffled order, each inverted half the
    time and conjugated by a short pure braid (a word of up to conj_depth
    letters in the A_{i,j} generators). Every emitted braid is Brunnian.

    Every argument is pure, so each strand ends where it starts and deleting
    strand s is a homomorphism on them. The stream therefore works on rows:
    a pure braid is the tuple of its word and its n deletions, all signed
    bytes, read once per stream from the t_i and the A_{i,j}. A product joins
    the rows pairwise and an inverse inverts each row, in the order of joins
    of ``words.conjugate`` and ``left_normed``, so every sample carries its
    deletions with no ``Braid`` built per intermediate product. A conjugator
    starts at its first factor, and an argument with no factors is not
    conjugated.
    """
    _check_count("n", n, 2)
    _check_count("conj_depth", conj_depth)
    _check_count("count", count)
    rng = random.Random(seed)
    identity = bytes(range(n))

    def rows_and_inverse(b: Braid) -> tuple[tuple[bytes, ...], tuple[bytes, ...]]:
        ends, words = b._strand_deletions()
        if ends != identity:
            raise RuntimeError(f"sampler generator {b} is not pure")
        rows = (b.word, *words)
        return rows, _invert_rows(rows)

    linking_pairs = [rows_and_inverse(gen_t(i, n)) for i in range(1, n)]
    pure_pairs = [
        rows_and_inverse(gen_a(i, j, n))
        for i in range(1, n)
        for j in range(i + 1, n + 1)
    ]
    for _ in range(count):
        order = list(range(1, n))
        rng.shuffle(order)
        args: list[tuple[bytes, ...]] = []
        for index in order:
            t, t_inv = linking_pairs[index - 1]
            r = t_inv if rng.random() < 0.5 else t
            conj: tuple[bytes, ...] | None = None
            for _ in range(rng.randint(0, conj_depth)):
                g, g_inv = rng.choice(pure_pairs)
                factor = g if rng.random() < 0.5 else g_inv
                conj = factor if conj is None else _join_rows(conj, factor)
            args.append(r if conj is None else _conjugate_rows(r, conj))
        # left-normed, as ``left_normed`` folds it
        out = args[0]
        for a in args[1:]:
            out = _commutator_rows(out, a)
        yield Braid._trusted(n, out[0], (identity, out[1:]))


# ---------------------------------------------------------------------------
# corpus files


def dump_corpus(braids: Sequence[Braid], strands: int, seed: int) -> str:
    """One braid per line under a `# strands=<n> seed=<s>` header."""
    lines = [f"# strands={strands} seed={seed}"]
    for b in braids:
        if b.strands != strands:
            raise ValueError(
                f"corpus is on {strands} strands, braid has {b.strands}"
            )
        lines.append(render_braid(b))
    return "\n".join(lines) + "\n"
