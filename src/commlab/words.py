"""Freely reduced words in a free group with numbered generators x1, x2, ...

A word is stored as signed bytes, as a braid word is: the byte k for x_k and
256 - k for x_k^{-1}, so generator indices run 1..``kernels.MAX_INDEX``;
``letters`` unpacks it as a tuple of ints, +k and -k. ``Word`` rejects a word
that is not freely reduced, so values are canonical and two words are equal
iff they are the same element of the free group. Products and inverses come
reduced from the signed-byte kernels, so they are built with the unchecked
``Word._trusted``; every other construction is validated by
``kernels._pack_checked``, as braids and the tuple kernels are.

Conventions (used throughout the package):

* conjugation  a^g = g^{-1} a g, built by ``conjugate``
* commutator  [a, b] = a^{-1} b^{-1} a b, built by ``commutator``
* left-normed commutator  [[...[a1, a2], ...], ak], built by ``left_normed``

The three functions take words, braids and the Brunnian sampler's rows
(``braids._Rows``) alike: anything with ``inverse`` and ``*``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence, TypeVar

from commlab import kernels
from commlab.kernels import _is_int, _pack_checked


class ParseError(ValueError):
    """Raised on malformed generator tokens; carries the token position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (token {position})")
        self.position = position


def _check_count(name: str, value: object, least: int = 0) -> None:
    """Reject a count, length or depth that is not an int (not a bool) >= least."""
    if not _is_int(value) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


@dataclass(frozen=True, init=False)
class Word:
    """A freely reduced word; ``word`` holds it as signed bytes and
    ``letters`` unpacks it as signed generator indices."""

    word: bytes

    def __init__(self, letters: Iterable[int] = ()) -> None:
        object.__setattr__(self, "word", _pack_checked(letters, kernels.MAX_INDEX))

    @classmethod
    def _trusted(cls, word: bytes) -> Word:
        """Build without validation, for kernel output from valid words."""
        w = object.__new__(cls)
        object.__setattr__(w, "word", word)
        return w

    @property
    def letters(self) -> tuple[int, ...]:
        """The word as signed ints: +k for x_k, -k for its inverse."""
        return kernels.unpack_signed(self.word)

    @classmethod
    def identity(cls) -> Word:
        return cls(())

    def __mul__(self, other: Word) -> Word:
        if not isinstance(other, Word):
            return NotImplemented
        return Word._trusted(kernels.join_signed(self.word, other.word))

    def inverse(self) -> Word:
        return Word._trusted(kernels.invert_signed(self.word))

    @property
    def is_identity(self) -> bool:
        return not self.word

    def max_index(self) -> int:
        """Largest generator index appearing (0 for the identity)."""
        signed = memoryview(self.word).cast("b")
        return max(max(signed), -min(signed)) if self.word else 0

    def __str__(self) -> str:
        return render_word(self)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


class _GroupElement(Protocol):  # a Word, a Braid, sampler rows: inverse and *
    def inverse(self: _G) -> _G: ...
    def __mul__(self: _G, other: _G) -> _G: ...


_G = TypeVar("_G", bound=_GroupElement)


def conjugate(a: _G, by: _G) -> _G:
    """a^by = by^{-1} a by."""
    return by.inverse() * a * by


def commutator(a: _G, b: _G) -> _G:
    """[a, b] = a^{-1} b^{-1} a b."""
    return a.inverse() * b.inverse() * a * b


def left_normed(args: Sequence[_G]) -> _G:
    """[[...[[a1, a2], a3]...], ak]; a single argument is returned as is."""
    if not args:
        raise ValueError("left_normed needs at least one argument")
    out = args[0]
    for a in args[1:]:
        out = commutator(out, a)
    return out


def render_word(w: Word) -> str:
    """Space-separated tokens ``x<k>`` and ``x<k>^-1``.

    The identity renders as the empty string.
    """
    return _render_letters(w.letters, "x")


def _render_letters(letters: Sequence[int], symbol: str) -> str:
    return " ".join(
        f"{symbol}{c}" if c > 0 else f"{symbol}{-c}^-1" for c in letters
    )


def _parse_letters(text: str, symbol: str) -> list[int]:
    pattern = re.compile(rf"^{symbol}([1-9][0-9]*)(\^-1)?$")
    letters: list[int] = []
    for pos, token in enumerate(text.split(), start=1):
        m = pattern.match(token)
        if m is None:
            raise ParseError(f"bad token {token!r}", pos)
        index = int(m.group(1))
        letters.append(-index if m.group(2) else index)
    return letters
