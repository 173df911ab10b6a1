"""Truncated Magnus expansion over noncommuting indeterminates.

The expansion sends x_k to 1 + X_k and x_k^{-1} to the alternating geometric
series 1 - X_k + X_k^2 - ... truncated at the cutoff degree. Monomials are
tuples of generator indices, so X_1 X_2 is the key (1, 2) and the constant
term is the empty tuple. A word lies in the k-th lower central series term
gamma_k of the free group iff its expansion minus 1 has no monomial of
degree below k, which makes membership decidable by expanding at cutoff k-1.

``expand`` never multiplies whole series. It keeps the running product s as
one dict of monomials per degree and updates it in place, one letter at a
time. A letter x_k is a shift, s(1 + X_k) = s + s X_k. For x_k^{-1} the
product y = s(1 + X_k)^{-1} solves y = s - y X_k, which fixes y degree by
degree from the constant term up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate
from typing import Mapping

from commlab.words import Word, _is_int

Monomial = tuple[int, ...]


def _check_cutoff(cutoff: int) -> None:
    if not _is_int(cutoff) or cutoff < 0:
        raise ValueError(f"cutoff must be an int >= 0, got {cutoff!r}")


@dataclass(frozen=True)
class TruncatedSeries:
    """A polynomial truncated beyond ``cutoff``; zero coefficients dropped."""

    cutoff: int
    terms: Mapping[Monomial, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _check_cutoff(self.cutoff)
        for mono, coeff in self.terms.items():
            if not isinstance(mono, tuple) or not all(
                _is_int(k) and k > 0 for k in mono
            ):
                raise ValueError(
                    f"monomial {mono!r} is not a tuple of generator indices >= 1"
                )
            if len(mono) > self.cutoff:
                raise ValueError(f"monomial {mono} exceeds cutoff {self.cutoff}")
            if coeff == 0:
                raise ValueError(f"zero coefficient stored for {mono}")

    @classmethod
    def _trusted(
        cls, cutoff: int, terms: Mapping[Monomial, int]
    ) -> TruncatedSeries:
        """Build without validation, for products and expansions."""
        s = object.__new__(cls)
        object.__setattr__(s, "cutoff", cutoff)
        object.__setattr__(s, "terms", terms)
        return s

    @classmethod
    def one(cls, cutoff: int) -> TruncatedSeries:
        return cls(cutoff, {(): 1})

    def __mul__(self, other: TruncatedSeries) -> TruncatedSeries:
        """The product truncated beyond the common cutoff.

        fits[r] lists the right factor's terms of degree at most r, so a left
        monomial of degree d meets exactly the right terms it can multiply.
        Coefficients accumulate freely; zeros are dropped once at the end.
        """
        if self.cutoff != other.cutoff:
            raise ValueError(
                f"cutoff mismatch: {self.cutoff} vs {other.cutoff}"
            )
        cutoff = self.cutoff
        by_degree: list[list[tuple[Monomial, int]]] = [
            [] for _ in range(cutoff + 1)
        ]
        for m2, c2 in other.terms.items():
            by_degree[len(m2)].append((m2, c2))
        fits = list(accumulate(by_degree))
        acc: dict[Monomial, int] = {}
        get = acc.get
        for m1, c1 in self.terms.items():
            for m2, c2 in fits[cutoff - len(m1)]:
                mono = m1 + m2
                acc[mono] = get(mono, 0) + c1 * c2
        if 0 in acc.values():
            acc = {mono: coeff for mono, coeff in acc.items() if coeff}
        return TruncatedSeries._trusted(cutoff, acc)


def expand(w: Word, cutoff: int) -> TruncatedSeries:
    """Magnus expansion of a word, truncated beyond degree ``cutoff``."""
    _check_cutoff(cutoff)
    # layers[d] holds the degree-d terms of the running product, no zeros.
    layers: list[dict[Monomial, int]] = [{(): 1}] + [{} for _ in range(cutoff)]
    for c in w.letters:
        if c > 0:
            # s + s X_k: from the top down, so each layer is read before
            # the shift of the layer below writes into it.
            k = (c,)
            degrees = range(cutoff - 1, -1, -1)
            sign = 1
        else:
            # y = s - y X_k: from the bottom up, so layer d already holds
            # y's degree-d terms when they are shifted into layer d + 1.
            k = (-c,)
            degrees = range(cutoff)
            sign = -1
        for d in degrees:
            up = layers[d + 1]
            for mono, coeff in layers[d].items():
                key = mono + k
                val = up.get(key, 0) + sign * coeff
                if val:
                    up[key] = val
                else:
                    del up[key]
    terms: dict[Monomial, int] = {}
    for layer in layers:
        terms.update(layer)
    return TruncatedSeries._trusted(cutoff, terms)


def gamma_membership(w: Word, k: int) -> bool:
    """Whether w lies in gamma_k of the ambient free group (k >= 1)."""
    if not _is_int(k) or k < 1:
        raise ValueError(f"lower central index must be an int >= 1, got {k!r}")
    # the constant term is always 1, so w is a member iff it is the only term
    return len(expand(w, k - 1).terms) == 1
