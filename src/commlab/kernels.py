"""Kernels: letter reduction, the Artin action, strand deletion, permutation sets.

The package's inner loops on letter strings and permutations live here, in
plain Python. Everything here works on plain data:

* freely reduced letter strings are tuples of nonzero ints, ``+k`` for the
  k-th generator and ``-k`` for its inverse. ``reduce_letters``,
  ``multiply_reduced`` and ``invert_reduced`` work on them; they serve
  ``Word``, ``homotopy``, ``artin_images`` (whose images are words) and the
  validation of letters given to ``Braid``;
* braid words, and the words of their strand deletions, are the same
  letters as signed bytes: ``+k`` is the byte k and ``-k`` the byte
  256 - k, so generator indices stop at 127 and a braid takes at most
  ``DELETE_MAX_STRANDS`` = 128 strands. ``join_signed``, ``invert_signed``
  and ``strand_deletions`` work on them and serve ``Braid``;
  ``pack_signed`` and ``unpack_signed`` convert between the two forms;
* permutations of degree d are ``bytes`` of length d mapping position i to
  ``p[i]`` (0-based), so sets of permutations are sets of small bytes objects.

Permutation composition uses ``bytes.translate`` with a 256-entry table,
which keeps permutation products at C speed, and ``bytes.maketrans(p, ident)``
is the inverse of p as such a table; ``invert_perm`` is its first d bytes.

``strand_deletions`` uses the same idiom on strand positions: one pass over
a braid word keeps each strand's position in a ``bytes`` vector and, per
letter, writes one row of deleted letters and moves the two crossing strands
with two ``translate`` calls; deletion s is column s of those rows, freely
reduced. It returns the final positions and the deletions as words of signed
bytes, so it takes at most 128 strands; ``unpack_signed`` turns a deletion
into a tuple of ints. ``join_signed`` multiplies two such words with the
cancellation at the seam found by slice comparisons, which is how a braid
product joins its factors' words and derives its deletions from theirs.

``closure_set`` enumerates a generated group (``dimino``) only after an
orbit lower bound on its order (``_order_bound``, the first step of Sims'
method) has failed to prove it larger than the cap, so oversized groups are
rejected without enumeration.
"""

from __future__ import annotations

import array
import functools
import math
import operator
from typing import Iterable, Sequence

_IDENT256 = bytes(range(256))


# ---------------------------------------------------------------------------
# letter strings


def reduce_letters(letters: Iterable[int]) -> tuple[int, ...]:
    """Freely reduce a letter string, cancelling adjacent c, -c pairs."""
    out: list[int] = []
    for c in letters:
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


def multiply_reduced(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """Concatenate two reduced letter strings, cancelling at the seam."""
    out = list(a)
    i = 0
    n = len(b)
    while out and i < n and out[-1] == -b[i]:
        out.pop()
        i += 1
    out.extend(b[i:])
    return tuple(out)


def invert_reduced(a: Sequence[int]) -> tuple[int, ...]:
    """Inverse of a reduced letter string (reverse and flip signs)."""
    return tuple(map(operator.neg, reversed(a)))


# ---------------------------------------------------------------------------
# Artin action

def artin_images(strands: int, letters: Sequence[int]) -> list[tuple[int, ...]]:
    """Images of the free generators x_1..x_n under a braid word.

    Braid letters are signed ints (+i for sigma_i, -i for its inverse) and act
    left to right, so phi_{s w} = phi_w o phi_s: the loop reads the word from
    its last letter, keeping the images I_1..I_n of the suffix read so far.
    sigma_i rewrites (I_i, I_{i+1}) to (I_i I_{i+1} I_i^{-1}, I_i) and
    sigma_i^{-1} to (I_{i+1}, I_{i+1}^{-1} I_i I_{i+1}); all are freely reduced.
    """
    images = [(k,) for k in range(1, strands + 1)]
    for lt in reversed(letters):
        i = abs(lt) - 1
        a, b = images[i], images[i + 1]
        if lt > 0:
            images[i] = multiply_reduced(multiply_reduced(a, b), invert_reduced(a))
            images[i + 1] = a
        else:
            images[i] = b
            images[i + 1] = multiply_reduced(multiply_reduced(invert_reduced(b), a), b)
    return images


# ---------------------------------------------------------------------------
# strand deletion

# Braid words and their deletions are signed bytes, so the largest
# generator index is 127; this is the strand limit of every braid.
DELETE_MAX_STRANDS = 128


# one entry per strand count, so the cache holds at most DELETE_MAX_STRANDS
@functools.lru_cache(maxsize=None)
def _deletion_tables(strands: int) -> tuple[list[bytes], list[bytes]]:
    """Per-letter ``translate`` tables over strand positions (0-based).

    Both lists are indexed by the letter itself, so -i lands at 256 - i.
    ``out[c]`` maps the position of a strand to the letter c leaves once that
    strand is deleted, as a signed byte: c with its index lowered by one below
    the crossing, c itself above it, and 0 for the two strands crossing at c.
    ``swap[c]`` exchanges the two crossing positions.
    """
    out = [b""] * 256
    swap = [b""] * 256
    for i in range(1, strands):
        crossed = _IDENT256[: i - 1] + bytes([i, i - 1]) + _IDENT256[i + 1 :]
        for c in (i, -i):
            low = c - 1 if c > 0 else c + 1
            row = [low & 255] * (i - 1) + [0, 0] + [c & 255] * (strands - i - 1)
            out[c] = bytes(row).ljust(256, b"\0")
            swap[c] = crossed
    return out, swap


def strand_deletions(
    strands: int, letters: Sequence[int]
) -> tuple[bytes, tuple[bytes, ...]]:
    """Where each strand of a braid word ends, and every strand's deletion.

    Returns the final positions as ``bytes`` (entry s is where the strand
    that starts at position s ends, 0-based: a permutation) and deletion s as
    a freely reduced word of signed bytes. The pass keeps every strand's
    position in one ``bytes`` vector and, per letter, appends the letter each
    strand's deletion keeps (0 where the strand crosses) as one row of a
    strands-wide grid; column s of that grid, with its zeros dropped, is
    deletion s before free reduction. It takes 2 to ``DELETE_MAX_STRANDS``
    strands: letters are signed bytes. The word may be given as ints or as
    signed bytes, since the tables put -i and the byte 256 - i in one slot.
    """
    if not 2 <= strands <= DELETE_MAX_STRANDS:
        raise ValueError(
            f"strand deletion takes 2 to {DELETE_MAX_STRANDS} strands, got {strands}"
        )
    out, swap = _deletion_tables(strands)
    pos = _IDENT256[:strands]
    grid = bytearray()
    for c in letters:
        grid += pos.translate(out[c])
        pos = pos.translate(swap[c])
    words = []
    for s in range(strands):
        # The reduced word is stack[1:] + [top]. A letter x and its inverse
        # 256 - x sum to 256; the sentinel 0 under the word sums to 256
        # with no letter, so it is never popped.
        stack: list[int] = []
        push, pop = stack.append, stack.pop
        top = 0
        for x in grid[s::strands].translate(None, b"\0"):
            if top + x != 256:
                push(top)
                top = x
            else:
                top = pop()
        push(top)
        words.append(bytes(stack[1:]))
    return pos, tuple(words)


# x -> -x on signed bytes: 0 stays, x goes to 256 - x
_NEGATE = _IDENT256[:1] + _IDENT256[:0:-1]


def pack_signed(letters: Iterable[int]) -> bytes:
    """A word of signed bytes from letters in -128..127; ``unpack_signed``
    reverses it."""
    return array.array("b", letters).tobytes()


def unpack_signed(w: bytes) -> tuple[int, ...]:
    """The letters of a word of signed bytes, as a tuple of ints."""
    return tuple(memoryview(w).cast("b"))


def invert_signed(w: bytes) -> bytes:
    """Inverse of a reduced word of signed bytes (reverse and negate)."""
    return w[::-1].translate(_NEGATE)


def join_signed(a: bytes, b: bytes) -> bytes:
    """Concatenate two reduced words of signed bytes, cancelling at the seam.

    The seam cancels the longest suffix of a that is the inverse of a prefix
    of b. If k letters cancel, so do fewer, so k is found by doubling a
    trial length while it cancels and then bisecting between the last length
    that cancels and the first that does not; each trial is one slice
    comparison. The result is reduced, like ``multiply_reduced``'s.
    """
    if not a or not b or a[-1] + b[0] != 256:
        return a + b
    end = len(a)
    m = min(end, len(b))
    # k letters cancel iff a[end - k:] == inv[m - k:]
    inv = invert_signed(b[:m])
    lo, hi = 1, 2  # lo letters cancel; hi letters do not, once hi <= m
    while hi <= m and a[end - hi:] == inv[m - hi:]:
        lo, hi = hi, 2 * hi
    hi = min(hi, m + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if a[end - mid:] == inv[m - mid:]:
            lo = mid
        else:
            hi = mid
    return a[: end - lo] + b[lo:]


# ---------------------------------------------------------------------------
# permutation sets

def perm_table(p: bytes) -> bytes:
    """The 256-byte ``translate`` table of p: ``x.translate(perm_table(p))``
    applies x first, then p."""
    return p + _IDENT256[len(p):]


def compose(p: bytes, q: bytes) -> bytes:
    """Apply p first, then q: result[i] = q[p[i]]."""
    return p.translate(perm_table(q))


def invert_perm(p: bytes) -> bytes:
    return bytes.maketrans(p, _IDENT256[:len(p)])[:len(p)]


def extend_subgroup(
    elems: set[bytes],
    gens: Sequence[bytes],
    new_gen: bytes,
    cap: int,
) -> set[bytes] | None:
    """Extend the subgroup ``<gens>`` (materialised in elems) by one generator.

    Dimino step: walks cosets of the base subgroup, filling each new coset in
    one pass. Returns the enlarged element set, or None when it would exceed
    ``cap`` elements.
    """
    if new_gen in elems:
        return elems
    base = list(elems)
    out = set(elems)
    tables = [g + _IDENT256[len(g):] for g in [*gens, new_gen]]
    queue = [new_gen]
    while queue:
        rep = queue.pop()
        if rep in out:
            continue
        rt = rep + _IDENT256[len(rep):]
        for b in base:
            out.add(b.translate(rt))
        if len(out) > cap:
            return None
        for t in tables:
            queue.append(rep.translate(t))
    return out


def closure_set(
    gens: Sequence[bytes], degree: int, cap: int
) -> set[bytes] | None:
    """Element set of the subgroup generated by ``gens``, or None past cap.

    A group that ``_order_bound`` puts above ``cap`` is rejected without
    enumeration; only ``dimino`` decides a group within the cap. Like the
    enumeration, the bound never rejects the trivial group, even at cap 0. It
    is skipped when d! <= cap, as no group of degree d can then pass the cap.
    """
    if math.factorial(degree) > cap:
        if _order_bound(gens, degree, cap) > max(cap, 1):
            return None
    return dimino(gens, degree, cap)


def dimino(gens: Sequence[bytes], degree: int, cap: int) -> set[bytes] | None:
    """Element set of <gens> by one Dimino extension per generator, or None
    past cap; it runs no bound first."""
    elems: set[bytes] | None = {_IDENT256[:degree]}
    for i, g in enumerate(gens):
        elems = extend_subgroup(elems, gens[:i], g, cap)
        if elems is None:
            return None
    return elems


# Schreier generators kept per level of the bound. Any count gives a valid
# lower bound; 10 makes it exact on S_d and A_d (standard generators) for
# d <= 13, where 8 already falls short at A_12.
_SCHREIER_GENS = 10


def _order_bound(gens: Sequence[bytes], degree: int, cap: int) -> int:
    """A lower bound on |<gens>|, returned as soon as it passes ``cap``.

    It walks a truncated stabiliser chain: at base point b of H = <S>, the
    orbit b^H has |H| = |b^H| * |H_b| (orbit-stabiliser), and each Schreier
    generator u_x g u_{x^g}^{-1} (u_y the transversal element taking b to y)
    fixes b, so it lies in H_b. Recursing on the first few of them gives a
    subgroup K <= H_b, and by Lagrange the product of the orbit lengths
    divides |H|. A partial orbit is shorter still, so the walk stops once the
    running bound times one passes cap: O(cap) compositions per generator at
    most. Generators are kept in lists and insertion-ordered dicts, never in
    a set of bytes, whose order would follow the hash seed.
    """
    ident = _IDENT256[:degree]
    level = [g for g in dict.fromkeys(gens) if g != ident]
    bound = 1
    base = 0
    while level:
        while all(g[base] == base for g in level):
            base += 1
        tables = [g + _IDENT256[degree:] for g in level]
        transversal = {base: ident}
        reps = [ident]
        schreier: dict[bytes, None] = {}
        # every generator of the level fixes the points below base, so the
        # orbit of base is full at degree - base points; once it is full and
        # the Schreier generators are in, the remaining reps add nothing
        full = degree - base
        for u in reps:
            for t in tables:
                v = u.translate(t)
                x = v[base]
                w = transversal.get(x)
                if w is None:
                    transversal[x] = v
                    reps.append(v)
                    if bound * len(reps) > cap:
                        return bound * len(reps)
                elif v != w and len(schreier) < _SCHREIER_GENS:
                    # v = w would give the identity
                    schreier[v.translate(bytes.maketrans(w, ident))] = None
            if len(reps) == full and len(schreier) == _SCHREIER_GENS:
                break
        bound *= len(reps)
        level = list(schreier)
    return bound
