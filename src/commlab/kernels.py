"""Kernels: free-letter reduction, Artin substitution, permutation sets.

The package's inner loops on letter strings and permutations live here, in
plain Python. Everything here works on plain data:

* freely reduced letter strings are tuples of nonzero ints, ``+k`` for the
  k-th generator and ``-k`` for its inverse (the same encoding serves words
  in a free group and braid words in the sigma generators);
* permutations of degree d are ``bytes`` of length d mapping position i to
  ``p[i]`` (0-based), so sets of permutations are sets of small bytes objects.

Permutation composition uses ``bytes.translate`` with a 256-entry table,
which keeps permutation products at C speed, and ``bytes.maketrans(p, ident)``
is the inverse of p as such a table; ``invert_perm`` is its first d bytes.

``closure_set`` enumerates a generated group only after an orbit lower bound
on its order (orbit-stabiliser along a truncated stabiliser chain built from
Schreier generators, the first step of Sims' method) has failed to prove it
larger than the cap, so oversized groups are rejected without enumeration.
"""

from __future__ import annotations

import math
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
    return tuple(-c for c in reversed(a))


# ---------------------------------------------------------------------------
# Artin action

def artin_images(strands: int, letters: Sequence[int]) -> list[tuple[int, ...]]:
    """Images of the free generators x_1..x_n under a braid word.

    Braid letters are signed ints (+i for sigma_i, -i for its inverse) and are
    applied left to right: the first letter of the word acts first. Images of
    generators under any braid automorphism are conjugates u x_k u^{-1}, so
    the loop tracks the pair (u, k) per strand and only expands at the end.
    The returned words are freely reduced.
    """
    us: list[list[int]] = [[] for _ in range(strands)]
    ks = list(range(1, strands + 1))
    for lt in letters:
        i = lt if lt > 0 else -lt
        ip = i + 1
        for j in range(strands):
            u = us[j]
            new: list[int] = []
            if lt > 0:
                # sigma_i: x_i -> x_i x_{i+1} x_i^{-1}, x_{i+1} -> x_i
                for c in u:
                    if c == i:
                        _push(new, i)
                        _push(new, ip)
                        _push(new, -i)
                    elif c == -i:
                        _push(new, i)
                        _push(new, -ip)
                        _push(new, -i)
                    elif c == ip:
                        _push(new, i)
                    elif c == -ip:
                        _push(new, -i)
                    else:
                        _push(new, c)
                k = ks[j]
                if k == i:
                    _push(new, i)
                    ks[j] = ip
                elif k == ip:
                    ks[j] = i
            else:
                # sigma_i^{-1}: x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^{-1} x_i x_{i+1}
                for c in u:
                    if c == i:
                        _push(new, ip)
                    elif c == -i:
                        _push(new, -ip)
                    elif c == ip:
                        _push(new, -ip)
                        _push(new, i)
                        _push(new, ip)
                    elif c == -ip:
                        _push(new, -ip)
                        _push(new, -i)
                        _push(new, ip)
                    else:
                        _push(new, c)
                k = ks[j]
                if k == i:
                    ks[j] = ip
                elif k == ip:
                    _push(new, -ip)
                    ks[j] = i
            us[j] = new
    out: list[tuple[int, ...]] = []
    for u, k in zip(us, ks):
        w = list(u)
        _push(w, k)
        for c in reversed(u):
            _push(w, -c)
        out.append(tuple(w))
    return out


def _push(stack: list[int], c: int) -> None:
    if stack and stack[-1] == -c:
        stack.pop()
    else:
        stack.append(c)


# ---------------------------------------------------------------------------
# permutation sets

def compose(p: bytes, q: bytes) -> bytes:
    """Apply p first, then q: result[i] = q[p[i]]."""
    return p.translate(q + _IDENT256[len(q):])


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

    A lower bound on |<gens>| is checked first, and a group it puts above
    ``cap`` is rejected without enumeration. The bound walks a truncated
    stabiliser chain: at base point b of H = <S>, the orbit b^H has
    |H| = |b^H| * |H_b| (orbit-stabiliser), and each Schreier generator
    u_x g u_{x^g}^{-1} (u_y the transversal element taking b to y) fixes b,
    so it lies in H_b. Recursing on the first few of them gives a subgroup
    K <= H_b, and by Lagrange the product of the orbit lengths divides |H|.
    Only the Dimino enumeration below decides a group within the cap; the
    bound rejects nothing that the enumeration would accept. It is skipped
    when d! <= cap, as no group of degree d can then pass the cap.
    """
    if math.factorial(degree) > cap and _order_exceeds(gens, degree, cap):
        return None
    elems: set[bytes] | None = {_IDENT256[:degree]}
    done: list[bytes] = []
    for g in gens:
        elems = extend_subgroup(elems, done, g, cap)
        if elems is None:
            return None
        done.append(g)
    return elems


# Schreier generators kept per level of the bound. Any count gives a valid
# lower bound; 10 makes it exact on S_d and A_d (standard generators) for
# d <= 13, where 8 already falls short at A_12.
_SCHREIER_GENS = 10


def _order_exceeds(gens: Sequence[bytes], degree: int, cap: int) -> bool:
    """True when an orbit lower bound proves |<gens>| > cap.

    Stops as soon as the running bound times the partial orbit passes cap, so
    it makes O(cap) compositions per generator at most. Generators are kept in
    lists and insertion-ordered dicts, never in a set of bytes, whose order
    would follow the hash seed.
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
        for u in reps:
            for t in tables:
                v = u.translate(t)
                x = v[base]
                w = transversal.get(x)
                if w is None:
                    transversal[x] = v
                    reps.append(v)
                    if bound * len(reps) > cap:
                        return True
                elif len(schreier) < _SCHREIER_GENS:
                    s = v.translate(bytes.maketrans(w, ident))
                    if s != ident:
                        schreier[s] = None
        bound *= len(reps)
        level = list(schreier)
    return False
