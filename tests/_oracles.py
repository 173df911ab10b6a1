"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and, except ``ordered_walk``, shares no
code with the package: permutations are tuples of 0-based ints (``from_cycles``
builds the package's own bytes form for test inputs), closures are
fixed-point scans, and commutator subgroups are closures of all element-level
commutators. The real implementations must agree with these on small
instances. ``ordered_walk`` reuses the package's commutator and product of
subgroups, which the element-level oracles check, so that it reaches n = 5.
"""

from __future__ import annotations

from itertools import permutations, product

from commlab.finite import (
    NormalSubgroup,
    commutator_subgroup,
    product_subgroup,
)


def from_cycles(degree: int, *cycles: tuple[int, ...]) -> bytes:
    """The permutation with these 1-based cycles, stored 0-based as bytes."""
    out = list(range(degree))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            out[a - 1] = b - 1
    return bytes(out)


def o_mul(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """Apply p first, then q (matching the package convention)."""
    return tuple(q[v] for v in p)


def o_inv(p: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def o_comm(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """[a, b] = a^-1 b^-1 a b."""
    return o_mul(o_mul(o_mul(o_inv(a), o_inv(b)), a), b)


def o_conj(p: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """p^g = g^-1 p g."""
    return o_mul(o_mul(o_inv(g), p), g)


def oracle_closure(gens, degree: int) -> set[tuple[int, ...]]:
    """Fixed-point subgroup closure under products and inverses."""
    elems = {tuple(range(degree))}
    elems.update(tuple(g) for g in gens)
    while True:
        new = set()
        for p in elems:
            inv = o_inv(p)
            if inv not in elems:
                new.add(inv)
            for q in elems:
                r = o_mul(p, q)
                if r not in elems:
                    new.add(r)
        if not new:
            return elems
        elems |= new


def oracle_normal_closure(group, seeds) -> set[tuple[int, ...]]:
    """Fixed point under products, inverses and conjugation by all elements."""
    degree = len(next(iter(group)))
    elems = set(oracle_closure(seeds, degree))
    while True:
        new = set()
        for p in elems:
            for g in group:
                c = o_conj(p, g)
                if c not in elems:
                    new.add(c)
        if not new:
            return elems
        elems = oracle_closure(elems | new, degree)


def oracle_is_normal(group, sub) -> bool:
    """Every conjugate of every element of sub by every element of group is in sub."""
    sub = set(sub)
    return all(o_conj(p, g) in sub for p in sub for g in group)


def oracle_commutator_subgroup(A, B) -> set[tuple[int, ...]]:
    """Closure of all element-level commutators [a, b]."""
    degree = len(next(iter(A)))
    seeds = {o_comm(a, b) for a in A for b in B}
    return oracle_closure(seeds, degree)


def oracle_set_product(A, B) -> set[tuple[int, ...]]:
    return {o_mul(a, b) for a in A for b in B}


def oracle_symmetric(Rs) -> set[tuple[int, ...]]:
    """Product over all orderings of iterated element-level commutators."""
    degree = len(next(iter(Rs[0])))
    total = {tuple(range(degree))}
    for order in permutations(range(len(Rs))):
        term = set(Rs[order[0]])
        for i in order[1:]:
            term = oracle_commutator_subgroup(term, Rs[i])
        total = oracle_set_product(total, term)
    return oracle_closure(total, degree)


def ordered_walk(G, Rs, first_slot_only: bool = False) -> NormalSubgroup:
    """Product of [R_s1, ..., R_sn] over the orderings, walked one by one.

    With ``first_slot_only`` only the orderings that keep R_1 first count.
    """
    total = NormalSubgroup.trivial(G)
    for order in permutations(range(len(Rs))):
        if first_slot_only and order[0] != 0:
            continue
        term = Rs[order[0]]
        for i in order[1:]:
            term = commutator_subgroup(term, Rs[i])
        total = product_subgroup(total, term)
    return total


def oracle_fat(Rs, weight_cap: int) -> set[tuple[int, ...]]:
    """Closure of all bracket values over all element tuples (tiny inputs!)."""
    n = len(Rs)
    degree = len(next(iter(Rs[0])))
    shapes_by_weight = {t: _shapes(t) for t in range(n, weight_cap + 1)}
    seeds = set()
    for t in range(n, weight_cap + 1):
        for assignment in product(range(n), repeat=t):
            if set(assignment) != set(range(n)):
                continue
            pools = [sorted(Rs[i]) for i in assignment]
            for shape in shapes_by_weight[t]:
                for tup in product(*pools):
                    seeds.add(_eval_shape(shape, tup))
    return oracle_closure(seeds, degree)


def _shapes(t: int):
    """All full binary trees with t leaves, as nested (left, right) pairs."""
    if t == 1:
        return [0]
    out = []
    for k in range(1, t):
        for left in _shapes(k):
            for right in _shapes(t - k):
                out.append((k, left, right))
    return out


def _eval_shape(shape, args, offset: int = 0):
    if shape == 0:
        return args[offset]
    k, left, right = shape
    return o_comm(
        _eval_shape(left, args, offset),
        _eval_shape(right, args, offset + k),
    )


def oracle_generated(gens, degree: int, cap: int) -> set[tuple[int, ...]] | None:
    """Elements reached from the identity by right multiplication by gens.

    In a finite group that is the generated subgroup. Returns None once more
    than ``cap`` elements have been reached. Unlike ``oracle_closure`` it costs
    |G| * len(gens) products, so it reaches the symmetric group S_7.
    """
    gens = [tuple(g) for g in gens]
    elems = {tuple(range(degree))}
    frontier = list(elems)
    while frontier:
        p = frontier.pop()
        for g in gens:
            r = o_mul(p, g)
            if r not in elems:
                elems.add(r)
                if len(elems) > cap:
                    return None
                frontier.append(r)
    return elems


def oracle_span(pool, degree: int) -> tuple[list, set[tuple[int, ...]]]:
    """Generators and elements of the subgroup generated by ``pool``.

    Walks the sorted pool and keeps each element not yet reached as a new
    generator, regenerating with ``oracle_generated``. At most log2 |H|
    generators are kept, so it costs about |H| log2 |H| products, not
    |H| * |pool|.
    """
    gens: list[tuple[int, ...]] = []
    elems = {tuple(range(degree))}
    for x in sorted({tuple(p) for p in pool}):
        if x not in elems:
            gens.append(x)
            elems = oracle_generated(gens, degree, float("inf"))
    return gens, elems


def oracle_conjugates(group_gens, seeds) -> set[tuple[int, ...]]:
    """Every conjugate of the seeds by the group that ``group_gens`` generate."""
    group_gens = [tuple(g) for g in group_gens]
    out = {tuple(s) for s in seeds}
    frontier = list(out)
    while frontier:
        p = frontier.pop()
        for g in group_gens:
            c = o_conj(p, g)
            if c not in out:
                out.add(c)
                frontier.append(c)
    return out


def oracle_normal_closure_by_conjugates(
    group_gens, seeds, degree: int
) -> set[tuple[int, ...]]:
    """The subgroup generated by all conjugates of the seeds.

    Unlike ``oracle_normal_closure`` it never runs over the whole group, so it
    reaches carriers of a few thousand elements.
    """
    return oracle_span(oracle_conjugates(group_gens, seeds), degree)[1]


def oracle_commutator_of_normal(
    group_gens, A, B, degree: int
) -> set[tuple[int, ...]]:
    """[A, B] for normal subgroups A = <X>, B = <Y> of the group.

    It is the normal closure of the [x, y]: modulo that closure each x
    commutes with each y, hence A with B. X and Y come from ``oracle_span``.
    """
    X = oracle_span(A, degree)[0]
    Y = oracle_span(B, degree)[0]
    seeds = {o_comm(x, y) for x in X for y in Y}
    return oracle_normal_closure_by_conjugates(group_gens, seeds, degree)


def oracle_reduce(letters) -> tuple[int, ...]:
    """Delete the first adjacent (c, -c) pair until none is left."""
    w = list(letters)
    while True:
        for i in range(len(w) - 1):
            if w[i] == -w[i + 1]:
                del w[i : i + 2]
                break
        else:
            return tuple(w)


def oracle_artin_images(strands: int, letters) -> list[tuple[int, ...]]:
    """Images of x_1..x_n under a braid word, by whole-word substitution.

    The first letter acts first: each letter's automorphism is substituted
    into the current image words, which are then reduced.
    sigma_i: x_i -> x_i x_{i+1} x_i^-1, x_{i+1} -> x_i;
    sigma_i^-1: x_i -> x_{i+1}, x_{i+1} -> x_{i+1}^-1 x_i x_{i+1}.
    """
    images = [(k,) for k in range(1, strands + 1)]
    for lt in letters:
        i = abs(lt)
        if lt > 0:
            step = {i: (i, i + 1, -i), i + 1: (i,)}
        else:
            step = {i: (i + 1,), i + 1: (-(i + 1), i, i + 1)}
        images = [oracle_reduce(_substitute(step, w)) for w in images]
    return images


def _substitute(step, word) -> list[int]:
    out: list[int] = []
    for c in word:
        image = step.get(abs(c), (abs(c),))
        out.extend(image if c > 0 else [-x for x in reversed(image)])
    return out


def oracle_follow_strand(strands: int, letters, j: int) -> list[int]:
    """The letters left after deleting strand j, shifted but not reduced.

    Tracks the full arrangement of strands across the word: a crossing of
    positions i, i+1 is dropped when strand j is one of the two, and kept
    with its index lowered by the number of positions below i that strand j
    occupies (0 or 1) otherwise.
    """
    at = list(range(1, strands + 1))  # at[p - 1] is the strand at position p
    out: list[int] = []
    for c in letters:
        i = abs(c)
        if j not in (at[i - 1], at[i]):
            shift = 1 if at.index(j) < i - 1 else 0
            out.append((i - shift) * (1 if c > 0 else -1))
        at[i - 1], at[i] = at[i], at[i - 1]
    return out


def oracle_is_pure(strands: int, letters) -> bool:
    """True iff every strand ends at its start position.

    Swaps the two strands of the arrangement at each crossing, whatever its
    sign, and compares the final arrangement with the first.
    """
    at = list(range(1, strands + 1))  # at[p - 1] is the strand at position p
    for c in letters:
        i = abs(c)
        at[i - 1], at[i] = at[i], at[i - 1]
    return at == list(range(1, strands + 1))


def oracle_delete_strand(strands: int, letters, j: int) -> tuple[int, ...]:
    """Delete strand j (1-based start position) from a braid word, then reduce."""
    return oracle_reduce(oracle_follow_strand(strands, letters, j))


def oracle_expand(letters, cutoff: int) -> dict[tuple[int, ...], int]:
    """Magnus expansion as the product of every letter's truncated series.

    x_k maps to 1 + X_k and x_k^-1 to 1 - X_k + X_k^2 - ...; the product of
    two series multiplies every pair of monomials whose degrees fit under the
    cutoff. Monomials are tuples of generator indices; zero terms are dropped.
    """
    out: dict[tuple[int, ...], int] = {(): 1}
    for c in letters:
        k = abs(c)
        # the factor's terms in order of degree: term d has degree d
        if c > 0:
            factor = [((), 1), ((k,), 1)]
        else:
            factor = [((k,) * d, (-1) ** d) for d in range(cutoff + 1)]
        acc: dict[tuple[int, ...], int] = {}
        for m1, c1 in out.items():
            for m2, c2 in factor[: cutoff - len(m1) + 1]:
                mono = m1 + m2
                acc[mono] = acc.get(mono, 0) + c1 * c2
        out = {m: v for m, v in acc.items() if v}
    return out


def oracle_series_product(a, b, cutoff: int) -> dict[tuple[int, ...], int]:
    """Product of two truncated series given as dicts of monomial terms.

    Walks every pair of monomials, skips the pairs whose degrees add up past
    the cutoff, and drops a coefficient as soon as it sums to zero.
    """
    acc: dict[tuple[int, ...], int] = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) > cutoff:
                continue
            mono = m1 + m2
            val = acc.get(mono, 0) + c1 * c2
            if val:
                acc[mono] = val
            elif mono in acc:
                del acc[mono]
    return acc
