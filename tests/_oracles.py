"""Independent brute-force oracles used to freeze expected values.

Everything here is deliberately naive and, except ``ordered_walk``, shares no
code with the package: permutations are tuples of 0-based ints, closures are
fixed-point scans, and commutator subgroups are closures of all element-level
commutators. The real implementations must agree with these on small
instances. ``ordered_walk`` reuses the package's commutator and product of
subgroups, which the element-level oracles check, so that it reaches n = 5.
"""

from __future__ import annotations

from itertools import permutations, product

from commlab.finite import (
    NormalSubgroup,
    SubgroupCache,
    commutator_subgroup,
    product_subgroup,
)


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
    cache = SubgroupCache()
    total = NormalSubgroup.trivial(G)
    for order in permutations(range(len(Rs))):
        if first_slot_only and order[0] != 0:
            continue
        term = Rs[order[0]]
        for i in order[1:]:
            term = commutator_subgroup(term, Rs[i], cache)
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
