"""The benchmark's seeded workloads: one verdict per op, checked on the spot.

Each workload is built from the workload seed alone and hands the library
only the inputs it generates: instance seeds, stream seeds and small fixed
words. ``next_op()`` returns the name of the stream the op belongs to and a
zero-argument callable; the worker times the callable, which makes the calls
into ``commlab`` in the order the matching CLI subcommand makes them and
returns True only when every verdict equals its known answer. A verdict of
None (undecided) or an exception counts as a failed op.

Instance and stream seeds are ``seed * SEED_STRIDE + offset``, so the CLI can
replay a run: ``commlab verify-finite --seed <first> --trials <ops>`` checks
the same instances as the ``verify_finite`` workload.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path
from typing import Callable

from commlab import braids, finite, homotopy, magnus, sampling, words

SEED_STRIDE = 100_000
CONJ_DEPTH = 4  # the CLI default for brunnian and homotopy
ROOT = Path(__file__).resolve().parent.parent

Op = Callable[[], bool]


class Workload:
    streams: dict[str, int]  # stream name -> the seed a CLI replay takes

    def next_op(self) -> tuple[str, Op]:
        raise NotImplementedError

    def spot_check(self) -> dict[str, bool]:
        """Untimed known-answer checks run once after the timed loop."""
        return {}


class VerifyFinite(Workload):
    """``commlab verify-finite --n 3`` at default caps, one instance per op."""

    name = "verify_finite"
    degree_cap = 10
    order_cap = 2000
    fat = True

    def __init__(self, seed: int):
        self.first = seed * SEED_STRIDE
        self.k = 0
        self.streams = {self.name: self.first}

    def next_op(self) -> tuple[str, Op]:
        seed = self.first + self.k
        self.k += 1
        return self.name, lambda: self._check(seed)

    def _check(self, seed: int) -> bool:
        inst = finite.random_instance(
            seed, n=3, degree_cap=self.degree_cap, order_cap=self.order_cap
        )
        cache = finite.SubgroupCache()
        ok = True
        if self.fat:
            fat = finite.verify_fat_equals_symmetric(
                inst.group, inst.subgroups, None, finite.DEFAULT_FAT_BUDGET, cache
            )
            ok = (
                fat.passed is True
                and fat.stabilized is True
                and fat.fat_order == fat.symmetric_order
            )
        restr = finite.verify_first_slot_restriction(
            inst.group, inst.subgroups, cache
        )
        A, B, C = finite.random_normal_triple(inst.group, seed)
        rule = finite.verify_product_rule(A, B, C, cache)
        hall = finite.verify_hall(A, B, C, cache)
        # Connectivity may fail honestly; it is timed work, not a verdict.
        finite.verify_connectivity(inst.group, inst.subgroups, I=(1, 2), J=(3,))
        return (
            ok
            and restr.passed is True
            and restr.symmetric_order == restr.restricted_order
            and rule.passed is True
            and rule.lhs_order == rule.rhs_order
            and hall.passed is True
            and all(hall.containments)
        )

    def spot_check(self) -> dict[str, bool]:
        """Symmetric and commutator subgroups vs the independent test oracles."""
        if not self.fat:
            return {}
        oracles = _load_oracles()

        def tuples(elements):
            return {tuple(p) for p in elements}

        out = {}
        for j in range(3):
            inst = finite.random_instance(
                self.first + SEED_STRIDE // 2 + j, n=2, degree_cap=5, order_cap=48
            )
            A, B = inst.subgroups
            out[f"symmetric_{j}"] = tuples(
                finite.symmetric_commutator(inst.group, inst.subgroups).elements
            ) == oracles.oracle_symmetric([tuples(R.elements) for R in inst.subgroups])
            out[f"commutator_{j}"] = tuples(
                finite.commutator_subgroup(A, B).elements
            ) == oracles.oracle_commutator_subgroup(
                tuples(A.elements), tuples(B.elements)
            )
        return out


class SubgroupRules(VerifyFinite):
    """Larger carriers, no fat enumeration: closures and memo misses."""

    name = "subgroup_rules"
    degree_cap = 12
    order_cap = 20000
    fat = False


class Brunnian(Workload):
    """Sampled Brunnian braids on 6, 7, 8 strands plus non-Brunnian controls.

    A cycle is three rounds of one sample per strand count, then two pure
    controls that must come out non-Brunnian: the generator A_{1,2}, and the
    last sample on that strand count times A_{1,2}.
    """

    strand_counts = (6, 7, 8)
    rounds = 3

    def __init__(self, seed: int):
        self.streams = {f"n{n}": seed * SEED_STRIDE + n for n in self.strand_counts}
        self.samplers = {
            n: braids.sample_brun_generators(
                n, CONJ_DEPTH, self.streams[f"n{n}"], sys.maxsize
            )
            for n in self.strand_counts
        }
        self.last: dict[int, braids.Braid] = {}
        self.k = 0

    def next_op(self) -> tuple[str, Op]:
        per_cycle = self.rounds * len(self.strand_counts) + 2
        cycle, slot = divmod(self.k, per_cycle)
        self.k += 1
        if slot < per_cycle - 2:
            return self._sample_op(self.strand_counts[slot % len(self.strand_counts)])
        n = self.strand_counts[cycle % len(self.strand_counts)]
        if slot == per_cycle - 2:
            return "controls", lambda: braids.is_brunnian(braids.gen_a(1, 2, n)) is False
        last = self.last[n]
        return "controls", lambda: (
            braids.is_brunnian(last * braids.gen_a(1, 2, n)) is False
        )

    def _sample_op(self, n: int) -> tuple[str, Op]:
        def op() -> bool:
            b = next(self.samplers[n])
            self.last[n] = b
            return braids.is_brunnian(b) is True

        return f"n{n}", op


class Certificates(Workload):
    """pi_2 / pi_3 certificate samples mixed with Magnus law pairs.

    A cycle of ten ops: four pi_3 samples interleaved with four Magnus law
    pairs, one pi_2 sample, and one control that alternates between the
    witness [x1, x2] (in the intersection, not in gamma_3) and a
    non-commuting pair whose expansions must differ.
    """

    def __init__(self, seed: int):
        base = seed * SEED_STRIDE
        self.streams = {"pi2": base + 2, "pi3": base + 3, "magnus": base + 8}
        x1, x2, x3 = (words.Word((k,)) for k in (1, 2, 3))
        self.pres2 = homotopy.SpherePresentation(2)
        self.pres3 = homotopy.SpherePresentation(3)
        self.partition3 = homotopy.Partition.singletons(3)
        specs2 = (
            sampling.SubgroupSpec((x1,), "R1"),
            sampling.SubgroupSpec((x1.inverse(),), "R2"),
        )
        specs3 = (
            sampling.SubgroupSpec((x1,), "R1"),
            sampling.SubgroupSpec((x2,), "R2"),
            sampling.SubgroupSpec(((x1 * x2).inverse(),), "R3"),
        )
        self.pi2_words = random.Random(self.streams["pi2"])
        self.pi2_gens = sampling.symmetric_generators(
            specs2, CONJ_DEPTH, self.streams["pi2"]
        )
        self.pi3_gens = sampling.symmetric_generators(
            specs3, CONJ_DEPTH, self.streams["pi3"]
        )
        self.magnus_rng = random.Random(self.streams["magnus"])
        self.x1, self.x2, self.x3 = x1, x2, x3
        self.k = 0

    def next_op(self) -> tuple[str, Op]:
        cycle, slot = divmod(self.k, 10)
        self.k += 1
        if slot < 8:
            return ("pi3", self._pi3) if slot % 2 == 0 else ("magnus", self._magnus)
        if slot == 8:
            return "pi2", self._pi2
        if cycle % 2 == 0:
            return "controls", self._witness
        cutoff = 2 + (cycle // 2) % 4
        return "controls", lambda: self._noncommuting(cutoff)

    def _pi3(self) -> bool:
        g = next(self.pi3_gens)
        inside = homotopy.in_intersection(self.pres3, g, self.partition3)
        in_gamma = magnus.gamma_membership(g, 3)
        return inside is True and in_gamma is True

    def _pi2(self) -> bool:
        rng = self.pi2_words
        w = sampling.random_reduced_word(rng, 1, rng.randint(0, 12))
        in_r1 = homotopy.in_block_closure(self.pres2, w, {1})
        in_r2 = homotopy.in_block_closure(self.pres2, w, {2})
        trivial = next(self.pi2_gens).is_identity
        return in_r1 is True and in_r2 is True and trivial is True

    def _magnus(self) -> bool:
        rng = self.magnus_rng
        cutoff = rng.randint(1, 5)
        u = sampling.random_reduced_word(rng, 3, rng.randint(0, 6))
        v = sampling.random_reduced_word(rng, 3, rng.randint(0, 6))
        homomorphic = magnus.expand(u * v, cutoff) == (
            magnus.expand(u, cutoff) * magnus.expand(v, cutoff)
        )
        inverse = magnus.expand(u.inverse(), cutoff) * magnus.expand(
            u, cutoff
        ) == magnus.TruncatedSeries.one(cutoff)
        return homomorphic and inverse

    def _witness(self) -> bool:
        w = words.commutator(self.x1, self.x2)
        inside = homotopy.in_intersection(self.pres3, w, self.partition3)
        return inside is True and magnus.gamma_membership(w, 3) is False

    def _noncommuting(self, cutoff: int) -> bool:
        u = self.x1 * self.x3
        v = self.x2
        return magnus.expand(u * v, cutoff) != magnus.expand(v * u, cutoff)

WORKLOADS = {
    "verify_finite": VerifyFinite,
    "subgroup_rules": SubgroupRules,
    "brunnian": Brunnian,
    "certificates": Certificates,
}


def _load_oracles():
    path = ROOT / "tests" / "_oracles.py"
    spec = importlib.util.spec_from_file_location("_oracles", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
