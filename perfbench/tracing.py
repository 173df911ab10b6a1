"""Per-layer tracing from outside the library: wrap public functions in place.

Every wrapped function is replaced in every ``commlab`` module namespace that
holds it, because ``from x import f`` binds a second name that a patch of
``x.f`` alone would miss (``finite.enumerate_brackets``,
``homotopy.gamma_membership``, ``homotopy.symmetric_generators``, and the
kernels, which ``_kernels_py.closure_set`` looks up in its own module).

Self time uses a stack of child-time accumulators: a wrapped call adds its
whole duration to its caller's accumulator and books its duration minus its
own accumulator. Hot functions (the fat enumeration makes ~10^5
``commutator_subgroup`` calls per instance) are aggregated as call counts and
seconds rather than stored as one span per call; ``end_op`` folds the per-op
state into the run totals.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

from commlab import braids, brackets, finite, homotopy, kernels, magnus, sampling, words

Observer = Callable[["Tracer", Any, tuple], None]


def _elems_out(tr, result, args):
    if result is not None:
        tr.counts["kernels.extend_subgroup.elems_out"] += len(result)


def _closure_useful(tr, result, args):
    tr.counts["kernels.closure_set.useful"] += result is not None


def _letters_in(tr, result, args):
    tr.counts["kernels.artin_images.letters_in"] += len(args[1])


def _evaluations(tr, result, args):
    tr.counts["finite.fat_commutator.evaluations"] += result.evaluations


def _distinct(tr, result, args):
    tr.op_distinct.add(result.elements)


def _cache_hit(tr, result, args):
    tr.counts["finite.commutator_subgroup.hits"] += result is not None


def _sample_letters(tr, result, args):
    tr.counts["braids.sample.letters"] += len(result)


def _undecided(tr, result, args):
    tr.counts["homotopy.undecided"] += result is None


def _terms_out(tr, result, args):
    tr.counts["magnus.expand.terms_out"] += len(result.terms)


# (layer name, function, observer or None)
TRACED: list[tuple[str, Callable, Observer | None]] = [
    ("kernels.extend_subgroup", kernels.extend_subgroup, _elems_out),
    ("kernels.closure_set", kernels.closure_set, _closure_useful),
    ("kernels.artin_images", kernels.artin_images, _letters_in),
    ("kernels.reduce_letters", kernels.reduce_letters, None),
    ("kernels.multiply_reduced", kernels.multiply_reduced, None),
    ("finite.fat_commutator", finite.fat_commutator, _evaluations),
    ("brackets.enumerate_brackets", brackets.enumerate_brackets, None),
    ("finite.commutator_subgroup", finite.commutator_subgroup, _distinct),
    ("finite.random_instance", finite.random_instance, None),
    ("finite.normal_closure", finite.normal_closure, None),
    ("finite.product_subgroup", finite.product_subgroup, None),
    ("finite.symmetric_commutator", finite.symmetric_commutator, None),
    ("finite.verify_product_rule", finite.verify_product_rule, None),
    ("finite.verify_hall", finite.verify_hall, None),
    ("finite.verify_connectivity", finite.verify_connectivity, None),
    ("braids.sample_brun_generators", braids.sample_brun_generators, _sample_letters),
    ("braids.delete_strand", braids.delete_strand, None),
    ("braids.artin_action", braids.artin_action, None),
    ("braids.is_pure", braids.is_pure, None),
    ("homotopy.one_relator_membership", homotopy.one_relator_membership, _undecided),
    ("homotopy.in_intersection", homotopy.in_intersection, None),
    ("magnus.expand", magnus.expand, _terms_out),
    ("magnus.gamma_membership", magnus.gamma_membership, None),
    ("sampling.symmetric_generators", sampling.symmetric_generators, None),
    ("sampling.random_reduced_word", sampling.random_reduced_word, None),
    ("words.commutator", words.commutator, None),
]


# The per-layer metrics the benchmark reports, in BENCHMARK.json order.
PER_LAYER = (
    "kernels.extend_subgroup.calls",
    "kernels.extend_subgroup.self_s",
    "kernels.extend_subgroup.elems_out",
    "kernels.closure_set.calls",
    "kernels.closure_set.self_s",
    "kernels.closure_set.useful_ratio",
    "kernels.artin_images.calls",
    "kernels.artin_images.self_s",
    "kernels.artin_images.letters_in",
    "kernels.reduce_letters.calls",
    "kernels.reduce_letters.self_s",
    "kernels.multiply_reduced.calls",
    "kernels.multiply_reduced.self_s",
    "finite.fat_commutator.self_s",
    "finite.fat_commutator.evaluations",
    "brackets.enumerate_brackets.calls",
    "finite.commutator_subgroup.calls",
    "finite.commutator_subgroup.self_s",
    "finite.commutator_subgroup.hit_ratio",
    "finite.commutator_subgroup.distinct_ratio",
    "finite.random_instance.self_s",
    "finite.normal_closure.calls",
    "finite.normal_closure.self_s",
    "finite.product_subgroup.calls",
    "finite.product_subgroup.self_s",
    "finite.symmetric_commutator.self_s",
    "finite.verify_product_rule.self_s",
    "finite.verify_hall.self_s",
    "finite.verify_connectivity.self_s",
    "braids.sample_brun_generators.self_s",
    "braids.sample.letters",
    "braids.delete_strand.calls",
    "braids.delete_strand.self_s",
    "braids.artin_action.self_s",
    "braids.is_pure.self_s",
    "homotopy.one_relator_membership.calls",
    "homotopy.one_relator_membership.self_s",
    "homotopy.undecided",
    "homotopy.in_intersection.self_s",
    "magnus.expand.calls",
    "magnus.expand.self_s",
    "magnus.expand.terms_out",
    "magnus.gamma_membership.self_s",
    "sampling.symmetric_generators.self_s",
    "sampling.random_reduced_word.calls",
    "words.commutator.calls",
    "words.commutator.self_s",
)


class Tracer:
    """Call counts, self seconds and layer counters, summed over ops."""

    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.ops = 0
        self.op_distinct: set[frozenset[bytes]] = set()
        self._stack = [0.0]

    def end_op(self) -> None:
        self.ops += 1
        self.counts["finite.commutator_subgroup.distinct"] += len(self.op_distinct)
        self.op_distinct.clear()

    def reset(self) -> None:
        self.__init__()

    def wrap(self, name: str, fn: Callable, observe: Observer | None) -> Callable:
        def traced(*args, **kwargs):
            self._stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                children = self._stack.pop()
                self._stack[-1] += elapsed
                self.calls[name] += 1
                self.self_s[name] += elapsed - children
            if observe is not None:
                observe(self, result, args)
            return result

        return traced

    def wrap_generator(
        self, name: str, fn: Callable, observe: Observer | None
    ) -> Callable:
        """Time each ``next()`` of the returned stream; creating it is free."""
        step = self.wrap(name, next, observe)

        def traced(*args, **kwargs):
            stream = fn(*args, **kwargs)
            while True:
                try:
                    yield step(stream)
                except StopIteration:
                    return

        return traced

    def count_only(self, fn: Callable, observe: Observer) -> Callable:
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(self, result, args)
            return result

        return counted


@contextmanager
def installed(tracer: Tracer) -> Iterator[Tracer]:
    """Patch every namespace holding a traced function; restore on exit."""
    modules = [
        m for name, m in sys.modules.items()
        if m is not None and (name == "commlab" or name.startswith("commlab."))
    ]
    patches: list[tuple[Any, str, Any]] = []
    for name, fn, observe in TRACED:
        wrap = tracer.wrap_generator if inspect.isgeneratorfunction(fn) else tracer.wrap
        wrapper = wrap(name, fn, observe)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
    hit = finite.SubgroupCache.commutator
    patches.append((finite.SubgroupCache, "commutator", hit))
    finite.SubgroupCache.commutator = tracer.count_only(hit, _cache_hit)
    try:
        yield tracer
    finally:
        for owner, attr, value in reversed(patches):
            setattr(owner, attr, value)


def _per_op(tr: Tracer, value: float) -> float:
    return value / tr.ops if tr.ops else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float, str]]:
    """The PER_LAYER metrics as (value, unit); counts and seconds are per op."""
    out: dict[str, tuple[float, str]] = {}
    for name, _, _ in TRACED:
        out[f"{name}.calls"] = (_per_op(tr, tr.calls[name]), "1/op")
        out[f"{name}.self_s"] = (_per_op(tr, tr.self_s[name]), "s/op")
    for name in (
        "kernels.extend_subgroup.elems_out",
        "kernels.artin_images.letters_in",
        "finite.fat_commutator.evaluations",
        "braids.sample.letters",
        "homotopy.undecided",
        "magnus.expand.terms_out",
    ):
        out[name] = (_per_op(tr, tr.counts[name]), "1/op")
    out["kernels.closure_set.useful_ratio"] = (
        _ratio(tr.counts["kernels.closure_set.useful"], tr.calls["kernels.closure_set"]),
        "ratio",
    )
    calls = tr.calls["finite.commutator_subgroup"]
    out["finite.commutator_subgroup.hit_ratio"] = (
        _ratio(tr.counts["finite.commutator_subgroup.hits"], calls), "ratio"
    )
    out["finite.commutator_subgroup.distinct_ratio"] = (
        _ratio(tr.counts["finite.commutator_subgroup.distinct"], calls), "ratio"
    )
    return {name: out[name] for name in PER_LAYER}
