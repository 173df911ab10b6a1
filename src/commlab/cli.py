"""Experiment driver: seeded verification subcommands with JSON reports.

Exit codes: 0 when every check passed, 1 when a mathematical check failed
(which would indicate an implementation bug), 2 on usage or config errors
(an unwritable --out or --export path included),
3 when no check failed but some trial was undecided because it exhausted its
budget. Run it as ``commlab``, ``python -m commlab`` or ``python -m commlab.cli``.
The JSON report written under --out is the contract; --format text prints a
fixed-width table of the same payload instead.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import os
import time
from pathlib import Path

import click

from commlab import __version__, braids, finite, kernels, reports
from commlab import homotopy as homotopy_mod
from commlab.words import ParseError

EXIT_CHECK_FAILED = 1
EXIT_UNDECIDED = 3
# Sampled braids grow about 2.3x per strand: at 12 strands one is ~10^5 letters.
BRUNNIAN_MAX_N = 12


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Commutator calculus workbench: finite verifiers, braids, certificates."""


def run_options(fn):
    fn = click.option(
        "--format",
        "fmt",
        type=click.Choice(["json", "text"]),
        default="json",
        show_default=True,
        help="stdout rendering; the report file is always JSON",
    )(fn)
    fn = click.option(
        "--out",
        "out_dir",
        default="reports",
        show_default=True,
        type=click.Path(file_okay=False),
        help="directory for report files",
    )(fn)
    fn = click.option("--seed", default=0, show_default=True, type=int)(fn)
    return fn


def _finish(
    subcommand, seed, config, results, started, out_dir, fmt, ok, undecided=False
) -> None:
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    payload = reports.build_payload(subcommand, seed, config, results, elapsed_ms)
    try:
        path = reports.write_report(out_dir, payload)
    except OSError as exc:
        raise click.UsageError(
            f"cannot write a report under {out_dir}: {exc.strerror or exc}"
        )
    if fmt == "text":
        click.echo(reports.render_table(payload))
    else:
        click.echo(json.dumps(payload, indent=2, sort_keys=True))
    click.echo(f"report: {path}", err=True)
    if not ok:
        raise SystemExit(EXIT_CHECK_FAILED)
    if undecided:
        raise SystemExit(EXIT_UNDECIDED)


def _fat_budget() -> int:
    raw = os.environ.get("COMMLAB_BUDGET")
    if raw is None:
        return finite.DEFAULT_FAT_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise click.UsageError(f"COMMLAB_BUDGET must be an integer, got {raw!r}")
    if value <= 0:
        raise click.UsageError("COMMLAB_BUDGET must be positive")
    return value


@main.command("verify-finite")
@click.option("--trials", default=200, show_default=True, type=click.IntRange(min=0))
@click.option("--n", "n", default=3, show_default=True, type=click.IntRange(min=1),
              help="number of normal subgroups per instance")
@click.option("--degree-cap", default=10, show_default=True,
              type=click.IntRange(min=3, max=255),
              help="largest permutation degree (a degree is stored in one byte)")
@click.option("--order-cap", default=2000, show_default=True, type=click.IntRange(min=2))
@run_options
def verify_finite(trials, n, degree_cap, order_cap, seed, out_dir, fmt):
    """Fat = symmetric, first-slot restriction, product rule, and Hall checks.

    Runs seeded random finite instances; connectivity of each instance is
    reported for information but never fails the run. A trial that exhausts
    the fat budget is undecided: it neither passes nor fails.

    Fat = symmetric has content only from --n 4: with at most 3 subgroups both
    sides multiply the same commutators, so it passes whatever those are.
    """
    budget = _fat_budget()
    started = time.perf_counter()
    rows = []
    passes = undecided = 0
    conn_equal = conn_checked = 0
    for k in range(trials):
        try:
            inst = finite.random_instance(
                seed + k, n=n, degree_cap=degree_cap, order_cap=order_cap
            )
        except ValueError as exc:
            raise click.UsageError(str(exc))
        row = {
            "seed": inst.seed,
            "degree": inst.group.degree,
            "group_order": inst.group.order,
            "subgroup_orders": [R.order for R in inst.subgroups],
        }
        try:
            fat = finite.verify_fat_equals_symmetric(
                inst.group, inst.subgroups, budget=budget
            )
            restr = finite.verify_first_slot_restriction(inst.group, inst.subgroups)
            A, B, C = finite.random_normal_triple(inst.group, seed + k)
            rule = finite.verify_product_rule(A, B, C)
            hall = finite.verify_hall(A, B, C)
        except finite.BudgetExceeded as exc:
            row.update(budget_exceeded=str(exc), undecided=True)
            undecided += 1
            rows.append(row)
            continue
        row.update(
            fat_order=fat.fat_order,
            symmetric_order=fat.symmetric_order,
            fat_evaluations=fat.evaluations,
            fat_equals_symmetric=fat.passed,
            restriction=restr.passed,
            product_rule=rule.passed,
            hall=hall.passed,
            passed=fat.passed and restr.passed and rule.passed and hall.passed,
        )
        if n >= 3:
            conn = finite.verify_connectivity(
                inst.group, inst.subgroups, I=(1, 2), J=tuple(range(3, n + 1))
            )
            conn_checked += 1
            conn_equal += conn.equal
            row["connectivity"] = conn.equal
        passes += row["passed"]
        rows.append(row)
    results = {
        "summary": {
            "pass": f"{passes}/{trials}",
            "undecided": f"{undecided}/{trials}",
            "connectivity_holds": f"{conn_equal}/{conn_checked}",
        },
        "trials": rows,
    }
    config = {
        "trials": trials, "n": n, "degree_cap": degree_cap,
        "order_cap": order_cap, "budget": budget,
    }
    _finish("verify-finite", seed, config, results, started, out_dir, fmt,
            ok=passes + undecided == trials, undecided=undecided > 0)


@main.command()
@click.option("--n", default=4, show_default=True, type=click.IntRange(min=2),
              help=f"strand count (at most {BRUNNIAN_MAX_N} when sampling,"
                   f" {kernels.DELETE_MAX_STRANDS} with --check)")
@click.option("--samples", default=100, show_default=True, type=click.IntRange(min=0))
@click.option("--conj-depth", default=4, show_default=True, type=click.IntRange(min=0))
@click.option("--check", "check_word", default=None, metavar="WORD",
              help="test one braid word (on --n strands) instead of sampling")
@click.option("--export", "export_path", default=None,
              type=click.Path(dir_okay=False),
              help="also write the sampled corpus to this file (not with --check)")
@run_options
def brunnian(n, samples, conj_depth, check_word, export_path, seed, out_dir, fmt):
    """Sample symmetric-commutator braids and check every one is Brunnian."""
    if check_word is not None and export_path is not None:
        raise click.UsageError("--export needs a sampled corpus; --check samples none")
    if check_word is None and n > BRUNNIAN_MAX_N:
        raise click.UsageError(f"sampling takes --n at most {BRUNNIAN_MAX_N}")
    if n > kernels.DELETE_MAX_STRANDS:
        raise click.UsageError(
            f"--check takes --n at most {kernels.DELETE_MAX_STRANDS}"
        )
    started = time.perf_counter()
    config = {
        "n": n, "samples": samples, "conj_depth": conj_depth,
        "check": check_word, "export": export_path,
    }
    if check_word is not None:
        try:
            braid = braids.parse_braid(check_word, n)
        except ParseError as exc:
            raise click.UsageError(str(exc))
        flag = braids.is_brunnian(braid)
        results = {"check": {"word": braids.render_braid(braid), "strands": n,
                             "brunnian": flag}}
        _finish("brunnian", seed, config, results, started, out_dir, fmt, ok=flag)
        return
    # one braid at a time; only --export keeps them
    good = max_word_length = 0
    kept: list[braids.Braid] = []
    for b in braids.sample_brun_generators(n, conj_depth, seed, samples):
        good += braids.is_brunnian(b)
        max_word_length = max(max_word_length, len(b))
        if export_path is not None:
            kept.append(b)
    if export_path is not None:
        try:
            reports.atomic_write_text(
                Path(export_path), braids.dump_corpus(kept, n, seed)
            )
        except OSError as exc:
            raise click.UsageError(
                f"cannot export the corpus to {export_path}: {exc.strerror or exc}"
            )
    results = {
        "summary": {"pass": f"{good}/{samples}"},
        "max_word_length": max_word_length,
    }
    _finish("brunnian", seed, config, results, started, out_dir, fmt,
            ok=good == samples)


@main.command("homotopy")
@click.option("--pi", required=True, type=click.IntRange(2, 3),
              help="which certificate to run (2 or 3)")
@click.option("--trials", default=1000, show_default=True,
              type=click.IntRange(min=0), help="fuzzed elements for --pi 2")
@click.option("--samples", default=500, show_default=True,
              type=click.IntRange(min=0), help="sampled generators for --pi 3")
@click.option("--conj-depth", default=4, show_default=True, type=click.IntRange(min=0))
@run_options
def homotopy_cmd(pi, trials, samples, conj_depth, seed, out_dir, fmt):
    """Sphere-presentation certificates for the low homotopy groups."""
    started = time.perf_counter()
    if pi == 2:
        report = homotopy_mod.pi2_check(seed, trials, conj_depth)
        config = {"pi": pi, "trials": trials, "conj_depth": conj_depth}
    else:
        report = homotopy_mod.pi3_certificate(seed, samples, conj_depth)
        config = {"pi": pi, "samples": samples, "conj_depth": conj_depth}
    results = dataclasses.asdict(report)
    results["passed"] = report.passed
    _finish("homotopy", seed, config, results, started, out_dir, fmt,
            ok=report.passed)


@main.command("braid-tools")
@click.option("--identities", is_flag=True,
              help="verify the generator identities up to --max-n strands")
@click.option("--max-n", default=6, show_default=True,
              type=click.IntRange(2, kernels.DELETE_MAX_STRANDS - 1),
              help="largest strand count; the relations also run on one more")
@click.option("--print", "print_request", is_flag=True,
              help="print a generator word: --print A i j n | A0 j n | t i n")
@click.argument("args", nargs=-1)
@run_options
def braid_tools(identities, max_n, print_request, args, seed, out_dir, fmt):
    """Print pure-braid generator words and verify their identities."""
    started = time.perf_counter()
    if print_request:
        _print_generator(args)
        if not identities:
            return
    elif args:
        raise click.UsageError("positional arguments need --print")
    elif not identities:
        raise click.UsageError("braid-tools needs --identities or --print")

    def same(lhs: braids.Braid, rhs: braids.Braid) -> bool:
        return braids.artin_action(lhs) == braids.artin_action(rhs)

    closing = [same(*braids.gen_a0(j, n))
               for n in range(1, max_n + 1) for j in range(1, n + 1)]
    linking, relations = [], []
    for n in range(2, max_n + 2):
        word = functools.partial(braids.Braid.from_letters, n)
        for i in range(1, n):
            linking.append(same(braids.gen_t(i, n), braids.gen_a(i, n, n)))
            if i < n - 1:
                relations.append(same(word([i, i + 1, i]), word([i + 1, i, i + 1])))
            relations += [same(word([i, j]), word([j, i])) for j in range(i + 2, n)]
    checks = {"closing_forms": closing, "linking_vs_a": linking, "relations": relations}
    ok = all(all(passed) for passed in checks.values())
    results = {"identities": {k: f"{sum(v)}/{len(v)}" for k, v in checks.items()}}
    config = {"max_n": max_n}
    _finish("braid-tools", seed, config, results, started, out_dir, fmt, ok=ok)


def _print_generator(args: tuple[str, ...]) -> None:
    usage = "--print takes A i j n, A0 j n, or t i n"
    if not args:
        raise click.UsageError(usage)
    family, *raw = args
    try:
        nums = [int(x) for x in raw]
    except ValueError:
        raise click.UsageError("generator indices must be integers")
    try:
        if family == "A" and len(nums) == 3:
            click.echo(braids.render_braid(braids.gen_a(*nums)))
        elif family == "A0" and len(nums) == 2:
            for form in braids.gen_a0(*nums):
                click.echo(braids.render_braid(form))
        elif family == "t" and len(nums) == 2:
            click.echo(braids.render_braid(braids.gen_t(*nums)))
        else:
            raise click.UsageError(usage)
    except ValueError as exc:
        raise click.UsageError(str(exc))


if __name__ == "__main__":
    main()
