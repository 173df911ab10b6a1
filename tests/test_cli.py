import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import commlab
from commlab import finite, homotopy
from commlab.braids import load_corpus
from commlab.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def invoke(runner, tmp_path, args, env=None):
    return runner.invoke(main, args + ["--out", str(tmp_path)], env=env)


def read_report(result, tmp_path):
    payload = json.loads(result.stdout)
    pointer = (tmp_path / "latest").read_text().strip()
    on_disk = json.loads((tmp_path / pointer).read_text())
    assert on_disk == payload
    return payload


def test_help_and_unknown_flag_exit_codes(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    assert runner.invoke(main, ["verify-finite", "--frobnicate"]).exit_code == 2
    assert runner.invoke(main, ["no-such-command"]).exit_code == 2


def test_verify_finite_small_run(runner, tmp_path):
    result = invoke(
        runner, tmp_path, ["verify-finite", "--trials", "3", "--n", "2", "--seed", "5"]
    )
    assert result.exit_code == 0
    payload = read_report(result, tmp_path)
    assert payload["meta"]["subcommand"] == "verify-finite"
    assert payload["meta"]["seed"] == 5
    assert "weight_cap" not in payload["config"]
    assert payload["results"]["summary"]["pass"] == "3/3"
    assert len(payload["results"]["trials"]) == 3
    trial = payload["results"]["trials"][0]
    assert trial["fat_equals_symmetric"] and trial["hall"]
    assert trial["fat_evaluations"] > 0
    assert trial["fat_rounds"] >= 1
    assert "stabilized" not in trial and "fat_orders_by_weight" not in trial


def test_verify_finite_rejects_unrepresentable_degree(runner, tmp_path):
    result = invoke(runner, tmp_path, ["verify-finite", "--degree-cap", "300"])
    assert result.exit_code == 2
    assert "--degree-cap" in result.output


def test_verify_finite_has_no_weight_cap_option(runner, tmp_path):
    # the fat subgroup covers every bracket weight; an old --weight-cap is a usage error
    result = invoke(
        runner, tmp_path, ["verify-finite", "--n", "3", "--weight-cap", "2"]
    )
    assert result.exit_code == 2
    assert "--weight-cap" in result.output


def test_verify_finite_decides_ten_subgroups(runner, tmp_path):
    result = invoke(
        runner, tmp_path, ["verify-finite", "--n", "10", "--seed", "1", "--trials", "1"]
    )
    assert result.exit_code == 0
    assert read_report(result, tmp_path)["results"]["summary"]["pass"] == "1/1"


def test_verify_finite_zero_trials_passes(runner, tmp_path):
    result = invoke(runner, tmp_path, ["verify-finite", "--trials", "0"])
    assert result.exit_code == 0
    assert read_report(result, tmp_path)["results"]["summary"]["pass"] == "0/0"


def test_verify_finite_reports_differ_only_in_timestamp_and_timing(
    runner, tmp_path
):
    args = ["verify-finite", "--trials", "2", "--n", "2", "--seed", "9"]
    a = json.loads(invoke(runner, tmp_path, args).stdout)
    b = json.loads(invoke(runner, tmp_path, args).stdout)
    for d in (a, b):
        d["meta"].pop("timestamp")
        d.pop("timing")
    assert a == b


def test_verify_finite_budget_env(runner, tmp_path):
    bad = invoke(
        runner,
        tmp_path,
        ["verify-finite", "--trials", "1"],
        env={"COMMLAB_BUDGET": "zero"},
    )
    assert bad.exit_code == 2
    assert "COMMLAB_BUDGET" in bad.output
    tiny = invoke(
        runner,
        tmp_path,
        ["verify-finite", "--trials", "1", "--n", "3", "--seed", "7"],
        env={"COMMLAB_BUDGET": "40"},
    )
    assert tiny.exit_code == 3
    payload = json.loads(tiny.stdout)
    assert payload["results"]["summary"]["undecided"] == "1/1"
    trial = payload["results"]["trials"][0]
    assert "budget_exceeded" in trial
    assert trial["undecided"] is True
    assert "passed" not in trial


def test_verify_finite_failure_outranks_undecided(runner, tmp_path, monkeypatch):
    # trial 0 exhausts its budget, trial 1 fails the Hall check: exit 1, not 3
    real_fat, real_hall = finite.verify_fat_equals_symmetric, finite.verify_hall
    calls = []

    def fat_once_over_budget(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise finite.BudgetExceeded("over budget")
        return real_fat(*args, **kwargs)

    def failing_hall(*args):
        return dataclasses.replace(real_hall(*args), passed=False)

    monkeypatch.setattr(finite, "verify_fat_equals_symmetric", fat_once_over_budget)
    monkeypatch.setattr(finite, "verify_hall", failing_hall)
    result = invoke(runner, tmp_path, ["verify-finite", "--trials", "2", "--n", "2"])
    assert result.exit_code == 1
    summary = json.loads(result.stdout)["results"]["summary"]
    assert summary == {
        "pass": "0/2", "undecided": "1/2", "connectivity_holds": "0/0"
    }


def test_verify_finite_text_format(runner, tmp_path):
    result = invoke(
        runner,
        tmp_path,
        ["verify-finite", "--trials", "1", "--n", "2", "--format", "text"],
    )
    assert result.exit_code == 0
    rows = dict(
        line.split(None, 1)
        for line in result.stdout.splitlines()
        if line and not line.startswith("report:")
    )
    assert rows["results.summary.pass"] == "1/1"
    assert rows["meta.subcommand"] == "verify-finite"


def test_brunnian_sampling_and_export(runner, tmp_path):
    corpus = tmp_path / "corpus.txt"
    result = invoke(
        runner,
        tmp_path,
        [
            "brunnian", "--n", "3", "--samples", "8", "--seed", "11",
            "--conj-depth", "2", "--export", str(corpus),
        ],
    )
    assert result.exit_code == 0
    payload = read_report(result, tmp_path)
    assert payload["results"]["summary"]["pass"] == "8/8"
    strands, seed, braids = load_corpus(corpus.read_text())
    assert (strands, seed, len(braids)) == (3, 11, 8)


def test_brunnian_check_word(runner, tmp_path):
    good = invoke(runner, tmp_path, ["brunnian", "--n", "2", "--check", "s1 s1"])
    assert good.exit_code == 0
    assert read_report(good, tmp_path)["results"]["check"]["brunnian"] is True
    bad = invoke(runner, tmp_path, ["brunnian", "--n", "2", "--check", "s1"])
    assert bad.exit_code == 1
    assert json.loads(bad.stdout)["results"]["check"]["brunnian"] is False
    unparsable = invoke(runner, tmp_path, ["brunnian", "--n", "2", "--check", "s7"])
    assert unparsable.exit_code == 2


def test_homotopy_certificates(runner, tmp_path):
    pi2 = invoke(
        runner, tmp_path, ["homotopy", "--pi", "2", "--trials", "25", "--seed", "3"]
    )
    assert pi2.exit_code == 0
    payload = read_report(pi2, tmp_path)
    assert payload["results"]["quotient_rank"] == 1
    assert payload["results"]["passed"] is True
    pi3 = invoke(
        runner, tmp_path, ["homotopy", "--pi", "3", "--samples", "15", "--seed", "3"]
    )
    assert pi3.exit_code == 0
    results = read_report(pi3, tmp_path)["results"]
    assert results["witness_in_intersection"] is True
    assert results["witness_in_gamma"] is False


def test_homotopy_timing_covers_the_certificate(runner, tmp_path, monkeypatch):
    real = homotopy.pi2_check

    def slow_pi2_check(*args):
        time.sleep(0.05)
        return real(*args)

    monkeypatch.setattr(homotopy, "pi2_check", slow_pi2_check)
    result = invoke(runner, tmp_path, ["homotopy", "--pi", "2", "--trials", "2"])
    assert result.exit_code == 0
    assert read_report(result, tmp_path)["timing"]["elapsed_ms"] >= 50


def test_homotopy_rejects_unsupported_levels(runner, tmp_path):
    result = invoke(runner, tmp_path, ["homotopy", "--pi", "5"])
    assert result.exit_code == 2
    assert "unsupported: certificates implemented for n <= 3" in result.output
    missing = invoke(runner, tmp_path, ["homotopy"])
    assert missing.exit_code == 2


def test_braid_tools_print(runner):
    result = CliRunner().invoke(main, ["braid-tools", "--print", "t", "2", "3"])
    assert result.exit_code == 0
    assert result.stdout == "s2 s2\n"
    result = CliRunner().invoke(main, ["braid-tools", "--print", "A", "1", "2", "4"])
    assert result.exit_code == 0
    assert result.stdout == "s1 s1\n"
    both = CliRunner().invoke(main, ["braid-tools", "--print", "A0", "2", "3"])
    assert both.exit_code == 0
    assert len(both.stdout.splitlines()) == 2


def test_braid_tools_print_usage_errors(runner):
    assert CliRunner().invoke(main, ["braid-tools", "--print"]).exit_code == 2
    assert CliRunner().invoke(main, ["braid-tools", "--print", "B", "1"]).exit_code == 2
    assert (
        CliRunner().invoke(main, ["braid-tools", "--print", "t", "x", "3"]).exit_code
        == 2
    )
    # out-of-range indices surface the underlying message as a usage error
    oor = CliRunner().invoke(main, ["braid-tools", "--print", "t", "5", "3"])
    assert oor.exit_code == 2
    # positional arguments are only meaningful with --print
    assert CliRunner().invoke(main, ["braid-tools", "t", "2", "3"]).exit_code == 2


def test_braid_tools_identities(runner, tmp_path):
    result = invoke(
        runner, tmp_path, ["braid-tools", "--identities", "--max-n", "3"]
    )
    assert result.exit_code == 0
    identities = read_report(result, tmp_path)["results"]["identities"]
    assert identities["linking_vs_a"] == "6/6"
    assert identities["closing_forms"] == "6/6"


def test_reports_accumulate_and_latest_moves(runner, tmp_path):
    invoke(runner, tmp_path, ["verify-finite", "--trials", "0", "--seed", "1"])
    invoke(runner, tmp_path, ["verify-finite", "--trials", "0", "--seed", "2"])
    files = sorted(p.name for p in Path(tmp_path).glob("verify-finite-*.json"))
    assert len(files) == 2
    latest = (tmp_path / "latest").read_text().strip()
    assert latest.startswith("verify-finite-2-")


def test_module_entry_points_run_the_cli(tmp_path):
    # the child does not inherit pytest's pythonpath setting
    src = os.path.dirname(os.path.dirname(os.path.abspath(commlab.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run(
        [
            sys.executable, "-m", "commlab", "verify-finite", "--trials", "1",
            "--n", "2", "--out", str(tmp_path),
        ],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout)["results"]["summary"]["pass"] == "1/1"
    assert list(tmp_path.glob("verify-finite-*.json"))
    version = subprocess.run(
        [sys.executable, "-m", "commlab.cli", "--version"],
        capture_output=True, text=True, env=env,
    )
    assert version.returncode == 0, version.stderr
    assert commlab.__version__ in version.stdout
