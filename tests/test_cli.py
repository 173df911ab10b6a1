import dataclasses
import inspect
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import pytest
from click.testing import CliRunner

import commlab
from commlab import braids, finite, homotopy
from commlab.braids import parse_braid, sample_brun_generators
from commlab.cli import BRUNNIAN_MAX_N, main


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
    assert trial["fat_evaluations"] == 1
    assert "fat_rounds" not in trial
    assert "stabilized" not in trial and "fat_orders_by_weight" not in trial


def test_verify_finite_report_says_what_ran(runner, tmp_path):
    result = invoke(runner, tmp_path, ["verify-finite", "--trials", "1"])
    meta = read_report(result, tmp_path)["meta"]
    assert meta["version"] == commlab.__version__
    assert meta["python"] == platform.python_version()


def test_verify_finite_rejects_unrepresentable_degree(runner, tmp_path):
    result = invoke(runner, tmp_path, ["verify-finite", "--degree-cap", "300"])
    assert result.exit_code == 2
    assert "--degree-cap" in result.output


def test_verify_finite_reports_exhausted_draws_as_usage_error(
    runner, tmp_path, monkeypatch
):
    # seed 0 at order cap 2 needs 31 carrier draws
    monkeypatch.setattr(finite, "MAX_INSTANCE_DRAWS", 30)
    result = invoke(
        runner, tmp_path, ["verify-finite", "--trials", "1", "--order-cap", "2"]
    )
    assert result.exit_code == 2
    assert "30 draws" in result.output


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


def test_verify_finite_sixteen_subgroups_exceed_the_default_budget(
    runner, tmp_path
):
    # 21,457,825 mask pairs at n = 16, over the default 10^7
    result = invoke(runner, tmp_path, ["verify-finite", "--n", "16", "--trials", "1"])
    assert result.exit_code == 3
    trial = read_report(result, tmp_path)["results"]["trials"][0]
    assert trial["undecided"] is True
    assert "21457825 mask pairs" in trial["budget_exceeded"]


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
        env={"COMMLAB_BUDGET": "5"},
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
    header, *lines = corpus.read_text().splitlines()
    assert header == "# strands=3 seed=11"
    exported = [parse_braid(line, 3) for line in lines]
    assert exported == list(sample_brun_generators(3, 2, 11, 8))


def test_brunnian_check_with_export_is_a_usage_error(runner, tmp_path):
    corpus = tmp_path / "corpus.txt"
    result = invoke(
        runner,
        tmp_path,
        ["brunnian", "--n", "2", "--check", "s1 s1", "--export", str(corpus)],
    )
    assert result.exit_code == 2
    assert "--export" in result.output
    assert not corpus.exists()
    assert not (tmp_path / "latest").exists()


def test_brunnian_export_to_a_missing_directory_is_a_usage_error(runner, tmp_path):
    target = tmp_path / "missing_dir" / "c.txt"
    result = invoke(
        runner, tmp_path, ["brunnian", "--samples", "2", "--export", str(target)]
    )
    assert result.exit_code == 2
    assert str(target) in result.output
    assert not (tmp_path / "latest").exists()


def test_brunnian_sampling_past_the_strand_cap_is_a_usage_error(
    runner, tmp_path, monkeypatch
):
    def no_sampling(*args):
        raise AssertionError("a braid was sampled past the strand cap")

    monkeypatch.setattr(braids, "sample_brun_generators", no_sampling)
    too_many = str(BRUNNIAN_MAX_N + 1)
    result = invoke(
        runner, tmp_path,
        ["brunnian", "--n", too_many, "--samples", "1", "--conj-depth", "0"],
    )
    assert result.exit_code == 2
    assert f"at most {BRUNNIAN_MAX_N}" in result.output
    assert not (tmp_path / "latest").exists()
    help_text = runner.invoke(main, ["brunnian", "--help"]).output
    assert f"at most {BRUNNIAN_MAX_N} when sampling" in help_text
    # a single --check word is not capped
    check = invoke(runner, tmp_path, ["brunnian", "--n", too_many, "--check", "s1 s2"])
    assert check.exit_code == 1


def test_brunnian_check_past_the_deletion_bound_is_a_usage_error(
    runner, tmp_path, monkeypatch
):
    def no_parsing(*args):
        raise AssertionError("a word was parsed past the deletion bound")

    monkeypatch.setattr(braids, "parse_braid", no_parsing)
    result = invoke(runner, tmp_path, ["brunnian", "--n", "129", "--check", "s1"])
    assert result.exit_code == 2
    assert "at most 128" in result.output
    assert not (tmp_path / "latest").exists()
    help_text = runner.invoke(main, ["brunnian", "--help"]).output
    assert "128 with --check" in " ".join(help_text.split())
    monkeypatch.undo()
    # A_{127,128} on the largest strand count is pure but not Brunnian
    largest = invoke(runner, tmp_path, ["brunnian", "--n", "128", "--check", "s127 s127"])
    assert largest.exit_code == 1


def test_report_directory_under_a_regular_file_is_a_usage_error(runner, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "reports"
    result = runner.invoke(
        main, ["verify-finite", "--trials", "1", "--n", "2", "--out", str(out)]
    )
    assert result.exit_code == 2
    assert str(out) in result.output


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


def test_homotopy_records_only_the_knobs_its_mode_reads(runner, tmp_path):
    for pi, count in (("2", "trials"), ("3", "samples")):
        result = invoke(runner, tmp_path, ["homotopy", "--pi", pi, f"--{count}", "3"])
        assert result.exit_code == 0
        config = read_report(result, tmp_path)["config"]
        assert config == {"pi": int(pi), count: 3, "conj_depth": 4}


@pytest.mark.parametrize("pi", ["2", "3"])
def test_homotopy_conj_depth_reaches_the_sampler(runner, tmp_path, monkeypatch, pi):
    real = homotopy.symmetric_generators
    depths = []

    def recording(*args, **kwargs):
        bound = inspect.signature(real).bind(*args, **kwargs)
        depths.append(bound.arguments["conj_depth"])
        return real(*args, **kwargs)

    monkeypatch.setattr(homotopy, "symmetric_generators", recording)
    args = ["homotopy", "--pi", pi, "--trials", "2", "--samples", "2"]
    result = invoke(runner, tmp_path, args + ["--conj-depth", "2"])
    assert result.exit_code == 0
    assert depths == [2]


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
    for level in ("1", "5"):
        result = invoke(runner, tmp_path, ["homotopy", "--pi", level])
        assert result.exit_code == 2
        assert f"{level} is not in the range 2<=x<=3" in result.output
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
    # so does a generator on more strands than a braid takes
    wide = CliRunner().invoke(main, ["braid-tools", "--print", "A", "1", "2", "129"])
    assert wide.exit_code == 2
    assert "at most 128 strands" in wide.output
    # positional arguments are only meaningful with --print
    assert CliRunner().invoke(main, ["braid-tools", "t", "2", "3"]).exit_code == 2


def test_braid_tools_without_a_request_is_a_usage_error(runner, tmp_path):
    result = invoke(runner, tmp_path, ["braid-tools"])
    assert result.exit_code == 2
    assert "--identities" in result.output and "--print" in result.output
    assert not (tmp_path / "latest").exists()
    # --print with --identities still prints, then checks the identities
    both = invoke(
        runner, tmp_path,
        ["braid-tools", "--print", "t", "2", "3", "--identities", "--max-n", "3"],
    )
    assert both.exit_code == 0
    assert both.stdout.startswith("s2 s2\n")
    assert (tmp_path / "latest").exists()


def test_braid_tools_identities(runner, tmp_path):
    result = invoke(
        runner, tmp_path, ["braid-tools", "--identities", "--max-n", "3"]
    )
    assert result.exit_code == 0
    identities = read_report(result, tmp_path)["results"]["identities"]
    assert identities["linking_vs_a"] == "6/6"
    assert identities["closing_forms"] == "6/6"
    # the relations also run on max_n + 1 strands, and a braid takes at most 128
    past = invoke(runner, tmp_path, ["braid-tools", "--identities", "--max-n", "128"])
    assert past.exit_code == 2
    assert "127" in past.output


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
