import json
import os
import platform
import time

import commlab
from commlab import reports


def payload(elapsed=5.0, now=None):
    return reports.build_payload(
        "demo",
        7,
        {"trials": 3, "caps": {"order": 2000}},
        {"summary": {"pass": "3/3"}, "trials": [{"seed": 7}, {"seed": 8}]},
        elapsed,
        now=now,
    )


def test_payload_shape_and_timestamp_format():
    p = payload(elapsed=1.23456, now=time.mktime((2026, 1, 2, 3, 4, 5, 0, 0, 0)))
    assert set(p) == {"meta", "config", "results", "timing"}
    assert p["meta"]["subcommand"] == "demo"
    assert p["meta"]["seed"] == 7
    assert p["meta"]["version"] == commlab.__version__
    assert p["meta"]["python"] == platform.python_version()
    ts = p["meta"]["timestamp"]
    assert len(ts) == 16 and ts.endswith("Z") and ts[8] == "T"
    assert p["timing"]["elapsed_ms"] == 1.235


def test_write_report_names_and_latest_pointer(tmp_path):
    p = payload()
    path = reports.write_report(tmp_path, p)
    assert path.parent == tmp_path
    stem = f"demo-7-{p['meta']['timestamp']}"
    assert path.name == f"{stem}.json"
    assert json.loads(path.read_text()) == p
    latest = tmp_path / "latest"
    assert latest.read_text() == path.name + "\n"


def test_write_report_never_overwrites(tmp_path):
    p = payload()
    first = reports.write_report(tmp_path, p)
    second = reports.write_report(tmp_path, p)
    third = reports.write_report(tmp_path, p)
    assert first.exists() and second.exists() and third.exists()
    assert second.name == first.name.replace(".json", "-2.json")
    assert third.name == first.name.replace(".json", "-3.json")
    assert (tmp_path / "latest").read_text() == third.name + "\n"
    assert not list(tmp_path.glob("*.tmp"))


def test_concurrent_reports_with_one_name_both_survive(tmp_path, monkeypatch):
    # two runs of one subcommand and seed in the same second: the other run
    # takes the name between this run's write and its claim of the name
    now = time.time()
    mine, theirs = payload(elapsed=1.0, now=now), payload(elapsed=2.0, now=now)
    link = os.link
    rivals = []

    def racing_link(src, dst):
        monkeypatch.setattr(os, "link", link)  # the rival claims without a race
        rivals.append(reports.write_report(tmp_path, theirs))
        link(src, dst)

    monkeypatch.setattr(os, "link", racing_link)
    path = reports.write_report(tmp_path, mine)
    (rival,) = rivals
    assert rival.name == f"demo-7-{mine['meta']['timestamp']}.json"
    assert path.name == rival.name.replace(".json", "-2.json")
    assert json.loads(rival.read_text()) == theirs
    assert json.loads(path.read_text()) == mine
    assert sorted(tmp_path.glob("*.json")) == sorted([rival, path])
    assert not list(tmp_path.glob("*.tmp"))


def test_payloads_identical_modulo_timestamp_and_timing(tmp_path):
    a = json.loads(reports.write_report(tmp_path, payload(elapsed=1.0)).read_text())
    b = json.loads(reports.write_report(tmp_path, payload(elapsed=9.9)).read_text())
    for d in (a, b):
        d["meta"].pop("timestamp")
        d.pop("timing")
    assert a == b


def test_render_table_flattens_nested_payloads():
    p = payload()
    table = reports.render_table(p)
    lines = dict(line.split(None, 1) for line in table.splitlines())
    assert lines["meta.subcommand"] == "demo"
    assert lines["config.caps.order"] == "2000"
    assert lines["results.summary.pass"] == "3/3"
    assert lines["results.trials"] == "[2 entries]"


def test_render_table_joins_scalar_lists():
    p = reports.build_payload("demo", 0, {}, {"orders": [3, 6, 12]}, 0.0)
    table = reports.render_table(p)
    assert "3, 6, 12" in table


def test_atomic_write_replaces_content(tmp_path):
    target = tmp_path / "file.txt"
    reports.atomic_write_text(target, "one\n")
    reports.atomic_write_text(target, "two\n")
    assert target.read_text() == "two\n"
    assert list(tmp_path.iterdir()) == [target]
