"""JSON report persistence plus the cosmetic fixed-width text rendering.

Reports are append-only files named `<subcommand>-<seed>-<timestamp>.json`;
a `latest` pointer file in the same directory is rewritten to hold the
newest report's filename. Writes go through a temp file, so readers never
observe a partial report: a report is hard-linked to its name, which claims
the name only if it is free, and the pointer is moved in by os.replace. Two
runs with identical config and seed produce identical payloads except for
meta.timestamp and the timing block, which is why those live in separate
fields. meta also names what ran: the commlab version and the Python
version.
"""

from __future__ import annotations

import json
import os
import platform
import tempfile
import time
from pathlib import Path
from typing import Any, Iterator, Mapping

from commlab import __version__


def build_payload(
    subcommand: str,
    seed: int,
    config: Mapping[str, Any],
    results: Mapping[str, Any],
    elapsed_ms: float,
    now: float | None = None,
) -> dict[str, Any]:
    now = time.time() if now is None else now
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime(now))
    return {
        "meta": {
            "subcommand": subcommand,
            "seed": seed,
            "timestamp": stamp,
            "version": __version__,
            "python": platform.python_version(),
        },
        "config": dict(config),
        "results": dict(results),
        "timing": {"elapsed_ms": round(elapsed_ms, 3)},
    }


def write_report(out_dir: str | Path, payload: Mapping[str, Any]) -> Path:
    """Persist a payload from build_payload; returns the report path.

    The name is claimed atomically by linking the written temp file to it,
    which fails if the name is taken, by an earlier run or by a concurrent
    one with the same subcommand, seed and second; the next serial
    ``<stem>-<k>.json`` is tried then, so no report is ever overwritten.
    """
    meta = payload["meta"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{meta['subcommand']}-{meta['seed']}-{meta['timestamp']}"
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    tmp = _write_temp(out_dir, stem, text)
    try:
        path = out_dir / f"{stem}.json"
        serial = 1
        while True:
            try:
                os.link(tmp, path)
                break
            except FileExistsError:
                serial += 1
                path = out_dir / f"{stem}-{serial}.json"
    finally:
        os.unlink(tmp)
    atomic_write_text(out_dir / "latest", path.name + "\n")
    return path


def render_table(payload: Mapping[str, Any]) -> str:
    """Fixed-width key/value table mirroring the JSON payload."""
    rows = list(_flatten("", payload))
    width = max(len(key) for key, _ in rows)
    return "\n".join(f"{key.ljust(width)}  {value}" for key, value in rows)


def _flatten(prefix: str, node: Any) -> Iterator[tuple[str, str]]:
    if isinstance(node, Mapping):
        for key, value in node.items():
            yield from _flatten(f"{prefix}{key}.", value)
    elif isinstance(node, (list, tuple)):
        if all(not isinstance(v, (Mapping, list, tuple)) for v in node):
            yield prefix.rstrip("."), ", ".join(str(v) for v in node)
        else:
            yield prefix.rstrip("."), f"[{len(node)} entries]"
    else:
        yield prefix.rstrip("."), str(node)


def atomic_write_text(path: Path, text: str) -> None:
    tmp = _write_temp(path.parent, path.name, text)
    try:
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_temp(directory: Path, prefix: str, text: str) -> str:
    """A new temp file in the directory holding text; returns its path."""
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
    except BaseException:
        os.unlink(tmp)
        raise
    return tmp
