"""JSON report persistence plus the cosmetic fixed-width text rendering.

Reports are append-only files named `<subcommand>-<seed>-<timestamp>.json`;
a `latest` pointer file in the same directory is rewritten to hold the
newest report's filename. Writes go through a temp file and os.replace, so
readers never observe a partial report. Two runs with identical config and
seed produce identical payloads except for meta.timestamp and the timing
block, which is why those live in separate fields. meta also names what ran:
the commlab version and the Python version.
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
    """Persist a payload from build_payload; returns the report path."""
    meta = payload["meta"]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{meta['subcommand']}-{meta['seed']}-{meta['timestamp']}"
    path = out_dir / f"{stem}.json"
    serial = 1
    while path.exists():  # append-only: never clobber an earlier run
        serial += 1
        path = out_dir / f"{stem}-{serial}.json"
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
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
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise
