"""Line-oriented JSON file formats and the run manifest."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from . import __version__
from .errors import InputError
from .rollouts import RolloutBatch, RolloutRecord


@dataclass(frozen=True)
class TraceDoc:
    doc_id: str
    tokens: tuple[str, ...]
    gold: str | None = None

    def to_json_dict(self) -> dict:
        out = {"id": self.doc_id, "tokens": list(self.tokens)}
        if self.gold is not None:
            out["gold"] = self.gold
        return out


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


def loads(text: str):
    """``json.loads`` that also refuses lone surrogate escapes such as
    ``"\\ud800"``: no UTF-8 output can hold them. Raises ``ValueError``."""
    data = json.loads(text)
    if "\\u" in text:
        dumps(data).encode("utf-8")
    return data


def read_jsonl_numbered(path) -> list[tuple[int, dict]]:
    """(source line number, row) pairs; blank lines are skipped but counted.

    Each line's bytes are decoded on their own, so bad UTF-8 is reported at
    its own line; ``bytes.splitlines`` breaks lines where text mode would.
    """
    path = Path(path)
    if not path.exists():
        raise InputError("file not found", str(path))
    rows = []
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise InputError(f"bad UTF-8: {exc.reason}", str(path), lineno) from exc
        if not line:
            continue
        try:
            rows.append((lineno, loads(line)))
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON: {exc.msg}", str(path), lineno) from exc
        except UnicodeEncodeError as exc:
            raise InputError(f"bad JSON: {exc.reason}", str(path), lineno) from exc
    return rows


def read_jsonl(path) -> list[dict]:
    return [row for _, row in read_jsonl_numbered(path)]


def write_jsonl(path, rows) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(dumps(row) + "\n")


def read_trace(path) -> list[tuple[int, TraceDoc]]:
    docs = []
    for lineno, row in read_jsonl_numbered(path):
        try:
            docs.append((lineno, TraceDoc(doc_id=str(row["id"]),
                                          tokens=tuple(str(t) for t in row["tokens"]),
                                          gold=row.get("gold"))))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad trace record: {exc!r}", str(path), lineno) from exc
    return docs


def read_rollout_batch(path) -> RolloutBatch:
    records = []
    for lineno, row in read_jsonl_numbered(path):
        try:
            records.append(RolloutRecord.from_json_dict(row))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad rollout record: {exc}", str(path), lineno) from exc
    if not records:
        raise InputError("empty rollout batch", str(path))
    try:
        return RolloutBatch.from_records(records)
    except ValueError as exc:
        raise InputError(str(exc), str(path)) from exc


def read_outcomes(path) -> list[tuple[str, bool]]:
    out = []
    for lineno, row in read_jsonl_numbered(path):
        try:
            out.append((str(row["id"]), bool(row["correct"])))
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad outcome record: {exc!r}", str(path), lineno) from exc
    return out


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(path, subcommand: str, inputs, config: dict, outputs) -> dict:
    """Reproducibility record: inputs, echoed config, output digests."""
    manifest = {
        "v": 1,
        "subcommand": subcommand,
        "tool_version": __version__,
        "inputs": [{"path": str(p), "sha256": sha256_file(p)} for p in inputs],
        "config": config,
        "outputs": [{"path": str(p), "sha256": sha256_file(p)} for p in outputs],
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(manifest) + "\n", encoding="utf-8")
    return manifest
