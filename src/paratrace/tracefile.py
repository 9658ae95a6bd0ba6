"""Line-oriented JSON file formats, their field types, and the run manifest."""

from __future__ import annotations

import hashlib
import json
import re
import reprlib
import sys
from pathlib import Path
from typing import NamedTuple

from . import __version__
from .errors import InputError
from .rollouts import RolloutBatch, RolloutRecord


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, ensure_ascii=False)


# A JSON string or number: enough of the grammar to find a number in a text.
_STRING_OR_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?')


def loads(text: str):
    """``json.loads`` that also refuses lone surrogate escapes such as
    ``"\\ud800"``: no UTF-8 output can hold them. Raises ``ValueError``; a
    text the decoder refuses, too deep or too long an integer included, raises
    ``json.JSONDecodeError``."""
    try:
        data = json.loads(text)
        if "\\u" in text:
            dumps(data).encode("utf-8")
    except RecursionError:  # in the decoder, or in the encoder a little less deep
        raise json.JSONDecodeError("arrays or objects nested too deeply", text, 0) from None
    except (json.JSONDecodeError, UnicodeEncodeError):
        raise
    except ValueError:  # ``int`` refused an integer of too many digits
        limit = sys.get_int_max_str_digits()
        at = next((m.start() for m in _STRING_OR_NUMBER.finditer(text)
                   if (digits := m[0].lstrip("-")).isdigit() and len(digits) > limit), 0)
        raise json.JSONDecodeError(f"an integer of more than {limit} digits", text, at) from None
    return data


# -- input schemas ------------------------------------------------------------
# Each field of each CLI input kind has one exact JSON type. Types are compared
# with ``type(v) is``, so a bool is not a number and a string is not a token
# list, and nothing is converted: a wrongly typed field is an InputError.

def _one_of(*types):
    return lambda v: type(v) in types


def _list_of(*types):
    types = set(types)
    return lambda v: type(v) is list and set(map(type, v)) <= types


STRING = ("a string", _one_of(str))
STRING_OR_NULL = ("a string or null", _one_of(str, type(None)))
INTEGER = ("an integer", _one_of(int))
NUMBER = ("a number", _one_of(int, float))
NUMBER_OR_NULL = ("a number or null", _one_of(int, float, type(None)))
BOOLEAN = ("true or false", _one_of(bool))
STRINGS = ("a list of strings", _list_of(str))
NUMBERS = ("a list of numbers", _list_of(int, float))
STREAMS = ("an object of string lists",
           lambda v: type(v) is dict and all(map(STRINGS[1], v.values())))
WEIGHTS = ("an object of numbers",
           lambda v: type(v) is dict and set(map(type, v.values())) <= {int, float})


class Schema(NamedTuple):
    """One input kind: its name in messages, each field's type, and the
    fields it must have. Fields not named here are ignored."""
    name: str
    fields: dict
    required: tuple = ()


TRACE = Schema("trace record", {"id": STRING, "tokens": STRINGS, "gold": STRING_OR_NULL},
               ("id", "tokens"))
ANSWER = Schema("answer record", {"id": STRING, "gold": STRING}, ("id", "gold"))
OUTCOME = Schema("outcome record", {"id": STRING, "correct": BOOLEAN}, ("id", "correct"))
ROLLOUT = Schema("rollout record",
                 {"id": STRING, "group": STRING, "tokens": STRINGS, "logprobs": NUMBERS,
                  "pred": STRING_OR_NULL, "gold": STRING, "reward": NUMBER_OR_NULL},
                 ("id", "group", "tokens", "logprobs", "gold"))
SCRIPT = Schema("script", {"prologue": STRINGS, "branches": STREAMS, "takeaway": STRINGS},
                ("prologue", "branches", "takeaway"))
CONFIG = Schema("config", {"budget_slots": INTEGER, "max_new_tokens": INTEGER,
                           "strict_validator": BOOLEAN, "seed": INTEGER})
SPEC = Schema("corpus spec", {"documents": INTEGER, "block_count_weights": WEIGHTS,
                              "steps_per_block_weights": WEIGHTS,
                              "step_length_weights": WEIGHTS,
                              "corruption_rate": NUMBER, "seed": INTEGER})


def check_fields(row, schema: Schema, path, line: int | None = None) -> dict:
    """``row`` itself once it is an object whose fields have their schema's
    types; otherwise an :class:`InputError` naming ``path`` (and ``line``)."""
    if type(row) is not dict:
        raise InputError(f"bad {schema.name}: expected a JSON object", str(path), line)
    for field in schema.required:
        if field not in row:
            raise InputError(f"bad {schema.name}: missing {field}", str(path), line)
    for field, (kind, test) in schema.fields.items():
        if field in row and not test(row[field]):
            raise InputError(f"bad {schema.name}: {field} must be {kind}, "
                             f"got {reprlib.repr(row[field])}", str(path), line)
    return row


def _input_file(path) -> Path:
    """``path`` once it names a file, or an :class:`InputError` naming it."""
    path = Path(path)
    if not path.is_file():
        raise InputError("not a file" if path.exists() else "file not found", str(path))
    return path


def read_json_object(path, schema: Schema) -> dict:
    """The JSON object in ``path``, checked against ``schema``."""
    path = _input_file(path)
    try:
        data = loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise InputError(f"bad {schema.name}: {exc.msg} at column {exc.colno}",
                         str(path), exc.lineno) from exc
    except UnicodeError as exc:
        raise InputError(f"bad {schema.name}: {exc}", str(path)) from exc
    return check_fields(data, schema, path)


def read_jsonl_numbered(path, schema: Schema | None = None):
    """(source line number, row) pairs, yielded one line at a time; blank
    lines are skipped but counted, and with a ``schema`` each row is checked
    against it.

    Each line's bytes are decoded on their own, so bad UTF-8 is reported at
    its own line; ``bytes.splitlines`` breaks lines where text mode would.
    """
    path = _input_file(path)
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            line = raw.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise InputError(f"bad UTF-8: {exc.reason}", str(path), lineno) from exc
        if not line:
            continue
        try:
            row = loads(line)
        except json.JSONDecodeError as exc:
            raise InputError(f"bad JSON: {exc.msg}", str(path), lineno) from exc
        except UnicodeEncodeError as exc:
            raise InputError(f"bad JSON: {exc.reason}", str(path), lineno) from exc
        yield lineno, row if schema is None else check_fields(row, schema, path, lineno)


def _keyed_rows(path, schema: Schema, kind: str):
    """The rows of a format keyed by ``id``, one line at a time: a row whose
    id an earlier row holds is an :class:`InputError` at its own line."""
    seen = set()
    for lineno, row in read_jsonl_numbered(path, schema):
        if row["id"] in seen:
            raise InputError(f"duplicate {kind} id {row['id']!r}", str(path), lineno)
        seen.add(row["id"])
        yield lineno, row


def read_jsonl(path) -> list[dict]:
    return [row for _, row in read_jsonl_numbered(path)]


def json_line(obj) -> bytes:
    """``obj`` as one line of UTF-8 JSON, the encoding of every JSON output."""
    return (dumps(obj) + "\n").encode("utf-8")


def write_file(path, data: bytes) -> Path:
    """The one way an output reaches disk: make ``path``'s directory, then
    write ``data`` there. A path the OS refuses (a file where a directory
    must go, a directory where the file must go) is an :class:`InputError`
    naming the refused path."""
    path = Path(path)
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    except OSError as exc:
        raise InputError(f"cannot write output ({exc.strerror})",
                         str(exc.filename or path)) from exc
    return path


def remove_file(path) -> None:
    """Remove ``path`` if it is there, so that no earlier run's output stands
    in for one this run does not write. A path the OS refuses is an
    :class:`InputError` naming it, as in :func:`write_file`."""
    try:
        Path(path).unlink(missing_ok=True)
    except OSError as exc:
        raise InputError(f"cannot remove stale output ({exc.strerror})",
                         str(exc.filename or path)) from exc


def write_jsonl(path, rows) -> Path:
    return write_file(path, b"".join(map(json_line, rows)))


def read_trace(path) -> list[tuple[int, dict]]:
    return list(_keyed_rows(path, TRACE, "document"))


def read_answers(path) -> list[tuple[int, dict]]:
    return list(_keyed_rows(path, ANSWER, "document"))


def read_rollout_batch(path) -> RolloutBatch:
    records = []
    for lineno, row in _keyed_rows(path, ROLLOUT, "record"):
        try:
            records.append(RolloutRecord.from_json_dict(row))
        except ValueError as exc:
            raise InputError(f"bad rollout record: {exc}", str(path), lineno) from exc
    if not records:
        raise InputError("empty rollout batch", str(path))
    try:
        return RolloutBatch.from_records(records)
    except ValueError as exc:
        raise InputError(str(exc), str(path)) from exc


def sha256_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
    write_file(path, json_line(manifest))
    return manifest
