"""CLI input boundary under fuzzed JSONL and JSON objects: malformed input
exits 2 with its ``path:line`` (``path`` for a JSON object), never 3, and
nothing is written outside ``--output-dir``."""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from paratrace.cli import main
from conftest import E1, E1_FULL

# Path escapes, reserved names, separators, NUL, a name too long for a file
# and a lone surrogate (escaped, or as raw bytes that are not UTF-8).
HOSTILE_IDS = ["", ".", "..", "../up", "../../up", "a/b", "/abs", "a\\b", "a\0b",
               "..\\up", "x" * 300, "a\ud800"]
ids = st.one_of(st.sampled_from(["a", "b", "c", "d"]), st.sampled_from(HOSTILE_IDS),
                st.text(max_size=6))
WRONG = [None, 7, -1.5, True, "word", [], [1, None], {"k": "v"}]
words = st.sampled_from(E1_FULL + ["42", "\\boxed{7}", "ünï", "<tag>"])
token_lists = st.one_of(st.just(E1_FULL), st.just(E1), st.lists(words, max_size=8))


@st.composite
def rows(draw, kind):
    """One record of ``kind``: well formed, or with a field dropped, retyped
    or replaced, or not an object at all."""
    tokens = draw(token_lists)
    good = {
        "trace": {"id": draw(ids), "tokens": tokens, "gold": "42"},
        "answers": {"id": draw(ids), "gold": draw(st.sampled_from(["42", "7"]))},
        "outcomes": {"id": draw(ids), "correct": draw(st.booleans())},
        "batch": {"id": draw(ids), "group": draw(st.sampled_from(["g1", "g2"])),
                  "tokens": tokens, "logprobs": [-0.5] * len(tokens),
                  "pred": draw(st.sampled_from(["42", None])), "gold": "42"},
        "script": {"prologue": E1[:8], "branches": {"1": E1[8:12], "2": E1[12:15]},
                   "takeaway": E1[15:] + ["\\boxed{42}"]},
        "config": {"budget_slots": draw(st.sampled_from([7, 64, 4096])),
                   "max_new_tokens": draw(st.integers(1, 64)),
                   "strict_validator": draw(st.booleans()), "seed": 0},
        "spec": {"documents": draw(st.integers(0, 20)),
                 "corruption_rate": draw(st.sampled_from([0, 0.5, 1.0])),
                 "block_count_weights": {"1": 2, "2": 1}, "seed": draw(st.integers(0, 9))},
    }[kind]
    fault = draw(st.sampled_from(["none"] * 4 + ["drop", "retype", "other"]))
    key = draw(st.sampled_from(sorted(good)))
    if fault == "drop":
        del good[key]
    elif fault == "retype":
        good[key] = draw(st.sampled_from(WRONG))
    elif fault == "other":
        return draw(st.sampled_from(WRONG))
    return good


@st.composite
def jsonl(draw, kind):
    """File bytes: records, blank lines, a bad UTF-8 line, a truncated end."""
    lines = [json.dumps(r, ensure_ascii=draw(st.booleans())).encode("utf-8", "surrogatepass")
             for r in draw(st.lists(rows(kind), max_size=5))]
    if lines and draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from([b"", b"  "])))
    if draw(st.integers(0, 5)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), b'{"id": "\xe2\x82"}')
    if lines and lines[-1] and draw(st.integers(0, 5)) == 0:
        lines[-1] = lines[-1][:draw(st.integers(0, len(lines[-1]) - 1))]
    return b"\n".join(lines) + draw(st.sampled_from([b"\n", b""]))


# Inputs that are one JSON object rather than JSON lines.
OBJECTS = ("script", "config", "spec")


def contents(kind):
    if kind in OBJECTS:
        return rows(kind).map(lambda r: json.dumps(r).encode("utf-8"))
    return jsonl(kind)


COMMANDS = {
    "validate": (["trace"], lambda f: ["validate", f["trace"]]),
    "mask": (["trace"], lambda f: ["mask", f["trace"]]),
    "mask dense": (["trace"], lambda f: ["mask", f["trace"], "--format", "dense"]),
    "posid": (["trace"], lambda f: ["posid", f["trace"]]),
    "filter": (["trace", "answers"], lambda f: ["filter", f["trace"], "--answers", f["answers"]]),
    "metrics": (["trace", "outcomes"], lambda f: ["metrics", f["trace"], "--outcomes", f["outcomes"]]),
    "reward": (["batch"], lambda f: ["reward", f["batch"]]),
    "advantage": (["batch"], lambda f: ["advantage", f["batch"], "--algo", "dapo"]),
    "simulate": (["script", "config"],
                 lambda f: ["simulate", f["script"], "--config", f["config"]]),
    "gen-corpus": (["spec"], lambda f: ["gen-corpus", "--spec-file", f["spec"]]),
}

# Input errors about a whole JSON-lines file; every other input error names
# the offending line, or the JSON object's file.
WHOLE_FILE = ("empty rollout batch", "ragged groups", "group size must be",
              "no outcomes")


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(COMMANDS)))
    kinds, argv = COMMANDS[command]
    return command, {kind: draw(contents(kind)) for kind in kinds}, argv


def _files(root: Path) -> set[Path]:
    return {p for p in root.rglob("*") if p.is_file()}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_fuzzed_inputs_exit_0_1_or_2_and_stay_inside_output_dir(invocation):
    command, blobs, argv = invocation
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        # Three levels deep, so a path escape still lands under ``root``.
        out = root / "w" / "x" / "out"
        paths = {}
        for kind, blob in blobs.items():
            paths[kind] = root / (f"{kind}.json" if kind in OBJECTS else f"{kind}.jsonl")
            paths[kind].write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["--output-dir", str(out)] + [str(a) for a in argv(paths)])
        message = err.getvalue().strip()
        assert code in (0, 1, 2), (command, message)
        if code == 2:
            at_line = any(re.search(re.escape(f"[{p}:") + r"\d+\]$", message)
                          for p in paths.values())
            whole_file = any(message.endswith(f"[{p}]") for p in paths.values()) \
                and message.startswith(tuple(f"input error: {m}" for m in WHOLE_FILE))
            an_object = any(message.endswith(f"[{paths[k]}]") for k in paths if k in OBJECTS)
            assert at_line or whole_file or an_object, message
        assert _files(root) - set(paths.values()) <= _files(out)
