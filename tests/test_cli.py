"""CLI subcommands, exit codes, and determinism."""

import ast
import hashlib
import json
import random
from pathlib import Path

import pytest

import paratrace
from paratrace import (corrupt, parse_document, parallel_rate, random_valid_document,
                       topology_stats)
from paratrace.cli import main
from paratrace.topology import DENSE_LIMIT
from paratrace.errors import ParseError
from paratrace.tracefile import read_jsonl, write_jsonl
from conftest import E1, E1_FULL


def run_cli(*argv) -> int:
    return main([str(a) for a in argv])


@pytest.fixture
def trace_file(tmp_path):
    path = tmp_path / "trace.jsonl"
    write_jsonl(path, [
        {"id": "good", "tokens": E1_FULL, "gold": "42"},
        {"id": "bare", "tokens": E1, "gold": "42"},
    ])
    return path


@pytest.fixture
def script_file(tmp_path):
    path = tmp_path / "script.json"
    path.write_text(json.dumps({
        "prologue": E1[:8],
        "branches": {"1": E1[8:12], "2": E1[12:15]},
        "takeaway": E1[15:] + ["\\boxed{42}"],
    }))
    return path


class TestValidate:
    def test_exit_one_on_invalid(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "validate", trace_file) == 1
        rows = read_jsonl(out / "validation_report.jsonl")
        assert [r["ok"] for r in rows] == [True, False]
        assert rows[1]["categories"]["boxed_answer"] is False

    def test_exit_zero_when_all_ok(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}])
        assert run_cli("--output-dir", tmp_path / "o", "validate", trace) == 0

    def test_empty_file_is_vacuously_ok(self, tmp_path):
        trace = tmp_path / "empty.jsonl"
        trace.write_text("")
        assert run_cli("--output-dir", tmp_path / "o", "validate", trace) == 0
        assert read_jsonl(tmp_path / "o" / "validation_report.jsonl") == []

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli("--output-dir", tmp_path, "validate", tmp_path / "nope.jsonl") == 2

    def test_bad_json_reports_line(self, tmp_path, capsys):
        trace = tmp_path / "bad.jsonl"
        trace.write_text('{"id": "a", "tokens": ["x"]}\n{oops\n')
        assert run_cli("--output-dir", tmp_path / "o", "validate", trace) == 2
        assert ":2" in capsys.readouterr().err

    def test_report_names_source_line(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        lines = [json.dumps({"id": "a", "tokens": E1_FULL}), "",
                 json.dumps({"id": "bad", "tokens": E1_FULL[:-2]})]
        trace.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o"
        assert run_cli("--output-dir", out, "validate", trace) == 1
        rows = {r["id"]: r for r in read_jsonl(out / "validation_report.jsonl")}
        assert rows["bad"]["line"] == 3  # blank line counted
        assert rows["bad"]["ok"] is False

    def test_strict_flag(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        mismatched = E1_FULL[:7] + ["<plan>", "3:", "</plan>"] + E1_FULL[7:]
        write_jsonl(trace, [{"id": "m", "tokens": mismatched}])
        assert run_cli("--output-dir", tmp_path / "a", "validate", trace) == 0
        assert run_cli("--output-dir", tmp_path / "b", "validate", trace, "--strict") == 1


class TestMaskPosid:
    def test_coords_and_status(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "mask", trace_file) == 0
        coords = json.loads((out / "masks" / "good.mask.json").read_text())
        assert coords["length"] == len(E1_FULL)
        assert coords["blocked"]
        status = read_jsonl(out / "mask_status.jsonl")
        assert all(r["ok"] for r in status)

    def test_dense_format(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "mask", trace_file, "--format", "dense") == 0
        n = len(E1_FULL)
        raw = (out / "masks" / "good.mask.bin").read_bytes()
        assert len(raw) == (n * n + 7) // 8

    def test_partial_failure_still_emits_others(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [
            {"id": "ok", "tokens": E1_FULL},
            {"id": "broken", "tokens": ["</step>", "x"]},
        ])
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "mask", trace) == 1
        assert (out / "masks" / "ok.mask.json").exists()
        assert not (out / "masks" / "broken.mask.json").exists()
        status = {r["id"]: r for r in read_jsonl(out / "mask_status.jsonl")}
        assert status["broken"]["error"]

    @pytest.mark.parametrize("command, name", [("mask", "masks/a.mask.json"),
                                               ("posid", "positions/a.pos.json")])
    def test_failed_document_leaves_no_earlier_file(self, tmp_path, command, name):
        """A document that fails now has no file, even where an earlier run
        into the same directory built one for its id."""
        good, bad = tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
        write_jsonl(good, [{"id": "a", "tokens": E1_FULL}])
        write_jsonl(bad, [{"id": "a", "tokens": E1[:-1]}])
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, command, good) == 0
        assert (out / name).exists()
        assert run_cli("--output-dir", out, command, bad) == 1
        assert not (out / name).exists()
        assert read_jsonl(out / f"{command}_status.jsonl")[0]["ok"] is False

    def test_posid_artifacts(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "posid", trace_file) == 0
        pos = json.loads((out / "positions" / "bare.pos.json").read_text())
        assert pos == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 12, 13, 14]

    @pytest.mark.parametrize("command", ["mask", "posid"])
    @pytest.mark.parametrize("bad_id", ["../x", "../../x", "a/b", "..", ".", "", "a\\b",
                                        pytest.param("é" * 124, id="over-255-utf8-bytes")])
    def test_unsafe_ids_write_nothing(self, tmp_path, capsys, command, bad_id):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "ok", "tokens": E1_FULL},
                            {"id": bad_id, "tokens": E1_FULL}])
        out = tmp_path / "deep" / "out"
        assert run_cli("--output-dir", out, command, trace) == 2
        assert f"{trace}:2" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [trace]

    @pytest.mark.parametrize("command", ["mask", "posid", "validate", "filter", "metrics"])
    def test_duplicate_ids_rejected(self, tmp_path, capsys, command):
        """Every reader of a trace refuses a repeated id at the repeat's line,
        so no per-id input (answers, outcomes) can apply to two documents."""
        trace, outcomes = tmp_path / "t.jsonl", tmp_path / "outcomes.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL, "gold": "42"},
                            {"id": "b", "tokens": E1, "gold": "42"},
                            {"id": "a", "tokens": E1, "gold": "42"}])
        write_jsonl(outcomes, [{"id": "a", "correct": True}])
        argv = [command, trace] + (["--outcomes", outcomes] if command == "metrics" else [])
        assert run_cli("--output-dir", tmp_path / "out", *argv) == 2
        err = capsys.readouterr().err
        assert "duplicate document id 'a'" in err and f"{trace}:3" in err, err
        assert not (tmp_path / "out").exists()

    def test_dense_mask_stops_at_the_cap(self, tmp_path, capsys):
        """A 4,096-token trace gets a dense mask; at 4,097 tokens the trace is
        refused at its line before any mask file is written."""
        def padded(n):  # E1_FULL with its first step padded to n tokens
            return E1_FULL[:9] + ["w"] * (n - len(E1_FULL)) + E1_FULL[9:]
        assert DENSE_LIMIT == 4096
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "ok", "tokens": E1_FULL},
                            {"id": "cap", "tokens": padded(DENSE_LIMIT)}])
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "mask", trace, "--format", "dense") == 0
        raw = (out / "masks" / "cap.mask.bin").read_bytes()
        assert len(raw) == DENSE_LIMIT * DENSE_LIMIT // 8

        write_jsonl(trace, [{"id": "ok", "tokens": E1_FULL},
                            {"id": "long", "tokens": padded(DENSE_LIMIT + 1)}])
        out = tmp_path / "out2"
        assert run_cli("--output-dir", out, "mask", trace, "--format", "dense") == 2
        err = capsys.readouterr().err
        assert f"[{trace}:2]" in err and "--format coords" in err, err
        assert not out.exists()
        assert run_cli("--output-dir", out, "mask", trace) == 0


class TestSimulate:
    def test_outputs_and_stats(self, tmp_path, script_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "simulate", script_file) == 0
        doc = json.loads((out / "sim_document.json").read_text())
        assert doc["tokens"][:8] == E1[:8]
        stats = json.loads((out / "sim_stats.json").read_text())
        assert stats["decode_steps"] == stats["critical_path"]
        events = read_jsonl(out / "sim_events.jsonl")
        assert any(e["kind"] == "fork" for e in events)

    def test_byte_identical_reruns(self, tmp_path, script_file):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("--output-dir", out, "simulate", script_file,
                           "--max-new-tokens", 64) == 0
            outs.append((out / "sim_document.json").read_bytes()
                        + (out / "sim_events.jsonl").read_bytes()
                        + (out / "sim_stats.json").read_bytes())
        assert outs[0] == outs[1]

    # Pinned sha256 of sim_events.jsonl then sim_stats.json over the runs
    # below: speed work on the engine must leave them byte-for-byte the same.
    PINNED_DIGEST = "ba115441ebbb0bab34caa1d1fb09015b15a1535fa1b310028ca190f38e57267d"

    def test_artifact_bytes_are_pinned(self, tmp_path, script_file):
        rejected = tmp_path / "rejected.json"
        rejected.write_text(json.dumps({
            "prologue": ["<guideline>", "</guideline>"],
            "branches": {"1": ["<step>", "x", "</step>"]},
            "takeaway": ["<takeaway>", "</takeaway>"]}))
        digest = hashlib.sha256()
        runs = [(script_file, [], 0), (script_file, ["--max-new-tokens", 9], 0),
                (script_file, ["--budget-slots", 16], 0),  # one flush
                (script_file, ["--strict", "--max-new-tokens", 3], 0), (rejected, [], 1)]
        for i, (script, flags, code) in enumerate(runs):
            out = tmp_path / str(i)
            assert run_cli("--output-dir", out, "simulate", script, *flags) == code
            for name in ("sim_events.jsonl", "sim_stats.json"):
                if (out / name).exists():
                    digest.update((out / name).read_bytes())
        assert digest.hexdigest() == self.PINNED_DIGEST

    def test_budget_sweep_monotone(self, tmp_path, script_file):
        emitted = []
        for budget in (5, 10, 20):
            out = tmp_path / f"b{budget}"
            run_cli("--output-dir", out, "simulate", script_file,
                    "--max-new-tokens", budget)
            events = read_jsonl(out / "sim_events.jsonl")
            emitted.append(sum(1 for e in events if e["kind"] == "emit"))
        assert emitted == sorted(emitted)

    def test_rejected_header_exits_one(self, tmp_path, script_file):
        """A rejected run writes its events, and leaves no earlier run's
        document or stats in its output directory."""
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({
            "prologue": ["<guideline>", "</guideline>"],
            "branches": {"1": ["<step>", "x", "</step>"]},
            "takeaway": ["<takeaway>", "</takeaway>"],
        }))
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "simulate", script_file) == 0
        assert run_cli("--output-dir", out, "simulate", script) == 1
        events = read_jsonl(out / "sim_events.jsonl")
        assert any(e["kind"] == "reject" for e in events)
        assert [p.name for p in out.iterdir()] == ["sim_events.jsonl"]

    @pytest.mark.parametrize("branch", [["alpha"], ["<step>", "a", "</step>", "b"]])
    def test_branch_outside_one_step_region_is_an_input_error(self, tmp_path, capsys,
                                                              branch):
        script = tmp_path / "script.json"
        script.write_text(json.dumps({"prologue": E1[:8],
                                      "branches": {"1": branch, "2": E1[12:15]},
                                      "takeaway": E1[15:]}))
        assert run_cli("--output-dir", tmp_path / "out", "simulate", script) == 2
        err = capsys.readouterr().err
        assert "must span one step region" in err and err.rstrip().endswith(f"[{script}]")
        assert not (tmp_path / "out").exists()

    def test_aborted_run_leaves_no_outputs(self, tmp_path, capsys, script_file):
        """A run the cache cannot hold exits 1. It creates no output
        directory, and removes an earlier run's outputs from one."""
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "simulate", script_file,
                       "--budget-slots", 2) == 1
        assert "simulation aborted" in capsys.readouterr().out
        assert not out.exists()
        assert run_cli("--output-dir", out, "simulate", script_file) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "sim_document.json", "sim_events.jsonl", "sim_stats.json"]
        assert run_cli("--output-dir", out, "simulate", script_file,
                       "--budget-slots", 2) == 1
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("field, value, message", [
        ("prologue", [], "script prologue is empty"),
        ("branches", {"1": ["<step>", "<plan>", "</step>"]},
         "branch '1' may contain content tokens only"),
        ("takeaway", ["t", "</takeaway>"], "tail must open and close a takeaway"),
        ("takeaway", ["<takeaway>", "t"], "tail must open and close a takeaway"),
        ("takeaway", ["<takeaway>", "<step>", "</takeaway>"],
         "tail may contain content tokens only"),
        ("takeaway", ["<takeaway>", "</takeaway>", "<plan>"],
         "tail may contain content tokens only"),
    ])
    def test_script_refusal_is_an_input_error(self, tmp_path, capsys, script_file,
                                              field, value, message):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({**json.loads(script_file.read_text()), field: value}))
        assert run_cli("--output-dir", tmp_path / "out", "simulate", script) == 2
        err = capsys.readouterr().err
        assert f"bad script: {message}" in err and err.rstrip().endswith(f"[{script}]")
        assert not (tmp_path / "out").exists()

    def test_illegal_header_refused_at_every_budget(self, tmp_path):
        script = tmp_path / "illegal.json"
        script.write_text(json.dumps({
            "prologue": ["x", "<guideline>", "<plan>", "1:", "</plan>", "</guideline>"],
            "branches": {"1": ["<step>", "a", "</step>"]},
            "takeaway": ["<takeaway>", "t", "</takeaway>"],
        }))
        for budget in (1, 4096):
            out = tmp_path / f"b{budget}"
            assert run_cli("--output-dir", out, "simulate", script,
                           "--max-new-tokens", budget) == 1
            events = read_jsonl(out / "sim_events.jsonl")
            assert events[-1]["kind"] == "reject"
            assert not (out / "sim_document.json").exists()

    def test_config_file(self, tmp_path, script_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"budget_slots": 64, "max_new_tokens": 7,
                                   "strict_validator": False, "seed": 0}))
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "simulate", script_file,
                       "--config", cfg) == 0
        stats = json.loads((out / "sim_stats.json").read_text())
        assert stats["charged_tokens"] == 7

    def _run_with_config(self, tmp_path, script_file, capsys, cfg):
        code = run_cli("--output-dir", tmp_path / "out", "simulate", script_file,
                       "--config", cfg)
        err = capsys.readouterr().err
        assert code == 2
        assert "input error" in err and str(cfg) in err
        return err

    def test_config_missing_is_input_error(self, tmp_path, script_file, capsys):
        self._run_with_config(tmp_path, script_file, capsys, tmp_path / "nope.json")

    def test_config_bad_json_is_input_error(self, tmp_path, script_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{bad")
        self._run_with_config(tmp_path, script_file, capsys, cfg)

    def test_config_not_an_object_is_input_error(self, tmp_path, script_file, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps([64, 7]))
        self._run_with_config(tmp_path, script_file, capsys, cfg)

    @pytest.mark.parametrize("field,value", [
        ("budget_slots", "many"), ("budget_slots", True), ("budget_slots", 64.0),
        ("max_new_tokens", None), ("max_new_tokens", [7]),
        ("strict_validator", "yes"), ("strict_validator", 1),
    ])
    def test_config_wrong_type_is_input_error(self, tmp_path, script_file, capsys,
                                              field, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({field: value}))
        err = self._run_with_config(tmp_path, script_file, capsys, cfg)
        assert field in err

    def test_pipeline_closure_with_validate(self, tmp_path, script_file):
        # A run without truncate/reject events must validate cleanly.
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "simulate", script_file) == 0
        events = read_jsonl(out / "sim_events.jsonl")
        assert not any(e["kind"] in ("truncate", "reject") for e in events)
        assert run_cli("--output-dir", tmp_path / "v", "validate",
                       out / "sim_document.json") == 0


class TestAdvantage:
    @pytest.fixture
    def batch_file(self, tmp_path):
        def rec(rid, group, pred, gold):
            return {"id": rid, "group": group, "tokens": E1_FULL,
                    "logprobs": [-0.1] * len(E1_FULL), "pred": pred, "gold": gold}
        path = tmp_path / "batch.jsonl"
        write_jsonl(path, [
            rec("a", "g1", "42", "42"), rec("b", "g1", "0", "42"),
            rec("c", "g2", "42", "42"), rec("d", "g2", "42", "42"),
        ])
        return path

    def test_papo_fixture(self, tmp_path, batch_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "advantage", batch_file,
                       "--algo", "papo") == 0
        rows = read_jsonl(out / "advantages.jsonl")
        values = [r["advantage"] for r in rows]
        assert values[0] == pytest.approx(1.1547, abs=1e-4)
        assert values[1] == pytest.approx(-1.1547, abs=1e-4)
        assert values[2] == pytest.approx(0.0, abs=1e-9)
        assert values[3] == pytest.approx(0.0, abs=1e-9)

    def test_dapo_marks_discarded_groups(self, tmp_path, batch_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "advantage", batch_file,
                       "--algo", "dapo") == 0
        rows = {r["id"]: r for r in read_jsonl(out / "advantages.jsonl")}
        assert rows["a"]["discarded"] is False
        assert rows["c"]["discarded"] is True  # all-correct group

    def test_empty_batch_is_input_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert run_cli("--output-dir", tmp_path, "advantage", path,
                       "--algo", "papo") == 2

    @pytest.mark.parametrize("argv", [["reward"], ["advantage", "--algo", "dapo"],
                                      ["advantage", "--algo", "papo"]],
                             ids=["reward", "dapo", "papo"])
    def test_duplicate_record_ids_rejected(self, tmp_path, capsys, batch_file, argv):
        """A batch holding one record id twice is refused at the repeat's line,
        not scored into two rows with the same id."""
        rows = read_jsonl(batch_file)
        write_jsonl(batch_file, rows[:3] + [{**rows[3], "id": "b"}])
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, argv[0], batch_file, *argv[1:]) == 2
        err = capsys.readouterr().err
        assert "duplicate record id 'b'" in err and f"{batch_file}:4" in err, err
        assert not out.exists()

    def test_ragged_groups_rejected(self, tmp_path):
        path = tmp_path / "ragged.jsonl"
        write_jsonl(path, [
            {"id": "a", "group": "g1", "tokens": ["x"], "logprobs": [-1.0],
             "pred": "1", "gold": "1"},
            {"id": "b", "group": "g1", "tokens": ["x"], "logprobs": [-1.0],
             "pred": "1", "gold": "1"},
            {"id": "c", "group": "g2", "tokens": ["x"], "logprobs": [-1.0],
             "pred": "1", "gold": "1"},
        ])
        assert run_cli("--output-dir", tmp_path, "advantage", path,
                       "--algo", "papo") == 2


class TestRewardAndFilter:
    def test_reward_rows(self, tmp_path):
        batch = tmp_path / "batch.jsonl"
        write_jsonl(batch, [
            {"id": "a", "group": "g", "tokens": E1_FULL,
             "logprobs": [-0.1] * len(E1_FULL), "pred": "42", "gold": "42"},
            {"id": "b", "group": "g", "tokens": E1,
             "logprobs": [-0.1] * len(E1), "pred": "42", "gold": "42"},
        ])
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "reward", batch) == 0
        rows = {r["id"]: r for r in read_jsonl(out / "rewards.jsonl")}
        assert rows["a"]["stage1_reward"] == 1.0
        assert rows["a"]["format_reward"] == 0.0
        assert rows["b"]["stage1_reward"] == pytest.approx(-1 / 3)

    def test_filter_accepts_and_rejects(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "filter", trace_file) == 0
        rows = {r["id"]: r for r in read_jsonl(out / "filter_report.jsonl")}
        assert rows["good"]["accepted"] is True
        assert rows["bare"]["accepted"] is False  # no boxed answer
        accepted = read_jsonl(out / "accepted.jsonl")
        assert [d["id"] for d in accepted] == ["good"]

    def test_filter_needs_gold(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}])
        assert run_cli("--output-dir", tmp_path / "o", "filter", trace) == 2

    def test_filter_answers_file(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}])
        answers = tmp_path / "answers.jsonl"
        write_jsonl(answers, [{"id": "a", "gold": "42"}])
        out = tmp_path / "o"
        assert run_cli("--output-dir", out, "filter", trace,
                       "--answers", answers) == 0
        rows = read_jsonl(out / "filter_report.jsonl")
        assert rows[0]["accepted"] is True

    def test_filter_refuses_a_repeated_answer_id(self, tmp_path, capsys):
        """A second gold answer for one id is refused at its line, not
        silently preferred over the first."""
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}, {"id": "b", "tokens": E1_FULL}])
        answers = tmp_path / "answers.jsonl"
        write_jsonl(answers, [{"id": "a", "gold": "42"}, {"id": "b", "gold": "1"},
                              {"id": "a", "gold": "7"}])
        out = tmp_path / "o"
        assert run_cli("--output-dir", out, "filter", trace, "--answers", answers) == 2
        assert f"{answers}:3" in capsys.readouterr().err
        assert not out.exists()

    def test_filter_refuses_an_answer_for_an_unknown_document(self, tmp_path, capsys):
        """An answer whose id is in no trace document is refused at its line,
        as metrics refuses such an outcome, not silently ignored."""
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL, "gold": "42"}])
        answers = tmp_path / "answers.jsonl"
        write_jsonl(answers, [{"id": "a", "gold": "42"}, {"id": "zzz", "gold": "42"}])
        out = tmp_path / "o"
        assert run_cli("--output-dir", out, "filter", trace, "--answers", answers) == 2
        err = capsys.readouterr().err
        assert "answer for unknown document 'zzz'" in err and f"{answers}:2" in err
        assert not out.exists()

    @pytest.mark.parametrize("row", ['{"id": "a"}', '{"gold": "42"}', '["a", "42"]',
                                     '"a"', "null", '{"id": "a", "gold": 42}',
                                     '{"id": 7, "gold": "42"}'])
    def test_filter_bad_answer_rows(self, tmp_path, capsys, row):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}])
        answers = tmp_path / "answers.jsonl"
        answers.write_text('{"id": "b", "gold": "1"}\n\n' + row + "\n")
        assert run_cli("--output-dir", tmp_path / "o", "filter", trace,
                       "--answers", answers) == 2
        assert f"{answers}:3" in capsys.readouterr().err

    @pytest.mark.parametrize("tokens", [
        E1_FULL[:7] + ["<plan>", "3:", "</plan>"] + E1_FULL[7:],
        E1_FULL[:11] + ["<guideline>", "<plan>", "a", "</plan>", "</guideline>",
                        "<step>", "a", "</step>", "<takeaway>", "t", "</takeaway>"]
        + E1_FULL[11:],
    ], ids=["plan-step-mismatch", "nested"])
    def test_filter_strict_rejects_what_the_parser_accepts(self, tmp_path, tokens):
        """Strict mode fails the format of a document the parser reads, and
        ``correct`` is still the parser's answer against the gold."""
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "m", "tokens": tokens, "gold": "42"}])
        assert parse_document(tokens).boxed_answer == "42"
        for flags, accepted in (((), True), (("--strict",), False)):
            out = tmp_path / str(accepted)
            assert run_cli("--output-dir", out, "filter", trace, *flags) == 0
            row = read_jsonl(out / "filter_report.jsonl")[0]
            assert row == {"id": "m", "accepted": accepted, "correct": True,
                           "format_ok": accepted}

    def test_filter_never_parses(self, tmp_path, monkeypatch):
        """filter predicts from the validator's report: with the CLI's parser
        made to fail, every artifact is the same, and each row's ``correct``
        is the parser's answer against the gold."""
        corpus = tmp_path / "corpus"
        assert run_cli("--seed", 3, "--output-dir", corpus, "gen-corpus",
                       "--docs", 60, "--corruption", 0.5) == 0
        trace = corpus / "corpus.jsonl"

        def artifacts(name):
            got = []
            for flags in ((), ("--strict",)):
                out = tmp_path / name / str(len(flags))
                assert run_cli("--output-dir", out, "filter", trace, *flags) == 0
                got += [(out / f).read_bytes()
                        for f in ("filter_report.jsonl", "accepted.jsonl")]
            return got

        want = artifacts("parsing")

        def refuse(tokens):
            raise AssertionError("filter parsed a document")
        monkeypatch.setattr(paratrace.cli, "parse_document", refuse)
        assert artifacts("refusing") == want
        monkeypatch.undo()
        rows = read_jsonl(tmp_path / "refusing" / "0" / "filter_report.jsonl")
        for doc, row in zip(read_jsonl(trace), rows):
            try:
                pred = parse_document(doc["tokens"]).boxed_answer
            except ParseError:
                pred = None
            assert row["correct"] == (pred == doc["gold"])
        assert 0 < sum(r["correct"] for r in rows) < len(rows)


class TestMetrics:
    def test_report(self, tmp_path, trace_file):
        outcomes = tmp_path / "outcomes.jsonl"
        write_jsonl(outcomes, [
            {"id": "good", "correct": True}, {"id": "good", "correct": False},
            {"id": "bare", "correct": False}, {"id": "bare", "correct": False},
        ])
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "metrics", trace_file,
                       "--outcomes", outcomes) == 0
        report = json.loads((out / "metrics.json").read_text())
        assert report["avg_at_k"] == pytest.approx(0.25)
        assert report["best_at_k"] == pytest.approx(0.5)
        assert report["parallel_rate"] == 100.0
        assert report["simulated_speedup_mean"] > 1.0

    def test_parallel_flags_match_the_parser(self, tmp_path):
        rng = random.Random(5)
        docs = [E1_FULL, E1[:-2], [], ["just", "words"],
                ["<guideline>", "<plan>", "1:", "</plan>", "</guideline>",
                 "<step>", "1:", "a", "</step>", "<takeaway>", "t", "</takeaway>"]]
        for _ in range(40):
            doc = random_valid_document(rng, max_depth=2)
            docs.append(corrupt(doc, rng.randint(1, 6)) if rng.random() < 0.5 else doc)
        trace = tmp_path / "trace.jsonl"
        write_jsonl(trace, [{"id": str(i), "tokens": d} for i, d in enumerate(docs)])
        outcomes = tmp_path / "outcomes.jsonl"
        write_jsonl(outcomes, [{"id": str(i), "correct": i % 3 == 0}
                               for i in range(len(docs))])
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "metrics", trace, "--outcomes", outcomes) == 0
        report = json.loads((out / "metrics.json").read_text())
        # The reference: the parse tree decides, and unparseable or empty
        # documents are not parallel and carry no speedup.
        flags, speedups = [], []
        for doc in docs:
            try:
                flags.append(any(len(block.steps) >= 2
                                 for block in parse_document(doc).iter_blocks()))
                speedups.append(topology_stats(doc).compression_ratio)
            except (ParseError, ValueError):
                flags.append(False)
        assert 0 < sum(flags) < len(flags) and len(speedups) < len(docs)
        assert report["parallel_rate"] == parallel_rate(flags)
        assert report["simulated_speedup_mean"] == sum(speedups) / len(speedups)
        assert report["best_at_k"] == report["avg_at_k"] == 15 / 45

    def test_empty_outcomes_is_an_input_error(self, tmp_path, capsys, trace_file):
        outcomes = tmp_path / "outcomes.jsonl"
        outcomes.write_text("\n")
        assert run_cli("--output-dir", tmp_path / "o", "metrics", trace_file,
                       "--outcomes", outcomes) == 2
        assert f"no outcomes [{outcomes}]" in capsys.readouterr().err

    def test_unknown_outcome_id(self, tmp_path, trace_file):
        outcomes = tmp_path / "outcomes.jsonl"
        write_jsonl(outcomes, [{"id": "ghost", "correct": True}])
        assert run_cli("--output-dir", tmp_path / "o", "metrics", trace_file,
                       "--outcomes", outcomes) == 2


class TestGenCorpus:
    def test_seed_replay_identical_bytes(self, tmp_path):
        blobs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run_cli("--seed", 7, "--output-dir", out, "gen-corpus",
                           "--docs", 50, "--corruption", 0.4) == 0
            blobs.append((out / "corpus.jsonl").read_bytes()
                         + (out / "corpus_key.jsonl").read_bytes())
        assert blobs[0] == blobs[1]

    def test_clean_corpus_validates(self, tmp_path):
        out = tmp_path / "out"
        assert run_cli("--seed", 3, "--output-dir", out, "gen-corpus",
                       "--docs", 30) == 0
        assert run_cli("--output-dir", out, "validate", out / "corpus.jsonl") == 0

    def test_spec_file(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"documents": 5, "corruption_rate": 0.0,
                                    "seed": 9}))
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "gen-corpus", "--spec-file", spec) == 0
        assert len(read_jsonl(out / "corpus.jsonl")) == 5

    def test_seed_flag_overrides_the_spec_seed(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        blobs = []
        for name, seed, flags in (("flag", 3, ("--seed", 9)), ("spec", 9, ())):
            spec.write_text(json.dumps({"documents": 5, "corruption_rate": 0.5,
                                        "seed": seed}))
            out = tmp_path / name
            assert run_cli(*flags, "--output-dir", out, "gen-corpus",
                           "--spec-file", spec) == 0
            assert "with seed 9" in capsys.readouterr().out
            blobs.append((out / "corpus.jsonl").read_bytes())
        assert blobs[0] == blobs[1]


    def test_negative_docs_is_input_error(self, tmp_path, capsys):
        assert run_cli("--output-dir", tmp_path, "gen-corpus", "--docs", -1) == 2
        assert "documents must be non-negative" in capsys.readouterr().err

    def test_bad_spec_file_is_input_error(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"documents": -3}))
        assert run_cli("--output-dir", tmp_path, "gen-corpus", "--spec-file", spec) == 2
        assert str(spec) in capsys.readouterr().err


class TestFlagPositions:
    def test_common_flags_after_subcommand(self, tmp_path):
        out = tmp_path / "o1"
        assert run_cli("gen-corpus", "--docs", 4, "--seed", 5,
                       "--output-dir", out) == 0
        again = tmp_path / "o2"
        assert run_cli("--seed", 5, "--output-dir", again,
                       "gen-corpus", "--docs", 4) == 0
        assert (out / "corpus.jsonl").read_bytes() == \
            (again / "corpus.jsonl").read_bytes()


class TestManifest:
    def test_digests_recorded_and_stable(self, tmp_path, trace_file):
        manifests = []
        for name in ("a", "b"):
            out = tmp_path / name
            manifest = out / "manifest.json"
            run_cli("--output-dir", out, "--manifest", manifest,
                    "validate", trace_file)
            data = json.loads(manifest.read_text())
            assert data["subcommand"] == "validate"
            assert data["inputs"][0]["sha256"]
            assert data["outputs"][0]["path"].endswith("validation_report.jsonl")
            data["outputs"] = [{k: v for k, v in o.items() if k != "path"}
                               for o in data["outputs"]]
            manifests.append(json.dumps(data, sort_keys=True))
        assert manifests[0] == manifests[1]

    def test_simulate_digests_its_run_config(self, tmp_path, script_file):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_new_tokens": 7}))
        manifest = tmp_path / "manifest.json"
        assert run_cli("--output-dir", tmp_path / "o", "--manifest", manifest,
                       "simulate", script_file, "--config", cfg) == 0
        inputs = json.loads(manifest.read_text())["inputs"]
        assert [i["path"] for i in inputs] == [str(script_file), str(cfg)]
        assert inputs[1]["sha256"] == hashlib.sha256(cfg.read_bytes()).hexdigest()

    def test_advantage_config_echo(self, tmp_path):
        batch = tmp_path / "batch.jsonl"
        write_jsonl(batch, [{"id": r, "group": "g", "tokens": E1_FULL,
                             "logprobs": [-0.1] * len(E1_FULL), "pred": "42",
                             "gold": "42"} for r in "ab"])
        manifest = tmp_path / "manifest.json"
        assert run_cli("--output-dir", tmp_path / "o", "--manifest", manifest,
                       "advantage", batch, "--algo", "papo") == 0
        data = json.loads(manifest.read_text())
        assert data["config"] == {"algo": "papo", "batch": str(batch), "seed": None}
        assert data["tool_version"] == paratrace.__version__


def test_lone_surrogate_in_a_script_is_an_input_error(tmp_path, capsys):
    script = tmp_path / "script.json"
    script.write_text(json.dumps({  # ensure_ascii spells the surrogate as an escape
        "prologue": E1[:8], "branches": {"1": E1[8:12], "2": E1[12:15]},
        "takeaway": E1[15:] + ["\udc80"]}))
    assert run_cli("--output-dir", tmp_path / "out", "simulate", script) == 2
    assert str(script) in capsys.readouterr().err


@pytest.mark.parametrize("argv, named", [
    (("validate", "{dir}"), "dir"),
    (("metrics", "{trace}", "--outcomes", "{dir}"), "dir"),
    (("filter", "{trace}", "--answers", "{dir}"), "dir"),
    (("--output-dir", "{file}", "validate", "{trace}"), "file"),
    (("--manifest", "{file}/m.json", "validate", "{trace}"), "file"),
    (("--manifest", "{dir}", "validate", "{trace}"), "dir"),
    (("validate", "{trace}"), "out/validation_report.jsonl"),
    (("mask", "{trace}"), "out/masks/good.mask.json"),
    (("metrics", "{trace}", "--outcomes", "{outcomes}"), "out/metrics.json"),
], ids=["trace-dir", "outcomes-dir", "answers-dir", "output-dir-file", "manifest-under-file",
        "manifest-dir", "report-dir", "mask-file-dir", "metrics-dir"])
def test_unusable_named_path_is_an_input_error(tmp_path, capsys, trace_file, argv, named):
    """A directory named as an input file, a file in the way of an output
    directory, or a directory in the way of an output file (named relative
    to ``tmp_path``) exits 2 and names that path."""
    paths = {"dir": tmp_path / "dir", "file": tmp_path / "file", "trace": trace_file,
             "outcomes": tmp_path / "outcomes.jsonl"}
    paths["dir"].mkdir()
    paths["file"].write_text("")
    write_jsonl(paths["outcomes"], [{"id": "good", "correct": True}])
    if named not in paths:
        paths[named] = tmp_path / named
        paths[named].mkdir(parents=True)
    out = ("--output-dir", tmp_path / "out") if "--output-dir" not in argv else ()
    assert run_cli(*out, *(a.format(**paths) for a in argv)) == 2
    assert f"[{paths[named]}]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "filter", "mask", "metrics"])
@pytest.mark.parametrize("bad", [b"\xe2\x82", b"\\ud800"])
def test_bad_utf8_or_lone_surrogate_is_an_input_error_at_its_line(tmp_path, capsys,
                                                                   command, bad):
    rows = [b'{"id": "a", "tokens": ["x"], "gold": "1", "correct": true}',
            b"", b'{"id": "b' + bad + b'", "tokens": ["x"], "gold": "1", "correct": true}']
    bad_file = tmp_path / "bad.jsonl"
    bad_file.write_bytes(b"\n".join(rows) + b"\n")
    trace = tmp_path / "trace.jsonl"
    write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}])
    argv = ["metrics", trace, "--outcomes", bad_file] if command == "metrics" \
        else [command, bad_file]
    assert run_cli("--output-dir", tmp_path / "out", *argv) == 2
    assert f"{bad_file}:3]" in capsys.readouterr().err
    # A surrogate pair spells one character, and reads as one.
    trace.write_text('{"id": "\\ud83d\\ude00", "tokens": ["x"], "gold": "1"}\n')
    assert run_cli("--output-dir", tmp_path / "out", "validate", trace) == 1


# A well-formed input of each kind: JSON-lines records, then JSON objects.
GOOD_RECORDS = {
    "trace": {"id": "a", "tokens": E1_FULL, "gold": "42"},
    "outcomes": {"id": "a", "correct": True},
    "batch": {"id": "a", "group": "g", "tokens": ["x", "y"], "logprobs": [-0.1, -0.2],
              "pred": "42", "gold": "42"},
}
GOOD_OBJECTS = {
    "script": {"prologue": E1[:8], "branches": {"1": E1[8:12], "2": E1[12:15]},
               "takeaway": E1[15:] + ["\\boxed{42}"]},
    "config": {"max_new_tokens": 64},
    "spec": {"documents": 3, "seed": 1},
}


@pytest.mark.parametrize("kind,field,value", [
    ("outcomes", "correct", "false"),
    ("trace", "tokens", "abc"),
    ("trace", "tokens", [None, 7]),
    ("trace", "id", 7),
    ("batch", "tokens", "ab"),
    ("batch", "logprobs", ["-0.5", True]),
    ("script", "branches", ["a"]),
    ("script", "branches", {"1": ["<step>", "1:", None, "</step>"], "2": E1[12:15]}),
    ("script", "branches", {"1": ["<step>", "1:", 5, "</step>"], "2": E1[12:15]}),
    ("script", "prologue", "<guideline>"),
    ("config", "seed", "3"),
    ("spec", "documents", True),
    ("spec", "seed", "3"),
])
def test_wrongly_typed_field_is_an_input_error(tmp_path, capsys, script_file,
                                               kind, field, value):
    """Nothing is converted: the field is refused, at its line in a
    JSON-lines file and by file name in a JSON object."""
    trace = tmp_path / "trace.jsonl"
    write_jsonl(trace, [GOOD_RECORDS["trace"]])
    path = tmp_path / f"{kind}.json"
    if kind in GOOD_RECORDS:
        good = GOOD_RECORDS[kind]
        path.write_text(json.dumps(good) + "\n\n" + json.dumps({**good, field: value}) + "\n")
        where = f"[{path}:3]"
    else:
        path.write_text(json.dumps({**GOOD_OBJECTS[kind], field: value}))
        where = f"[{path}]"
    argv = {"trace": ["validate", path],
            "outcomes": ["metrics", trace, "--outcomes", path],
            "batch": ["reward", path],
            "script": ["simulate", path],
            "config": ["simulate", script_file, "--config", path],
            "spec": ["gen-corpus", "--spec-file", path]}[kind]
    assert run_cli("--output-dir", tmp_path / "out", *argv) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(where) and field in err, err


@pytest.mark.parametrize("field, value, message", [
    ("logprobs", [-0.1], "1 log-probs for 2 tokens"),
    ("reward", 5, "reward 5 outside [-3, 1]"),
])
def test_out_of_range_rollout_record_is_an_input_error(tmp_path, capsys, field, value,
                                                       message):
    """A well-typed rollout record that no batch can hold is refused at its line."""
    batch = tmp_path / "batch.jsonl"
    write_jsonl(batch, [{**GOOD_RECORDS["batch"], field: value}, GOOD_RECORDS["batch"]])
    assert run_cli("--output-dir", tmp_path / "out", "reward", batch) == 2
    err = capsys.readouterr().err
    assert message in err and err.rstrip().endswith(f"[{batch}:1]"), err


@pytest.mark.parametrize("kind, row, message", [
    ("batch", {**GOOD_RECORDS["batch"], "id": "a\nb", "logprobs": [-0.1]},
     "record 'a\\nb': 1 log-probs for 2 tokens"),
    ("batch", {**GOOD_RECORDS["batch"], "id": "a\nb", "reward": 5},
     "record 'a\\nb': reward 5 outside [-3, 1]"),
    ("outcomes", {"id": "a\nb", "correct": True}, "outcome for unknown document 'a\\nb'"),
    ("trace", {"id": "a\nb", "tokens": E1_FULL}, "no gold answer for document 'a\\nb'"),
])
def test_an_id_holding_a_newline_keeps_the_error_on_one_line(tmp_path, capsys, kind, row,
                                                             message):
    """Messages quote the ids they name, so the input error stays one line."""
    trace, path = tmp_path / "trace.jsonl", tmp_path / f"{kind}.jsonl"
    write_jsonl(trace, [GOOD_RECORDS["trace"]])
    write_jsonl(path, [row])
    argv = {"batch": ["reward", path], "outcomes": ["metrics", trace, "--outcomes", path],
            "trace": ["filter", path]}[kind]
    assert run_cli("--output-dir", tmp_path / "out", *argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err and err.endswith(f"[{path}:1]\n"), err


@pytest.mark.parametrize("field, value", [
    ("max_new_tokens", 0), ("max_new_tokens", -3), ("budget_slots", 0), ("budget_slots", -1),
])
def test_out_of_range_config_is_an_input_error(tmp_path, capsys, script_file, field, value):
    """A run-config value no run can use is refused by file name before the run."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({field: value}))
    assert run_cli("--output-dir", tmp_path / "out", "simulate", script_file,
                   "--config", cfg) == 2
    err = capsys.readouterr().err
    assert err.rstrip().endswith(f"[{cfg}]") and field in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flag, value", [
    ("--max-new-tokens", 0), ("--max-new-tokens", -3), ("--budget-slots", 0),
    ("--budget-slots", -1),
])
def test_out_of_range_flag_is_an_input_error(tmp_path, capsys, script_file, flag, value):
    """A budget flag is held to the same bound as its run-config field."""
    assert run_cli("--output-dir", tmp_path / "out", "simulate", script_file,
                   flag, value) == 2
    err = capsys.readouterr().err
    assert f"{flag} must be at least 1, got {value}" in err, err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tables", [
    '"block_count_weights": {"1": NaN, "2": 1}',
    '"block_count_weights": {"1": -1, "2": 1}',
    '"block_count_weights": {}',
    '"block_count_weights": {"9": 1}',
    '"block_count_weights": {"0": 1}, "corruption_rate": 0.9',
    '"steps_per_block_weights": {"0": 1}',
])
def test_out_of_range_spec_is_an_input_error(tmp_path, capsys, tables):
    spec = tmp_path / "spec.json"
    spec.write_text('{"documents": 3, ' + tables + "}")
    assert run_cli("--output-dir", tmp_path / "out", "gen-corpus", "--spec-file", spec) == 2
    assert capsys.readouterr().err.rstrip().endswith(f"[{spec}]")
    assert not (tmp_path / "out").exists()


def _writes_a_file(call: ast.Call) -> bool:
    """``x.write_text(...)``, ``x.write_bytes(...)``, or ``open``/``x.open``
    with a mode that is not a plain read (or that cannot be read off the call)."""
    func = call.func
    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 0 if isinstance(func, ast.Attribute) else 1  # Path.open(mode) / open(path, mode)
    modes = [k.value for k in call.keywords if k.arg == "mode"] + call.args[at:at + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)
                    and set(m.value) <= set("rbt")) for m in modes)


def test_only_tracefile_writes_files():
    """Every output reaches disk through ``tracefile.write_file``, the one
    place that turns a refused path into an input error (exit 2)."""
    package = Path(paratrace.__file__).parent
    writers = sorted(f"{path.name}:{node.lineno}" for path in package.glob("*.py")
                     for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                     if isinstance(node, ast.Call) and _writes_a_file(node)
                     and path.name != "tracefile.py")
    assert writers == []


# Pinned sha256 over each run's exit code and every output file of the
# pipeline below, in sorted relative-path order. No run writes a manifest,
# because manifests hold absolute paths.
PIPELINE_DIGEST = "492f8b006f308deb88119767f34483476753a2fdce624dfc77384eb83ed3c0c6"


def test_every_subcommand_artifact_is_pinned(tmp_path):
    """One seeded corpus through every trace and scoring subcommand: any
    change to an artifact's bytes or to an exit code moves the digest."""
    def run(name, *argv):
        return run_cli("--output-dir", tmp_path / "out" / name, *argv)

    codes = [run("corpus", "--seed", 3, "gen-corpus", "--docs", 200, "--corruption", 0.5)]
    corpus = tmp_path / "out" / "corpus" / "corpus.jsonl"
    key = tmp_path / "out" / "corpus" / "corpus_key.jsonl"
    docs, keys = read_jsonl(corpus), read_jsonl(key)
    rng = random.Random(3)
    outcomes = tmp_path / "outcomes.jsonl"
    write_jsonl(outcomes, [{"id": d["id"], "correct": rng.random() < 0.6}
                           for d in docs for _ in range(rng.randint(1, 3))])

    def record(i, doc, pred):
        return {"id": doc["id"], "group": f"g{i // 4}", "tokens": doc["tokens"],
                "logprobs": [round(-rng.random(), 3) for _ in doc["tokens"]],
                "pred": pred, "gold": doc["gold"]}
    # Groups of 4; group g0 answers every question. The degenerate batch
    # holds clean, correct records only, so every reward is the same.
    batch, degenerate = tmp_path / "batch.jsonl", tmp_path / "degenerate.jsonl"
    write_jsonl(batch, [record(i, d, d["gold"] if i < 4 else
                               rng.choice([d["gold"], "ans0", None]))
                        for i, d in enumerate(docs[:48])])
    clean = [d for d, k in zip(docs, keys) if not k["corrupted"]][:8]
    write_jsonl(degenerate, [record(i, d, d["gold"]) for i, d in enumerate(clean)])

    codes += [run("validate", "validate", corpus),
              run("validate-strict", "validate", corpus, "--strict"),
              run("filter", "filter", corpus),
              run("filter-strict", "filter", corpus, "--strict"),
              run("filter-answers", "filter", corpus, "--answers", key),
              run("coords", "mask", corpus),
              run("dense", "mask", corpus, "--format", "dense"),
              run("posid", "posid", corpus),
              run("metrics", "metrics", corpus, "--outcomes", outcomes)]
    for name, path in (("batch", batch), ("degenerate", degenerate)):
        codes += [run(f"{name}-reward", "reward", path)]
        codes += [run(f"{name}-{algo}", "advantage", path, "--algo", algo)
                  for algo in ("dapo", "papo")]
    assert codes == [0, 1, 1, 0, 0, 0, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0]

    digest = hashlib.sha256(bytes(codes))
    out = tmp_path / "out"
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(path.relative_to(out).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    assert digest.hexdigest() == PIPELINE_DIGEST
