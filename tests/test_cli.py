"""CLI subcommands, exit codes, and determinism."""

import json

import pytest

from paratrace.cli import main
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

    def test_posid_artifacts(self, tmp_path, trace_file):
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "posid", trace_file) == 0
        pos = json.loads((out / "positions" / "bare.pos.json").read_text())
        assert pos == [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 8, 9, 10, 12, 13, 14]

    @pytest.mark.parametrize("command", ["mask", "posid"])
    @pytest.mark.parametrize("bad_id", ["../x", "../../x", "a/b", "..", ".", "", "a\\b"])
    def test_unsafe_ids_write_nothing(self, tmp_path, capsys, command, bad_id):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "ok", "tokens": E1_FULL},
                            {"id": bad_id, "tokens": E1_FULL}])
        out = tmp_path / "deep" / "out"
        assert run_cli("--output-dir", out, command, trace) == 2
        assert f"{trace}:2" in capsys.readouterr().err
        assert [p for p in tmp_path.rglob("*") if p.is_file()] == [trace]

    @pytest.mark.parametrize("command", ["mask", "posid"])
    def test_duplicate_ids_rejected(self, tmp_path, capsys, command):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}, {"id": "b", "tokens": E1},
                            {"id": "a", "tokens": E1}])
        assert run_cli("--output-dir", tmp_path / "out", command, trace) == 2
        assert f"{trace}:3" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


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

    def test_budget_sweep_monotone(self, tmp_path, script_file):
        emitted = []
        for budget in (5, 10, 20):
            out = tmp_path / f"b{budget}"
            run_cli("--output-dir", out, "simulate", script_file,
                    "--max-new-tokens", budget)
            events = read_jsonl(out / "sim_events.jsonl")
            emitted.append(sum(1 for e in events if e["kind"] == "emit"))
        assert emitted == sorted(emitted)

    def test_rejected_header_exits_one(self, tmp_path):
        script = tmp_path / "bad.json"
        script.write_text(json.dumps({
            "prologue": ["<guideline>", "</guideline>"],
            "branches": {"1": ["<step>", "x", "</step>"]},
            "takeaway": ["<takeaway>", "</takeaway>"],
        }))
        out = tmp_path / "out"
        assert run_cli("--output-dir", out, "simulate", script) == 1
        events = read_jsonl(out / "sim_events.jsonl")
        assert any(e["kind"] == "reject" for e in events)

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

    @pytest.mark.parametrize("row", ['{"id": "a"}', '{"gold": "42"}', '["a", "42"]',
                                     '"a"', "null"])
    def test_filter_bad_answer_rows(self, tmp_path, capsys, row):
        trace = tmp_path / "t.jsonl"
        write_jsonl(trace, [{"id": "a", "tokens": E1_FULL}])
        answers = tmp_path / "answers.jsonl"
        answers.write_text('{"id": "b", "gold": "1"}\n\n' + row + "\n")
        assert run_cli("--output-dir", tmp_path / "o", "filter", trace,
                       "--answers", answers) == 2
        assert f"{answers}:3" in capsys.readouterr().err

    def test_filter_strict_rejects_plan_step_mismatch(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        mismatched = E1_FULL[:7] + ["<plan>", "3:", "</plan>"] + E1_FULL[7:]
        write_jsonl(trace, [{"id": "m", "tokens": mismatched, "gold": "42"}])
        for flags, accepted in (((), True), (("--strict",), False)):
            out = tmp_path / str(accepted)
            assert run_cli("--output-dir", out, "filter", trace, *flags) == 0
            row = read_jsonl(out / "filter_report.jsonl")[0]
            assert row == {"id": "m", "accepted": accepted, "correct": True,
                           "format_ok": accepted}


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

    def test_advantage_config_echo(self, tmp_path):
        batch = tmp_path / "batch.jsonl"
        write_jsonl(batch, [{"id": r, "group": "g", "tokens": E1_FULL,
                             "logprobs": [-0.1] * len(E1_FULL), "pred": "42",
                             "gold": "42"} for r in "ab"])
        manifest = tmp_path / "manifest.json"
        assert run_cli("--output-dir", tmp_path / "o", "--manifest", manifest,
                       "advantage", batch, "--algo", "papo") == 0
        config = json.loads(manifest.read_text())["config"]
        assert config == {"algo": "papo", "batch": str(batch), "seed": None}
