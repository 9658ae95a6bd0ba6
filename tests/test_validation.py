"""Validator categories, strict mode, and agreement with the parser."""

import random

from paratrace import TAGS, ParseError, parse_document, validate_structure
from conftest import E1, E1_FULL


def failed(tokens, strict=False):
    return set(validate_structure(tokens, strict=strict).failed_categories())


class TestCategories:
    def test_well_formed(self, e1_full):
        report = validate_structure(e1_full)
        assert report.ok
        assert report.categories_failed == 0
        assert report.to_json_dict()["categories_total"] == 6

    def test_missing_takeaway_close(self, e1_full):
        tokens = [t for t in e1_full if t != "</takeaway>"]
        assert failed(tokens) == {1, 4}

    def test_no_plans(self, e1_full):
        tokens = [t for i, t in enumerate(e1_full) if not 1 <= i <= 6]
        assert failed(tokens) == {2}

    def test_no_steps(self, e1_full):
        tokens = e1_full[:8] + e1_full[15:]
        assert failed(tokens) == {3}

    def test_stray_tag_in_epilogue(self, e1_full):
        assert failed(e1_full + ["</plan>"]) == {1, 5}

    def test_stray_step_pair_alone(self):
        report = validate_structure(["<step>", "x", "</step>", "\\boxed{1}"])
        assert {1, 5} <= set(report.failed_categories())

    def test_missing_boxed(self, e1):
        assert failed(e1) == {6}

    def test_empty_sequence(self):
        assert failed([]) == {6}

    def test_tagless_with_boxed_passes(self):
        assert validate_structure(["hello", "\\boxed{3}"]).ok

    def test_accepts_parsed_document(self, e1_full):
        """A parsed document is validated through its tokens, the one input form."""
        doc = parse_document(e1_full)
        assert validate_structure(doc.tokens) == validate_structure(e1_full)
        assert validate_structure(doc.tokens).ok

    def test_only_a_top_level_close_starts_the_epilogue(self):
        """A nested block that closes inside a block left open does not start
        the epilogue, so the answer before it still counts."""
        header = ["<guideline>", "<plan>", "p", "</plan>", "</guideline>"]
        inner = header + ["<step>", "s", "</step>", "<takeaway>", "t", "</takeaway>"]
        tokens = header + ["<step>", "\\boxed{1}"] + inner + ["</step>"]
        assert failed(tokens) == {1, 4}

    def test_violation_carries_index(self, e1_full):
        tokens = e1_full + ["</plan>"]
        report = validate_structure(tokens)
        assert any(v.index == len(e1_full) for v in report.violations)

    def test_json_export_shape(self, e1):
        data = validate_structure(e1).to_json_dict()
        assert data["ok"] is False
        assert set(data["categories"]) == {
            "tag_balance", "plans_present", "steps_present",
            "single_takeaway", "no_stray_tags", "boxed_answer"}
        assert data["categories"]["boxed_answer"] is False
        assert data["categories"]["tag_balance"] is True
        assert data["violations"][0]["category"] == 6


class TestStrictMode:
    def _mismatched(self):
        # Three plans, two steps, valid epilogue.
        tokens = list(E1_FULL)
        return tokens[:7] + ["<plan>", "3:", "</plan>"] + tokens[7:]

    def test_lenient_accepts_plan_step_mismatch(self):
        assert validate_structure(self._mismatched()).ok

    def test_strict_rejects_plan_step_mismatch(self):
        assert failed(self._mismatched(), strict=True) == {1}

    def test_strict_rejects_nesting(self):
        # Splice a whole block inside step 1; the outer epilogue stays intact.
        tokens = E1_FULL[:11] + list(E1) + E1_FULL[11:]
        lenient = validate_structure(tokens)
        assert lenient.ok or lenient.failed_categories() == frozenset({6})
        assert 1 in failed(tokens, strict=True)


class TestProperties:
    def test_monotone_violations(self, e1_full):
        tag_positions = [i for i, t in enumerate(e1_full)
                         if t.startswith("<")]
        for i in tag_positions:
            tokens = e1_full[:i] + e1_full[i + 1:]
            assert not validate_structure(tokens).ok, f"deleting {e1_full[i]} at {i}"

    def test_fuzz_never_crashes(self):
        rng = random.Random(99)
        vocab = list(TAGS) + ["w1", "w2", "\\boxed{1}"]
        for _ in range(500):
            tag_density = rng.random() * 0.5
            n = rng.randint(0, 40)
            tokens = [
                rng.choice(vocab[:8]) if rng.random() < tag_density
                else rng.choice(vocab[8:])
                for _ in range(n)
            ]
            report = validate_structure(tokens)
            assert 0 <= report.categories_failed <= 6
            try:
                if tokens:
                    parse_document(tokens)
                parsed = True
            except ParseError:
                parsed = False
            # Agreement: the parser succeeds iff category 1 is clean.
            assert parsed == (1 not in report.failed_categories()), tokens

    def test_agreement_on_valid_corpus(self, corpus_1000):
        for tokens in corpus_1000[:200]:
            report = validate_structure(tokens)
            assert 1 not in report.failed_categories()
            parse_document(tokens)
