"""Tokenizer and parser behaviour."""

import json
import random
from operator import is_

import pytest

from paratrace import (TAGS, MisplacedTag, Span, Token, UnbalancedTag, extract_boxed,
                       is_tag, parse_document, serialize, tokenize)
from paratrace.tags import STEP_OPEN, tag_scan
from conftest import E1, make_corpus


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []

    def test_reference_rule(self):
        tokens = tokenize("<guideline> <plan> 1: try x </plan> </guideline>")
        assert [t.text for t in tokens] == [
            "<guideline>", "<plan>", "1:", "try", "x", "</plan>", "</guideline>"]
        assert [i for i, t in enumerate(tokens) if is_tag(t)] == [0, 1, 5, 6]

    def test_boxed_payload_single_token(self):
        tokens = tokenize("\\boxed{106^\\circ}")
        assert len(tokens) == 1
        assert not is_tag(tokens[0])
        assert extract_boxed(tokens[0].text) == "106^\\circ"

    def test_glued_tags_split(self):
        tokens = tokenize("x</step><step>y")
        assert [t.text for t in tokens] == ["x", "</step>", "<step>", "y"]
        assert [is_tag(t) for t in tokens] == [False, True, True, False]

    def test_round_trip(self):
        rng = random.Random(5)
        words = ["a", "bb", "c1", "<step>", "</plan>", "\\boxed{9}"]
        for _ in range(200):
            texts = [rng.choice(words) for _ in range(rng.randint(1, 30))]
            again = tokenize(serialize(texts))
            assert [t.text for t in again] == texts


class TestTags:
    def test_vocabulary(self):
        """The eight tags are plain strings, each open followed by its close,
        and a scan hands back the ``TAGS`` object equal to each tag token."""
        assert len({id(t) for t in TAGS}) == len(set(TAGS)) == len(TAGS) == 8
        assert {type(t) for t in TAGS} == {str}
        assert list(TAGS[1::2]) == ["</" + t[1:] for t in TAGS[::2]]
        expected = [*TAGS, *reversed(TAGS)]
        texts = json.loads(json.dumps(["w", *TAGS, "x", *reversed(TAGS), "y"]))
        assert not any(map(is_, texts[1:9], TAGS))
        indices, tags = tag_scan(texts)
        assert indices == [*range(1, 9), *range(10, 18)]
        assert len(tags) == len(expected) and all(map(is_, tags, expected))

    def test_is_tag_holds_for_exactly_the_eight_texts(self):
        names = ["guideline", "plan", "step", "takeaway", "Step", "tag", ""]
        near = [f"{lead}{name}{tail}" for name in names
                for lead in ("<", "</", "< ", "", "<<") for tail in (">", " >", "", ">>")]
        assert {t for t in near if is_tag(t)} == set(TAGS)
        assert all(is_tag(Token(t)) and is_tag("".join(t)) for t in TAGS)


class TestToken:
    def test_kind_derived_from_text(self):
        assert is_tag(Token("<step>")) and Token("<step>") == STEP_OPEN
        assert not is_tag(Token("step"))

    def test_empty_text_is_a_token(self):
        # A trace file may hold an empty token, so the type holds one too.
        assert Token("") == "" and not is_tag(Token(""))

    def test_token_is_its_text(self):
        token = Token("a")
        assert token == "a" and isinstance(token, str)
        assert type(token.text) is str and token.text == "a"
        assert {token: 1}["a"] == 1

    def test_parsed_doc_holds_texts(self):
        tokens = tokenize(" ".join(E1) + " \\boxed{1}")
        doc = parse_document(tokens)
        assert doc.tokens == E1 + ["\\boxed{1}"]
        assert doc.texts() == doc.tokens and doc.texts() is not doc.tokens


class TestParse:
    def test_e1_structure(self, e1):
        doc = parse_document(e1)
        assert len(doc.blocks) == 1
        block = doc.blocks[0]
        assert block.guideline_span == Span(0, 8)
        assert block.plans == [Span(1, 4), Span(4, 7)]
        assert block.steps == [Span(8, 12), Span(12, 15)]
        assert block.takeaway_span == Span(15, 18)
        assert not block.children
        assert doc.epilogue_span is None
        assert doc.boxed_answer is None

    def test_two_back_to_back_blocks(self, e1):
        doc = parse_document(e1 + e1)
        assert len(doc.blocks) == 2
        assert doc.blocks[1].guideline_span.start == len(e1)

    def test_step_without_block(self):
        with pytest.raises(MisplacedTag) as exc:
            parse_document(["<step>", "x", "</step>"])
        assert exc.value.index == 0

    def test_unclosed_block(self, e1):
        with pytest.raises(UnbalancedTag):
            parse_document(e1[:-1])

    def test_close_without_open(self):
        with pytest.raises(UnbalancedTag) as exc:
            parse_document(["w", "</plan>"])
        assert exc.value.index == 1

    def test_plan_outside_header(self, e1):
        with pytest.raises(MisplacedTag):
            parse_document(e1 + ["<plan>", "x", "</plan>"])

    def test_takeaway_with_open_step(self):
        with pytest.raises(MisplacedTag):
            parse_document(["<guideline>", "<plan>", "p", "</plan>", "</guideline>",
                            "<step>", "x", "<takeaway>", "t", "</takeaway>"])

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            parse_document([])

    def test_nested_block_inside_step(self, e1):
        inner = list(E1)
        tokens = e1[:11] + inner + e1[11:]  # splice before step 1's close tag
        doc = parse_document(tokens)
        assert len(doc.blocks) == 1
        assert len(doc.blocks[0].children) == 1
        child = doc.blocks[0].children[0]
        assert child.extent.start == 11
        outer_step = doc.blocks[0].steps[0]
        assert outer_step.start <= child.extent.start < child.extent.end <= outer_step.end

    def test_nested_block_outside_step_rejected(self):
        tokens = ["<guideline>", "<plan>", "p", "</plan>", "<guideline>"]
        with pytest.raises(MisplacedTag):
            parse_document(tokens)

    def test_epilogue_and_boxed(self, e1_full):
        doc = parse_document(e1_full)
        assert doc.epilogue_span == Span(18, 21)
        assert doc.boxed_answer == "42"

    def test_first_boxed_wins(self, e1):
        doc = parse_document(e1 + ["\\boxed{first}", "\\boxed{second}"])
        assert doc.boxed_answer == "first"

    def test_boxed_inside_step_does_not_count(self, e1):
        tokens = list(e1)
        tokens.insert(10, "\\boxed{inner}")
        assert parse_document(tokens).boxed_answer is None

    def test_tagless_doc_is_all_epilogue(self):
        doc = parse_document(["just", "text", "\\boxed{7}"])
        assert doc.blocks == []
        assert doc.epilogue_span == Span(0, 3)
        assert doc.boxed_answer == "7"

    def test_interstitial_backbone_tokens(self, e1):
        tokens = e1[:8] + ["nl"] + e1[8:12] + ["nl"] + e1[12:]
        doc = parse_document(tokens)
        assert len(doc.blocks) == 1
        assert len(doc.blocks[0].steps) == 2

    def test_block_span_invariants_on_corpus(self):
        for tokens in make_corpus(50, seed=12, max_depth=2):
            doc = parse_document(tokens)
            extents = [b.extent for b in doc.blocks]
            for a, b in zip(extents, extents[1:]):
                assert a.end <= b.start, "top-level blocks must not overlap"
            for block in doc.iter_blocks():
                for plan in block.plans:
                    assert block.guideline_span.start <= plan.start
                    assert plan.end <= block.guideline_span.end
                for step in block.steps:
                    assert step.start >= block.guideline_span.end
                    assert step.end <= block.takeaway_span.start
                for a, b in zip(block.steps, block.steps[1:]):
                    assert a.end <= b.start, "steps must be ordered and disjoint"


class TestBoxedExtraction:
    def test_nested_braces(self):
        assert extract_boxed("pre \\boxed{\\frac{1}{2}} post") == "\\frac{1}{2}"

    def test_unterminated(self):
        assert extract_boxed("\\boxed{oops") is None

    def test_absent(self):
        assert extract_boxed("no answer here") is None
