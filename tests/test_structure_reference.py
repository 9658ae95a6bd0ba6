"""The structure layer against its references and a pinned output digest.

The production tokenizer, validator, mask builder, position builder and
topology stats are compared with the earlier implementations kept in
``reference_structure.py`` over four kinds of input: valid corpus documents,
documents with one injected violation, tag soups, and valid documents with
tags inserted or deleted. The simulator's header gate is compared with its
reference over tag soups and edited legal headers. The digest
pins every structural output over a fixed input set; it was computed with
the earlier implementations.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from paratrace import (AttentionMask, ParseError, StructureError, Token, build_attention_mask,
                       build_position_ids, corrupt, mask_from_spans_oracle,
                       parse_document, random_valid_document, serialize, tokenize,
                       topology_stats, validate_structure)
from paratrace.engine import _validate_header
from paratrace import tags, topology
from reference_structure import (ref_attention_mask, ref_position_ids, ref_tokenize,
                                 ref_topology_stats, ref_validate_header,
                                 ref_validate_structure)

TAGS = sorted(tags.TAGS)
WORDS = ["w", "x1", "\\boxed{7}", "a<b", "<", "<step", "step>"]


def valid_doc(seed: int) -> list[str]:
    return random_valid_document(random.Random(seed), max_depth=2)


def corrupted_doc(seed: int, category: int) -> list[str]:
    return corrupt(valid_doc(seed), category)


def edited(tokens: list[str], edits) -> list[str]:
    """``tokens`` with tags inserted (``tag``) or tokens deleted (None)."""
    for at, tag in edits:
        if tag is None:
            if tokens:
                del tokens[at % len(tokens)]
        else:
            tokens.insert(at % (len(tokens) + 1), tag)
    return tokens


def mutated_doc(seed: int, edits) -> list[str]:
    return edited(valid_doc(seed), edits)


seeds = st.integers(0, 2**32 - 1)
documents = st.one_of(
    seeds.map(valid_doc),
    st.builds(corrupted_doc, seeds, st.integers(1, 6)),
    st.lists(st.sampled_from(TAGS + WORDS[:3]), max_size=60),
    st.builds(mutated_doc, seeds,
              st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(TAGS + [None])),
                       min_size=1, max_size=3)),
)


def outcome(fn, tokens):
    try:
        return fn(tokens)
    except StructureError as exc:
        return ("StructureError", exc.index, str(exc))


def mask_views(mask) -> list:
    """The rectangles, the coords JSON and, up to 300 tokens, the dense bytes."""
    views = [mask.blocked, json.dumps(mask.to_coords_dict())]
    if mask.length <= 300:
        views.append(mask.to_dense_bytes())
    return views


def reloaded(mask) -> AttentionMask:
    """The mask rebuilt from its rectangles, as a coords file is read back."""
    return AttentionMask(mask.length, mask.blocked)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_builders_match_references(tokens):
    assert outcome(build_position_ids, tokens) == outcome(ref_position_ids, tokens)
    want = outcome(lambda t: mask_views(ref_attention_mask(t)), tokens)
    assert outcome(lambda t: mask_views(build_attention_mask(t)), tokens) == want
    assert outcome(lambda t: mask_views(reloaded(build_attention_mask(t))), tokens) == want
    assert outcome(topology_stats, tokens) == outcome(ref_topology_stats, tokens)


@settings(max_examples=500, deadline=None)
@given(documents)
def test_validator_matches_reference(tokens):
    """The rule-table validator gives the hand-coded one's report, violation
    for violation and in order, in both modes."""
    for strict in (False, True):
        want = ref_validate_structure(tokens, strict)
        assert validate_structure(tokens, strict) == want


@settings(max_examples=300, deadline=None, derandomize=True)
@given(documents)
def test_report_answer_is_the_parsers(tokens):
    """The report's boxed answer is the parser's, in both modes, and None
    where the parser raises: filter predicts from it and never parses."""
    try:
        want = parse_document(tokens).boxed_answer
    except (ParseError, ValueError):
        want = None
    for strict in (False, True):
        assert validate_structure(tokens, strict).boxed_answer == want


def mutable_parts(obj, found: dict) -> dict:
    """``found`` plus each mutable object reachable from ``obj``, by id.

    Ints, floats, strs, ranges and None are immutable leaves; tuples and
    frozen dataclasses are immutable and looked into. Anything else counts
    as mutable, and a list is looked into as well."""
    if isinstance(obj, (int, float, str, range, type(None))):
        return found
    if isinstance(obj, tuple):
        items = obj
    elif dataclasses.is_dataclass(obj) and obj.__dataclass_params__.frozen:
        items = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    else:
        found[id(obj)] = obj
        items = obj if isinstance(obj, list) else ()
    for item in items:
        mutable_parts(item, found)
    return found


@settings(max_examples=300, deadline=None, derandomize=True)
@given(documents)
def test_a_report_carries_the_layout_exactly_when_the_walk_reads_it(tokens):
    """In both modes a report carries the walk's layout exactly when its
    lenient form has no category-1 violation, and the layout changes no
    comparison, repr or JSON. Walks from two reports of one trace hold no
    mutable object, so they share none."""
    walkable = not any(v.category == 1 for v in validate_structure(tokens).violations)
    for strict in (False, True):
        report = validate_structure(tokens, strict)
        assert (report._layout is not None) == walkable
        bare = dataclasses.replace(report, _layout=None)
        assert report == bare and repr(report) == repr(bare)
        assert report.to_json_dict() == bare.to_json_dict()
    if walkable:
        walked = []
        for _ in range(2):
            topology._kept = (None, None)  # so that each walk reads its own report
            walked.append(topology._walk(tokens))
        assert walked[0] == walked[1]
        assert mutable_parts(walked[0], {}) == mutable_parts(walked[1], {}) == {}


def header(plans: int, edits) -> list[str]:
    """A legal guideline header with ``plans`` plans, then ``edits``."""
    return edited(["<guideline>"] + ["<plan>", "w", "</plan>"] * plans + ["</guideline>"],
                  edits)


headers = st.one_of(
    st.lists(st.sampled_from(TAGS + WORDS[:2]), max_size=12),
    st.builds(header, st.integers(0, 4),
              st.lists(st.tuples(st.integers(0, 100), st.sampled_from(TAGS + [None])),
                       max_size=2)),
)


@settings(max_examples=500, deadline=None)
@given(headers, st.integers(1, 3), st.booleans())
def test_header_gate_matches_reference(prologue, branches, strict):
    assert (_validate_header(prologue, branches, strict)
            == ref_validate_header(prologue, branches, strict))


@settings(max_examples=200, deadline=None)
@given(documents.filter(lambda t: len(t) <= 60))
def test_is_visible_reads_like_the_dense_view(tokens):
    """Each cell's query, asked before any dense view exists, matches that view."""
    try:
        built = build_attention_mask(tokens)
    except StructureError:
        return
    cells = range(len(tokens))
    for make in (lambda: build_attention_mask(tokens), lambda: reloaded(built)):
        queried, viewed = make(), make()
        got = [[queried.is_visible(i, j) for j in cells] for i in cells]
        assert got == viewed.dense().tolist()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(TAGS + WORDS),
                          st.sampled_from(["", "", " ", "  ", "\n\t"])), max_size=40))
def test_tokenize_matches_regex_split(pieces):
    # An empty separator glues a tag to its neighbours.
    text = "".join(piece + sep for piece, sep in pieces)
    tokens = tokenize(text)
    assert tokens == ref_tokenize(text)
    assert all(type(t) is Token for t in tokens)
    assert [t.text for t in tokens] == ref_tokenize(text)
    # One shared Token per distinct text.
    assert len({id(t) for t in tokens}) == len(set(tokens))


@settings(max_examples=200, deadline=None)
@given(documents)
def test_tuple_of_tokens_reads_like_the_equal_list(tokens):
    """Tokens are read in place and never converted, so a tuple gives the same
    report, mask, positions, stats and parse as the equal list."""
    assert structure_record(tuple(tokens)) == structure_record(tokens)
    assert serialize(tuple(tokens)) == serialize(tokens)
    oracle = lambda t: mask_from_spans_oracle(t).to_dense_bytes()  # noqa: E731
    assert outcome(oracle, tuple(tokens)) == outcome(oracle, tokens)


# -- pinned outputs ------------------------------------------------------------

def digest_inputs():
    docs = [valid_doc(seed) for seed in range(500)]
    docs += [corrupted_doc(seed, 1 + seed % 6) for seed in range(500)]
    rng = random.Random(20251207)
    for _ in range(500):
        docs.append([rng.choice(TAGS + WORDS[:3]) for _ in range(rng.randint(0, 40))])
    for seed in range(500):
        edits = [(rng.randrange(10**6), rng.choice(TAGS + [None]))
                 for _ in range(rng.randint(1, 3))]
        docs.append(mutated_doc(seed, edits))
    texts = ["".join(rng.choice(TAGS + WORDS) + rng.choice(["", " ", "\n"])
                     for _ in range(rng.randint(0, 30))) for _ in range(300)]
    return docs, texts


def structure_record(tokens) -> dict:
    """Every structural output for one token sequence, as JSON."""
    out = {}
    builders = {"mask": lambda t: build_attention_mask(t).to_coords_dict(),
                "pos": build_position_ids,
                "stats": lambda t: topology_stats(t).to_json_dict()}
    for name, fn in builders.items():
        out[name] = outcome(fn, tokens)
    if isinstance(out["mask"], dict) and len(tokens) <= 300:
        dense = build_attention_mask(tokens).to_dense_bytes()
        out["dense"] = hashlib.sha256(dense).hexdigest()
    out["lenient"] = validate_structure(tokens).to_json_dict()
    out["strict"] = validate_structure(tokens, strict=True).to_json_dict()
    try:
        doc = parse_document(tokens)
    except (ParseError, ValueError) as exc:
        out["parse"] = [type(exc).__name__, str(exc)]
    else:
        def spans(items):
            return [[s.start, s.end] for s in items]
        out["parse"] = {
            "boxed": doc.boxed_answer,
            "epilogue": spans([doc.epilogue_span] if doc.epilogue_span else []),
            "blocks": [[spans([b.guideline_span, b.takeaway_span]), spans(b.plans),
                        spans(b.steps), len(b.children)] for b in doc.iter_blocks()],
        }
    return out


def structure_digest() -> str:
    docs, texts = digest_inputs()
    h = hashlib.sha256()
    for tokens in docs:
        h.update(json.dumps(structure_record(tokens), sort_keys=True).encode())
    for text in texts:
        h.update(json.dumps([t.text for t in tokenize(text)]).encode())
    return h.hexdigest()


GOLDEN_DIGEST = "0329aae0eaa2842afeba5cfea5801383b1ee306ee41f4abefaddf47cfb83311b"


def test_structure_outputs_match_golden_digest():
    assert structure_digest() == GOLDEN_DIGEST
