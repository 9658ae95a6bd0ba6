"""Synthetic corpus generation and corruption."""

import random

import pytest

from paratrace import (CorpusSpec, accept_filter, corrupt, generate_corpus,
                       parse_document, random_valid_document, validate_structure)


def test_same_seed_same_corpus():
    spec = CorpusSpec(documents=40, corruption_rate=0.3, seed=7)
    assert generate_corpus(spec) == generate_corpus(spec)


def test_different_seed_differs():
    a, _ = generate_corpus(CorpusSpec(documents=20, seed=1))
    b, _ = generate_corpus(CorpusSpec(documents=20, seed=2))
    assert a != b


def test_clean_corpus_validates_both_modes():
    docs, keys = generate_corpus(CorpusSpec(documents=60, corruption_rate=0.0, seed=3))
    assert not any(k["corrupted"] for k in keys)
    for doc in docs:
        assert validate_structure(doc["tokens"]).ok
        assert validate_structure(doc["tokens"], strict=True).ok


def test_clean_corpus_filter_depends_only_on_answer():
    docs, _ = generate_corpus(CorpusSpec(documents=30, corruption_rate=0.0, seed=4))
    for doc in docs:
        pred = parse_document(doc["tokens"]).boxed_answer
        assert accept_filter(doc["tokens"], pred, doc["gold"]) is True
        assert accept_filter(doc["tokens"], pred, doc["gold"] + "x") is False


def test_fully_corrupted_corpus_never_validates():
    docs, keys = generate_corpus(CorpusSpec(documents=60, corruption_rate=1.0, seed=5))
    assert all(k["corrupted"] for k in keys)
    for doc in docs:
        assert not validate_structure(doc["tokens"]).ok


def test_corruption_hits_target_category():
    rng = random.Random(9)
    for category in range(1, 7):
        for trial in range(10):
            tokens = random_valid_document(rng, max_depth=1, answer="z",
                                           pair_plans_with_steps=True)
            bad = corrupt(tokens, category)
            report = validate_structure(bad)
            assert category in report.failed_categories(), (category, bad)


def test_corrupted_docs_fail_accept_filter():
    docs, keys = generate_corpus(CorpusSpec(documents=80, corruption_rate=1.0, seed=6))
    for doc, key in zip(docs, keys):
        try:
            pred = parse_document(doc["tokens"]).boxed_answer
        except Exception:
            pred = None
        assert accept_filter(doc["tokens"], pred, key["gold"]) is False


def test_spec_reader_parses_weight_keys():
    spec = CorpusSpec(documents=5, corruption_rate=0.5, seed=11,
                      block_count_weights={1: 1.0},
                      steps_per_block_weights={2: 1.0},
                      step_length_weights={3: 1.0})
    data = {"documents": 5, "corruption_rate": 0.5, "seed": 11,
            "block_count_weights": {"1": 1.0}, "steps_per_block_weights": {"2": 1.0},
            "step_length_weights": {"3": 1.0}}
    assert CorpusSpec.from_json_dict(data) == spec


def test_spec_validation():
    with pytest.raises(ValueError):
        CorpusSpec(documents=-1)
    with pytest.raises(ValueError):
        CorpusSpec(corruption_rate=1.5)


def test_documents_fit_length_cap():
    rng = random.Random(13)
    for _ in range(300):
        assert len(random_valid_document(rng, max_depth=2)) <= 256


class _LongestDraws(random.Random):
    """Every optional part is drawn, at its largest size."""

    def random(self):
        return 0.0

    def randint(self, a, b):
        return b


def test_spec_length_bound_is_tight():
    # One block of one step: 15 + (9 + L) tokens at most, so L = 232 can
    # reach the 256-token cap and L = 233 could pass it.
    shape = {"block_count_weights": {1: 1.0}, "steps_per_block_weights": {1: 1.0}}
    CorpusSpec(step_length_weights={232: 1.0}, **shape)
    tokens = random_valid_document(_LongestDraws(0), max_depth=1, pair_plans_with_steps=True,
                                   n_blocks=1, n_steps_weights={1: 1.0},
                                   step_length_weights={232: 1.0})
    assert len(tokens) == 256
    with pytest.raises(ValueError, match="256-token cap"):
        CorpusSpec(step_length_weights={233: 1.0}, **shape)
