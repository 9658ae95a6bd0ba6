"""Synthetic trace corpora for testing and benchmarking.

Documents come out in canonical tight form: inside a block the step regions
directly follow the guideline close and the takeaway directly follows the
last step, which is the shape parallel decode produces. Free-form content is
allowed before a block, between blocks, and in the epilogue.

Corruption injects exactly one category-targeted structural violation per
corrupted document and records which one in a sidecar key.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field, fields

from .document import parse_document
from .tags import (GUIDELINE_CLOSE, GUIDELINE_OPEN, PLAN_CLOSE, PLAN_OPEN, STEP_CLOSE,
                   STEP_OPEN, TAKEAWAY_CLOSE, TAKEAWAY_OPEN)


MAX_DOC_TOKENS = 256


def _words(rng: random.Random, n: int) -> list[str]:
    return [f"w{rng.randrange(512)}" for _ in range(n)]


def _sample(rng: random.Random, weights: dict[int, float]) -> int:
    keys = sorted(weights)
    return rng.choices(keys, weights=[weights[k] for k in keys], k=1)[0]


def _block(rng: random.Random, depth: int, max_depth: int,
           n_plans: int, n_steps: int, step_len) -> list[str]:
    out = [GUIDELINE_OPEN]
    for j in range(n_plans):
        out += [PLAN_OPEN, f"{j + 1}:"]
        out += _words(rng, rng.randint(1, 3))
        out.append(PLAN_CLOSE)
    out.append(GUIDELINE_CLOSE)

    nest_at = rng.randrange(n_steps) if depth < max_depth and rng.random() < 0.3 else -1
    for j in range(n_steps):
        out += [STEP_OPEN, f"{j + 1}:"]
        out += _words(rng, step_len())
        if j == nest_at:
            out += _block(rng, depth + 1, max_depth,
                          n_plans=rng.randint(1, 2), n_steps=2,
                          step_len=lambda: rng.randint(1, 4))
            out += _words(rng, rng.randint(0, 2))
        out.append(STEP_CLOSE)

    out.append(TAKEAWAY_OPEN)
    out += _words(rng, rng.randint(1, 3))
    out.append(TAKEAWAY_CLOSE)
    return out


def random_valid_document(rng: random.Random, max_depth: int = 2,
                          answer: str | None = None,
                          pair_plans_with_steps: bool = False,
                          n_blocks: int | None = None,
                          n_steps_weights: dict[int, float] | None = None,
                          step_length_weights: dict[int, float] | None = None) -> list[str]:
    """One structurally valid document, at most 256 tokens."""
    if n_blocks is None:
        n_blocks = rng.randint(1, 3)
    steps_weights = n_steps_weights or {1: 1, 2: 3, 3: 2}
    len_weights = step_length_weights or {1: 1, 2: 2, 4: 2, 6: 1}
    out: list[str] = []
    if rng.random() < 0.4:
        out += _words(rng, rng.randint(1, 3))
    for _ in range(n_blocks):
        n_steps = _sample(rng, steps_weights)
        n_plans = n_steps if pair_plans_with_steps else rng.randint(1, 3)
        out += _block(rng, 1, max_depth, n_plans, n_steps,
                      step_len=lambda: _sample(rng, len_weights))
        if rng.random() < 0.3:
            out += _words(rng, rng.randint(1, 2))
    out += _words(rng, rng.randint(0, 2))
    out.append("\\boxed{%s}" % (answer if answer is not None else f"a{rng.randrange(1000)}"))
    if len(out) > MAX_DOC_TOKENS:
        raise AssertionError("generator parameters exceeded the 256-token cap")
    return out


# -- corruption ------------------------------------------------------------

def _delete_spans(tokens: list[str], spans) -> list[str]:
    drop = set()
    for s in spans:
        drop.update(range(s.start, s.end))
    return [t for i, t in enumerate(tokens) if i not in drop]


def corrupt(tokens: list[str], category: int) -> list[str]:
    """Inject one violation of the given category into a valid document."""
    tokens = list(tokens)
    doc = parse_document(tokens)
    block = doc.blocks[0]
    if category == 1:
        at = next(i for i, t in enumerate(tokens) if t == STEP_CLOSE)
        return tokens[:at] + tokens[at + 1:]
    if category == 2:
        return _delete_spans(tokens, block.plans)
    if category == 3:
        return _delete_spans(tokens, block.steps)
    if category == 4:
        # Use the last block: a later block's takeaway would otherwise be
        # absorbed as the mutilated block's join during tolerant scanning.
        ts = doc.blocks[-1].takeaway_span
        return [t for i, t in enumerate(tokens) if i not in (ts.start, ts.end - 1)]
    if category == 5:
        return tokens + [PLAN_CLOSE]
    if category == 6:
        return [t for t in tokens if not t.startswith("\\boxed{")]
    raise ValueError(f"unknown category {category}")


# -- corpus spec -----------------------------------------------------------

def _default_blocks() -> dict[int, float]:
    return {1: 2.0, 2: 1.0}


def _default_steps() -> dict[int, float]:
    return {2: 3.0, 3: 2.0, 4: 1.0}


def _default_step_len() -> dict[int, float]:
    return {2: 1.0, 4: 2.0, 6: 1.0}


@dataclass(frozen=True)
class CorpusSpec:
    documents: int = 100
    block_count_weights: dict[int, float] = field(default_factory=_default_blocks)
    steps_per_block_weights: dict[int, float] = field(default_factory=_default_steps)
    step_length_weights: dict[int, float] = field(default_factory=_default_step_len)
    corruption_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.documents < 0:
            raise ValueError("documents must be non-negative")
        if not 0.0 <= self.corruption_rate <= 1.0:
            raise ValueError("corruption_rate must be in [0, 1]")
        tables = {"block_count_weights": 1, "steps_per_block_weights": 1,
                  "step_length_weights": 0}
        for name, least in tables.items():
            table = getattr(self, name)
            if not (all(w >= 0 for w in table.values())
                    and 0 < sum(table.values()) < math.inf):
                raise ValueError(f"{name} must be finite, non-negative and "
                                 "not all zero")
            if min(table) < least:
                raise ValueError(f"{name} keys must be at least {least}")
        # The longest document generate_corpus can draw. Per block: a
        # guideline of two tags and one plan of up to 6 tokens per step, each
        # step's 3 + length tokens, a takeaway of up to 5 and 2 trailing
        # words; around the blocks, 3 leading and 2 closing words and the answer.
        blocks, steps, length = (max(self.block_count_weights),
                                 max(self.steps_per_block_weights),
                                 max(self.step_length_weights))
        longest = 6 + blocks * (9 + steps * (9 + length))
        if longest > MAX_DOC_TOKENS:
            raise ValueError(f"weight tables allow documents of {longest} tokens, "
                             f"over the {MAX_DOC_TOKENS}-token cap")

    @classmethod
    def from_json_dict(cls, data: dict) -> "CorpusSpec":
        """The spec a JSON object states: weight-table keys are parsed from
        strings into ints, and every other field is taken as it is. A key
        must be spelled as ``str`` spells its int, so no two keys name one
        weight."""
        kwargs = {f.name: data[f.name] for f in fields(cls) if f.name in data}
        for name, table in kwargs.items():
            if name.endswith("_weights"):
                for k in table:
                    try:
                        plain = str(int(k)) == k
                    except ValueError:  # no integer at all, or too many digits
                        plain = False
                    if not plain:
                        raise ValueError(f"{name} key {k!r} is not a plain decimal integer")
                kwargs[name] = {int(k): w for k, w in table.items()}
        return cls(**kwargs)


def generate_corpus(spec: CorpusSpec):
    """Deterministic corpus: returns (documents, key rows).

    Documents are dicts {id, tokens, gold} and key rows, as written to
    ``corpus_key.jsonl``, are dicts {id, corrupted, category, gold}. Clean
    documents validate in both lenient and strict mode (plans are paired
    one-to-one with steps, no nesting) and carry a boxed answer equal to
    their gold answer.
    """
    rng = random.Random(spec.seed)
    docs = []
    keys = []
    for i in range(spec.documents):
        doc_id = f"doc{i:05d}"
        gold = f"ans{rng.randrange(10_000)}"
        tokens = random_valid_document(
            rng, max_depth=1, answer=gold, pair_plans_with_steps=True,
            n_blocks=_sample(rng, spec.block_count_weights),
            n_steps_weights=spec.steps_per_block_weights,
            step_length_weights=spec.step_length_weights,
        )
        corrupted = rng.random() < spec.corruption_rate
        category = None
        if corrupted:
            category = rng.randint(1, 6)
            tokens = corrupt(tokens, category)
        docs.append({"id": doc_id, "tokens": tokens, "gold": gold})
        keys.append({"id": doc_id, "corrupted": corrupted, "category": category,
                     "gold": gold})
    return docs, keys
