"""Seeded, in-process input generators for the benchmark workloads.

The same seed always yields the same inputs. The seed picks the words and
the answers. The structure (trace and step lengths, branch counts, nesting,
group sizes, shared prefixes and token budgets) is fixed, so the cost of a
run does not depend on the seed.
Traces are built from the reserved tag strings of ``paratrace.tags.Tag``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

G_OPEN, G_CLOSE = "<guideline>", "</guideline>"
P_OPEN, P_CLOSE = "<plan>", "</plan>"
S_OPEN, S_CLOSE = "<step>", "</step>"
T_OPEN, T_CLOSE = "<takeaway>", "</takeaway>"

# Length classes shared by the per-layer metrics: trace lengths for
# long_traces, branch lengths for rollout_groups.
TRACE_LENGTHS = {"len_s": 1_000, "len_m": 10_000, "len_l": 100_000}
TRACES_PER_SHAPE = {"len_s": 4, "len_m": 2}
SHAPES = ("long_steps", "wide", "step_dense")
# The one 10^5-token trace holds a third of each shape. Step-dense blocks come
# first, so each of their step opens shifts a suffix of about 10^5 tokens.
MIXED_ORDER = ("step_dense", "wide", "long_steps")

BRANCH_LENGTHS = {"len_s": 250, "len_m": 1_000, "len_l": 4_000}
# (branch count, branch-length class) for each group of one RL step. The
# engine is quadratic in branch length, so the 4,000-token class runs with
# two branches only; wide forks use the short class.
GROUP_CONFIGS = (
    (2, "len_s"), (4, "len_s"), (8, "len_s"), (16, "len_s"),
    (2, "len_m"), (4, "len_m"),
    (2, "len_l"),
)
GROUP_SIZE = 4


def words(rng: random.Random, n: int) -> list[str]:
    return [f"w{rng.randrange(4096)}" for _ in range(n)]


def plans(rng: random.Random, n: int) -> list[str]:
    out = []
    for j in range(n):
        out += [P_OPEN, f"{j + 1}:", *words(rng, 2 + j % 4), P_CLOSE]
    return out


# -- long_traces -------------------------------------------------------------

@dataclass(frozen=True)
class LongTrace:
    """One long trace, delivered as text, with what its outputs must show."""

    name: str
    shape: str
    length_class: str
    text: str
    n_tokens: int
    blocked_rects: int
    answer: str


def _block(rng: random.Random, shape: str, budget: int, k: int,
           rects: list[int], nested: bool = False) -> list[str]:
    """Block ``k`` of a trace, about ``budget`` tokens at most.

    Every count and length follows ``k``, the step index ``j`` and the
    budget, never the seed, so every seed gives the same structure and the
    same cost; the seed picks only the words.
    """
    if nested:
        n_steps, step_len = 2 + k % 3, lambda j: 1 + (k + j) % 8
    elif shape == "long_steps":
        n_steps = 4
        mean = max(8, min(budget, 20_000) // 4)
        step_len = lambda j: mean * (7 + 2 * j) // 10  # noqa: E731
    elif shape == "wide":
        n_steps, step_len = 16 + k % 9, lambda j: 4 + 7 * (k + j) % 37
    else:  # step_dense
        n_steps, step_len = 8 + k % 9, lambda j: 1
    rects.append(n_steps * (n_steps - 1))
    out = [G_OPEN, *plans(rng, 1 + k % 3), G_CLOSE]
    for j in range(n_steps):
        out += [S_OPEN, *words(rng, step_len(j))]
        # Nesting to depth 2 appears in every shape: one step in three of a
        # top-level block carries a nested block.
        if not nested and j % 3 == k % 3:
            out += _block(rng, shape, 64, k + j, rects, nested=True)
            out += words(rng, (k + j) % 3)
        out.append(S_CLOSE)
    out += [T_OPEN, *words(rng, 1 + k % 4), T_CLOSE]
    return out


def long_trace_tokens(rng: random.Random, shapes: tuple[str, ...], target: int):
    """(tokens, blocked rectangle count, answer) for one trace near ``target``,
    made of an equal share of blocks of each of ``shapes`` in turn."""
    rects: list[int] = []
    out = words(rng, 3)
    for n, shape in enumerate(shapes, start=1):
        end = target * n // len(shapes)
        while len(out) < end - 16:
            out += _block(rng, shape, end - len(out), len(rects), rects)
            out += words(rng, len(rects) % 4)
    answer = f"a{rng.randrange(100_000)}"
    out += [*words(rng, 3), "\\boxed{%s}" % answer]
    return out, sum(rects), answer


def long_traces(seed: int) -> list[LongTrace]:
    rng = random.Random(seed)
    specs = [(cls, (shape,), k) for cls, count in TRACES_PER_SHAPE.items()
             for shape in SHAPES for k in range(count)]
    specs.append(("len_l", MIXED_ORDER, 0))
    traces = []
    for cls, shapes, k in specs:
        tokens, rects, answer = long_trace_tokens(rng, shapes, TRACE_LENGTHS[cls])
        shape = "+".join(shapes)
        traces.append(LongTrace(f"{cls}/{shape}/{k}", shape, cls, " ".join(tokens),
                                len(tokens), rects, answer))
    return traces


# -- rollout_groups ----------------------------------------------------------

@dataclass(frozen=True)
class Rollout:
    """One scripted rollout: a ScriptedPolicy's arguments plus its budget."""

    record_id: str
    prologue: tuple[str, ...]
    branches: dict
    takeaway: tuple[str, ...]
    max_new_tokens: int
    demand: int
    old_logprobs: tuple[float, ...]
    new_logprobs: tuple[float, ...]


@dataclass(frozen=True)
class RolloutGroup:
    group_id: str
    length_class: str
    branch_count: int
    gold: str
    rollouts: tuple[Rollout, ...]


def _branch(rng: random.Random, j: int, length: int, shared: list[str]) -> list[str]:
    body = shared + words(rng, max(0, length - 3 - len(shared)))
    return [S_OPEN, f"{j + 1}:", *body[:length - 3], S_CLOSE]


def rollout_groups(seed: int) -> tuple[list[RolloutGroup], int]:
    """Groups of one RL step and the cache budget shared across them.

    Every member of a group shares the group's guideline header, and member
    m > 0 repeats a prefix of member 0's branch j before diverging, so
    siblings and later members hit the radix cache. One member per group
    gets a token budget below its demand, so the ledger truncates it.
    Branch lengths, shared prefixes and budgets follow the group and member
    indices, not the seed, so every seed costs about the same; the seed
    picks the words and the answers.
    """
    rng = random.Random(seed)
    groups = []
    max_demand = 0
    for g, (n_branches, cls) in enumerate(GROUP_CONFIGS):
        base = BRANCH_LENGTHS[cls]
        gold = f"g{rng.randrange(100_000)}"
        header = [G_OPEN, *plans(rng, n_branches), G_CLOSE]
        # Lengths spread evenly over base +- 10%.
        lengths = [base - base // 10 + (base // 5) * j // max(1, n_branches - 1)
                   for j in range(n_branches)]
        first: list[list[str]] = []
        short = g % GROUP_SIZE
        members = []
        for m in range(GROUP_SIZE):
            branches = {}
            for j, length in enumerate(lengths):
                shared = []
                if m:
                    # 20% to 80% of member 0's branch, cycling over members.
                    cut = length * (2 + 2 * ((m + j) % 4)) // 10
                    shared = first[j][2:2 + cut]
                stream = _branch(rng, j, length, shared)
                if not m:
                    first.append(stream)
                branches[f"b{j}"] = stream
            answer = gold if (g + m) % 2 else f"g{rng.randrange(100_000)}"
            tail = [T_OPEN, *words(rng, 8), T_CLOSE, *words(rng, 2), "\\boxed{%s}" % answer]
            demand = len(header) + sum(lengths) + len(tail)
            budget = demand * (6 + g % 4) // 10 if m == short else 2 * demand
            # Forced closes can add a token per branch plus the takeaway pair.
            n_lp = demand + n_branches + 2
            old = [-rng.uniform(0.01, 4.0) for _ in range(n_lp)]
            new = [lp + rng.uniform(-0.3, 0.3) for lp in old]
            members.append(Rollout(f"g{g:02d}m{m}", tuple(header), branches,
                                   tuple(tail), budget, demand, tuple(old),
                                   tuple(new)))
            max_demand = max(max_demand, demand)
        groups.append(RolloutGroup(f"g{g:02d}", cls, n_branches, gold,
                                   tuple(members)))
    # Above any single rollout's footprint, so no rollout can exceed it, and
    # well below the step's working set, so the cache flushes under pressure.
    return groups, 2 * max_demand


# -- corpus_pipeline ---------------------------------------------------------

def outcomes(seed: int, n_docs: int, samples: int = 4) -> list[dict]:
    """Seeded {id, correct} rows: ``samples`` graded answers per document."""
    rng = random.Random(seed)
    return [{"id": f"doc{i:05d}", "correct": rng.random() < 0.6}
            for i in range(n_docs) for _ in range(samples)]
