"""Span tracing for the per-layer run, from outside the package.

Each public function is wrapped at the module attribute its caller looks it
up through (``paratrace.cli.validate_structure``,
``paratrace.topology.validate_structure``, ...), and the cache, ledger and
policy are benchmark-side subclasses passed into ``run_generation``. Nothing
under ``src/`` changes. Spans (name, start, end, parent span, run id, tokens)
are kept in flat arrays in memory and written out at the end of the run.

The package is single-process and single-threaded, so spans nest strictly
and a span's self time is its duration minus its direct children's.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter


def _ntok(args, result, counts) -> int:
    """Tokens passed in: a token sequence or a parsed document."""
    return len(getattr(args[0], "tokens", args[0]))


def _mask_tokens(args, result, counts) -> int:
    counts["topology.blocked_rects"] += len(result.blocked)
    return _ntok(args, result, counts)


# span name -> (token count, lookup sites). A lookup site (module, attr) is a
# module attribute through which a caller reaches the function; the
# benchmark itself calls through the defining module. A token count is None
# or ``count(args, result, tracer.counts)``, returning the tokens passed in.
FUNCTIONS = {
    "tracefile.read_trace": (None, [("cli", "read_trace")]),
    "tracefile.write_jsonl": (None, [("cli", "write_jsonl")]),
    "tracefile.write_manifest": (None, [("cli", "write_manifest")]),
    "corpus.generate_corpus": (None, [("corpus", "generate_corpus")]),
    "document.tokenize": (lambda a, r, c: len(r), [("document", "tokenize")]),
    "document.parse_document": (
        _ntok,
        [("document", "parse_document"), ("cli", "parse_document"),
         ("engine", "parse_document"), ("topology", "parse_document"),
         ("corpus", "parse_document")]),
    "validation.validate_structure": (
        _ntok,
        [("validation", "validate_structure"), ("cli", "validate_structure"),
         ("topology", "validate_structure"), ("rewards", "validate_structure")]),
    "topology.build_attention_mask": (
        _mask_tokens,
        [("topology", "build_attention_mask"), ("cli", "build_attention_mask")]),
    "topology.build_position_ids": (
        _ntok,
        [("topology", "build_position_ids"), ("cli", "build_position_ids")]),
    "topology.topology_stats": (
        _ntok,
        [("topology", "topology_stats"), ("cli", "topology_stats"),
         ("engine", "topology_stats")]),
    "engine.run_generation": (lambda a, r, c: len(r.doc.tokens),
                              [("engine", "run_generation")]),
    "rewards.accept_filter": (None, [("rewards", "accept_filter"),
                                     ("cli", "accept_filter")]),
    "rewards.stage1_reward": (None, [("rewards", "stage1_reward"),
                                     ("cli", "stage1_reward")]),
    "advantages.dapo_advantage": (None, [("advantages", "dapo_advantage"),
                                         ("cli", "dapo_advantage")]),
    "advantages.papo_advantage": (None, [("advantages", "papo_advantage"),
                                         ("cli", "papo_advantage")]),
    "advantages.dapo_surrogate": (lambda a, r, c: sum(map(len, a[1])),
                                  [("advantages", "dapo_surrogate")]),
    "advantages.papo_surrogate": (lambda a, r, c: sum(map(len, a[0])),
                                  [("advantages", "papo_surrogate")]),
}

# span name -> (module, class, method): patched on the class, because the
# package creates these objects itself.
METHODS = {
    "topology.AttentionMask.to_coords_dict": ("topology", "AttentionMask", "to_coords_dict"),
    "topology.AttentionMask.to_dense_bytes": ("topology", "AttentionMask", "to_dense_bytes"),
    "rollouts.RolloutBatch.with_rewards": ("rollouts", "RolloutBatch", "with_rewards"),
}

# Spans opened by benchmark-side subclasses and by the benchmark itself.
OTHER_SPANS = (
    "cache.match_and_insert", "cache.extend", "cache.release", "cache.flush",
    "ledger.charge", "engine.ScriptedPolicy.next_token",
    "cli.gen_corpus", "cli.validate", "cli.filter", "cli.mask", "cli.posid",
    "cli.metrics",
)


class Tracer:
    """In-memory span recorder for one traced repetition at a time."""

    def __init__(self):
        self.names = list(FUNCTIONS) + list(METHODS) + list(OTHER_SPANS)
        self.name_id = {n: i for i, n in enumerate(self.names)}
        self.enabled = False  # this repetition is traced
        self.active = False  # inside a timed segment of a traced repetition
        self.run_id = 0
        self.reset()

    def reset(self) -> None:
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.run = array("q")
        self.tokens = array("q")
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.name.append(nid)
        self.run.append(self.run_id)
        self.tokens.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = _clock()
        self._stack.pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span opened by the benchmark itself."""
        if not self.active:
            return fn(*args, **kwargs)
        idx = self.open(self.name_id[name])
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(idx)

    def wrap(self, name: str, fn, count=None):
        nid = self.name_id[name]

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.tokens[idx] = count(args, result, self.counts)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {field: np.frombuffer(getattr(self, field), dtype=np.float64 if
                                     field in ("start", "end") else np.int64)
                for field in ("start", "end", "parent", "name", "run", "tokens")}

    def self_times(self):
        """Arrays of every span: name id, run id, duration, self time, tokens,
        and whether it has a parent."""
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.zeros_like(dur)
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        return a["name"], a["run"], dur, dur - child, a["tokens"], has_parent

    def save(self, path) -> None:
        """Write every span of the last traced repetition."""
        np.savez_compressed(path, names=np.asarray(self.names), **self.arrays())


class Patches:
    """Installs the wrappers on the package's modules; ``undo`` restores them."""

    def __init__(self, pt, tracer: Tracer):
        self._saved = []
        for name, (count, sites) in FUNCTIONS.items():
            for mod_name, attr in sites:
                mod = getattr(pt, mod_name)
                self._set(mod, attr, tracer.wrap(name, vars(mod)[attr], count))
        for name, (mod_name, cls_name, attr) in METHODS.items():
            cls = getattr(getattr(pt, mod_name), cls_name)
            self._set(cls, attr, tracer.wrap(name, vars(cls)[attr]))

    def _set(self, obj, attr, value) -> None:
        self._saved.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def undo(self) -> None:
        for obj, attr, value in reversed(self._saved):
            setattr(obj, attr, value)
        self._saved.clear()


def traced_classes(pt, tracer: Tracer):
    """Subclasses of RadixCache, TokenLedger and ScriptedPolicy that record
    spans and the cache's deterministic work counts."""
    span = tracer.span

    class TracedCache(pt.cache.RadixCache):
        def _count(self, **deltas):
            counts = tracer.counts
            for key, delta in deltas.items():
                counts["cache." + key] += delta
            counts["cache.peak_usage"] = max(counts["cache.peak_usage"], self.usage)

        def match_and_insert(self, tokens):
            lease = span("cache.match_and_insert", super().match_and_insert, tokens)
            self._count(hit_tokens=lease.matched, inserted_slots=lease.new_slots)
            return lease

        def extend(self, lease, token):
            added = span("cache.extend", super().extend, lease, token)
            self._count(hit_tokens=1 - added, inserted_slots=added)
            return added

        def release(self, lease):
            return span("cache.release", super().release, lease)

        def flush(self):
            freed = span("cache.flush", super().flush)
            self._count(slots_freed=freed)
            return freed

    class TracedLedger(pt.ledger.TokenLedger):
        def charge(self, active_branches):
            return span("ledger.charge", super().charge, active_branches)

    class TracedPolicy(pt.engine.ScriptedPolicy):
        def next_token(self, branch_id, position, context=()):
            return span("engine.ScriptedPolicy.next_token", super().next_token,
                        branch_id, position, context)

    return TracedCache, TracedLedger, TracedPolicy
