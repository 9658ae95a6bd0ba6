"""Toolkit for tagged parallel-reasoning traces.

Parsing and validation of the block markup, parallel attention-mask and
position-id construction, a deterministic fork/join rollout simulator with a
budgeted radix cache and a global token ledger, reward/advantage/surrogate
math, and evaluation metrics. The ``paratrace`` CLI binds it all to
line-oriented JSON files.
"""

from .advantages import (AdvantageTable, BatchAdvantage, GroupAdvantage,
                         dapo_advantage, dapo_surrogate, dynamic_sampling_check,
                         papo_advantage, papo_group_values, papo_surrogate,
                         papo_surrogate_frozen)
from .cache import CacheLease, RadixCache
from .corpus import CorpusSpec, corrupt, generate_corpus, random_valid_document
from .document import (ParallelBlock, ReasoningDoc, Span, extract_boxed,
                       parse_document, serialize, tokenize)
from .engine import (BranchState, EmissionLogView, GenerationEvent, GenerationRun,
                     ScriptedPolicy, apply_repetition_penalty, run_generation,
                     schedule_confluence_check)
from .errors import (BudgetExceeded, DoubleRelease, IllegalSchema, InputError,
                     LedgerExhausted, MisplacedTag, ParseError, StructureError,
                     UnbalancedTag)
from .ledger import LedgerEntry, TokenLedger
from .metrics import avg_at_k, best_at_k, doc_is_parallel, parallel_rate
from .rewards import (RewardConfig, accept_filter, exact_boxed_match,
                      format_reward, stage1_reward, stage3_reward)
from .rollouts import RolloutBatch, RolloutRecord
from .tags import Tag, Token, is_tag, tag_of
from .topology import (AttentionMask, BlockStats, Rect, TopologyStats,
                       build_attention_mask, build_position_ids,
                       mask_from_spans_oracle, topology_stats)
from .validation import ValidationReport, Violation, validate_structure

__version__ = "0.1.0"
