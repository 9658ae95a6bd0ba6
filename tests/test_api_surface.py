"""Every public name of the package is used, or is library API on purpose."""

import ast
from pathlib import Path

import paratrace

PACKAGE = Path(paratrace.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# Public names that neither the package nor the benchmark reads, each a
# capability that no other public name gives.
LIBRARY_API = {
    "additive": "the mask as an additive float bias, the form attention kernels take",
    "apply_repetition_penalty": "the paper's in-step repetition penalty",
    "doc_is_parallel": "the per-document flag that parallel_rate aggregates",
    "extent": "a block's whole span, guideline open to takeaway close",
    "is_visible": "one query of the mask without building it dense",
    "match_prefix": "a read-only cache lookup that pins nothing",
    "papo_surrogate_frozen": "the surrogate as a surface, to check its gradient contract",
    "read_jsonl": "the reader matching write_jsonl for untyped JSONL files",
    "schedule_confluence_check": "the masking contract checked across schedules",
    "serialize": "the inverse of tokenize",
    "tag_of": "which tag a token is, the question is_tag only half answers",
}


def _trees(*dirs):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted(d.glob("*.py"))]


def _public_definitions() -> set[str]:
    """Public module-level functions and classes, and public methods."""
    names = set()
    for tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                names.update(item.name for item in node.body
                             if isinstance(item, ast.FunctionDef))
    return {name for name in names if not name.startswith("_")}


def _used_names() -> set[str]:
    used = set()
    for tree in _trees(PACKAGE, PERFBENCH):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_is_used_or_library_api():
    unused = _public_definitions() - _used_names()
    assert sorted(unused - LIBRARY_API.keys()) == []


def test_library_api_lists_only_unused_public_names():
    unused = _public_definitions() - _used_names()
    assert sorted(LIBRARY_API.keys() - unused) == []
