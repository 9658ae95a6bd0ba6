"""Every public name of the package is used, or is library API on purpose,
and every defaulted parameter of one is set by some caller, or is kept on
purpose. A method shared by name with another class must be used as itself."""

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
    "extent": "a block's whole span, guideline open to takeaway close",
    "is_tag": "whether one token is a reserved tag, the tag vocabulary's membership test",
    "is_visible": "one query of the mask without building it dense",
    "match_prefix": "a read-only cache lookup that pins nothing",
    "papo_surrogate_frozen": "the surrogate as a surface, to check its gradient contract",
    "read_jsonl": "the reader matching write_jsonl for untyped JSONL files",
    "schedule_confluence_check": "the masking contract checked across schedules",
    "serialize": "the inverse of tokenize",
}

# Public methods whose name another package class also defines, each reached
# only through an instance, as ``Class.method``, with the call that reaches it.
INSTANCE_CALLS = {
    "ValidationReport.to_json_dict": "validate's report rows",
    "TopologyStats.to_json_dict": "simulate's stats and the long_traces digest",
    "GenerationEvent.to_json_dict": "simulate's event log",
}


def _trees(*dirs):
    return [ast.parse(path.read_text(encoding="utf-8"))
            for d in dirs for path in sorted(d.glob("*.py"))]


def _public_definitions() -> tuple[set[str], dict[str, set[str]]]:
    """Public module-level functions, classes and constants, and each public
    method's name with the classes that define it."""
    names, methods = set(), {}
    for tree in _trees(PACKAGE):
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.setdefault(item.name, set()).add(node.name)
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names.update(name.id for target in targets for name in ast.walk(target)
                             if isinstance(name, ast.Name))
    return ({name for name in names if not name.startswith("_")},
            {name: classes for name, classes in methods.items() if not name.startswith("_")})


def _uses() -> tuple[set[str], set[str], set[str]]:
    """What the package and the benchmark read: bare names where they are
    loaded, so a constant's own assignment is no use of it, attribute names,
    and ``Owner.attribute`` references, the owner a bare or dotted name."""
    names, attributes, qualified = set(), set(), set()
    for tree in _trees(PACKAGE, PERFBENCH):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
                owner = getattr(node.value, "id", getattr(node.value, "attr", None))
                if owner is not None:
                    qualified.add(f"{owner}.{node.attr}")
    return names, attributes, qualified


def _unused() -> set[str]:
    """Public names nothing reads. A method counts as used only through an
    attribute; one whose name another class also defines, only through a
    ``Class.method`` reference, and is reported as ``Class.method``."""
    top_level, methods = _public_definitions()
    names, attributes, qualified = _uses()
    unused = top_level - names - attributes
    for name, classes in methods.items():
        if len(classes) > 1:
            unused.update({f"{cls}.{name}" for cls in classes} - qualified)
        elif name not in attributes:
            unused.add(name)
    return unused


def test_every_public_name_is_used_or_library_api():
    assert sorted(_unused() - LIBRARY_API.keys() - INSTANCE_CALLS.keys()) == []


def test_cli_leaves_unread_only_the_names_the_tracer_wraps():
    """``cli`` imports ``accept_filter`` and ``parse_document`` only so that
    the benchmark's tracer can wrap them there by name. Any other import it
    never reads fails here, and so does a CLI stage that calls the parser."""
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    imported = {alias.asname or alias.name.partition(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names}
    loaded = {node.id for node in ast.walk(tree)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    assert imported - loaded == {"accept_filter", "parse_document"}


def test_library_api_lists_only_unused_public_names():
    """Both allowlists hold exactly the names the scan cannot see used."""
    assert sorted((LIBRARY_API.keys() | INSTANCE_CALLS.keys()) - _unused()) == []


# Defaulted parameters of public functions and methods that no call under the
# package or the benchmark sets, as ``name.parameter``, each with the reason
# it stays.
UNSET_DEFAULTS = {
    "main.argv": "the CLI's argument list; the benchmark passes it to cli.main "
                 "through an alias, and the console script passes none",
}


def _defaulted_parameters():
    """``(name, positional parameters, defaulted parameters)`` of each public
    function and method: a method's without its ``self`` or ``cls``, and an
    ``__init__``'s under its class's name, as callers call them."""
    for tree in _trees(PACKAGE):
        defs = [(fn.name, fn.args, 0) for fn in tree.body if isinstance(fn, ast.FunctionDef)]
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                defs += [(cls.name if fn.name == "__init__" else fn.name, fn.args, 1)
                         for fn in cls.body if isinstance(fn, ast.FunctionDef)]
        for name, args, skip in defs:
            if not name.startswith("_"):
                positional = [a.arg for a in args.posonlyargs + args.args]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                yield name, positional[skip:], defaulted


def _calls() -> dict[str, tuple[int, set[str]]]:
    """``callee name -> (the most positional arguments one call passes, the
    keywords any call passes)``, over the package and the benchmark."""
    calls = {}
    for tree in _trees(PACKAGE, PERFBENCH):
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                most, keywords = calls.get(name, (0, set()))
                calls[name] = (max(most, len(node.args)),
                               keywords | {k.arg for k in node.keywords})
    return calls


def _unset_defaults() -> set[str]:
    calls = _calls()
    unset = set()
    for name, positional, defaulted in _defaulted_parameters():
        most, keywords = calls.get(name, (0, set()))
        for param in defaulted:
            by_position = param in positional and positional.index(param) < most
            if not (by_position or param in keywords):
                unset.add(f"{name}.{param}")
    return unset


def test_every_defaulted_parameter_is_set_by_a_caller():
    """A default that no caller overrides is a setting with one value in use:
    it belongs in a constant. The allowlist holds exactly the exceptions."""
    assert sorted(_unset_defaults()) == sorted(UNSET_DEFAULTS)
