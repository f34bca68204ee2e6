"""The public surface of `ehtlab`: every name is reached, every name the
span tracer wraps exists, and no module imports a name it never uses.

A public top-level function or class of `src/ehtlab` must be referenced from
the rest of the package, used by the acceptance gate, or wrapped by
`perfbench/tracer.py`; anything else is code no run reaches. The tracer looks
its targets up by name when it installs, so deleting or renaming one breaks
the benchmark even though no test of the package notices.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ehtlab"


def _tracer_targets():
    spec = importlib.util.spec_from_file_location("_surface_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    # the module's dataclasses resolve their own module through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


def _name_counts(tree):
    """How often each name is used as an ast.Name or ast.Attribute in `tree`."""
    counts = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            counts[node.id] += 1
        elif isinstance(node, ast.Attribute):
            counts[node.attr] += 1
    return counts


def test_every_tracer_target_resolves():
    targets = _tracer_targets()
    assert targets
    for t in targets:
        module = importlib.import_module(t.module)
        owner_name, _, attr = t.qualname.rpartition(".")
        if owner_name:
            # methods are wrapped on the class that defines them
            assert attr in vars(getattr(module, owner_name)), t.qualname
        else:
            assert callable(getattr(module, attr, None)), f"{t.module}.{attr}"
    # the tracer wraps eht_trace in every namespace that bound it
    from ehtlab.transform import eht_trace
    for name in ("ehtlab", "ehtlab.transform", "ehtlab.cli", "ehtlab.processes"):
        assert vars(importlib.import_module(name)).get("eht_trace") is eht_trace, name


def test_every_public_name_is_reached():
    targets = {(t.module, t.qualname) for t in _tracer_targets()}
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    package = sum((_name_counts(tree) for tree in trees.values()), Counter())
    acceptance = _name_counts(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    unreached = []
    for stem, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            # uses inside the definition's own body (recursion, methods) do not count
            used = package[node.name] > _name_counts(node)[node.name]
            if not (used or acceptance[node.name] or (f"ehtlab.{stem}", node.name) in targets):
                unreached.append(f"{stem}.{node.name}")
    assert unreached == []


# imports kept for their binding alone: perfbench/test_perfbench.py looks eht_trace up there
UNUSED_IMPORTS_ALLOWED = {("cli", "eht_trace"), ("processes", "eht_trace")}


def test_no_module_imports_a_name_it_never_uses():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":  # the package namespace re-exports what it imports
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                   and getattr(node, "module", None) != "__future__"]
        for node in imports:
            for alias in node.names:
                name = (alias.asname or alias.name).partition(".")[0]
                if name not in used and (path.stem, name) not in UNUSED_IMPORTS_ALLOWED:
                    unused.append(f"{path.stem}: {name}")
    assert unused == []


def test_only_numerics_names_the_stream_accumulator():
    # a checkpointed sum streams through numerics.stream_sums, which carries the
    # accumulators; a module naming ComplexNeumaierSum keeps a stream loop of its own
    naming = [path.stem for path in sorted(PACKAGE.glob("*.py")) if path.stem != "numerics"
              and _name_counts(ast.parse(path.read_text()))["ComplexNeumaierSum"]]
    assert naming == []
