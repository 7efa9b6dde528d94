"""src/phaselab holds what is run: each public top-level function or class
of the package is named by some code of src/phaselab or perfbench/ outside
its own definition, and each entry of the string-keyed tables of cones (the
predicates of classify, the kinds of sample) is asked for by some call
there.  The scan reads the syntax trees, so a docstring or a comment that
mentions a name does not count, and a test alone keeps no function or table
entry in the package."""

import ast
from collections import Counter
from pathlib import Path

from phaselab.cones import PREDICATES, SAMPLE_KINDS

ROOT = Path(__file__).resolve().parent.parent


def parsed_trees():
    return {path: ast.parse(path.read_text(), str(path))
            for path in sorted((ROOT / "src" / "phaselab").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))}


def spelled(tree):
    """How often each name is spelled in a tree: as a Name, as an Attribute's
    attr, or as an imported name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.name for alias in node.names)
    return names


def unused_public_names():
    trees = parsed_trees()
    total = sum((spelled(tree) for tree in trees.values()), Counter())
    unused = []
    for path, tree in trees.items():
        if path.parent.name != "phaselab":
            continue
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_") and total[node.name] == spelled(node)[node.name]):
                unused.append(f"{path.stem}.{node.name}")
    return unused


def test_every_public_function_and_class_of_src_is_used_outside_its_definition():
    assert unused_public_names() == []


def string_arguments(trees, function, position):
    """The string constants passed at ``position`` to calls of ``function``,
    spelled by name (``sample(...)``) or as an attribute
    (``phaselab.cones.sample(...)``)."""
    found = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call) or len(node.args) <= position:
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            arg = node.args[position]
            if name == function and isinstance(arg, ast.Constant) and isinstance(arg.value, str):
                found.add(arg.value)
    return found


def test_every_predicate_and_sample_kind_of_cones_is_asked_for():
    trees = parsed_trees()
    predicates = string_arguments(trees, "classify", 1)
    kinds = string_arguments(trees, "sample", 0)
    unreached = {
        "PREDICATES": [key for key in PREDICATES if key not in predicates],
        "SAMPLE_KINDS": [kind for kind in SAMPLE_KINDS if kind not in kinds],
    }
    assert not any(unreached.values()), f"asked for by no call: {unreached}"
