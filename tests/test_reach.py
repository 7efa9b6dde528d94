"""src/phaselab holds what is run: each public top-level function or class
of the package is named by some code of src/phaselab or perfbench/ outside
its own definition.  The scan reads the syntax trees, so a docstring or a
comment that mentions a name does not count, and a test alone keeps no
function in the package."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


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
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "phaselab").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))}
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
