"""Source layout checks that need only the standard library."""

import ast
from pathlib import Path

import transpec

SOURCES = sorted(Path(transpec.__file__).parent.glob("*.py"))


def _private_definitions(tree: ast.Module):
    """Module-level private functions, classes and assigned names (no dunders)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        yield from (n for n in names if n.startswith("_") and not n.startswith("__"))


def _references(tree: ast.Module):
    """Every name that is read, looked up as an attribute or imported."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_every_private_module_name_is_used():
    trees = {path.name: ast.parse(path.read_text()) for path in SOURCES}
    used = {name for tree in trees.values() for name in _references(tree)}
    unused = [f"{module}:{name}" for module, tree in trees.items()
              for name in _private_definitions(tree) if name not in used]
    assert unused == []
