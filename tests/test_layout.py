"""Source layout checks that need only the standard library."""

import ast
import os
import subprocess
import sys
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


#: Top-level modules that ``import transpec.cli`` may load beyond numpy's own.
#: Start-up time is most of a command's run, and an import added here (scipy
#: alone takes tens of milliseconds) slows every command.
CLI_IMPORTS = {"transpec", "argparse", "json", "_json", "dataclasses", "copy", "gettext",
               "__future__"}


def test_the_cli_imports_nothing_beyond_numpy_and_a_few_standard_modules():
    code = ("import sys, numpy\n"
            "before = set(sys.modules)\n"
            "import transpec.cli\n"
            "print(*sorted({m.split('.')[0] for m in set(sys.modules) - before}))")
    env = dict(os.environ, PYTHONPATH=str(Path(transpec.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          check=True)
    assert set(proc.stdout.split()) <= CLI_IMPORTS


def _private_transpec_imports(tree: ast.Module):
    """``module:name`` for each import of a ``_``-prefixed name or module of transpec."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "transpec":
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names if alias.name.split(".")[0] == "transpec"]
        else:
            continue
        yield from (n for n in names if any(part.startswith("_") for part in n.split(".")))


def test_scripts_import_only_public_transpec_names():
    scripts = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
    assert scripts
    private = [f"{path.name}:{name}" for path in scripts
               for name in _private_transpec_imports(ast.parse(path.read_text()))]
    assert private == []


def _raised_messages(tree: ast.Module):
    """The text of each string constant inside a ``raise`` statement."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise):
            for part in ast.walk(node):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value


def test_each_input_rule_of_the_collision_analysis_is_raised_from_one_place():
    messages = [(path.name, text) for path in SOURCES
                for text in _raised_messages(ast.parse(path.read_text()))]
    for rule in ("wavenumber must be positive", "theta must be a positive integer"):
        raised = [f"{name}:{text}" for name, text in messages if rule in text]
        assert len(raised) == 1, raised
