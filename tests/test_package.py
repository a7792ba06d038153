import ast
import pathlib

import quantred

SRC = pathlib.Path(quantred.__file__).parent


def test_all_names_resolve():
    missing = [name for name in quantred.__all__ if not hasattr(quantred, name)]
    assert missing == []
    assert len(set(quantred.__all__)) == len(quantred.__all__)


def test_modules_use_every_name_they_import():
    """An ast walk: every name a module imports (other than __init__.py,
    which re-exports) is read somewhere in that module."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    assert unused == []
