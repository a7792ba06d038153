import ast
import os
import pathlib
import subprocess
import sys

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


def test_import_and_validate_do_not_load_scipy():
    """scipy is imported by the first linear program, not by `import quantred`
    or config validation, so a CLI start that fails validation never pays for it."""
    code = (
        "import sys, quantred\n"
        "from quantred import cli\n"
        "for name in cli.PRESETS:\n"
        "    cli.validate({'preset': name, 'k_list': [2]})\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"
