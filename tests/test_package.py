import ast
import json
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


def test_every_package_definition_is_reachable():
    """An ast walk: every top-level def and class of the package (other than
    __init__.py and __main__.py) is reached by following Name and Attribute
    references from the command line's `main` and from every identifier,
    attribute and string in perfbench/*.py (its trace names functions by
    string).  Code only the tests call belongs in tests/reference.py."""
    def refs(node):
        return {n.id if isinstance(n, ast.Name) else n.attr
                for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}

    defs = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("__init__.py", "__main__.py"):
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
    roots = {"main"}
    for path in (pathlib.Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"):
        tree = ast.parse(path.read_text())
        roots |= refs(tree) | {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    reached, todo = set(), [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo += [ref for node in defs[name] for ref in refs(node) if ref in defs]
    assert sorted(set(defs) - reached) == []


def test_cli_reads_no_private_name_of_another_module():
    """An ast walk: cli.py reads no `_`-prefixed attribute of a quantred
    module it imports and imports no `_`-prefixed name from one, so what a
    run computes once is decided by the modules' public functions."""
    tree = ast.parse((SRC / "cli.py").read_text())
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules.add(alias.asname or alias.name)
                if alias.name.startswith("_") and not alias.name.endswith("__"):
                    private.append(f"{node.module or ''}.{alias.name}")
    private += [f"{node.value.id}.{node.attr}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")]
    assert {"asymptotics", "reduction", "sections", "strata"} <= modules
    assert private == []


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


def test_runs_with_point_and_segment_slices_do_not_load_scipy(tmp_path):
    """scipy serves only level slices with q >= 2: `quantred run` at k = 2 on
    E1, E2, E3 and the rank-2 (CP^1)^3, whose slices are all points or
    segments, ends without it, and a CP^1 x CP^2 strata run, whose open
    stratum has q = 2, loads it.  The (CP^1)^3 run leaves out the consistency
    check, whose residuals take seconds there and build no slice."""
    models = {
        "rank2": {"model": {"factors": [1, 1, 1], "bundle_degrees": [1, 1, 1]},
                  "action": {"rank": 2, "weights": [[1, -1, 1, -1, 0, 0], [0, 0, 1, -1, 1, -1]]}},
        "cp1xcp2": {"model": {"factors": [1, 2], "bundle_degrees": [1, 1]},
                    "action": {"rank": 1, "weights": [[1, 0, -1, 0, 1]]}},
    }
    for name, cfg in models.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(cfg))
    code = (
        "import sys\n"
        "from quantred import cli\n"
        "out = sys.argv[1]\n"
        "runs = [['--preset', 'E1'], ['--preset', 'E2'], ['--preset', 'E3'],\n"
        "        ['--config', out + '/rank2.json', '--only', 'strata,gram,density,unitarity'],\n"
        "        ['--config', out + '/cp1xcp2.json', '--only', 'strata']]\n"
        "for i, args in enumerate(runs):\n"
        "    assert cli.main(['run', *args, '--k', '2', '--out', f'{out}/run{i}']) == 0\n"
        "    print('scipy loaded:', 'scipy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    loaded = [line.split(": ")[1] for line in res.stdout.splitlines() if line.startswith("scipy loaded:")]
    assert loaded == ["False"] * 4 + ["True"]


def test_layer_trace_names_resolve():
    """Every (module, function) that perfbench's per-layer trace wraps
    exists in quantred, so `perfbench/run.py --trace 1` cannot lose a layer
    silently when a function moves."""
    import importlib
    import importlib.util

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"
    spec = importlib.util.spec_from_file_location("layertrace", path)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    assert layertrace.LAYERS
    missing = [f"{module}.{name}" for module, name, *_ in layertrace.LAYERS
               if not callable(getattr(importlib.import_module(f"quantred.{module}"), name, None))]
    assert missing == []
