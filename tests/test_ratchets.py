"""Size ratchets on the package source: a change that adds a settable
parameter raises the recorded bound in the same change, where it shows."""

import ast
import pathlib

import mdirac

#: parameters with a default value, over every function in src/mdirac
MAX_SETTABLE_PARAMETERS = 28


def _settable_parameters():
    n = 0
    for path in pathlib.Path(mdirac.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                a = node.args
                n += len(a.defaults)
                n += sum(d is not None for d in a.kw_defaults)
    return n


def test_settable_parameter_count():
    assert _settable_parameters() <= MAX_SETTABLE_PARAMETERS


def _unused_imports(path):
    """Names a module imports but never reads."""
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                imported[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                imported[a.asname or a.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted("%s:%d %s" % (path.name, line, name)
                  for name, line in imported.items() if name not in used)


def test_no_unused_imports():
    # the package __init__ imports names only to re-export them
    src = [p for p in pathlib.Path(mdirac.__file__).parent.glob("*.py")
           if p.name != "__init__.py"]
    tests = list(pathlib.Path(__file__).parent.glob("*.py"))
    unused = [u for p in sorted(src + tests) for u in _unused_imports(p)]
    assert unused == []
