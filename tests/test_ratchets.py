"""Size ratchets on the package source: a change that adds a settable
parameter or grows the package raises the recorded bound in the same
change, where it shows; and no package function exists for the tests
alone."""

import ast
import collections
import pathlib

import mdirac

#: parameters with a default value, over every function in src/mdirac
MAX_SETTABLE_PARAMETERS = 21

#: lines of the package source, src/mdirac/*.py
MAX_PACKAGE_LINES = 4433


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


def test_package_line_count():
    lines = sum(len(path.read_text().splitlines()) for path in
                pathlib.Path(mdirac.__file__).parent.glob("*.py"))
    assert lines <= MAX_PACKAGE_LINES


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


#: definitions kept without a caller in the package or the benchmark,
#: because the README documents them as API
DOCUMENTED_API = {"classify"}


def _referenced_names(node):
    """How often each identifier is read, as a name or an attribute."""
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def _definitions(tree):
    """Module-level functions and classes, and the methods of those
    classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node
        if isinstance(node, ast.ClassDef):
            yield from (m for m in node.body
                        if isinstance(m, ast.FunctionDef))


def test_no_test_only_api():
    # each definition must be referenced outside its own body, in
    # src/mdirac or perfbench/*.py; an import (a re-export in __init__)
    # is not a reference
    src = sorted(pathlib.Path(mdirac.__file__).parent.glob("*.py"))
    bench = sorted((pathlib.Path(__file__).parents[1] / "perfbench")
                   .glob("*.py"))
    assert bench
    trees = {p: ast.parse(p.read_text()) for p in src + bench}
    total = sum((_referenced_names(t) for t in trees.values()),
                collections.Counter())
    unused = ["%s:%d %s" % (path.name, d.lineno, d.name)
              for path in src for d in _definitions(trees[path])
              if not (d.name.startswith("__") and d.name.endswith("__"))
              and d.name not in DOCUMENTED_API
              and total[d.name] - _referenced_names(d)[d.name] <= 0]
    assert unused == []
