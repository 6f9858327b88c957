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
