"""No library code is reached only by tests.

Every module-level function and class in ``src/trigrad`` must be named
somewhere outside its own definition: in ``src/trigrad`` itself, in
``demos/``, in ``perfbench/`` or in the acceptance suite
``tests/test_acceptance.py``.  A name counts as a name token, or as a
string literal that is exactly the name, since ``perfbench/spans.py``
looks its hooks up by attribute name.  Click commands are exempt: the
command line reaches them through their decorators.

A name check sees only direct references, so it cannot see code that is
dead only transitively: a function whose only callers are themselves
unreached passes, as ``shift_complex`` did while only ``cone``, reached
by nothing but unit tests, called it.
"""

import ast
import os
import re
import tokenize
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PKG = os.path.join(ROOT, "src", "trigrad")


def _reaching_files():
    for sub in ("src/trigrad", "demos", "perfbench"):
        for dirpath, _, files in os.walk(os.path.join(ROOT, sub)):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)
    yield os.path.join(ROOT, "tests", "test_acceptance.py")


def _names(path):
    """(identifier, line) for each name token and each string literal that
    is a bare identifier."""
    with tokenize.open(path) as fh:
        for tok in tokenize.generate_tokens(fh.readline):
            if tok.type == tokenize.NAME:
                yield tok.string, tok.start[0]
            elif tok.type == tokenize.STRING:
                quoted = re.fullmatch(r"(['\"])(\w+)\1", tok.string)
                if quoted:
                    yield quoted.group(2), tok.start[0]


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _definitions():
    for name in sorted(os.listdir(PKG)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PKG, name)
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)) and not _is_click_command(node):
                yield path, node


def test_every_library_name_is_reached_outside_the_unit_tests():
    uses = defaultdict(set)
    for path in _reaching_files():
        for name, line in _names(path):
            uses[name].add((path, line))
    unreached = []
    for path, node in _definitions():
        first = min([node.lineno] + [d.lineno for d in node.decorator_list])
        own = {(path, line) for line in range(first, node.end_lineno + 1)}
        if not uses[node.name] - own:
            unreached.append(f"{os.path.relpath(path, ROOT)}: {node.name}")
    assert not unreached, "reached only by unit tests: " + ", ".join(unreached)
