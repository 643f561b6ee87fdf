"""No library code is reached only by tests.

Every module-level function and class in ``src/trigrad``, every
non-dunder method of its classes and every annotated field in a class
body must be named somewhere outside its own definition: in
``src/trigrad`` itself, in ``demos/``, in ``perfbench/`` or in the
acceptance suite ``tests/test_acceptance.py``.

Names are collected from the syntax tree: names, attribute names,
imported names, keyword-argument names, and string constants that are
exactly an identifier, since ``perfbench/spans.py`` looks its hooks up by
attribute name.  Names inside f-strings count too.  A bare name does not
count inside a function that binds it as a parameter or an assignment
target (anywhere in its body, nested functions included): such a local,
like the ``matrices`` dict that once filled ``CubeComplex.matrices``,
names no field.  Exempt are click
commands, which the command line reaches through their decorators, and
the members of classes with a base class from outside the package (such
as the click overrides of ``cli._Cli``), which that base calls.

A name check sees only direct references, so it cannot see code that is
dead only transitively: a function whose only callers are themselves
unreached passes, as ``shift_complex`` did while only ``cone``, reached
by nothing but unit tests, called it.  Nor does it know which class an
attribute belongs to: a member passes if any attribute of that name is
used, as ``CubeComplex.dump`` did, only because ``KoszulMatrix.dump``,
which it called, has the same name.
"""

import ast
import os
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


def _package_files():
    for name in sorted(os.listdir(PKG)):
        if name.endswith(".py"):
            yield os.path.join(PKG, name)


def _parse(path):
    with open(path) as fh:
        return ast.parse(fh.read())


def _local_names(tree):
    """The Name nodes of a name that their enclosing function binds as a
    parameter or an assignment target."""
    local = set()
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = func.args
            bound = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs
                     + [a.vararg, a.kwarg] if arg}
            names = [n for n in ast.walk(func) if isinstance(n, ast.Name)]
            bound |= {n.id for n in names if isinstance(n.ctx, ast.Store)}
            local |= {n for n in names if n.id in bound}
    return local


def _names(tree):
    """(identifier, line) for each name the tree uses."""
    local = _local_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node not in local:
                yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.keyword) and node.arg:
            yield node.arg, node.lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value, node.lineno


def _is_click_command(node):
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Attribute) and target.attr in ("command", "group"):
            return True
    return False


def _members(cls):
    """Non-dunder methods and annotated fields of a class body."""
    for node in cls.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                yield node.name, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _definitions(trees):
    """(path, name, node) for each definition the check covers, in the
    package modules `trees` (path -> syntax tree)."""
    own_classes = {node.name for tree in trees.values() for node in tree.body
                   if isinstance(node, ast.ClassDef)}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_click_command(node):
                    yield path, node.name, node
            elif isinstance(node, ast.ClassDef):
                yield path, node.name, node
                if all(isinstance(b, ast.Name) and b.id in own_classes
                       for b in node.bases):
                    for name, member in _members(node):
                        yield path, name, member


def _span(node):
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    return range(first, node.end_lineno + 1)


def _unreached(package, reaching):
    """The definitions of `package` that no tree of `reaching` names
    outside their own span; both map path -> syntax tree."""
    uses = defaultdict(set)
    for path, tree in reaching.items():
        for name, line in _names(tree):
            uses[name].add((path, line))
    return [
        f"{os.path.relpath(path, ROOT)}: {name}"
        for path, name, node in _definitions(package)
        if not uses[name] - {(path, line) for line in _span(node)}
    ]


def test_every_library_name_is_reached_outside_the_unit_tests():
    package = {path: _parse(path) for path in _package_files()}
    reaching = {path: _parse(path) for path in _reaching_files()}
    unreached = _unreached(package, reaching)
    assert not unreached, "reached only by unit tests: " + ", ".join(unreached)


def test_a_same_named_local_does_not_reach_a_field():
    # `size` is a local of `fill` and a parameter of `make`; only `read`
    # names the field
    lib = os.path.join(PKG, "box.py")
    package = {lib: ast.parse("class Box:\n    size: int\n")}
    user = os.path.join(ROOT, "demos", "user.py")
    code = ("def fill(n):\n    size = n\n    return Box(size)\n\n"
            "def make(size):\n    return Box(size)\n")
    reaching = {**package, user: ast.parse(code)}
    assert _unreached(package, reaching) == ["src/trigrad/box.py: size"]
    reaching[user] = ast.parse(code + "\ndef read(box):\n    return box.size\n")
    assert _unreached(package, reaching) == []
