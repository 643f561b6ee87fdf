"""No library code is reached only by tests.

Every module-level function and class in ``src/trigrad``, every
non-dunder method of its classes and every annotated field in a class
body must be named somewhere outside its own definition: in ``demos/``,
in ``perfbench/``, in the acceptance suite ``tests/test_acceptance.py``,
or in ``src/trigrad`` itself by code that is reached in turn.

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

A member counts as named only where its own class is: an attribute, a
keyword of a constructor call or of ``replace``, counts for the class of
its receiver, as far as the syntax tells it (``_Classes``: annotations of
parameters, fields and return values, constructor calls, assignments and
for loops).  Where the receiver's class is unknown, as for a string
constant, the name counts only if one package class alone defines it.
So ``CubeComplex.dump`` no longer passes because the demos call
``KoszulMatrix.dump``.

Reach is transitive.  The roots are ``demos/``, ``perfbench/``, the
acceptance suite and the package's module-level code, imports and
``__all__`` aside.  A use inside a package definition reaches only once
that definition is reached, so a function whose only callers are
themselves unreached is flagged with them, as ``shift_complex`` would
have been while only ``cone``, reached by nothing but unit tests, called
it.
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
    """(path, name, node, class) for each definition the check covers, in
    the package modules `trees` (path -> syntax tree); class is None for a
    module-level definition."""
    own_classes = {node.name for tree in trees.values() for node in tree.body
                   if isinstance(node, ast.ClassDef)}
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not _is_click_command(node):
                    yield path, node.name, node, None
            elif isinstance(node, ast.ClassDef):
                yield path, node.name, node, None
                if all(isinstance(b, ast.Name) and b.id in own_classes
                       for b in node.bases):
                    for name, member in _members(node):
                        yield path, name, member, node.name


def _span(node):
    decorators = getattr(node, "decorator_list", [])
    first = min([node.lineno] + [d.lineno for d in decorators])
    return range(first, node.end_lineno + 1)


_NOTHING = (frozenset(), frozenset())


class _Classes:
    """What the syntax tells of the class of an expression: the package
    classes its value may be an instance of, and those its elements (items
    of a sequence, values of a mapping) may be.  Read off annotations of
    parameters, fields and return values, constructor calls and plain
    assignments; anything else is unknown."""

    def __init__(self, package):
        self.classes = {node.name: node for tree in package.values()
                        for node in tree.body if isinstance(node, ast.ClassDef)}
        self.members = {name: {m for m, _ in _members(node)}
                        for name, node in self.classes.items()}
        self.attr = {name: {} for name in self.classes}  # class -> member -> type
        self.returns = {}  # module-level function -> type
        for name, node in self.classes.items():
            for member, m in _members(node):
                ann = m.annotation if isinstance(m, ast.AnnAssign) else m.returns
                self.attr[name][member] = self.annotation(ann)
        for tree in package.values():
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    self.returns[node.name] = self.annotation(node.returns)

    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            node = ast.parse(node.value, mode="eval").body
        if isinstance(node, ast.Name) and node.id in self.classes:
            return frozenset({node.id}), frozenset()
        if isinstance(node, ast.BinOp):  # X | None
            (a, ae), (b, be) = self.annotation(node.left), self.annotation(node.right)
            return a | b, ae | be
        if isinstance(node, ast.Subscript):
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) else [node.slice]
            base = getattr(node.value, "id", getattr(node.value, "attr", ""))
            if base == "Optional":
                return self.annotation(args[0])
            if base in ("dict", "Mapping"):
                args = args[-1:]
            return frozenset(), frozenset().union(
                *(self.annotation(a)[0] for a in args))
        return _NOTHING

    def of(self, node, env):
        """(classes of the value, classes of its elements) of an expression."""
        if isinstance(node, ast.Name):
            if node.id in self.classes:
                return frozenset({node.id}), frozenset()
            return env.get(node.id, _NOTHING)
        if isinstance(node, ast.Attribute):
            owners = self.of(node.value, env)[0]
            return self._union(self.attr[c].get(node.attr, _NOTHING) for c in owners)
        if isinstance(node, ast.Subscript):
            return self.of(node.value, env)[1], frozenset()
        if isinstance(node, ast.IfExp):
            return self._union([self.of(node.body, env), self.of(node.orelse, env)])
        if isinstance(node, ast.BoolOp):
            return self._union(self.of(v, env) for v in node.values)
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                if f.id in self.classes:
                    return frozenset({f.id}), frozenset()
                if f.id == "replace" and node.args:
                    return self.of(node.args[0], env)
                return self.returns.get(f.id, _NOTHING)
            if isinstance(f, ast.Attribute):
                if f.attr in ("get", "pop", "setdefault"):
                    return self.of(f.value, env)[1], frozenset()
                if f.attr == "values":
                    return frozenset(), self.of(f.value, env)[1]
                return self.of(f, env)
        return _NOTHING

    @staticmethod
    def _union(types):
        vals, elems = frozenset(), frozenset()
        for v, e in types:
            vals, elems = vals | v, elems | e
        return vals, elems

    def bind(self, target, value, env, elementwise=False):
        """Record in env what an assignment of `value` to `target` tells; with
        `elementwise`, target takes an element of `value` (a for loop)."""
        if isinstance(target, ast.Name):
            t = self.of(value, env)
            t = (t[1], frozenset()) if elementwise else t
            old = env.get(target.id, _NOTHING)
            env[target.id] = (old[0] | t[0], old[1] | t[1])
        elif isinstance(target, ast.Tuple) and elementwise and isinstance(
                value, ast.Call) and len(target.elts) == 2:
            f = value.func
            if isinstance(f, ast.Attribute) and f.attr == "items":
                self.bind(target.elts[1], f.value, env, True)
            elif isinstance(f, ast.Name) and f.id == "enumerate" and value.args:
                self.bind(target.elts[1], value.args[0], env, True)
            elif isinstance(f, ast.Name) and f.id == "zip":
                for t, v in zip(target.elts, value.args):
                    self.bind(t, v, env, True)
        elif isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple):
            for t, v in zip(target.elts, value.elts):
                self.bind(t, v, env)


def _scopes(tree):
    """(scope node, enclosing class name or None, enclosing scope) for the
    module and each function in it, outermost first."""
    out = [(tree, None, None)]

    def visit(node, cls, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name, scope)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.Lambda)):
                out.append((child, cls, scope))
                visit(child, None, child)
            else:
                visit(child, cls, scope)

    visit(tree, None, tree)
    return out


def _own_nodes(scope):
    """The nodes of a scope, without those of the functions nested in it."""
    todo = list(ast.iter_child_nodes(scope))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def _member_uses(reaching, types):
    """(class, member) -> {(path, line)} for each use of a member whose class
    the syntax tells.  A use whose receiver is unknown counts only for a
    member name that one package class alone defines."""
    owners = defaultdict(set)
    for cls, members in types.members.items():
        for m in members:
            owners[m].add(cls)
    uses = defaultdict(set)

    def credit(classes, name, path, line):
        if not classes:  # receiver unknown
            classes = owners[name] if len(owners[name]) == 1 else ()
        for cls in classes:
            if name in types.members.get(cls, ()):
                uses[(cls, name)].add((path, line))

    for path, tree in reaching.items():
        envs = {}
        for scope, cls, outer in _scopes(tree):
            env = dict(envs.get(outer, {}))
            envs[scope] = env
            if not isinstance(scope, ast.Module):
                a = scope.args
                params = a.posonlyargs + a.args + a.kwonlyargs
                for i, arg in enumerate(params):
                    if i == 0 and cls in types.classes and arg.arg in ("self", "cls"):
                        env[arg.arg] = (frozenset({cls}), frozenset())
                    elif getattr(arg, "annotation", None) is not None:
                        env[arg.arg] = types.annotation(arg.annotation)
            nodes = list(_own_nodes(scope))
            for _ in range(3):  # assignments may feed one another
                for node in nodes:
                    if isinstance(node, ast.Assign):
                        for target in node.targets:
                            types.bind(target, node.value, env)
                    elif isinstance(node, ast.AnnAssign) and isinstance(
                            node.target, ast.Name):
                        env[node.target.id] = types.annotation(node.annotation)
                    elif isinstance(node, (ast.For, ast.comprehension)):
                        types.bind(node.target, node.iter, env, True)
                    elif isinstance(node, ast.NamedExpr):
                        types.bind(node.target, node.value, env)
            for node in nodes:
                if isinstance(node, ast.Attribute):
                    credit(types.of(node.value, env)[0], node.attr, path,
                           node.lineno)
                elif isinstance(node, ast.Call):
                    # keywords of C(...) and replace(c, ...) name fields of C
                    f, called = node.func, ()
                    if isinstance(f, ast.Name) and f.id in types.classes:
                        called = {f.id}
                    elif isinstance(f, ast.Name) and f.id == "replace" and node.args:
                        called = types.of(node.args[0], env)[0]
                    for kw in node.keywords:
                        if kw.arg:
                            credit(called, kw.arg, path, node.lineno)
                elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                      and node.value.isidentifier()):
                    credit((), node.value, path, node.lineno)
    return uses


def _imports(tree):
    """(name, line) of each name that an import or `__all__` binds or
    lists: in the package they reach nothing by themselves."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            out.add((node.name.rpartition(".")[2], node.lineno))
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            out |= {(c.value, c.lineno) for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant)}
    return out


def _unreached(package, reaching):
    """The definitions of `package` that no root reaches; both map path ->
    syntax tree.  A use reaches a definition when it lies outside the
    definition's own span and its user is reached: the innermost package
    definition that encloses the use, or a root for a use in a file outside
    `package` or at module level.  A member counts as named only where its
    own class is (`_member_uses`)."""
    uses = defaultdict(set)
    for path, tree in reaching.items():
        skip = _imports(tree) if path in package else set()
        for name, line in _names(tree):
            if (name, line) not in skip:
                uses[name].add((path, line))
    member_uses = _member_uses(reaching, _Classes(package))
    defs = list(_definitions(package))
    spans = {(path, name, cls): _span(node) for path, name, node, cls in defs}

    def user(path, line):
        inside = [key for key, span in spans.items()
                  if key[0] == path and line in span]
        return min(inside, key=lambda key: len(spans[key]), default=None)

    users = {
        key: {user(path, line)
              for path, line in (member_uses[(key[2], key[1])] if key[2]
                                 else uses[key[1]])
              if not (path == key[0] and line in spans[key])}
        for key in spans
    }
    reached = {None}  # None stands for the roots
    while True:
        more = {key for key, who in users.items()
                if key not in reached and who & reached}
        if not more:
            break
        reached |= more
    return [f"{os.path.relpath(path, ROOT)}: " + (f"{cls}.{name}" if cls else name)
            for path, name, _, cls in defs if (path, name, cls) not in reached]


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
    assert _unreached(package, reaching) == ["src/trigrad/box.py: Box.size"]
    reaching[user] = ast.parse(code + "\ndef read(box):\n    return box.size\n")
    assert _unreached(package, reaching) == []


def test_a_member_is_reached_only_through_its_own_class():
    # `dump` is a method of both classes; the demo dumps a matrix only, as
    # the demos once did while `Cube.dump` was reached by the unit tests alone
    lib = os.path.join(PKG, "mods.py")
    package = {lib: ast.parse(
        "class Matrix:\n    def dump(self): ...\n\n"
        "class Cube:\n    def dump(self): ...\n\n"
        "def matrix() -> Matrix: ...\n\n"
        "def cube() -> 'Cube': ...\n")}
    user = os.path.join(ROOT, "demos", "user.py")
    code = "m = matrix()\nprint(m.dump())\nprint(cube())\n"
    reaching = {**package, user: ast.parse(code)}
    assert _unreached(package, reaching) == ["src/trigrad/mods.py: Cube.dump"]
    # a receiver of unknown class reaches neither of two same-named members
    reaching[user] = ast.parse(code.replace("m.dump()", "m[0].dump()"))
    assert _unreached(package, reaching) == [
        "src/trigrad/mods.py: Matrix.dump", "src/trigrad/mods.py: Cube.dump"]
    reaching[user] = ast.parse(code + "cube().dump()\n")
    assert _unreached(package, reaching) == []
    reaching[user] = ast.parse(
        code + "def show(c: Cube | None):\n    c.dump()\n")
    assert _unreached(package, reaching) == []


def test_code_reached_only_from_unreached_code_is_unreached():
    # `helper` is named only by `unused` and `twin`, which name each other;
    # once the demo calls `twin`, all three are reached
    lib = os.path.join(PKG, "lib.py")
    package = {lib: ast.parse(
        "def helper(): ...\n\n"
        "def unused():\n    return helper() + twin()\n\n"
        "def twin():\n    return unused()\n")}
    user = os.path.join(ROOT, "demos", "user.py")
    reaching = {**package, user: ast.parse("import trigrad.lib\n")}
    assert _unreached(package, reaching) == [
        "src/trigrad/lib.py: helper", "src/trigrad/lib.py: unused",
        "src/trigrad/lib.py: twin"]
    reaching[user] = ast.parse("import trigrad.lib\ntrigrad.lib.twin()\n")
    assert _unreached(package, reaching) == []
