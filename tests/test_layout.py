"""The package holds only what the program uses: every function, method,
class, module-level constant and class attribute defined in src/quadricheck
is referenced from src/, scripts/ or bench/, not only from the tests, and
every name a module imports is read in that module.  The package's
__init__.py does not count: a re-export there is no caller.  A read of
`self.x` or `cls.x` inside a class refers only to an `x` of that class, of
its bases or of its subclasses; a function decorated by a decorator that the
package defines is passed to that decorator, which reads it."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
# scopes whose own bindings hide a definition of the same name
SCOPES = FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def assigned_names(body):
    """(name, line) of every Name that the statements of a module or class
    body assign to: its constants and class attributes."""
    for statement in body:
        if isinstance(statement, ast.Assign):
            targets = statement.targets
        elif isinstance(statement, ast.AnnAssign):
            targets = [statement.target]
        else:
            continue
        for target in targets:
            for node in ast.walk(target):
                if isinstance(node, ast.Name):
                    yield node.id, node.lineno


def defined_names(path):
    """(name, line, owner) of every function, method and class defined in a
    module, and of every module-level constant and class attribute,
    dunders left out; the owner is the class whose body defines a method or
    class attribute, and None for every other name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = [(name, line, None) for name, line in assigned_names(tree.body)]

    def walk(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.append((child.name, child.lineno, owner))
            if isinstance(child, ast.ClassDef):
                names.extend((name, line, child.name) for name, line in assigned_names(child.body))
                walk(child, child.name)
            else:
                walk(child, None)

    walk(tree, None)
    return [
        (name, line, owner)
        for name, line, owner in names
        if not (name.startswith("__") and name.endswith("__"))
    ]


def local_bindings(scope):
    """The names a function or comprehension binds itself: its parameters
    and every Name it assigns to, not those of scopes nested in it."""
    names = set()
    if isinstance(scope, FUNCTIONS):
        args = scope.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
        names.update(a.arg for a in params if a is not None)
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, SCOPES + (ast.ClassDef,)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def references(node, local=frozenset(), cls=None):
    """Every Name read under the node that is not a binding of an enclosing
    function or comprehension, every Attribute and every import alias, as a
    bare name; a `self.x` or `cls.x` inside a class, as (class, x)."""
    if isinstance(node, SCOPES):
        local = local | local_bindings(node)
    if isinstance(node, ast.ClassDef):
        cls = node.name
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node.id
    elif isinstance(node, ast.Attribute):
        owner = node.value
        if cls is not None and isinstance(owner, ast.Name) and owner.id in ("self", "cls"):
            yield cls, node.attr
        else:
            yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2]
        if node.asname:
            yield node.asname
    for child in ast.iter_child_nodes(node):
        yield from references(child, local, cls)


def referenced_names(paths):
    names = set()
    for path in paths:
        names.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    return names


def class_bases(paths):
    """Class name -> the names of its bases, over the modules."""
    bases = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                bases.setdefault(node.name, set()).update(
                    base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
                    for base in node.bases
                )
    return bases


def decorated_by(paths, decorators):
    """Names of the functions and classes that a decorator named in
    `decorators` receives: `@d` or `@d(...)` over `def f` passes f to d."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    callee = decorator.func if isinstance(decorator, ast.Call) else decorator
                    if isinstance(callee, ast.Name) and callee.id in decorators:
                        names.add(node.name)
    return names


def unused_definitions(modules, users):
    """`file:line name` of every definition in the modules that no user
    references."""
    definitions = [
        (path, name, line, owner) for path in modules for name, line, owner in defined_names(path)
    ]
    used, self_reads = set(), {}
    for read in referenced_names(users):
        if isinstance(read, tuple):
            self_reads.setdefault(read[1], set()).add(read[0])
        else:
            used.add(read)
    used |= decorated_by(users, {name for _, name, _, owner in definitions if owner is None})
    bases = class_bases(users)

    def ancestors(name, seen=()):
        for base in bases.get(name, ()):
            if base not in seen:
                yield base
                yield from ancestors(base, seen + (base,))

    def related(a, b):
        return a == b or a in ancestors(b) or b in ancestors(a)

    return [
        f"{path.name}:{line} {name}"
        for path, name, line, owner in definitions
        if name not in used
        and not (owner and any(related(cls, owner) for cls in self_reads.get(name, ())))
    ]


def constructions_of(path, name):
    """(enclosing function, line) of every call of `name` in a module;
    the enclosing function is None at module level."""

    def walk(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call):
            callee = node.func
            called = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
            if called == name:
                yield function, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from walk(child, function)

    return list(walk(ast.parse(path.read_text(encoding="utf-8")), None))


def unread_imports(path):
    """(name, line) of every name a module imports and never reads; a
    `from __future__` import binds no name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        (name, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
        for name in (alias.asname or alias.name.partition(".")[0] for alias in node.names)
        if name not in read
    ]


# The entries of a decision: each exit, skew-line discovery and relabeling
# check reads the table these build, so none may build its own.
TABLE_BUILDERS = {
    ("reductions.py", "decide"),
    ("reductions.py", "normalize"),
    ("generic_case.py", "genericity_violation"),
}


class TestLayout:
    def test_every_definition_in_src_has_a_program_caller(self):
        modules = sorted((ROOT / "src" / "quadricheck").glob("*.py"))
        assert modules
        users = [
            path
            for part in ("src", "scripts", "bench")
            for path in (ROOT / part).rglob("*.py")
            if path != ROOT / "src" / "quadricheck" / "__init__.py"
        ]
        assert unused_definitions(modules, users) == []

    def test_local_bindings_are_not_callers(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(
            "def called(): pass\n"
            "def parameter(): pass\n"
            "def assigned(): pass\n"
            "def closed_over(): pass\n"
            "def comprehended(): pass\n"
            "def caller(parameter, *, key=None):\n"
            "    assigned = [comprehended for comprehended in range(3)]\n"
            "    closed_over = 1\n"
            "    def inner():\n"
            "        return closed_over\n"
            "    return called(), parameter, assigned, inner, key\n"
        )
        assert referenced_names([source]) & {
            "called", "parameter", "assigned", "closed_over", "comprehended", "inner"
        } == {"called", "inner"}

    def test_constants_and_class_attributes_are_definitions(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(
            "__all__ = []\n"
            "LIMIT = 3\n"
            "FIRST, SECOND = 1, 2\n"
            "class Holder:\n"
            "    __slots__ = ()\n"
            "    shared = LIMIT\n"
            "    field: int\n"
            "    def method(self):\n"
            "        local = 1\n"
            "        return local\n"
        )
        assert sorted((name, owner) for name, _, owner in defined_names(source)) == [
            ("FIRST", None),
            ("Holder", None),
            ("LIMIT", None),
            ("SECOND", None),
            ("field", "Holder"),
            ("method", "Holder"),
            ("shared", "Holder"),
        ]

    def test_self_reads_name_only_related_classes(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(
            "class Matrix:\n"
            "    def det(self): pass\n"
            "    def size(self): pass\n"
            "class Transform:\n"
            "    scale = 2\n"
            "    def det(self): pass\n"
            "    def check(self):\n"
            "        return self.det(), self.scale\n"
            "class Base:\n"
            "    def hook(self): pass\n"
            "    def run(self):\n"
            "        return self.step()\n"
            "class Child(Base):\n"
            "    def step(self):\n"
            "        return self.hook()\n"
            "class Other:\n"
            "    def hook(self): pass\n"
            "def main(matrix):\n"
            "    return matrix.size(), Transform().check(), Child().run(), Matrix, Other\n"
        )
        assert unused_definitions([source], [source]) == [
            "module.py:2 det", "module.py:17 hook", "module.py:18 main"
        ]

    def test_program_decorators_read_what_they_decorate(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(
            "from functools import cache\n"
            "REGISTRY = {}\n"
            "def register(kind):\n"
            "    def wrap(builder):\n"
            "        REGISTRY[kind] = builder\n"
            "        return builder\n"
            "    return wrap\n"
            "@register('a')\n"
            "def registered(): pass\n"
            "@cache\n"
            "def cached(): pass\n"
            "def build(kind):\n"
            "    return REGISTRY[kind]()\n"
            "print(build('a'), cache)\n"
        )
        assert unused_definitions([source], [source]) == ["module.py:11 cached"]

    def test_every_import_in_src_is_read(self):
        unread = [
            f"{path.name}:{line} {name}"
            for path in sorted((ROOT / "src" / "quadricheck").glob("*.py"))
            if path.name != "__init__.py"
            for name, line in unread_imports(path)
        ]
        assert unread == []

    def test_unread_imports_are_found(self, tmp_path):
        source = tmp_path / "module.py"
        source.write_text(
            "from __future__ import annotations\n"
            "import os.path\n"
            "import json as codec\n"
            "from math import gcd, lcm\n"
            "from itertools import chain as unused\n"
            "def f(x: int) -> str:\n"
            "    return os.path.join(codec.dumps(gcd(x, 2)))\n"
            "lcm = 1\n"
        )
        assert unread_imports(source) == [("lcm", 4), ("unused", 5)]

    def test_incidence_tables_built_only_at_decision_entries(self):
        built = {
            (path.name, function, line)
            for path in sorted((ROOT / "src" / "quadricheck").glob("*.py"))
            for function, line in constructions_of(path, "IncidenceTable")
        }
        assert built
        assert sorted(b for b in built if b[:2] not in TABLE_BUILDERS) == []
