"""The package holds only what the program uses: every function, method,
class, module-level constant and class attribute defined in src/quadricheck
is referenced from src/, scripts/ or bench/, not only from the tests."""

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
    """(name, line) of every function, method and class defined in a
    module, and of every module-level constant and class attribute,
    dunders left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    names = list(assigned_names(tree.body))
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append((node.name, node.lineno))
        if isinstance(node, ast.ClassDef):
            names.extend(assigned_names(node.body))
    return [
        (name, line)
        for name, line in names
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


def references(node, local=frozenset()):
    """Every Name read under the node that is not a binding of an enclosing
    function or comprehension, every Attribute and every import alias."""
    if isinstance(node, SCOPES):
        local = local | local_bindings(node)
    if isinstance(node, ast.Name):
        if isinstance(node.ctx, ast.Load) and node.id not in local:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rpartition(".")[2]
        if node.asname:
            yield node.asname
    for child in ast.iter_child_nodes(node):
        yield from references(child, local)


def referenced_names(paths):
    names = set()
    for path in paths:
        names.update(references(ast.parse(path.read_text(encoding="utf-8"))))
    return names


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
        users = [path for part in ("src", "scripts", "bench") for path in (ROOT / part).rglob("*.py")]
        used = referenced_names(users)
        unused = [
            f"{path.name}:{line} {name}"
            for path in modules
            for name, line in defined_names(path)
            if name not in used
        ]
        assert unused == []

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
        assert sorted(name for name, _ in defined_names(source)) == [
            "FIRST", "Holder", "LIMIT", "SECOND", "field", "method", "shared"
        ]

    def test_incidence_tables_built_only_at_decision_entries(self):
        built = {
            (path.name, function, line)
            for path in sorted((ROOT / "src" / "quadricheck").glob("*.py"))
            for function, line in constructions_of(path, "IncidenceTable")
        }
        assert built
        assert sorted(b for b in built if b[:2] not in TABLE_BUILDERS) == []
