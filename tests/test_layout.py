"""The package holds only what the program uses: every function, method and
class defined in src/quadricheck is referenced from src/, scripts/ or
bench/, not only from the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
# scopes whose own bindings hide a definition of the same name
SCOPES = FUNCTIONS + (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def defined_names(path):
    """(name, line) of every function, method and class defined in a
    module, dunders left out."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
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
