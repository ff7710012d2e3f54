"""The package holds only what the program uses: every function, method and
class defined in src/quadricheck is referenced from src/, scripts/ or
bench/, not only from the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def defined_names(path):
    """(name, line) of every function, method and class defined in a
    module, dunders left out."""
    return [
        (node.name, node.lineno)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]


def referenced_names(paths):
    """Every Name, Attribute and import alias in the given sources."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
                if node.asname:
                    names.add(node.asname)
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
