"""Rules on the package source itself, checked by parsing it."""

import ast
import io
import tokenize
from pathlib import Path

import mismax

PACKAGE = Path(mismax.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _referenced_names(tree: ast.Module) -> set[str]:
    """Names a module loads, as a bare name or an attribute, outside the
    top-level definition of the same name; imports do not count."""
    names = set()
    for stmt in tree.body:
        used = {
            node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(stmt)
            if isinstance(node, (ast.Name, ast.Attribute))
        }
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            used.discard(stmt.name)
        names |= used
    return names


def test_every_public_name_has_a_caller_outside_tests():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    modules += sorted(PERFBENCH.glob("*.py"))
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in modules))
    assert sorted(set(mismax.__all__) - referenced) == []


def test_every_top_level_definition_has_a_caller_outside_tests():
    # a function or class that only tests call is not part of the program;
    # module dunders such as __getattr__ are called by the interpreter
    modules = sorted(PACKAGE.glob("*.py")) + sorted(PERFBENCH.glob("*.py"))
    referenced = set().union(*(_referenced_names(ast.parse(p.read_text())) for p in modules))
    defined = [
        f"{path.name}:{stmt.name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for stmt in ast.parse(path.read_text()).body
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
    ]
    assert [d for d in defined if d.split(":")[1] not in referenced] == []


def test_no_assert_statements():
    # python -O strips assert statements, so the library raises explicit errors
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_module_compiles_from_more_than_2000_tokens():
    # with no bytecode cache a command's peak memory is its largest
    # compile(), which grows with the module's code tokens: 1.82 MB of
    # traced memory for 3,785 tokens, 0.93 MB for 1,887 (Python 3.11)
    layout = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
              tokenize.DEDENT, tokenize.ENDMARKER}
    sizes = {
        path.name: sum(
            tok.type not in layout
            for tok in tokenize.generate_tokens(io.StringIO(path.read_text()).readline)
        )
        for path in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: size for name, size in sizes.items() if size > 2000} == {}
