"""Every module-level function and class in ``src/nrrw`` has a reader in
``src/nrrw``: code whose only reader is a test belongs under ``tests/``.
Decorated definitions, such as the suites and the CLI commands, which
register themselves, are exempt."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nrrw"


def names(node: ast.AST):
    """Every name ``node`` reads, imports or looks up as an attribute."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_definition_in_src_has_a_reader_in_src():
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(SRC.glob("*.py"))}
    read = Counter(n for tree in trees.values() for n in names(tree))
    unread = [f"{file}: {d.name}" for file, tree in trees.items()
              for d in tree.body
              if isinstance(d, (ast.FunctionDef, ast.ClassDef))
              and not d.decorator_list
              and read[d.name] == Counter(names(d))[d.name]]
    assert unread == []
