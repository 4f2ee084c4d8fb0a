import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "heckeiso"


def test_library_checks_survive_python_optimize():
    """`python -O` strips assert statements, so library checks raise explicitly."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found, found
