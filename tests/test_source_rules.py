"""Rules every module under src/contextua keeps, checked on its syntax tree."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "contextua"


def test_modules_use_no_assert_and_import_no_private_name():
    """``python -O`` strips ``assert`` statements, so checks raise typed
    errors; and a module reaches another module through its public names."""
    asserts, private = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Assert):
                asserts.append(f"{path.name}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom):
                private += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_")
                ]
    assert asserts == [], asserts
    assert private == [], private


def test_modules_import_only_the_standard_library_and_each_other():
    """The package has no runtime dependency: numpy and scipy serve the tests."""
    foreign = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            foreign += [
                f"{path.name}:{node.lineno} imports {name}"
                for name in names
                if name.partition(".")[0] not in sys.stdlib_module_names
            ]
    assert foreign == [], foreign
