"""No module in src/clarklab or tests/ imports a name it never uses.

No linter is part of the test environment, so each module is parsed with
``ast`` and its imported names are checked against the names it reads.
The package's ``__init__.py`` is skipped: it imports in order to
re-export.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in [*(ROOT / "src" / "clarklab").glob("*.py"),
                             *(ROOT / "tests").glob("*.py")]
                 if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`; every use of a.b.c starts at Name `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_reference_flags_unused_names():
    source = "import os\nimport a.b as c\nfrom x import y, z\nprint(z)\n"
    assert unused_imports(source) == ["c", "os", "y"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
