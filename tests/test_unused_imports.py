import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "satsvm"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))


def _unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, ``__future__`` aside."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update({(a.asname or a.name): node.lineno for a in node.names})
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert _unused_imports((PACKAGE / module).read_text()) == []


def test_the_check_finds_an_unused_import():
    assert _unused_imports("import os\nfrom a import b, c as d\nos.sep\nd()\n") == ["b (line 2)"]
