import ast
import pkgutil
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "satsvm"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py"))
# a Sphinx cross-reference and its target, ``~`` (show the last part only) aside
REFERENCE = re.compile(r":(?:func|class|data|meth):`~?([^`]*)`")


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


def _dead_private_names(sources: dict[str, str]) -> list[str]:
    """The private top-level functions, classes and assigned names of the
    modules ``sources`` (file name -> text) that no module reads, as a
    name or as an attribute; dunder names aside."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [f"{module}: {name} (line {node.lineno})" for name in names
                     if name.startswith("_") and not name.startswith("__") and name not in read]
    return dead


def test_every_private_name_is_read():
    assert _dead_private_names({module: (PACKAGE / module).read_text() for module in MODULES}) == []


def test_the_check_finds_an_unused_private_name():
    sources = {"a.py": "def _called(): pass\ndef _unused(): pass\n_LIMIT, _spare = 1, 2\n_typed: int = 3\n"
                       "class _Gone: pass\n__all__ = []\n",
               "b.py": "from .a import _called\n_called()\nlimit = a._LIMIT\n_typed = 4\n"}
    assert _dead_private_names(sources) == ["a.py: _unused (line 2)", "a.py: _spare (line 3)",
                                            "a.py: _typed (line 4)", "a.py: _Gone (line 5)",
                                            "b.py: _typed (line 4)"]


def _resolves(module: str, target: str) -> bool:
    """Whether ``target``, referred to in the package's ``module``, names
    an object: a fully qualified name, a name in another module of the
    package (``kernel.gram_matrix``) or a name in ``module`` itself
    (``_run_tail``, ``GridSpec.validated``)."""
    here = "satsvm" if module == "__init__.py" else f"satsvm.{module.removesuffix('.py')}"
    if target.startswith("satsvm."):
        name = target
    elif target.split(".")[0] + ".py" in MODULES:
        name = f"satsvm.{target}"
    else:
        name = f"{here}.{target}"
    try:
        pkgutil.resolve_name(name)
    except (ImportError, AttributeError, ValueError):  # ValueError: not a dotted name
        return False
    return True


def _unresolved_references(module: str, source: str) -> list[str]:
    """The cross-reference targets in ``source``, the text of the
    package's ``module``, that name no object."""
    return [target for target in REFERENCE.findall(source) if not _resolves(module, target)]


@pytest.mark.parametrize("module", MODULES)
def test_every_cross_reference_resolves(module):
    assert _unresolved_references(module, (PACKAGE / module).read_text()) == []


def test_the_check_finds_a_missing_reference():
    source = (":func:`fit` :func:`_gone` :meth:`TrainedModel.kernel` :func:`~satsvm.kernel.kernel_product`\n"
              ":data:`kernel.GONE` :class:`~satsvm.trainer.Gone` :func:`trainer.fit` :func:`split\nname`")
    assert _unresolved_references("trainer.py", source) == ["_gone", "kernel.GONE", "satsvm.trainer.Gone",
                                                            "split\nname"]
