"""Source hygiene checks over src/evofactor that no installed linter runs."""
from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "evofactor"


def unused_imports(source: str) -> list[str]:
    """Names bound by the module's top-level imports that nothing reads."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


def test_unused_imports_checker() -> None:
    source = "from __future__ import annotations\nimport os.path\nimport re\nfrom typing import Mapping, Sequence\n"
    assert unused_imports(source + "x: Sequence[int] = []\nos.path.join('a')\n") == ["re", "Mapping"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path: Path) -> None:
    assert unused_imports(path.read_text()) == []


def unread_private_names(source: str) -> list[str]:
    """Module-level private names (a `_name` function, class or assignment,
    dunders excepted) that nothing in the module reads."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    private = [name for name in bound if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))]
    return [name for name in private if name not in read]


def test_unread_private_names_checker() -> None:
    source = (
        "__all__ = ['f']\n_A, _B = 1, 2\n_C: int = 3\nclass _K: ...\n"
        "def _g(): return _A\ndef _h(): pass\ndef f(): _C = 4; return _h()\n"
    )
    assert unread_private_names(source) == ["_B", "_C", "_K", "_g"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unread_private_names(path: Path) -> None:
    assert unread_private_names(path.read_text()) == []


# Outside the standard library a module may import only these; scipy, for
# one, is a test dependency and no runtime one.
RUNTIME_PACKAGES = {"numpy", "requests"}


def imported_packages(source: str) -> set[str]:
    """The top-level package of every absolute import in the module, those
    inside functions included; relative imports stay in the package."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_imported_packages_checker() -> None:
    source = "import os.path\nfrom . import dsl\nfrom .seeds import x\ndef f():\n    from scipy import stats\n"
    assert imported_packages(source) == {"os", "scipy"}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_the_standard_library_numpy_and_requests(path: Path) -> None:
    assert imported_packages(path.read_text()) - sys.stdlib_module_names - RUNTIME_PACKAGES == set()
