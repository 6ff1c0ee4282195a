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


def module_names(tree: ast.Module) -> list[str]:
    """The names the module's top-level functions, classes and assignments bind."""
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [name.id for target in targets for name in ast.walk(target) if isinstance(name, ast.Name)]
    return bound


def unread_private_names(source: str) -> list[str]:
    """Module-level private names (a `_name` function, class or assignment,
    dunders excepted) that nothing in the module reads."""
    tree = ast.parse(source)
    bound = module_names(tree)
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


def public_names(source: str) -> list[str]:
    """Module-level names that do not start with an underscore."""
    return [name for name in module_names(ast.parse(source)) if not name.startswith("_")]


def package_reads(source: str, module: str | None = None) -> set[tuple[str, str]]:
    """The (module, name) pairs of the package's module-level names that a
    file reads: the names it imports from a package module, the attributes
    it reads off a package module it imported, and, when the file is the
    package module `module`, every name it loads."""
    modules: dict[str, str] = {}  # local name -> package module
    reads: set[tuple[str, str]] = set()
    nodes = list(ast.walk(ast.parse(source)))
    for node in nodes:
        if isinstance(node, ast.ImportFrom):
            target = node.module if node.level == 0 else ".".join(filter(None, (SRC.name, node.module)))
            for alias in node.names:
                if target == SRC.name:
                    modules[alias.asname or alias.name] = alias.name
                elif target.startswith(SRC.name + "."):
                    reads.add((target.split(".")[1], alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith(SRC.name + ".") and alias.asname:
                    modules[alias.asname] = alias.name.split(".")[1]
    for node in nodes:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            reads.add((modules[node.value.id], node.attr))
        elif module and isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add((module, node.id))
    return reads


def test_public_name_checkers() -> None:
    assert public_names("A = 1\n_B = 2\nC: int = 3\nclass K: ...\ndef f(): x = 1\ndef _g(): pass\n") == [
        "A", "C", "K", "f"
    ]
    source = (
        "from . import dsl as d, metrics\nfrom .seeds import make_name\nfrom evofactor.cli import main\n"
        "import evofactor.portfolio as pf\nfrom os import path\n"
        "d.parse(metrics.mean_std, pf.trade, path.sep, seed_factors, dsl.x)\n"
    )
    assert package_reads(source) == {
        ("dsl", "parse"), ("metrics", "mean_std"), ("seeds", "make_name"), ("cli", "main"), ("portfolio", "trade")
    }
    assert ("generator", "seed_factors") in package_reads(source, "generator")


# Public names that nothing in src/, demos/ or perfbench/ reads, each with
# the reason it stays public rather than private or gone.
UNREAD_PUBLIC = {
    ("metrics", "rank_icir"): "RankICIR, which README lists among the metrics, for library users",
}


def test_public_names_are_read_outside_the_tests() -> None:
    root = SRC.parents[1]
    reads: set[tuple[str, str]] = set()
    for path in [*SRC.glob("*.py"), *root.glob("demos/*.py"), *root.glob("perfbench/*.py")]:
        reads |= package_reads(path.read_text(), path.stem if path.parent == SRC else None)
    public = {(path.stem, name) for path in SRC.glob("*.py") for name in public_names(path.read_text())}
    assert sorted(public - reads) == sorted(UNREAD_PUBLIC)


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
