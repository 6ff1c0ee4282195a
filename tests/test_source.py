"""Source hygiene checks over src/evofactor that no installed linter runs."""
from __future__ import annotations

import ast
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
