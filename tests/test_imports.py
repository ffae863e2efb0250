"""networkx may be installed next to the package, but it is no declared
dependency (see ``pyproject.toml``), so no module of the package or of its
tests may import it. Every module declares its public names in ``__all__``."""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _imported_modules(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            yield node.module


def test_nothing_imports_networkx():
    files = sorted((ROOT / "src" / "presdim").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    offenders = [
        f"{path.relative_to(ROOT)}: {name}"
        for path in files
        for name in _imported_modules(path)
        if name.split(".")[0] == "networkx"
    ]
    assert offenders == []


def test_every_exported_name_resolves():
    # A stale ``__all__`` entry breaks only ``from presdim.module import *``.
    names = sorted(p.stem for p in (ROOT / "src" / "presdim").glob("*.py") if p.stem != "__init__")
    assert len(names) > 5
    for name in names:
        module = importlib.import_module(f"presdim.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name
