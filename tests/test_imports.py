"""networkx may be installed next to the package, but it is no declared
dependency (see ``pyproject.toml``), so no module of the package or of its
tests may import it. Every module declares its public names in ``__all__``.
No verb imports ``numpy.ma``, and no single-process run a process pool.
Every module parses under the Python 3.10 grammar, the ``requires-python``
floor. Only ``util`` parses JSON, so every document read goes through its
one loader and member reader, and only ``util`` parses text tables, so every
edge list, metric and point set read goes through its one row parser. Only
``util`` imports ``ctypes``, and the package's one ``np.linalg.eigvalsh``
runs inside ``graph.spectrum_top2`` under ``util.one_blas_thread``, so no
eigenvalue read leaves a second BLAS thread spinning unnoticed."""

import ast
import importlib
import os
import re
import subprocess
import sys
import textwrap
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


def test_every_module_parses_under_the_oldest_supported_grammar():
    # Checks the grammar only: the suite itself runs on one interpreter.
    floor = re.search(r'requires-python = ">=3\.(\d+)"', (ROOT / "pyproject.toml").read_text())
    assert floor is not None
    files = sorted((ROOT / "src" / "presdim").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 10
    for path in files:
        ast.parse(path.read_text(), str(path), feature_version=(3, int(floor.group(1))))


def _json_parses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            yield node.lineno
        elif (isinstance(node, ast.Attribute) and node.attr in ("load", "loads")
              and isinstance(node.value, ast.Name) and node.value.id == "json"):
            yield node.lineno


def test_only_util_parses_json():
    files = sorted((ROOT / "src" / "presdim").rglob("*.py"))
    assert len(files) > 5
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in files
        if path.name != "util.py"
        for line in _json_parses(path)
    ]
    assert offenders == []


def _table_parses(path: Path):
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr == "loadtxt":
            yield node.lineno
        elif isinstance(node, ast.Import) and any(alias.name == "warnings" for alias in node.names):
            yield node.lineno


def test_only_util_parses_text_tables():
    files = sorted((ROOT / "src" / "presdim").rglob("*.py"))
    assert len(files) > 5
    offenders = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in files
        if path.name != "util.py"
        for line in _table_parses(path)
    ]
    assert offenders == []
    assert list(_table_parses(ROOT / "src" / "presdim" / "util.py"))


def test_only_util_imports_ctypes():
    files = sorted((ROOT / "src" / "presdim").rglob("*.py"))
    assert len(files) > 5
    importers = [path.name for path in files if "ctypes" in {name.split(".")[0] for name in _imported_modules(path)}]
    assert importers == ["util.py"]


def _eigvalsh_reads(tree: ast.AST):  # ``np.linalg.eigvalsh`` or ``from numpy.linalg import eigvalsh``
    return {
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "eigvalsh" or isinstance(node, ast.alias) and node.name == "eigvalsh"
    }


def test_the_one_eigvalsh_runs_on_one_blas_thread():
    files = sorted((ROOT / "src" / "presdim").rglob("*.py"))
    assert len(files) > 5
    reads = {(path.name, line) for path in files for line in _eigvalsh_reads(ast.parse(path.read_text(), str(path)))}
    graph = ast.parse((ROOT / "src" / "presdim" / "graph.py").read_text())
    spectrum = next(node for node in graph.body if isinstance(node, ast.FunctionDef) and node.name == "spectrum_top2")
    scoped = {
        ("graph.py", line)
        for node in ast.walk(spectrum)
        if isinstance(node, ast.With) and "one_blas_thread()" in map(ast.unparse, (item.context_expr for item in node.items))
        for line in _eigvalsh_reads(ast.Module(body=node.body, type_ignores=[]))
    }
    assert len(reads) == 1 and reads == scoped


def test_every_exported_name_resolves():
    # A stale ``__all__`` entry breaks only ``from presdim.module import *``.
    names = sorted(p.stem for p in (ROOT / "src" / "presdim").glob("*.py") if p.stem != "__init__")
    assert len(names) > 5
    for name in names:
        module = importlib.import_module(f"presdim.{name}")
        missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
        assert missing == [], name


# Runs every verb that reads or writes embeddings, and single-process
# experiments, in one process. numpy.ma costs about 1.1 MB resident, and
# np.unique or np.isin on floats import it; a process pool is needed only for
# --jobs > 1.
_VERBS_SCRIPT = textwrap.dedent("""
    import os, sys
    from presdim.cli import main
    from presdim.construct import BY_CLI
    os.chdir(sys.argv[1])
    assert main(["generate", "--family", "gnp", "--n", "14", "--p", "0.5", "--seed", "3", "--out", "g.el"]) == 0
    assert main(["analyze", "g.el", "--alpha", "1.5"]) == 0
    for tag in BY_CLI:
        alpha = {"collapse": "0.8", "simplex-jl": "0.8", "prop6": "1.5"}.get(tag, "1.0")
        out = f"{tag}.json"
        assert main(["embed", "g.el", "--construction", tag, "--alpha", alpha, "--seed", "1", "--out", out]) == 0
        level = {"collapse": "0.7", "simplex-jl": "0.7", "schoenberg": "0.9", "prop6": "1.4"}.get(tag, "1.5")
        assert main(["verify", "g.el", out, "--alpha", level]) in (0, 1)
    assert main(["doubling", "--embedding", "prop6.json"]) == 0
    assert main(["experiment", "--kind", "diameter2", "--n", "12", "--trials", "3", "--seed", "1", "--jobs", "1"]) == 0
    with open("sweep.cfg", "w") as fh:
        fh.write("family=gnp\\nn=10\\ntrials=2\\nalpha_grid=0.8,1.5\\n")
    assert main(["experiment", "--kind", "sweep", "--config", "sweep.cfg", "--out", "sweep.csv"]) == 0
    print(sorted({"numpy.ma", "concurrent.futures", "multiprocessing"} & sys.modules.keys()))
""")


def test_no_verb_imports_numpy_ma(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", _VERBS_SCRIPT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
