"""Every function the benchmark's span tracer wraps must still exist under the
name it is traced by, or a traced run loses that layer without an error."""

import dataclasses
import importlib
import pkgutil
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    """``TRACED`` of the tracer module, executed from source so that nothing
    (not even a bytecode cache) is written next to it."""
    namespace = {"__name__": "perfbench_tracer"}
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), namespace)
    return namespace["TRACED"]


def test_traced_names_resolve():
    traced = _traced()
    assert traced
    for modname, attr, span in traced:
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{span}: {modname}.{attr} is gone"
            obj = getattr(obj, part)
        assert callable(obj), f"{span}: {modname}.{attr} is not callable"


def _held(value, path, depth):
    """(path, item) for every item of the dicts, tuples, lists and dataclass
    rows that ``value`` holds, up to ``depth`` containers deep."""
    if depth == 0:
        return
    if isinstance(value, dict):
        items = [(f"[{key!r}]", item) for key, item in value.items()]
    elif isinstance(value, (tuple, list)):
        items = [(f"[{i}]", item) for i, item in enumerate(value)]
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        items = [(f".{f.name}", getattr(value, f.name)) for f in dataclasses.fields(value)]
    else:
        return
    for key, item in items:
        yield path + key, item
        yield from _held(item, path + key, depth - 1)


def test_traced_functions_are_called_by_their_names():
    """The tracer replaces module attributes, so a traced function that a
    table holds is called past its wrapper and its layer reads 0."""
    traced = {}
    for modname, attr, span in _traced():
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part)
        traced[id(obj)] = span  # obj is a module attribute, so its id stays its own
    package = importlib.import_module("presdim")
    modules = [package] + [
        importlib.import_module(f"presdim.{info.name}") for info in pkgutil.iter_modules(package.__path__)
    ]
    held = [
        f"{module.__name__.removeprefix('presdim.')}.{path} holds {traced[id(item)]}"
        for module in modules
        for name, value in vars(module).items()
        for path, item in _held(value, name, 3)
        if id(item) in traced
    ]
    assert not held, held
