"""Every function the benchmark's span tracer wraps must still exist under the
name it is traced by, or a traced run loses that layer without an error."""

import importlib
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
