"""The traced benchmark's targets still exist in the package.

`perfbench/tracer.py` wraps every (namespace, name) in its TARGETS table; a
name deleted from the package makes a traced benchmark run (`--trace 1`)
raise KeyError.  The tracer module is loaded by path under its own name and
only read.
"""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("aircover_tests_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    assert tracer.TARGETS
    missing = [(path, attr) for path, attr, _ in tracer.TARGETS
               if attr not in tracer._resolve(path).__dict__]
    assert missing == []


def test_install_then_uninstall_restores_every_name():
    tracer = load_tracer().Tracer()
    try:
        tracer.install(0)
    finally:
        broken = tracer.uninstall()
    assert broken == []
