"""The traced benchmark's targets still exist in the package, and its self-checks hold.

`perfbench/tracer.py` wraps every (namespace, name) in its TARGETS table; a
name deleted from the package makes a traced benchmark run (`--trace 1`)
raise KeyError, and a changed call pattern or result shape fails one of
`layer_metrics`'s checks.  The tracer module is loaded by path under its own
name and only read.
"""

import importlib.util
from pathlib import Path

from aircover.cli import bundled_scenario, main, parse_config

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


def test_traced_trio_run_passes_the_self_checks(tmp_path):
    # A traced benchmark run in miniature: 12 steps of the bundled trio
    # through the CLI, with every artifact written.
    module = load_tracer()
    text = bundled_scenario("trio")
    config = tmp_path / "trio.cfg"
    config.write_text(text)
    tracer = module.Tracer()
    tracer.install(0)
    try:
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "out"),
                     "--emit", "trace,summary,plotdata", "--steps", "12"])
    finally:
        broken = tracer.uninstall()
    assert code == 0 and broken == []
    _, checks = module.layer_metrics(tracer, 3, parse_config(text).hole_check_every)
    assert checks and all(checks.values()), checks
