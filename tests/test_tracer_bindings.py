"""The benchmark tracer's wrapped bindings still exist in the package.

``perfbench/tracer.py`` replaces each function it times under every name a
caller looks it up by, reading the original from the module's ``__dict__``.
A binding that is renamed or deleted in ``src/`` breaks only the traced
benchmark run, with a ``KeyError``; these tests catch it in the suite.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
MODULES = (
    "cli", "reporting", "fileio", "sources", "omniscience", "simplex",
    "tightness", "dependence",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_modules():
    return {name: importlib.import_module(f"omniscio.{name}") for name in MODULES}


def test_every_wrapped_binding_is_bound():
    tracer = load_tracer()
    modules = package_modules()
    sites = [site for _, group in tracer.WRAPPED_CALLS for site in group]
    sites += [site for _, _, group in tracer.WRAPPED_GENERATORS for site in group]
    missing = [
        f"{mod}.{attr}" for mod, attr in sites if attr not in modules[mod].__dict__
    ]
    assert missing == []
    assert "system" in modules["omniscience"].ConstraintFamily.__dict__


def test_install_then_restore_leaves_every_original():
    tracer = load_tracer()
    tr = tracer.Tracer()
    try:
        tr.install(package_modules())
    finally:
        unrestored = tr.restore()
    assert unrestored == []
