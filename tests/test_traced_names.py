"""Every function the benchmark's tracer wraps must still exist.

The tracer raises on a listed name that is gone; without this test only a
traced benchmark run would notice a rename.
"""

import importlib
import importlib.util
import os

from facetrank import text_metrics

TRACER_PATH = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracer.py")


def _load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookup(layer, name):
    """The function a traced name binds: a module function or a class's method."""
    owner = importlib.import_module(f"facetrank.{layer}")
    *cls, attr = name.split(".")
    if cls:
        return vars(getattr(owner, cls[0])).get(attr)
    return getattr(owner, attr, None)


def test_every_traced_name_installs_and_uninstalls():
    tracer_module = _load_tracer_module()
    traced = [(layer, name) for layer, names in tracer_module.TRACED.items()
              for name in names]
    originals = [_lookup(layer, name) for layer, name in traced]
    tracer = tracer_module.Tracer({}, text_metrics.tokenize)
    try:
        tracer.install()  # raises on a traced name that is gone
    finally:
        tracer.uninstall()
    assert [_lookup(layer, name) for layer, name in traced] == originals
