"""The benchmark's tracer wraps library functions by name: every name it
lists must exist, or a renamed function would silently become an absent
layer whose metrics read 0."""

import importlib
import importlib.util
from pathlib import Path

LAYERS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves_in_the_package():
    layers = _load_layers()
    assert len(layers) >= 30
    for prefix, modname, path, _ in layers:
        owner = importlib.import_module(f"stdpairs.{modname}")
        for part in path.split("."):
            assert hasattr(owner, part), f"{prefix}: stdpairs.{modname}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{prefix}: stdpairs.{modname}.{path} is not callable"
