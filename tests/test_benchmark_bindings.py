"""The benchmark's tracer (perfbench/tracer.py) finds every textda name it
wraps, and puts each one back.

The tracer looks up its hand-kept lists of functions and methods with
getattr, so deleting or renaming one of them in src/ breaks every traced
benchmark run with an AttributeError. This test catches that in the tier-1
suite, without running the benchmark."""

import gc
import importlib.util
import inspect
import sys
from pathlib import Path

import textda.cli  # noqa: F401  (loads every textda module the tracer patches)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _textda_bindings() -> dict[tuple[str, str], object]:
    """Every attribute of every loaded textda module, and of every class
    such a module defines, keyed by (owner, attribute)."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "textda" and not mod_name.startswith("textda."):
            continue
        for attr, value in vars(mod).items():
            out[mod_name, attr] = value
            if inspect.isclass(value) and value.__module__ == mod_name:
                for cls_attr, cls_value in vars(value).items():
                    out[f"{mod_name}.{attr}", cls_attr] = cls_value
    return out


def test_tracer_finds_every_name_it_wraps_and_restores_them():
    tracer_mod = _load_tracer()
    before = _textda_bindings()
    callbacks = list(gc.callbacks)
    tracer = tracer_mod.Tracer()
    try:
        tracer.install()  # an AttributeError here names a wrapped function src/ no longer has
    finally:
        tracer.uninstall()
    after = _textda_bindings()
    assert after.keys() == before.keys()
    changed = [key for key, value in before.items() if after[key] is not value]
    assert not changed, changed
    assert gc.callbacks == callbacks
