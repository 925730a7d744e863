"""The benchmark tracer wraps `sfrac` functions by name (`TARGETS` in
perfbench/tracer.py) and silently skips a name it cannot resolve, which
would drop that layer's metrics to 0.  Renaming a traced function must
therefore fail here, at the rename."""

import importlib
import importlib.util
import pathlib
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.TARGETS


def test_every_traced_target_resolves():
    targets = load_targets()
    assert len(targets) >= 23
    missing = []
    for module_name, target, _, _ in targets:
        # the same lookup as Tracer.install: attributes defined on the
        # module, or on the class itself for a "Class.method" target
        cls_name, _, attr = target.rpartition(".")
        owner = importlib.import_module(module_name)
        if cls_name:
            owner = getattr(owner, cls_name, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(f"{module_name}.{target}")
    assert missing == []
