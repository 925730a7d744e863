"""The benchmark tracer wraps `sfrac` functions by name (`TARGETS` in
perfbench/tracer.py) and silently skips a name it cannot resolve, which
would drop that layer's metrics to 0.  Renaming a traced function must
therefore fail here, at the rename; and since its hooks read attributes and
arguments of the calls they wrap, a traced run must still complete."""

import importlib
import importlib.util
import json
import pathlib
import sys

import numpy as np

from sfrac.cli import main
from sfrac.resolvent import ResolventWorkspace
from helpers import box_ops

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_traced_target_resolves():
    targets = load_tracer().TARGETS
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


def test_traced_verify_and_palpha_run_every_hook(tmp_path):
    # verify and palpha apply symbols of L and solve no node, so no
    # resolvent span opens there; a direct block solve runs those hooks
    tracer = load_tracer().Tracer()
    with tracer:
        for task in ("verify", "palpha"):
            path = tmp_path / f"{task}.json"
            path.write_text(json.dumps({
                "domain": {"dims": 1, "lengths": [1.0]}, "grid": {"n": [15]},
                "coefficients": ["1+0.1*x"], "task": task, "alpha": 0.5}))
            assert main([str(path), "--out", str(tmp_path / task)]) == 0
        names = {span.name for span in tracer.spans}
        assert "frac.apply" in names
        assert not any(name.startswith("resolvent.") for name in names)
        ops = box_ops((15,), ("1+0.1*x",))
        rhs = np.random.default_rng(0).standard_normal((4, ops.grid.N))
        ResolventWorkspace(ops, np.array([0.5, 2.0]))._solve_stack(rhs)
    assert tracer.missing == []
    names = {span.name for span in tracer.spans}
    assert {"resolvent.factor", "resolvent.solve"} <= names
