"""Tests of the benchmark itself: the metrics contract of run.py, the
seeded generator, the independent reference, and that the tracer leaves
`sfrac` exactly as it found it.

    python3 -m pytest perfbench/tests
"""

import itertools
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import sfrac
import sfrac.cli
from checks import ReferenceOperator
from sfrac.coeff import check_conditions, make_profile
from sfrac.grid import BoxDomain, Grid, Operators, RealField
from sfrac.oracle import closed_form_P_alpha
from tracer import TARGETS, Tracer, layer_metrics, peak_alloc_mb
from workloads import WORKLOADS, Coefficient

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(workload, trace, cwd=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", str(seconds), "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=600)


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in spec()["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload,trace",
                         list(itertools.product(WORKLOADS, (0, 1))))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 2
    declared = spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])
    if not trace:
        for name in ("latency_p50_s", "setup_s", "peak_rss_mb",
                     "throughput_ops_s", "accuracy_digits"):
            assert result["metrics"][name]["value"] > 0


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("certify-1d", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# Generator


def test_stream_depends_only_on_the_seed():
    for w in WORKLOADS.values():
        a = [op.config for op in itertools.islice(w.stream(7), 12)]
        b = [op.config for op in itertools.islice(w.stream(7), 12)]
        c = [op.config for op in itertools.islice(w.stream(8), 12)]
        assert a == b
        assert a != c


def test_generated_coefficients_pass_the_hypothesis_report():
    for w in WORKLOADS.values():
        for seed in range(12):
            for op in itertools.islice(w.stream(seed), 16):
                lengths = op.config["domain"]["lengths"]
                profiles = [make_profile(ax + 1, text, lengths[ax])
                            for ax, text in enumerate(op.config["coefficients"])]
                assert check_conditions(profiles, lengths).pass_, op.config


def test_certify_covers_both_parities_and_both_coefficient_kinds():
    ops = list(itertools.islice(WORKLOADS["certify-1d"].stream(3), 16))
    assert {op.config["grid"]["n"][0] % 2 for op in ops} == {0, 1}
    assert {op.coefficients[0].family == "const" for op in ops} == {True, False}


# ---------------------------------------------------------------------------
# Reference


def test_reference_matches_the_oracle_for_constant_coefficients():
    grid = Grid(BoxDomain((1.3, 2.0)), (7, 6))
    ops = Operators(grid, [make_profile(ax + 1, "1.4", L)
                           for ax, L in enumerate((1.3, 2.0))])
    v = np.random.default_rng(1).standard_normal(grid.n)
    want = closed_form_P_alpha(0.4, RealField(grid, v), ops).full.components
    ref = ReferenceOperator(grid.n, (1.3, 2.0), [Coefficient("const", 1.4)] * 2)
    got = ref.p_alpha(0.4, v)
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


def test_reference_spectrum_is_that_of_the_program_operator():
    grid = Grid(BoxDomain((2.0,)), (9,))
    coeff = Coefficient("sin", 0.2, 1.5)
    ops = Operators(grid, [make_profile(1, coeff.text, 2.0)])
    mu = np.sort(np.linalg.eigvals(ops.dense_L()).real)
    ref = ReferenceOperator(grid.n, (2.0,), [coeff])
    assert np.allclose(np.sort(ref.lam.reshape(-1)), mu, atol=1e-10 * mu[-1])


# ---------------------------------------------------------------------------
# Tracer


def _sfrac_namespace():
    """Every attribute of every sfrac module and class, by identity."""
    out = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "sfrac" or name.startswith("sfrac."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for k, v in vars(value).items():
                        out[(name, attr, k)] = v
    return out


def _tiny_palpha(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "domain": {"dims": 3, "lengths": [1.0, 1.0, 1.0]},
        "grid": {"n": [3, 3, 3]}, "coefficients": ["1", "1", "1"],
        "alpha": 0.5, "task": "palpha"}))
    return [str(cfg), "--out", str(tmp_path / "out"), "--threads", "2"]


def test_tracer_restores_every_wrapped_name(tmp_path):
    before = _sfrac_namespace()
    tracer = Tracer()
    with tracer:
        assert tracer.installed
        assert sfrac.cli.main is not before[("sfrac.cli", "main")]
        assert sfrac.cli.check_conditions is not before[
            ("sfrac.cli", "check_conditions")]
        tracer.op = 0
        assert sfrac.cli.main(_tiny_palpha(tmp_path)) == 0
    assert not tracer.installed
    assert tracer.missing == []
    after = _sfrac_namespace()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)

    # an untraced run afterwards records nothing
    count = len(tracer.spans)
    assert sfrac.cli.main(_tiny_palpha(tmp_path)) == 0
    assert len(tracer.spans) == count


def test_traced_spans_give_the_layer_counts(tmp_path):
    tracer = Tracer(track_alloc=True)
    with tracer:
        tracer.op = 0
        assert sfrac.cli.main(_tiny_palpha(tmp_path)) == 0
    spans = tracer.spans
    root = [s for s in spans if s.name == "cli.main"]
    assert len(root) == 1 and root[0].parent is None
    by_id = {s.id: s for s in spans}
    # node solves on pool threads hang under the frac span waiting for them
    frac = next(s for s in spans if s.name == "frac.apply")
    workers = [s for s in spans if s.thread != root[0].thread]
    assert workers
    for s in workers:
        chain = s
        while chain.parent is not None and chain.thread != root[0].thread:
            chain = by_id[chain.parent]
        assert chain is frac
    m = layer_metrics(spans, {0: root[0].duration}, threads=2)
    assert m["resolvent.factorizations"] == 128
    assert m["frac.nodes"] == 128
    assert m["resolvent.rhs_columns"] == 64 * 8 + 64 * 4
    assert 0 < m["resolvent.useful_rhs_share"] < 1
    assert 0 < m["resolvent.busy_share"] <= 1
    assert m["cli.artifact_bytes"] > 0
    assert peak_alloc_mb(spans) > 0


def test_absent_target_is_skipped_not_fatal(monkeypatch):
    import tracer as tracer_module

    monkeypatch.setattr(tracer_module, "TARGETS", TARGETS + (
        ("sfrac.frac", "no_such_function", "frac.gone", None),
        ("sfrac.grid", "NoSuchClass.method", "grid.gone", None)))
    tracer = Tracer()
    with tracer:
        pass
    assert tracer.missing == ["sfrac.frac.no_such_function",
                              "sfrac.grid.NoSuchClass.method"]
    assert layer_metrics([], {}, 1)["resolvent.useful_rhs_share"] == 0.0
