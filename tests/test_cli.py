"""End-to-end tests of the ``sfrac`` command-line front end.

Everything runs in-process through ``sfrac.cli.main(argv)`` against JSON
configs in a temp directory, checking exit codes and the exact artifact
contracts (CSV headers, shortest round-trip decimals, flat JSON reports,
bit-identical reruns).
"""

import copy
import io
import json
import logging
import math
import os
import random
import re
import subprocess
import sys
import textwrap

import jsonschema
import numpy as np
import pytest

import sfrac
from sfrac.cli import (SCHEMA, ConfigError, _validate_config,
                       _write_fields_csv, main)
from sfrac.coeff import make_profile
from sfrac.frac import QuadratureSpec
from sfrac.grid import BoxDomain, Grid, Operators, QuatField, RealField
from sfrac.quat import J_E1
from engine import node_engine


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_box(task, n, coeffs, lengths, **extra):
    cfg = {
        "domain": {"dims": len(n), "lengths": list(lengths)},
        "grid": {"n": list(n)},
        "coefficients": list(coeffs),
        "task": task,
    }
    cfg.update(extra)
    return cfg


def base_1d(task, n=15, length=math.pi, coeff="1", **extra):
    return base_box(task, (n,), (coeff,), (length,), **extra)


def read_json(out_dir, name):
    with open(os.path.join(str(out_dir), name)) as fh:
        return json.load(fh)


def assert_reruns_bit_identical(tmp_path, cfg, artifact):
    path = write_cfg(tmp_path, cfg)
    outs = [tmp_path / f"out{i}" for i in range(3)]
    assert main([path, "--out", str(outs[0])]) == 0
    assert main([path, "--out", str(outs[1])]) == 0
    assert main([path, "--out", str(outs[2]), "--threads", "4"]) == 0
    ref = (outs[0] / artifact).read_bytes()
    assert (outs[1] / artifact).read_bytes() == ref
    # fixed reduction order keeps output identical across thread counts
    assert (outs[2] / artifact).read_bytes() == ref


# 2D 72^2: N = 5184, above DENSE_CAP and inside DEFAULT_CAPS
CONSTANT_72 = base_box("spectrum", (72, 72), ("1", "1"), (1.0, 1.0))
# 3D 18^3: N = 5832
VARIABLE_18 = base_box("spectrum", (18, 18, 18),
                       ("1+0.1*x", "exp(0.2*x)", "1+0.2*sin(2*x)"),
                       (1.0, 1.2, 0.9))


class TestSchemaRejection:
    def test_unknown_key_exits_1_before_any_work(self, tmp_path):
        cfg = base_1d("check")
        cfg["surprise"] = 1
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        # rejected before numerical work: output dir never created
        assert not out.exists()

    def test_type_mismatch_exits_1(self, tmp_path):
        cfg = base_1d("check")
        cfg["grid"]["n"] = ["fifteen"]
        assert main([write_cfg(tmp_path, cfg)]) == 1

    def test_missing_required_key_exits_1(self, tmp_path):
        cfg = base_1d("check")
        del cfg["task"]
        assert main([write_cfg(tmp_path, cfg)]) == 1

    def test_unknown_task_exits_1(self, tmp_path):
        assert main([write_cfg(tmp_path, base_1d("frobnicate"))]) == 1

    def test_malformed_json_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path)]) == 1
        # not UTF-8: this ended in a UnicodeDecodeError traceback
        path.write_bytes(b"\xff\xfe{}")
        assert main([str(path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert [line[:7] for line in lines] == ["error: "] * 2

    def test_missing_file_exits_1(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 1

    def test_dims_length_mismatch_exits_1(self, tmp_path):
        cfg = base_1d("check")
        cfg["domain"]["dims"] = 1
        cfg["domain"]["lengths"] = [1.0, 2.0]
        assert main([write_cfg(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize("bad, message", [
        ({"grid": {"n": [0]}}, "config.grid.n[0]: 0 is below the minimum 1"),
        ({"alpha": 1.5}, "config.alpha: 1.5 is not below 1"),
        ({"solver": {"method": "magic"}}, "config: unknown key 'solver'"),
        # two errors: the first in document order is reported
        ({"domain": {"dims": 5, "lengths": [1.0]}, "alpha": 1.5},
         "config.domain.dims: 5 is above the maximum 3"),
    ], ids=["n-zero", "alpha-above-1", "unknown-key", "two-errors"])
    def test_message_names_the_key_and_the_rule(self, tmp_path, capsys, bad,
                                                message):
        cfg = base_1d("palpha")
        cfg.update(bad)
        assert not jsonschema.Draft202012Validator(SCHEMA).is_valid(cfg)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_threads_below_one_exits_1(self, tmp_path):
        cfg = base_1d("check")
        assert main([write_cfg(tmp_path, cfg), "--threads", "0"]) == 1

    def test_solver_key_exits_1(self, tmp_path, capsys):
        # the coefficients pick the Q_t factorization; no key chooses it
        cfg = base_1d("palpha", alpha=0.5, solver={"method": "dense"})
        assert main([write_cfg(tmp_path, cfg)]) == 1
        assert capsys.readouterr().err == ("error: config: unknown key "
                                           "'solver'\n")

    def test_t_split_key_exits_1(self, tmp_path, capsys):
        # the quadrature split follows the spectrum of L; no key sets it
        cfg = base_1d("verify", quadrature={"t_split": 0.5})
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: config.quadrature: "
                                           "unknown key 't_split'\n")
        assert not out.exists()

    def test_j_key_exits_1(self, tmp_path, capsys):
        # the result does not depend on the imaginary unit; no key sets it
        cfg = base_1d("verify", quadrature={"j": "e3"})
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == ("error: config.quadrature: "
                                           "unknown key 'j'\n")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["n_sing", "n_tail"])
    def test_node_count_above_512_exits_1(self, tmp_path, capsys, key):
        # each node count costs a dense n x n eigh, doubled by verify
        cfg = base_1d("palpha", alpha=0.5, quadrature={key: 513})
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config.quadrature.{key}: 513 is above the maximum 512\n")
        assert not out.exists()
        cfg["quadrature"][key] = 512
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0

    # JSON Schema counts 64.0 as an integer; the node counts then crashed in
    # gauss_jacobi and snapshot_every in evolve, with a traceback
    @pytest.mark.parametrize("block, key, value, where", [
        ("domain", "dims", 1.0, "domain.dims"),
        ("grid", "n", [15.0], "grid.n[0]"),
        ("quadrature", "n_sing", 64.0, "quadrature.n_sing"),
        ("quadrature", "n_tail", 64.0, "quadrature.n_tail"),
        ("time", "snapshot_every", 2.0, "time.snapshot_every"),
    ], ids=["dims", "n", "n_sing", "n_tail", "snapshot_every"])
    def test_integral_float_for_an_integer_key_exits_1(self, tmp_path,
                                                       capsys, block, key,
                                                       value, where):
        cfg = base_1d("evolve", alpha=0.5, quadrature={},
                      time={"dt": 0.1, "t_end": 0.3})
        cfg[block][key] = value
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        shown = 15.0 if key == "n" else value
        assert capsys.readouterr().err == (
            f"error: config.{where}: {shown} is not an integer\n")
        assert not out.exists()

    # json.load reads NaN and +-Infinity; JSON Schema lets them through, and
    # an int beyond the largest float, which overflowed in BoxDomain with a
    # traceback
    @pytest.mark.parametrize("text", ["NaN", "Infinity", "-Infinity",
                                      "1" + "0" * 400],
                             ids=["NaN", "Infinity", "-Infinity", "1e400-int"])
    @pytest.mark.parametrize("path", ["domain.lengths", "alpha", "time.dt",
                                      "time.t_end"])
    def test_non_finite_number_exits_1(self, tmp_path, capsys, path, text):
        cfg = base_1d("evolve", alpha=0.5, time={"dt": 0.1, "t_end": 0.3})
        value = json.loads(text)
        if path == "alpha":
            cfg["alpha"] = value
        elif path == "domain.lengths":
            cfg["domain"]["lengths"] = [value]
        else:
            cfg["time"][path[5:]] = value
        where = "config." + path + ("[0]" if path == "domain.lengths" else "")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {where}: {text} is not a finite number\n")
        assert not out.exists()

    # alpha = 1e-17 rounds alpha - 1 to -1; the rules at 1 - 2^-53, and the
    # doubled rule of verify at 1e-12, are out of double precision
    @pytest.mark.parametrize("task, alpha", [
        ("palpha", 1e-17), ("verify", 1e-17), ("evolve", 1e-17),
        ("palpha", 1.0 - 2.0 ** -53), ("verify", 1.0 - 2.0 ** -53),
        ("evolve", 1.0 - 2.0 ** -53), ("verify", 1e-12)])
    def test_alpha_too_close_to_0_or_1_exits_1(self, tmp_path, capsys, task,
                                               alpha):
        cfg = base_1d(task, coeff="1+0.1*x", alpha=alpha)
        if task == "evolve":
            cfg["time"] = {"dt": 0.1, "t_end": 0.3}
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "too close to 0 or 1" in err
        assert os.listdir(out) == []

    @pytest.mark.parametrize("below", ["", "sub"])
    def test_unusable_output_directory_exits_1(self, tmp_path, capsys,
                                               below):
        # --out names an existing file, or a path under one
        blocker = tmp_path / "file"
        blocker.write_text("")
        cfg = write_cfg(tmp_path, base_1d("check"))
        assert main([cfg, "--out", str(blocker / below)]) == 1
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("task", ["palpha", "verify", "evolve"])
    def test_bad_initial_exits_1_before_the_conditions_gate(self, tmp_path,
                                                            capsys, task):
        # the conditions fail on this set (exit 2), but the config error
        # is found first
        cfg = base_1d(task, n=9, length=1.0, coeff="x-0.45", alpha=0.5,
                      initial="sin(", time={"dt": 0.1, "t_end": 0.3})
        if task != "evolve":
            del cfg["time"]
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert "conditions" not in capsys.readouterr().err
        assert os.listdir(out) == []


# every key of SCHEMA, each with a valid value
FULL_CONFIG = {
    "domain": {"dims": 3, "lengths": [1.0, 1.3, 0.8]},
    "grid": {"n": [8, 6, 4]},
    "coefficients": ["1", "1+0.1*x", "exp(0.2*x)"],
    "alpha": 0.5,
    "quadrature": {"n_sing": 64, "n_tail": 4},
    "task": "evolve",
    "initial": "x",
    "time": {"dt": 0.1, "t_end": 1.0, "scheme": "crank-nicolson",
             "snapshot_every": 2, "beta_mode": False},
    "output": {"dir": "out"},
}
# replacement values, half of them numbers: the bounds of SCHEMA and either
# side of them, integral and non-finite floats; and every other JSON type
NUMBERS = [-1, 0, 1, 2, 3, 4, 512, 513, 10 ** 400, -0.5, 0.0, 0.5, 1.0, 1.5,
           64.0, 1e-300, math.nan, math.inf, -math.inf]
OTHERS = [True, False, None, "check", "palpha", "explicit-rk4", "x", "", [],
          [1], [0.5], [1.0, 2.0, 3.0, 4.0], ["1"], {}, {"dir": "x"},
          {"n": [4]}]


def mutate(cfg, rng):
    """cfg after one random edit at a random node: a value replaced, a key
    deleted or added, a list item appended or removed, or a list or an
    object emptied."""
    nodes = [(None, None)]  # (container, key); (None, None) is the root
    stack = [cfg] if isinstance(cfg, (dict, list)) else []
    while stack:
        box = stack.pop()
        for key in (box if isinstance(box, dict) else range(len(box))):
            nodes.append((box, key))
            if isinstance(box[key], (dict, list)):
                stack.append(box[key])
    box, key = rng.choice(nodes)
    value = copy.deepcopy(rng.choice(rng.choice([NUMBERS, OTHERS])))
    edit = rng.randrange(4)
    if box is None:
        return value if edit == 0 else cfg
    if edit == 3 and isinstance(box[key], (dict, list)):
        box[key].clear()
    elif edit in (0, 3):
        box[key] = value
    elif edit == 1:
        del box[key]
    elif isinstance(box, dict):
        box[rng.choice(["surprise", "solver", "j", "dir", "n"])] = value
    else:
        box.append(value)
    return cfg


def has_integral_float_or_non_finite_number(value):
    if isinstance(value, (dict, list)):
        items = value.values() if isinstance(value, dict) else value
        return any(has_integral_float_or_non_finite_number(v) for v in items)
    if isinstance(value, int) and not isinstance(value, bool):
        return abs(value) > sys.float_info.max
    return isinstance(value, float) and (value.is_integer()
                                         or not math.isfinite(value))


class TestConfigChecker:
    def test_agrees_with_jsonschema_on_mutated_configs(self):
        # the checker against jsonschema on SCHEMA: the same verdict once
        # its types are the checker's (a number finite as a float, an int
        # integer), and a different one only where the config holds an
        # integral float or a non-finite number (an int beyond the largest
        # float included).  That int fails the `type` keyword only: the
        # bounds of jsonschema skip an instance that is not a "number"
        strict_types = jsonschema.Draft202012Validator.TYPE_CHECKER \
            .redefine_many({
                "integer": lambda _, v: (isinstance(v, int)
                                         and not isinstance(v, bool)),
                "number": lambda _, v: (isinstance(v, (int, float))
                                        and not isinstance(v, bool)
                                        and abs(v) < math.inf)})
        plain_type = jsonschema.Draft202012Validator.VALIDATORS["type"]

        def finite_type(validator, types, instance, schema):
            yield from plain_type(validator, types, instance, schema)
            if (types == "number" and validator.is_type(instance, "number")
                    and abs(instance) > sys.float_info.max):
                yield jsonschema.ValidationError("not a finite number")

        strict = jsonschema.validators.extend(
            jsonschema.Draft202012Validator, validators={"type": finite_type},
            type_checker=strict_types)(SCHEMA)
        plain = jsonschema.Draft202012Validator(SCHEMA)
        verdicts = []
        for seed in range(2000):
            rng = random.Random(seed)
            cfg = copy.deepcopy(FULL_CONFIG)
            for _ in range(rng.randint(1, 2)):
                cfg = mutate(cfg, rng)
            try:
                _validate_config(cfg)
                ok = True
            except ConfigError as exc:
                ok = False
                assert re.fullmatch(r"config[^:\n]*: [^\n]+", str(exc))
            assert ok == strict.is_valid(cfg), (seed, cfg)
            if ok != plain.is_valid(cfg):
                assert has_integral_float_or_non_finite_number(cfg), (seed,
                                                                   cfg)
            verdicts.append((ok, plain.is_valid(cfg)))
        # both verdicts are common, and the stricter types do bite
        assert 200 < sum(ok for ok, _ in verdicts) < 1800
        assert (False, True) in verdicts


class TestCheckTask:
    def test_constant_unit_cube_constants_exact(self, tmp_path):
        cfg = {
            "domain": {"dims": 3, "lengths": [math.pi, math.pi, math.pi]},
            "grid": {"n": [8, 8, 8]},
            "coefficients": ["1", "1", "1"],
            "task": "check",
        }
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rep = read_json(out, "report.json")
        assert rep["pass"] is True
        assert rep["k_const"] == 0.5
        assert rep["tau"] == 0.5
        assert rep["theta"] == 2.0 * math.sqrt(2.0)
        assert rep["c_omega"] == 1.0
        assert rep["phi_sup"] == 0.0
        for i in (1, 2, 3):
            assert rep[f"margin_{i}"] == 1.0
            assert rep[f"inf_a_{i}"] == 1.0
        assert rep["check_margins_positive"] is True
        assert rep["check_k_positive"] is True
        assert rep["check_coefficients_positive"] is True
        assert "domain_note" in rep
        meta = read_json(out, "run_meta.json")
        assert meta["task"] == "check"
        assert meta["force"] is False
        assert meta["threads"] == 1

    def test_steep_coefficients_exit_2(self, tmp_path):
        cfg = {
            "domain": {"dims": 3, "lengths": [10.0, 10.0, 10.0]},
            "grid": {"n": [8, 8, 8]},
            "coefficients": ["0.01+x^2"] * 3,
            "task": "check",
        }
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
        rep = read_json(out, "report.json")
        assert rep["pass"] is False
        assert rep["check_margins_positive"] is False


class TestSpectrumTask:
    def test_probe_artifact_tiny_grid(self, tmp_path):
        cfg = base_1d("spectrum", n=3)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        probe = read_json(out, "spectrum.json")
        assert probe["max_imag"] == 0.0
        assert probe["sphere_radii"] == []
        pts = np.array(probe["points"])
        assert pts.size == 6
        # composed second differences on 3 nodes: one null pair, one at
        # +/- sqrt(1/2)/h
        h = math.pi / 4.0
        r = math.sqrt(0.5) / h
        assert np.sum(np.abs(pts) < 1e-12) == 2
        assert np.allclose(np.sort(pts), [-r, -r, 0.0, 0.0, r, r], atol=1e-12)

    def test_reruns_above_dense_cap_are_bit_identical(self, tmp_path):
        assert_reruns_bit_identical(tmp_path, CONSTANT_72, "spectrum.json")

    @pytest.mark.parametrize("coeff", ["exp(0.2*x/1e-06)",
                                       "1+0.2*sin(x/1e-06)"])
    def test_micrometre_box_coefficients_are_accepted(self, tmp_path, coeff):
        # the derivative spot check runs in x/L, so a law written for a
        # box of side 1e-6 passes it as its unit-box form does
        cfg = base_1d("spectrum", n=15, length=1e-6, coeff=coeff)
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("coeff, length", [("1+0.2*sin(3000*x)", 1.0),
                                               ("1+0.2*sin(3*x)", 1e3)])
    def test_fast_coefficient_derivative_is_accepted(self, tmp_path, coeff,
                                                     length):
        # kL = 3000: the derivative spot check's gap is 1.5e-6 with a
        # two-point difference, above its 1e-6 limit, and at most 1.3e-10
        # with the five-point one
        cfg = base_1d("spectrum", n=15, length=length, coeff=coeff)
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 0


class TestPalphaTask:
    def test_fields_csv_contract(self, tmp_path):
        cfg = base_1d("palpha", n=31, alpha=0.5, initial="sin(x)")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        lines = (out / "fields.csv").read_text().splitlines()
        assert lines[0] == "x1,x2,x3,q0,q1,q2,q3"
        assert len(lines) == 1 + 31
        for row in lines[1:]:
            cells = row.split(",")
            assert len(cells) == 7
            # absent axes padded with zero coordinates
            assert cells[1] == "0.0" and cells[2] == "0.0"
            # every cell is the shortest decimal that round-trips
            for cell in cells:
                assert repr(float(cell)) == cell
        q0 = np.array([float(r.split(",")[3]) for r in lines[1:]])
        assert np.max(np.abs(q0)) > 0.1
        assert (out / "report.json").exists()
        meta = read_json(out, "run_meta.json")
        assert meta["task"] == "palpha"

    def test_fields_csv_exact_text(self, tmp_path):
        grid = Grid(BoxDomain((1.0,)), (3,))
        comps = np.array([[0.1, -0.0, 1e-17], [2.0, 0.0, -3.5],
                          [0.0, 0.0, 0.0], [1 / 3, -1e300, 5e-324]])
        path = tmp_path / "fields.csv"
        _write_fields_csv(str(path), QuatField(grid, comps))
        assert path.read_text() == (
            "x1,x2,x3,q0,q1,q2,q3\n"
            "0.25,0.0,0.0,0.1,2.0,0.0,0.3333333333333333\n"
            "0.5,0.0,0.0,-0.0,0.0,0.0,-1e+300\n"
            "0.75,0.0,0.0,1e-17,-3.5,0.0,5e-324\n")

    def test_missing_alpha_exits_1(self, tmp_path):
        cfg = base_1d("palpha", n=15)
        assert main([write_cfg(tmp_path, cfg)]) == 1

    def test_reruns_are_bit_identical(self, tmp_path):
        cfg = base_1d("palpha", n=21, alpha=0.3, coeff="1+0.1*x",
                      length=1.0, initial="x*(1-x)")
        assert_reruns_bit_identical(tmp_path, cfg, "fields.csv")

    @pytest.mark.parametrize("n", [20, 21])
    def test_default_solver_matches_dense(self, tmp_path, n, dense_route):
        # the CLI's exact powers against the quadrature's left form, by the
        # test's node engine on dense LU
        cfg = {
            "domain": {"dims": 2, "lengths": [1.0, 1.3]},
            "grid": {"n": [n, n - 4]},
            "coefficients": ["1+0.1*sin(x)", "exp(0.2*x)"],
            "task": "palpha", "alpha": 0.4,
            "initial": "x*(1-x)*y*(1.3-y)*(1+0.3*sin(3*x))",
        }
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        got = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)[:, 3:]
        grid = Grid(BoxDomain((1.0, 1.3)), (n, n - 4))
        ops = Operators(grid, (make_profile(1, "1+0.1*sin(x)", 1.0),
                               make_profile(2, "exp(0.2*x)", 1.3)))
        v = RealField.from_function(grid, lambda x, y: x * (1 - x) * y
                                    * (1.3 - y) * (1 + 0.3 * np.sin(3 * x)))
        [(ref, _)] = node_engine(QuadratureSpec(0.4), dense_route(ops),
                                 QuatField.from_real(v).components, (J_E1,))
        want = ref.reshape(4, -1).T
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_forced_run_with_non_positive_coefficient(self, tmp_path):
        # the exact powers serve the run, through the per-axis eig of L
        cfg = base_1d("palpha", n=9, length=1.0, coeff="x-0.45", alpha=0.5,
                      initial="x*(1-x)")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 0
        rows = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        assert rows.shape == (9, 7) and np.all(np.isfinite(rows))

    @pytest.mark.parametrize("task", ["spectrum", "palpha"])
    def test_defective_axis_block_exits_1(self, tmp_path, capsys, task):
        # samples -1, 1, 1 on n = 3: an axis block of L is a Jordan block,
        # so the per-axis eig has no basis to offer
        cfg = base_1d(task, n=3, length=1.0, alpha=0.5,
                      coeff="4*x-2+16*(x-0.25)*(0.75-x)")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "condition number" in err
        assert os.listdir(out) == []

    # n = 9 on [0, 1] samples x = 0.5 on the parity null pattern: a sample
    # there leaves that mode no left null vector, but the symbol of the
    # factorization is 0 on it all the same, so the run is well defined
    @pytest.mark.parametrize("task", ["palpha", "verify"])
    @pytest.mark.parametrize("n, coeffs", [
        ((9,), ("x-0.5",)), ((9, 5), ("x-0.5", "1"))])
    def test_forced_zero_sample_on_the_null_mode_computes(self, tmp_path,
                                                          task, n, coeffs):
        cfg = base_box(task, n, coeffs, (1.0,) * len(n), alpha=0.5)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 0
        if task == "palpha":
            rows = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
            assert len(rows) == np.prod(n) and np.all(np.isfinite(rows))
        else:
            checks = read_json(out, "verify.json")["checks"].values()
            assert all(c["pass"] and c["value"] <= c["tol"] for c in checks)

    @pytest.mark.parametrize("task", ["palpha", "verify"])
    def test_zero_coefficient_exits_1(self, tmp_path, capsys, task):
        # L = 0: every eigenvalue but the parity null mode is a kernel mode
        cfg = base_1d(task, n=9, length=1.0, coeff="0", alpha=0.5)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 1
        assert "exactly 0 off the parity null mode" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_grid_above_the_cap_exits_1(self, tmp_path, capsys):
        cfg = base_1d("palpha", n=2049, alpha=0.5)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: grid (2049,) exceeds the desk-scale cap (2048,)\n")
        assert os.listdir(out) == []


class TestConditionsGate:
    """The CLI checks the hypothesis conditions once per task that needs
    them; the library routes it calls do not check them again."""

    @pytest.mark.parametrize("task", ["palpha", "evolve", "verify"])
    def test_failed_conditions_gate_and_force(self, tmp_path, monkeypatch,
                                              task):
        from sfrac import cli
        artifact = {"palpha": "fields.csv", "evolve": "trace.csv",
                    "verify": "verify.json"}[task]
        calls = []
        check = cli.check_conditions
        monkeypatch.setattr(cli, "check_conditions",
                            lambda *a: calls.append(a) or check(*a))
        cfg = base_1d(task, n=15, alpha=0.5, coeff="0.01+x^2", length=10.0)
        if task == "evolve":
            cfg["time"] = {"dt": 0.1, "t_end": 0.3}
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([path, "--out", str(out)]) == 2
        assert not (out / artifact).exists()
        out2 = tmp_path / "out_forced"
        assert main([path, "--out", str(out2), "--force"]) == 0
        assert (out2 / artifact).exists()
        assert read_json(out2, "run_meta.json")["force"] is True
        assert len(calls) == 2  # one report per run


class TestEvolveTask:
    def test_trace_and_snapshot_artifacts(self, tmp_path):
        cfg = base_1d("evolve", n=15, alpha=0.6,
                      time={"dt": 0.1, "t_end": 0.5, "snapshot_every": 2})
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        lines = (out / "trace.csv").read_text().splitlines()
        assert lines[0] == "t,l2"
        assert len(lines) == 1 + 6  # t = 0.0 .. 0.5 in steps of 0.1
        assert lines[1].split(",")[0] == "0.0"
        times = [float(r.split(",")[0]) for r in lines[1:]]
        l2s = [float(r.split(",")[1]) for r in lines[1:]]
        assert abs(times[-1] - 0.5) < 1e-12
        assert all(b <= a * (1.0 + 1e-10) for a, b in zip(l2s, l2s[1:]))
        # snapshots: initial, steps 2 and 4, and the final step
        for idx in range(4):
            snap = (out / f"snap_{idx}.csv").read_text().splitlines()
            assert snap[0] == "x1,x2,x3,v"
            assert len(snap) == 1 + 15
        assert not (out / "snap_4.csv").exists()
        assert (out / "report.json").exists()

    def test_non_positive_coefficient_exits_1(self, tmp_path, capsys):
        # the generator is built from the symbols of L, which need every
        # coefficient sample positive
        cfg = base_1d("evolve", n=9, length=1.0, coeff="x-0.45", alpha=0.6,
                      time={"dt": 0.1, "t_end": 0.3})
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "--force"]) == 1
        err = capsys.readouterr().err
        assert "build_matrix needs coefficients positive" in err

    @pytest.mark.parametrize("n", [(15,), (7, 9)])
    def test_micrometre_box_runs(self, tmp_path, n):
        # a box of side 1e-6 scales G by about 1e9 per unit of alpha + 1;
        # on an all-odd grid the parity null mode leaves the symmetric
        # part a top eigenvalue of rounding size at that scale (~1e-6),
        # which the dissipativity check must not take for growth
        cfg = base_box("evolve", n, ("1",) * len(n), (1e-6,) * len(n),
                       alpha=0.5, time={"dt": 1e-12, "t_end": 1e-11})
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rows = (out / "trace.csv").read_text().splitlines()[1:]
        l2s = [float(r.split(",")[1]) for r in rows]
        assert len(l2s) == 11
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(l2s, l2s[1:]))

    @pytest.mark.parametrize("bad", [
        {"time": {"dt": 0.3, "t_end": 0.3}},
        {"time": {"dt": 0.1, "t_end": 0.3}, "initial": "sin("},
        # 2e6 steps, above the cap: ~115 bytes a step held 235 MB and wrote
        # a 78 MB trace.csv
        {"time": {"dt": 5e-7, "t_end": 1.0}}])
    def test_config_errors_exit_1_before_the_generator(self, tmp_path,
                                                       monkeypatch, bad):
        from sfrac import cli
        calls = []
        monkeypatch.setattr(cli, "build_matrix",
                            lambda *a, **k: calls.append(a))
        cfg = base_1d("evolve", n=15, alpha=0.6, **bad)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
        assert calls == []
        assert os.listdir(out) == []

    def test_above_dense_cap_exits_1(self, tmp_path, capsys):
        # the one dense cap of the package, with its one message
        cfg = dict(CONSTANT_72, task="evolve", alpha=0.5,
                   time={"dt": 0.1, "t_end": 0.3})
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (
            "error: dense materialization capped at N <= 5000\n")

    def test_missing_time_block_exits_1(self, tmp_path):
        cfg = base_1d("evolve", n=15, alpha=0.6)
        assert main([write_cfg(tmp_path, cfg)]) == 1

    def test_heat_flux_mode_needs_alpha_above_half(self, tmp_path):
        cfg = base_1d("evolve", n=15, alpha=0.4,
                      time={"dt": 0.1, "t_end": 0.3, "beta_mode": True})
        assert main([write_cfg(tmp_path, cfg)]) == 1

    def test_heat_flux_mode_runs(self, tmp_path):
        cfg = base_1d("evolve", n=15, alpha=0.75,
                      time={"dt": 0.1, "t_end": 0.3, "beta_mode": True})
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        assert (out / "trace.csv").exists()


class TestVerifyTask:
    def test_passes_on_constant_coefficients(self, tmp_path):
        cfg = base_1d("verify", n=31)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rep = read_json(out, "verify.json")
        assert rep["pass"] is True
        for name in ("known_integral", "left_right_gap", "j_independence",
                     "quadrature_doubling", "j_leak", "closed_form_gap"):
            entry = rep["checks"][name]
            assert entry["pass"] is True
            assert entry["value"] <= entry["tol"]
        # these compare the quadrature's right form with the left form, two
        # forms that agree to rounding, not bit for bit
        for name in ("left_right_gap", "j_independence", "j_leak"):
            assert rep["checks"][name]["value"] > 0.0
        # the certificate is reported beside the checks, not among them
        assert set(rep) == {"checks", "pass", "quadrature_certificate"}
        cert = rep["quadrature_certificate"]
        assert set(cert) == {"scal", "vec"}
        assert 0.0 < cert["scal"] <= 1e-12 and 0.0 < cert["vec"] <= 1e-12

    def test_symbols_once_per_rule(self, tmp_path, monkeypatch):
        # the base rule's symbols serve the quadrature's right form and the
        # certificate; the doubled rule's serve quadrature_doubling
        from sfrac import cli, frac
        calls = []
        original = frac.symbols

        def counting(spec, *args):
            calls.append(spec.n_sing + spec.n_tail)
            return original(spec, *args)

        monkeypatch.setattr(frac, "symbols", counting)
        monkeypatch.setattr(cli, "symbols", counting)
        cfg = base_1d("verify", n=31)
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 0
        assert sorted(calls) == [128, 256]

    def test_forced_dense_run_with_non_positive_coefficient(self, tmp_path):
        # the exact powers and the quadrature serve the run through the
        # per-axis eig of L, and the certificate takes its eigenvalues too
        cfg = base_1d("verify", n=9, length=1.0, coeff="x-0.45")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 0
        rep = read_json(out, "verify.json")
        assert rep["pass"] is True
        assert max(rep["quadrature_certificate"].values()) <= 1e-12
        assert rep["checks"]["closed_form_gap"]["pass"] is True

    @pytest.mark.parametrize("coeff, radius", [("x-0.45", "0.131"),
                                               ("x-0.3", "0.152")])
    def test_spectral_sphere_on_the_path_exits_1(self, tmp_path, capsys,
                                                 coeff, radius):
        # 1D 64: L has two real eigenvalues below 0, whose spheres meet the
        # path -jR; --force does not make P_alpha exist, and spectrum lists
        # the radii
        for task in ("palpha", "verify"):
            cfg = base_1d(task, n=64, length=1.0, coeff=coeff, alpha=0.5)
            out = tmp_path / task
            assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                         "--force"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "spectral sphere" in err
            assert f"radius {radius}" in err
            assert os.listdir(out) == []
        cfg = base_1d("spectrum", n=64, length=1.0, coeff=coeff)
        out = tmp_path / "spectrum"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        radii = read_json(out, "spectrum.json")["sphere_radii"]
        assert [f"{r:.3g}" for r in radii] == [radius] * 2

    def test_exact_zero_of_L_off_the_null_mode_exits_1(self, tmp_path,
                                                       capsys):
        # 1D 9 `x-0.4`: the sample 0 at x = 0.4, off the parity null
        # pattern, gives L two exact zeros off its structural one, kernel
        # modes where P_alpha is not defined; --force does not make it
        # exist, and spectrum still runs
        for task in ("palpha", "verify"):
            cfg = base_1d(task, n=9, length=1.0, coeff="x-0.4", alpha=0.5)
            out = tmp_path / task
            assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                         "--force"]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: L has 2 eigenvalue(s) exactly 0 "
                                  "off the parity null mode")
            assert os.listdir(out) == []
        cfg = base_1d("spectrum", n=9, length=1.0, coeff="x-0.4")
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "spectrum")]) == 0

    @pytest.mark.parametrize("coeff", ["1", "1+0.1*sin(x)"])
    def test_passes_on_a_fine_grid(self, tmp_path, coeff):
        # the split follows the spectrum, whose top grows like 1/h^2; the
        # fixed split t_split = 1 failed quadrature_doubling here (~1e-5)
        cfg = base_1d("verify", n=1023, length=1.0, coeff=coeff)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rep = read_json(out, "verify.json")
        # the quadrature against the exact powers, on every positive set
        assert rep["checks"]["closed_form_gap"]["value"] <= 1e-12
        assert max(rep["quadrature_certificate"].values()) <= 1e-12

    def test_j_leak_is_relative_to_the_field(self, tmp_path):
        # j_leak is the left passes' max-norm gap over the result's
        # max-norm, so scaling the field by 1e9 leaves the verdict alone
        cfg = base_1d("verify", n=31, length=1.0, coeff="1+0.1*x",
                      initial="1e9*x*(1-x)")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rep = read_json(out, "verify.json")
        assert rep["pass"] is True
        assert 0.0 < rep["checks"]["j_leak"]["value"] <= 1e-14

    def test_coarse_quadrature_exits_4(self, tmp_path):
        cfg = base_1d("verify", n=31,
                      quadrature={"n_sing": 4, "n_tail": 4})
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 4
        rep = read_json(out, "verify.json")
        assert rep["pass"] is False
        assert rep["checks"]["quadrature_doubling"]["pass"] is False


class TestAboveDenseCap:
    """spectrum and verify on grids with N > DENSE_CAP inside the caps:
    the spectrum and the exact powers come from the per-axis
    factorization of L, so no dense N x N matrix is needed."""

    def test_constant_2d_spectrum_matches_the_analytic_oracle(self,
                                                              tmp_path):
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, CONSTANT_72), "--out",
                     str(out)]) == 0
        probe = read_json(out, "spectrum.json")
        assert probe["sphere_radii"] == [] and probe["max_imag"] == 0.0
        # eigenvalues of L: cos^2(k_1 pi/73)/h^2 + cos^2(k_2 pi/73)/h^2
        h = 1.0 / 73.0
        axis = np.cos(np.arange(1, 73) * np.pi / 73.0) ** 2 / h ** 2
        r = np.sqrt(np.add.outer(axis, axis).reshape(-1))
        want = np.sort(np.concatenate([-r, r]))
        pts = np.array(probe["points"])
        assert pts.shape == want.shape
        assert np.max(np.abs(pts - want)) <= 1e-12 * np.max(want)

    def test_constant_2d_verify_passes_with_the_closed_form(self, tmp_path):
        cfg = dict(CONSTANT_72, task="verify")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        rep = read_json(out, "verify.json")
        assert rep["pass"] is True
        assert rep["checks"]["closed_form_gap"]["pass"] is True

    @pytest.mark.parametrize("task", ["spectrum", "palpha", "verify"])
    def test_forced_2d_80(self, tmp_path, task):
        # x - 0.5 changes sign: the per-axis eig of L serves every task
        cfg = base_box(task, (80, 80), ("x-0.5", "1"), (1.0, 1.0),
                       alpha=0.5)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 0
        if task == "spectrum":
            probe = read_json(out, "spectrum.json")
            assert len(probe["points"]) // 2 + len(probe["sphere_radii"]) \
                == 80 * 80
        elif task == "verify":
            assert read_json(out, "verify.json")["pass"] is True

    @pytest.mark.parametrize("task", ["spectrum", "verify"])
    def test_variable_3d(self, tmp_path, task):
        cfg = dict(VARIABLE_18, task=task)
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
        if task == "spectrum":
            probe = read_json(out, "spectrum.json")
            assert len(probe["points"]) == 2 * 18 ** 3
            assert probe["sphere_radii"] == []
        else:
            assert read_json(out, "verify.json")["pass"] is True


TASKS = ("check", "spectrum", "palpha", "evolve", "verify")
# (coefficient, length) of boxes and magnitudes past double precision, and
# the exit code of each of TASKS
EXTREME_SCALES = {
    # C_a = 1e160 squares past the largest float, phi_sup = 0: K = 1/2;
    # the eigenvalues are subnormal (about 1e-319), which the factorization
    # refuses: spectrum wrote points 2.5e-6 off relative when it took them
    "constant-1e-160": (("1e-160", 1.0), (0, 1, 1, 1, 1)),
    # C_a = exp(500) squares past the largest float: K = -inf; half the
    # eigenvalues underflow to 0
    "exp-500": (("exp(-500*x)", 1.0), (2, 1, 2, 2, 2)),
    # C_Omega^2 passes the largest float; every eigenvalue underflows to 0,
    # and the default initial field x (L - x) overflows
    "length-1e200": (("1", 1e200), (0, 1, 1, 1, 1)),
    # 2 phi_sup^2 passes the largest float; the eigenvalues overflow
    "sine-1e-155": (("1+0.1*sin(x/1e-155)", 1e-155), (2, 1, 2, 2, 2)),
    "length-1e-160": (("1", 1e-160), (0, 1, 1, 1, 1)),
    # palpha's exact powers need no split; evolve's true l2 norm is about
    # 1e375; verify's quadrature split (lambda_min lambda_max)^(1/4)
    # underflows to 0
    "length-1e150": (("1", 1e150), (0, 0, 0, 1, 1)),
    # both terms of the margin overflow (a^2 and 2 a a'): -inf, not NaN;
    # sigma^2 overflows
    "margin-1e200": (("1e200*(1+0.1*x)", 1.0), (2, 1, 2, 2, 2)),
}


class TestExtremeScales:
    """Boxes and coefficients past double precision end in a report, or in
    exit 1 or 2 with an `error:` line: never in a traceback, and never in
    a non-finite number written with exit 0."""

    @pytest.mark.parametrize("task", TASKS)
    @pytest.mark.parametrize("name", EXTREME_SCALES)
    def test_exit_code_and_no_non_finite_output(self, tmp_path, capsys,
                                                name, task):
        (coeff, length), codes = EXTREME_SCALES[name]
        cfg = base_1d(task, n=15, length=length, coeff=coeff, alpha=0.5,
                      time={"dt": 0.01, "t_end": 0.05})
        out = tmp_path / "out"
        code = main([write_cfg(tmp_path, cfg), "--out", str(out)])
        assert code == codes[TASKS.index(task)]
        err = capsys.readouterr().err
        if task == "check":
            assert (out / "report.json").exists()
        elif code:
            assert err.startswith("error: ")
            assert not (out / "fields.csv").exists()
        for artifact in ("fields.csv", "spectrum.json", "verify.json",
                         "trace.csv"):
            if (out / artifact).exists():
                text = (out / artifact).read_text()
                assert not re.search("nan|NaN|inf|Infinity", text)
        # the report may hold an infinite constant, never a NaN
        if (out / "report.json").exists():
            assert "NaN" not in (out / "report.json").read_text()

    @pytest.mark.parametrize("length, initial, cause", [
        (1e200, "x/1e200", "eigenvalues of L"),
        (1e-160, None, "eigenvalues of L")])
    def test_palpha_error_names_the_cause(self, tmp_path, capsys, length,
                                          initial, cause):
        cfg = base_1d("palpha", n=15, length=length, alpha=0.5)
        if initial:
            cfg["initial"] = initial
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 1
        assert cause in capsys.readouterr().err

    @pytest.mark.parametrize("task, name, cause", [
        ("verify", "length-1e150", "quadrature split"),
        ("evolve", "length-1e150", "l2 norm of the state"),
        ("spectrum", "constant-1e-160", "subnormal")])
    def test_error_names_the_cause(self, tmp_path, capsys, task, name,
                                   cause):
        (coeff, length), _ = EXTREME_SCALES[name]
        cfg = base_1d(task, n=15, length=length, coeff=coeff, alpha=0.5,
                      time={"dt": 0.01, "t_end": 0.05})
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 1
        assert cause in capsys.readouterr().err

    def test_palpha_at_length_1e150_scales_the_unit_box(self, tmp_path):
        # P_alpha is homogeneous of degree alpha in 1/length and the default
        # field x (L - x) of degree 2 in the length, so the fields at L =
        # 1e150 are those of the unit box times L^{2 - alpha} (measured
        # 2.6e-16 off)
        fields = []
        for length in (1.0, 1e150):
            cfg = base_1d("palpha", n=15, length=length, alpha=0.5)
            out = tmp_path / f"out-{length!r}"
            assert main([write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
            fields.append(np.loadtxt(out / "fields.csv", delimiter=",",
                                     skiprows=1)[:, 3:])
        want = fields[0] * 1e150 ** 1.5
        assert np.max(np.abs(fields[1] - want)) <= 1e-14 * np.max(np.abs(want))


class TestNoDenseL:
    """Every task but evolve runs without materializing the dense L, on
    positive coefficient sets and on forced ones."""

    @staticmethod
    def refuse_dense_L(monkeypatch):
        def refuse(self):
            raise AssertionError("dense L materialized")

        monkeypatch.setattr(Operators, "dense_L", refuse)

    @pytest.mark.parametrize("coeff,task", [
        ("1+0.1*x", "check"), ("1+0.1*x", "spectrum"), ("1+0.1*x", "palpha"),
        ("1+0.1*x", "evolve"), ("1+0.1*x", "verify"),
        ("1.3", "spectrum"), ("1.3", "verify"),
    ])
    def test_positive_sets_never_touch_dense_L(self, tmp_path, monkeypatch,
                                               coeff, task):
        self.refuse_dense_L(monkeypatch)
        cfg = base_1d(task, n=15, length=1.0, coeff=coeff, alpha=0.6,
                      time={"dt": 0.1, "t_end": 0.3})
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("task", ["spectrum", "palpha", "verify"])
    @pytest.mark.parametrize("n, coeffs", [((9,), ("x-0.45",)),
                                           ((5, 4), ("x-0.45", "1"))])
    def test_forced_sets_never_touch_dense_L(self, tmp_path, monkeypatch,
                                             task, n, coeffs):
        self.refuse_dense_L(monkeypatch)
        cfg = base_box(task, n, coeffs, (1.0,) * len(n), alpha=0.5)
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out"), "--force"]) == 0


class TestLogging:
    def run_tree(self, tmp_path, name, capsys):
        """Run an evolve and a palpha config; returns the bytes of every
        artifact by relative path and the captured stdout and stderr."""
        cfgs = {
            "evolve": base_1d("evolve", n=15, alpha=0.6, coeff="1+0.1*x",
                              length=1.0, time={"dt": 0.01, "t_end": 0.5,
                                                "snapshot_every": 7}),
            "palpha": base_1d("palpha", n=21, alpha=0.3, coeff="1+0.1*x",
                              length=1.0, initial="x*(1-x)"),
        }
        tree = {}
        for task, cfg in cfgs.items():
            out = tmp_path / name / task
            path = write_cfg(tmp_path, cfg, f"{task}.json")
            assert main([path, "--out", str(out)]) == 0
            for f in sorted(out.iterdir()):
                tree[f"{task}/{f.name}"] = f.read_bytes()
        return tree, capsys.readouterr()

    def test_debug_logging_changes_no_output(self, tmp_path, capsys):
        quiet = self.run_tree(tmp_path, "quiet", capsys)
        logger = logging.getLogger("sfrac")
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        level = logger.level
        logger.addHandler(handler)
        logger.setLevel(logging.DEBUG)
        try:
            logged = self.run_tree(tmp_path, "logged", capsys)
        finally:
            logger.removeHandler(handler)
            logger.setLevel(level)
        assert logged == quiet
        text = stream.getvalue()
        assert "task evolve: exit 0" in text
        assert "task palpha: exit 0" in text
        assert "evolve: 50 steps, N=15, B=2" in text


class TestImports:
    # runs the configs through main in a fresh interpreter, then prints the
    # exit codes and every loaded scipy module
    SCRIPT = textwrap.dedent("""\
        import sys
        from sfrac.cli import main
        out = sys.argv[1]
        codes = [main([p, "--out", f"{out}/{i}"])
                 for i, p in enumerate(sys.argv[2:])]
        print(codes, sorted(m for m in sys.modules
                            if m.split(".")[0] == "scipy"))
        """)

    def test_no_task_loads_scipy(self, tmp_path):
        cfgs = {
            "check": base_1d("check"),
            "spectrum": base_1d("spectrum"),
            "palpha": base_1d("palpha", n=21, alpha=0.3, coeff="1+0.1*x",
                              length=1.0, initial="x*(1-x)"),
            "evolve": base_1d("evolve", n=15, alpha=0.6,
                              time={"dt": 0.1, "t_end": 0.5}),
            "verify": base_1d("verify", n=31),
        }
        paths = [write_cfg(tmp_path, cfg, f"{task}.json")
                 for task, cfg in cfgs.items()]
        src = os.path.dirname(os.path.dirname(sfrac.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT, str(tmp_path / "out"),
             *paths], env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"

    def test_cli_import_loads_no_jsonschema(self):
        src = os.path.dirname(os.path.dirname(sfrac.__file__))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, sfrac.cli; print(sorted("
             "m for m in sys.modules if m.split('.')[0] == 'jsonschema'))"],
            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n"
