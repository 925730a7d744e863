"""End-to-end tests of the ``sfrac`` command-line front end.

Everything runs in-process through ``sfrac.cli.main(argv)`` against JSON
configs in a temp directory, checking exit codes and the exact artifact
contracts (CSV headers, shortest round-trip decimals, flat JSON reports,
bit-identical reruns).
"""

import io
import json
import logging
import math
import os

import jsonschema
import numpy as np
import pytest

from sfrac.cli import SCHEMA, _write_fields_csv, main
from sfrac.coeff import make_profile
from sfrac.frac import QuadratureSpec, apply_P_alpha
from sfrac.grid import BoxDomain, Grid, Operators, QuatField, RealField


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

    def test_malformed_json_exits_1(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main([str(path)]) == 1

    def test_missing_file_exits_1(self, tmp_path):
        assert main([str(tmp_path / "absent.json")]) == 1

    def test_dims_length_mismatch_exits_1(self, tmp_path):
        cfg = base_1d("check")
        cfg["domain"]["dims"] = 1
        cfg["domain"]["lengths"] = [1.0, 2.0]
        assert main([write_cfg(tmp_path, cfg)]) == 1

    @pytest.mark.parametrize("bad", [
        {"grid": {"n": [0]}},
        {"alpha": 1.5},
        {"solver": {"method": "magic"}},
        # two errors: the best match is not the first one found
        {"domain": {"dims": 5, "lengths": [1.0]}, "alpha": 1.5},
    ])
    def test_message_is_that_of_jsonschema_validate(self, tmp_path, capsys,
                                                    bad):
        cfg = base_1d("palpha")
        cfg.update(bad)
        with pytest.raises(jsonschema.ValidationError) as exc:
            jsonschema.validate(cfg, SCHEMA)
        for _ in range(2):  # the cached validator answers the same twice
            assert main([write_cfg(tmp_path, cfg)]) == 1
            assert capsys.readouterr().err == f"error: {exc.value}\n"

    def test_threads_below_one_exits_1(self, tmp_path):
        cfg = base_1d("check")
        assert main([write_cfg(tmp_path, cfg), "--threads", "0"]) == 1

    def test_solver_key_exits_1(self, tmp_path, capsys):
        # the coefficients pick the Q_t factorization; no key chooses it
        cfg = base_1d("palpha", alpha=0.5, solver={"method": "dense"})
        assert main([write_cfg(tmp_path, cfg)]) == 1
        assert "'solver' was unexpected" in capsys.readouterr().err


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
        # the CLI's symbol route against the node engine on dense LU
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
        ref = apply_P_alpha(QuadratureSpec(0.4), dense_route(ops),
                            QuatField.from_real(v)).full.components
        want = ref.reshape(4, -1).T
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_failed_conditions_gate_and_force(self, tmp_path):
        cfg = base_1d("palpha", n=15, alpha=0.5, coeff="0.01+x^2",
                      length=10.0)
        path = write_cfg(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([path, "--out", str(out)]) == 2
        assert not (out / "fields.csv").exists()
        out2 = tmp_path / "out_forced"
        assert main([path, "--out", str(out2), "--force"]) == 0
        assert (out2 / "fields.csv").exists()
        assert read_json(out2, "run_meta.json")["force"] is True

    def test_forced_run_with_non_positive_coefficient(self, tmp_path):
        # L has no spectral factorization here, so the node engine on dense
        # LU serves the run
        cfg = base_1d("palpha", n=9, length=1.0, coeff="x-0.45", alpha=0.5,
                      initial="x*(1-x)")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 0
        rows = np.loadtxt(out / "fields.csv", delimiter=",", skiprows=1)
        assert rows.shape == (9, 7) and np.all(np.isfinite(rows))


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
        # these compare the symbol route with the node engine, two routes
        # that agree to rounding, not bit for bit
        for name in ("left_right_gap", "j_independence", "j_leak"):
            assert rep["checks"][name]["value"] > 0.0
        # the certificate is reported beside the checks, not among them
        assert set(rep) == {"checks", "pass", "quadrature_certificate"}
        cert = rep["quadrature_certificate"]
        assert set(cert) == {"scal", "vec"}
        assert 0.0 < cert["scal"] <= 1e-12 and 0.0 < cert["vec"] <= 1e-12

    def test_forced_dense_run_with_non_positive_coefficient(self, tmp_path):
        # L has no spectral factorization here, so the node engine on dense
        # LU serves the run, and the certificate is null
        cfg = base_1d("verify", n=9, length=1.0, coeff="x-0.45")
        out = tmp_path / "out"
        assert main([write_cfg(tmp_path, cfg), "--out", str(out),
                     "--force"]) == 0
        rep = read_json(out, "verify.json")
        assert rep["pass"] is True
        assert rep["quadrature_certificate"] is None

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
    the spectrum and the closed form come from the per-axis factorization
    of L, so no dense N x N matrix is needed."""

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


class TestNoDenseL:
    """Every task on a positive coefficient set runs without materializing
    the dense L."""

    @pytest.mark.parametrize("coeff,task", [
        ("1+0.1*x", "check"), ("1+0.1*x", "spectrum"), ("1+0.1*x", "palpha"),
        ("1+0.1*x", "evolve"), ("1+0.1*x", "verify"),
        ("1.3", "spectrum"), ("1.3", "verify"),
    ])
    def test_positive_sets_never_touch_dense_L(self, tmp_path, monkeypatch,
                                               coeff, task):
        def refuse(self):
            raise AssertionError("dense L materialized")

        monkeypatch.setattr(Operators, "dense_L", refuse)
        cfg = base_1d(task, n=15, length=1.0, coeff=coeff, alpha=0.6,
                      time={"dt": 0.1, "t_end": 0.3})
        assert main([write_cfg(tmp_path, cfg), "--out",
                     str(tmp_path / "out")]) == 0


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
