"""Command-line front end: JSON config in, CSV/JSON artifacts out.

Exit codes: 0 success; 1 config/schema/expression error (64.0 for an integer
key, a non-finite number, over 10^6 evolve steps, an alpha too close to 0 or 1
for the rule: all before any numerical work), an unusable output directory,
a spectrum of L past double precision (`Operators.spectral`, the split) or,
for P_alpha, with a spectral sphere on the path -jR or an exact 0 off the
parity null mode (even with --force); 2 hypothesis conditions failed (unless
--force), checked by `gate_conditions` once in each task that needs them and
nowhere in the library; 4 verification failure.  The coefficients pick the
factorization of L and its spectrum the quadrature split (see the grid and
frac modules), and no result depends on the imaginary unit of the path, so
no config key chooses them.

Determinism contract: at a fixed BLAS thread count, identical config
produces bit-identical output files — fixed quadrature reduction order,
seeded estimators, no timestamps in any artifact, sorted JSON keys, shortest
round-trip decimals.  `--threads` goes to run_meta.json and changes nothing.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import logging
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .coeff import check_conditions, make_profile, parse_expr, evaluate
from .errors import (ConditionsFailed, EvalError, ExprSyntaxError,
                     StabilityError)
from .evolve import EvolutionConfig, evolve, generator
from .frac import (QuadratureSpec, apply_P_alpha, build_matrix, quad_nodes,
                   quadrature_certificate, reference_P_alpha, symbols)
from .grid import BoxDomain, Grid, Operators, QuatField, RealField
from .oracle import closed_form_P_alpha, s_spectrum_probe
from .quat import J_E1, J_E2, unit_from_components

log = logging.getLogger(__name__)

_POS_NUM = {"type": "number", "exclusiveMinimum": 0}

SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["domain", "grid", "coefficients", "task"],
    "properties": {
        "domain": {
            "type": "object",
            "additionalProperties": False,
            "required": ["dims", "lengths"],
            "properties": {
                "dims": {"type": "integer", "minimum": 1, "maximum": 3},
                "lengths": {"type": "array", "minItems": 1, "maxItems": 3,
                            "items": _POS_NUM},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "required": ["n"],
            "properties": {
                "n": {"type": "array", "minItems": 1, "maxItems": 3,
                      "items": {"type": "integer", "minimum": 1}},
            },
        },
        "coefficients": {"type": "array", "minItems": 1, "maxItems": 3,
                         "items": {"type": "string"}},
        "alpha": {"type": "number", "exclusiveMinimum": 0,
                  "exclusiveMaximum": 1},
        "quadrature": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                # each rule is a dense n x n eigh; verify doubles n
                "n_sing": {"type": "integer", "minimum": 4, "maximum": 512},
                "n_tail": {"type": "integer", "minimum": 4, "maximum": 512},
            },
        },
        "task": {"enum": ["check", "spectrum", "palpha", "evolve", "verify"]},
        "initial": {"type": "string"},
        "time": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "dt": _POS_NUM,
                "t_end": _POS_NUM,
                "scheme": {"enum": ["explicit-rk4", "crank-nicolson"]},
                "snapshot_every": {"type": "integer", "minimum": 0},
                "beta_mode": {"type": "boolean"},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"dir": {"type": "string"}},
        },
    },
}


class ConfigError(ValueError):
    """Config is syntactically valid JSON but semantically unusable."""


# JSON Schema's types, but a number is finite as a float (so no NaN, infinity
# or int beyond the largest float) and an integer an int (not 64.0)
_TYPES = {"number": ((int, float), "a finite number"),
          "integer": (int, "an integer"), "string": (str, "a string"),
          "boolean": (bool, "a boolean"), "array": (list, "an array"),
          "object": (dict, "an object")}
_RULES = {"enum": (lambda v, b: v not in b, "is not one of"),
          "minimum": (lambda v, b: v < b, "is below the minimum"),
          "maximum": (lambda v, b: v > b, "is above the maximum"),
          "exclusiveMinimum": (lambda v, b: v <= b, "is not above"),
          "exclusiveMaximum": (lambda v, b: v >= b, "is not below"),
          "minItems": (lambda v, b: len(v) < b, "has fewer items than"),
          "maxItems": (lambda v, b: len(v) > b, "has more items than")}


def _validate_config(value, schema=SCHEMA, where="config"):
    """Raise ConfigError at value's first break of schema, in document
    order, naming the key path and the rule.  Reads only the keywords
    SCHEMA uses (with the types of _TYPES), and every object is closed."""
    def broken(rule):
        return ConfigError(f"{where}: {json.dumps(value)} {rule}")
    kind = schema.get("type")
    if kind and not (isinstance(value, _TYPES[kind][0])
                     and isinstance(value, bool) == (kind == "boolean")
                     and (kind != "number"
                          or abs(value) <= sys.float_info.max)):
        raise broken(f"is not {_TYPES[kind][1]}")
    for key, (breaks, rule) in _RULES.items():
        if key in schema and breaks(value, schema[key]):
            raise broken(f"{rule} {schema[key]}")
    for i, item in enumerate(value if "items" in schema else ()):
        _validate_config(item, schema["items"], f"{where}[{i}]")
    for key, item in (value.items() if kind == "object" else ()):
        if key not in schema["properties"]:
            raise ConfigError(f"{where}: unknown key {key!r}")
        _validate_config(item, schema["properties"][key], f"{where}.{key}")
    for key in schema.get("required", ()):
        if key not in value:
            raise ConfigError(f"{where}: missing required key {key!r}")


# ---------------------------------------------------------------------------
# Config -> objects


def _build_setup(cfg: dict):
    dims = cfg["domain"]["dims"]
    lengths = cfg["domain"]["lengths"]
    if len(lengths) != dims:
        raise ConfigError("domain.lengths must have domain.dims entries")
    if len(cfg["grid"]["n"]) != dims:
        raise ConfigError("grid.n must have domain.dims entries")
    if len(cfg["coefficients"]) != dims:
        raise ConfigError("one coefficient expression per axis required")
    domain = BoxDomain(tuple(lengths))
    grid = Grid(domain, tuple(cfg["grid"]["n"]))
    profiles = tuple(make_profile(ax + 1, text, lengths[ax])
                     for ax, text in enumerate(cfg["coefficients"]))
    ops = Operators(grid, profiles)
    return grid, profiles, ops


def _build_quadrature(cfg: dict, alpha: float) -> QuadratureSpec:
    q = cfg.get("quadrature", {})
    return QuadratureSpec(alpha=alpha, n_sing=q.get("n_sing", 64),
                          n_tail=q.get("n_tail", 64))


def _initial_field(cfg: dict, grid: Grid) -> RealField:
    text = cfg.get("initial")
    if text is None:
        # default bump: product of x_l (L_l - x_l), vanishes on the boundary
        vals = np.ones(grid.n)
        mesh = np.meshgrid(*grid.axes, indexing="ij")
        with np.errstate(over="ignore"):
            for ax, L in enumerate(grid.domain.lengths):
                vals = vals * mesh[ax] * (L - mesh[ax])
        if not np.all(np.isfinite(vals)):
            raise ConfigError("the default initial field overflows on this "
                              "box; set 'initial'")
        return RealField(grid, vals)
    names = ("x", "y", "z")[: grid.dims]
    expr = parse_expr(text, variables=names)
    mesh = np.meshgrid(*grid.axes, indexing="ij")
    values = evaluate(expr, **dict(zip(names, mesh)))
    return RealField(grid, np.asarray(values, dtype=float) + np.zeros(grid.n))


def _require_alpha(cfg: dict) -> float:
    if "alpha" not in cfg:
        raise ConfigError(f"task {cfg['task']!r} requires alpha")
    return float(cfg["alpha"])


def gate_conditions(ops: Operators, force: bool):
    """The hypothesis report of ops; raises ConditionsFailed when it fails
    and force is not set.  The one conditions gate of the package."""
    report = check_conditions(ops.profiles, ops.grid.domain.lengths)
    if not report.pass_ and not force:
        raise ConditionsFailed(
            "hypothesis conditions failed; rerun with --force to override")
    return report


# ---------------------------------------------------------------------------
# Artifact writers


def _write_json(path: str, payload: dict):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_csv(path: str, header: str, rows):
    """The header line, then rows: lines of cells, each cell the shortest
    decimal that round-trips (CSV cell contract)."""
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(rows)


def _coord_cells(grid: Grid) -> list:
    """'x1,x2,x3' of every node in C order, absent axes padded with 0.0;
    each distinct coordinate is formatted once."""
    axes = [[repr(x) for x in ax.tolist()] for ax in grid.axes]
    axes += [["0.0"]] * (3 - grid.dims)
    return [",".join(cells) for cells in itertools.product(*axes)]


def _write_fields_csv(path: str, field: QuatField):
    _write_csv(path, "x1,x2,x3,q0,q1,q2,q3",
               (f"{x},{q0!r},{q1!r},{q2!r},{q3!r}\n"
                for x, q0, q1, q2, q3 in zip(
                    _coord_cells(field.grid),
                    *field.components.reshape(4, -1).tolist())))


def _write_snapshot_csv(path: str, field: RealField):
    _write_csv(path, "x1,x2,x3,v",
               (f"{x},{v!r}\n" for x, v in zip(_coord_cells(field.grid),
                                               field.flat().tolist())))


def _write_trace_csv(path: str, times, l2s):
    _write_csv(path, "t,l2", (f"{t!r},{l2!r}\n" for t, l2 in zip(times, l2s)))


# ---------------------------------------------------------------------------
# Tasks


def _task_check(cfg, out_dir, force):
    grid, profiles, ops = _build_setup(cfg)
    report = check_conditions(profiles, grid.domain.lengths)
    _write_json(os.path.join(out_dir, "report.json"), report.as_flat_dict())
    return 0 if report.pass_ else 2


def _task_spectrum(cfg, out_dir, force):
    grid, profiles, ops = _build_setup(cfg)
    probe = s_spectrum_probe(ops)
    _write_json(os.path.join(out_dir, "spectrum.json"), {
        "points": list(probe.points),
        "sphere_radii": list(probe.sphere_radii),
        "max_imag": probe.max_imag,
    })
    return 0


def _task_palpha(cfg, out_dir, force):
    grid, profiles, ops = _build_setup(cfg)
    alpha = _require_alpha(cfg)
    spec = _build_quadrature(cfg, alpha)
    v0 = _initial_field(cfg, grid)
    report = gate_conditions(ops, force)
    result = apply_P_alpha(spec, ops, QuatField.from_real(v0))
    _write_fields_csv(os.path.join(out_dir, "fields.csv"), result.full)
    _write_json(os.path.join(out_dir, "report.json"), report.as_flat_dict())
    return 0


def _task_evolve(cfg, out_dir, force):
    grid, profiles, ops = _build_setup(cfg)
    alpha = _require_alpha(cfg)
    tcfg = cfg.get("time", {})
    if "dt" not in tcfg or "t_end" not in tcfg:
        raise ConfigError("task 'evolve' requires time.dt and time.t_end")
    beta_mode = tcfg.get("beta_mode", False)
    if beta_mode:
        # heat-flux correspondence: dv/dt = 2 div Vec P_beta v, beta = 2a-1
        if not 0.5 < alpha < 1.0:
            raise ConfigError("beta_mode requires alpha in (1/2, 1)")
        build_alpha = 2.0 * alpha - 1.0
    else:
        build_alpha = alpha
    spec = _build_quadrature(cfg, build_alpha)
    v0 = _initial_field(cfg, grid)
    ecfg = EvolutionConfig(dt=tcfg["dt"], t_end=tcfg["t_end"],
                           scheme=tcfg.get("scheme", "crank-nicolson"),
                           snapshot_every=tcfg.get("snapshot_every", 0))
    report = gate_conditions(ops, force)
    G = generator(build_matrix(spec, ops), ops)
    if beta_mode:
        G *= 2.0
    trace = evolve(G, v0, ecfg)
    _write_trace_csv(os.path.join(out_dir, "trace.csv"),
                     trace.times, trace.l2_series)
    for idx, (_, snap) in enumerate(trace.snapshots):
        _write_snapshot_csv(os.path.join(out_dir, f"snap_{idx}.csv"), snap)
    _write_json(os.path.join(out_dir, "report.json"), report.as_flat_dict())
    return 0


def _task_verify(cfg, out_dir, force):
    grid, profiles, ops = _build_setup(cfg)
    alpha = float(cfg.get("alpha", 0.5))
    spec = _build_quadrature(cfg, alpha)
    doubled = dataclasses.replace(spec, n_sing=2 * spec.n_sing,
                                  n_tail=2 * spec.n_tail)
    v0 = QuatField.from_real(_initial_field(cfg, grid))
    gate_conditions(ops, force)

    checks = {}

    def record(name, value, tol):
        checks[name] = {"value": float(value), "tol": float(tol),
                        "pass": bool(value <= tol)}

    half = dataclasses.replace(spec, alpha=0.5)
    acc = sum(nd["weight"] * nd["t"] ** (-0.5) / (1.0 + nd["t"] ** 2)
              for nd in quad_nodes(half))
    record("known_integral", abs(acc - math.pi / math.sqrt(2.0)), 1e-10)

    # base: the symbol route, its symbols computed once for it and the
    # certificate; references: the naive quaternionic left form at three
    # imaginary units, from its two node-summed symbols
    sp = ops.spectral
    syms = symbols(spec, sp.eigenvalues(), sp.null_mask)
    base = apply_P_alpha(spec, ops, v0, syms=syms)
    denom = max(base.full.l2(), 1e-300)
    lefts = reference_P_alpha(
        spec, ops, v0, (J_E1, J_E2, unit_from_components(1.0, 1.0, 1.0)))
    gaps = [(left.full - base.full).l2() / denom for left in lefts]
    leaks = [left.j_leak for left in lefts]
    record("left_right_gap", gaps[0], 1e-10)
    record("j_independence", max(gaps[1:]), 1e-10)

    r2 = apply_P_alpha(doubled, ops, v0)
    record("quadrature_doubling", (r2.full - base.full).l2() / denom, 1e-8)

    # the left passes' max-norm leaks, relative to the result's max-norm
    record("j_leak",
           max(leaks) / max(np.max(np.abs(base.full.components)), 1e-300),
           1e-9)

    ref = closed_form_P_alpha(alpha, v0.component(0), ops)
    record("closed_form_gap",
           (base.full - ref.full).l2() / max(ref.full.l2(), 1e-300), 1e-6)

    ok = all(c["pass"] for c in checks.values())
    # reported, not checked: the worst relative error of the two symbols
    # over the spectrum of L, against the exact powers
    _write_json(os.path.join(out_dir, "verify.json"),
                {"checks": checks, "pass": ok,
                 "quadrature_certificate": quadrature_certificate(spec, ops,
                                                                  syms)})
    return 0 if ok else 4


_TASKS = {
    "check": _task_check,
    "spectrum": _task_spectrum,
    "palpha": _task_palpha,
    "evolve": _task_evolve,
    "verify": _task_verify,
}


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    start = time.perf_counter()
    parser = argparse.ArgumentParser(
        prog="sfrac",
        description="Fractional powers of quaternionic gradient operators "
                    "on box domains: hypothesis checks, spectra, P_alpha "
                    "application, and fractional evolution.")
    parser.add_argument("config", help="path to a JSON run configuration")
    parser.add_argument("--force", action="store_true",
                        help="proceed despite failed hypothesis conditions")
    parser.add_argument("--threads", type=int, default=1,
                        help="recorded in run_meta.json; the computation "
                             "is serial and its results do not depend on it")
    parser.add_argument("--out", default=None,
                        help="output directory (overrides output.dir)")
    args = parser.parse_args(argv)
    task, code = _run(args)
    log.debug("task %s: exit %d after %.3f s", task, code,
              time.perf_counter() - start)
    return code


def _run(args) -> tuple[str | None, int]:
    """(task, exit code) of one invocation; the task is None when the
    config was not read."""
    if args.threads < 1:
        print("error: --threads must be >= 1", file=sys.stderr)
        return None, 1

    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
        _validate_config(cfg)
    except (OSError, ValueError) as exc:  # bad JSON or UTF-8; ConfigError
        print(f"error: {exc}", file=sys.stderr)
        return None, 1

    task = cfg["task"]
    out_dir = args.out or cfg.get("output", {}).get("dir", ".")

    try:
        os.makedirs(out_dir, exist_ok=True)
        code = _TASKS[task](cfg, out_dir, args.force)
        _write_json(os.path.join(out_dir, "run_meta.json"), {
            "version": __version__,
            "task": task,
            "force": args.force,
            "threads": args.threads,
        })
        return task, code
    except (ConfigError, ExprSyntaxError, EvalError, StabilityError,
            ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return task, 1
    except ConditionsFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return task, 2


if __name__ == "__main__":
    sys.exit(main())
