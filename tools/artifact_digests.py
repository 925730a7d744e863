"""Byte digests of every CLI artifact over a fixed set of small configs.

Runs each `sfrac` task (check, spectrum, palpha, evolve, verify) on a fixed
list of configs: 1D/2D/3D grids, odd and even sizes, constant and variable
coefficients, custom node counts, a fine 1D verify, a verify on a field of
amplitude 1e9, two configs rejected with exit 1 (a `quadrature.j` key, an alpha
of 1 - 2^-53), forced sets with a sample <= 0 (one of them exactly 0 on the
parity null mode, where palpha and verify exit 0, and one exactly 0 off it,
which gives L exact zeros off its structural one: palpha and verify exit 1; a
palpha on 1D 64 whose spectral spheres meet the path, exit 1, a verify on 1D
200 with complex eigenvalues, and a spectrum on 2D 80x80, above the dense
cap),
Crank-Nicolson on a 6x5 and on an all-odd 7x9 grid, RK4 with `beta_mode`, a
blocked Crank-Nicolson run on the 2D 16^2 shape of the `evolve-2d` benchmark,
an evolve and a spectrum on a box of side 1e-6 (the spectrum with a coefficient
written in units of that side), a palpha with more quadrature nodes than the
schema allows, one with a node count of 64.0 and one with a NaN length, an
evolve of 2e6 steps (all four exit 1), a spectrum on `1+0.2*sin(3000*x)` and a
check on a length of 10^400 (exit 1), `check` on coefficients whose derivatives
take every rule (quotient, power, sqrt, exp, cos, and `1+x^0`, `1+0*sqrt(x)`
with a term times an exact 0), and runs past double precision: a constant
coefficient 1e-160 (`check` exit 0, `palpha` exit 1 on its subnormal
eigenvalues), `exp(-500*x)` and
`1+0.1*sin(x/1e-155)` on a box of 1e-155 (`check` exit 2), boxes of 1e200
(`check` exit 0, `spectrum` and `palpha` exit 1), 1e-160 (`spectrum` and
`verify` exit 1) and 1e150 (`palpha` exit 0: its exact powers of L need no
quadrature split, and its fields are those of the unit box times 1e150^1.5).
It prints one `path sha256` line
per artifact, plus one `case exit N` line per run (`case raised ERROR` when the
run ends in an exception), so that a diff of the output of two source trees
shows every byte that changed:

    python tools/artifact_digests.py > change.txt
    python tools/artifact_digests.py --src OTHER_TREE/src > parent.txt
    diff parent.txt change.txt

`--src` names the directory that holds the `sfrac` package (default: the
`src` beside this file's parent); `--keep DIR` leaves the artifacts there
for a closer look, otherwise they go to a temporary directory.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

VARIABLE = ("1+0.1*x", "exp(0.2*x)", "1+0.2*sin(x)")
LENGTHS = (1.0, 1.3, 0.8)


def _box(task, n, coeffs=None, lengths=None, **extra):
    dims = len(n)
    lengths = list(lengths or LENGTHS[:dims])
    cfg = {"domain": {"dims": dims, "lengths": lengths},
           "grid": {"n": list(n)},
           "coefficients": list(coeffs or ("1",) * dims),
           "task": task}
    cfg.update(extra)
    return cfg


def cases():
    """(name, config, forced) of every run, in a fixed order."""
    out = []
    shapes = {"1d-odd": (15,), "1d-even": (16,), "2d-odd": (7, 9),
              "2d-even": (8, 6), "3d-odd": (5, 3, 5), "3d-even": (4, 5, 6)}
    for shape_name, n in shapes.items():
        for coeff_name, coeffs in (("const", None),
                                   ("var", VARIABLE[:len(n)])):
            name = f"{shape_name}-{coeff_name}"
            for task in ("check", "spectrum", "verify"):
                out.append((f"{task}/{name}", _box(task, n, coeffs), False))
            out.append((f"palpha/{name}",
                        _box("palpha", n, coeffs, alpha=0.4), False))
    out.append(("palpha/1d-nodes",
                _box("palpha", (12,), VARIABLE[:1], alpha=0.7,
                     quadrature={"n_sing": 16, "n_tail": 24}), False))
    out.append(("verify/1d-alpha", _box("verify", (11,), VARIABLE[:1],
                                        alpha=0.3), False))
    # rejected before any work (exit 1): a key naming the imaginary unit,
    # and an alpha whose quadrature rule double precision cannot hold
    out.append(("verify/1d-j-key", _box("verify", (11,), VARIABLE[:1],
                                        quadrature={"j": "e3"}), False))
    out.append(("verify/1d-alpha-near-1",
                _box("verify", (15,), VARIABLE[:1],
                     alpha=0.9999999999999999), False))
    out.append(("verify/1d-fine", _box("verify", (1023,), VARIABLE[:1]),
                False))
    out.append(("verify/1d-amplitude", _box("verify", (31,), VARIABLE[:1],
                                            initial="1e9*x*(1-x)"), False))
    for name, n, forced in (("1d-forced", (9,), ("x-0.45",)),
                            ("2d-forced", (5, 4), ("x-0.45", "1"))):
        for task, extra in (("check", {}), ("spectrum", {}),
                            ("palpha", {"alpha": 0.5}), ("verify", {})):
            out.append((f"{task}/{name}", _box(task, n, forced, **extra),
                        True))
    # a sample exactly 0 on the parity null pattern: the symbols are 0 on
    # that mode all the same, so palpha and verify exit 0
    for task in ("palpha", "verify"):
        out.append((f"{task}/1d-zero-sample",
                    _box(task, (9,), ("x-0.5",), alpha=0.5), True))
    # a sample exactly 0 off the parity null pattern: two exact zeros of L
    # off its structural one, kernel modes where P_alpha is not defined, so
    # palpha and verify exit 1
    for task in ("palpha", "verify"):
        out.append((f"{task}/1d-zero-sample-off",
                    _box(task, (9,), ("x-0.4",), lengths=(1.0,), alpha=0.5),
                    True))
    # two real eigenvalues of L below 0: spectral spheres on the path
    out.append(("palpha/1d-sphere",
                _box("palpha", (64,), ("x-0.45",), alpha=0.5), True))
    out.append(("verify/1d-forced-200", _box("verify", (200,), ("x-0.45",)),
                True))
    out.append(("spectrum/2d-forced-80",
                _box("spectrum", (80, 80), ("x-0.5", "1"),
                     lengths=(1.0, 1.0)), True))
    out.append(("evolve/2d-cn",
                _box("evolve", (6, 5), VARIABLE[:2], alpha=0.6,
                     time={"dt": 0.01, "t_end": 0.2, "snapshot_every": 5}),
                False))
    # all-odd 2D with variable coefficients: the generator meets the
    # parity null mode
    out.append(("evolve/2d-odd-cn",
                _box("evolve", (7, 9), VARIABLE[:2], alpha=0.6,
                     time={"dt": 0.01, "t_end": 0.2, "snapshot_every": 5}),
                False))
    out.append(("evolve/1d-cn-long",
                _box("evolve", (8,), None, alpha=0.5,
                     time={"dt": 0.001, "t_end": 0.5,
                           "snapshot_every": 100}), False))
    out.append(("evolve/1d-rk4-beta",
                _box("evolve", (9,), VARIABLE[:1], alpha=0.75,
                     time={"dt": 0.001, "t_end": 0.05,
                           "scheme": "explicit-rk4", "snapshot_every": 10,
                           "beta_mode": True}), False))
    out.append(("evolve/3d-rk4",
                _box("evolve", (3, 4, 3), VARIABLE, alpha=0.5,
                     time={"dt": 0.001, "t_end": 0.02,
                           "scheme": "explicit-rk4", "snapshot_every": 4}),
                False))
    # 2048 equal steps on N = 256: blocks of B = 8 states
    out.append(("evolve/2d-blocked",
                _box("evolve", (16, 16), VARIABLE[:2], alpha=0.6,
                     time={"dt": 10 / 2 ** 20, "t_end": 2048 * 10 / 2 ** 20,
                           "snapshot_every": 512}), False))
    out.append(("evolve/1d-micrometre",
                _box("evolve", (15,), None, lengths=(1e-6,), alpha=0.5,
                     time={"dt": 1e-12, "t_end": 1e-11,
                           "snapshot_every": 5}), False))
    out.append(("spectrum/1d-micrometre-exp",
                _box("spectrum", (15,), ("exp(0.2*x/1e-06)",),
                     lengths=(1e-6,)), False))
    out.append(("palpha/1d-n-sing-513",
                _box("palpha", (12,), VARIABLE[:1], alpha=0.7,
                     quadrature={"n_sing": 513}), False))
    # rejected by the config checker (exit 1): an integral float for an
    # integer key and a NaN length
    out.append(("palpha/1d-n-sing-float",
                _box("palpha", (12,), VARIABLE[:1], alpha=0.7,
                     quadrature={"n_sing": 64.0}), False))
    out.append(("palpha/1d-nan-length",
                _box("palpha", (12,), None, lengths=(float("nan"),),
                     alpha=0.7), False))
    # 2e6 steps, above the 10^6 step cap (exit 1)
    out.append(("evolve/1d-2e6-steps",
                _box("evolve", (4,), None, alpha=0.5,
                     time={"dt": 5e-7, "t_end": 1.0}), False))
    # kL = 3000: the derivative spot check needs its five-point difference
    out.append(("spectrum/1d-fast-sine",
                _box("spectrum", (15,), ("1+0.2*sin(3000*x)",)), False))
    # a length of 10^400, an int beyond the largest float (exit 1)
    out.append(("check/1d-huge-int-length",
                _box("check", (12,), None, lengths=(10 ** 400,)), False))
    # derivatives through every rule: quotient, power, sqrt, exp, cos, and
    # terms times an exact 0 (the report samples x = 0, a pole of sqrt')
    for name, coeff in (("quotient-power", "(1+0.1*x)^3/(2+cos(3*x))"),
                        ("sqrt-exp", "sqrt(1+x^2)*exp(-0.5*x)"),
                        ("x-power-0", "1+x^0"), ("zero-times-sqrt",
                                                 "1+0*sqrt(x)")):
        out.append((f"check/1d-{name}", _box("check", (15,), (coeff,)),
                    False))
    # magnitudes past double precision: a report, exit 1 or 2, or (palpha
    # at 1e150, which needs no quadrature split) a result
    for name, coeff, length, tasks in (
            ("const-1e-160", "1e-160", 1.0, ("check", "palpha")),
            ("exp-500", "exp(-500*x)", 1.0, ("check",)),
            ("length-1e200", "1", 1e200, ("check", "spectrum", "palpha")),
            ("sine-1e-155", "1+0.1*sin(x/1e-155)", 1e-155, ("check",)),
            ("length-1e-160", "1", 1e-160, ("spectrum", "verify")),
            ("length-1e150", "1", 1e150, ("palpha",))):
        for task in tasks:
            out.append((f"{task}/1d-{name}",
                        _box(task, (15,), (coeff,), lengths=(length,),
                             alpha=0.5), False))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"),
                        help="directory holding the sfrac package")
    parser.add_argument("--keep", default=None,
                        help="write the artifacts here instead of a "
                             "temporary directory")
    args = parser.parse_args(argv)
    sys.path.insert(0, os.path.abspath(args.src))
    from sfrac.cli import main as sfrac_main

    with contextlib.ExitStack() as stack:
        base = args.keep or stack.enter_context(tempfile.TemporaryDirectory())
        for name, cfg, forced in cases():
            out_dir = os.path.join(base, name)
            os.makedirs(out_dir, exist_ok=True)
            cfg_path = os.path.join(out_dir, "config.json.in")
            with open(cfg_path, "w") as fh:
                json.dump(cfg, fh)
            argv = [cfg_path, "--out", out_dir] + (["--force"] if forced
                                                     else [])
            try:
                with contextlib.redirect_stderr(io.StringIO()):
                    code = f"exit {sfrac_main(argv)}"
            except Exception as exc:  # a traceback, not an exit code
                code = f"raised {type(exc).__name__}"
            print(f"{name} {code}")
            for fname in sorted(os.listdir(out_dir)):
                if fname == "config.json.in":
                    continue
                with open(os.path.join(out_dir, fname), "rb") as fh:
                    digest = hashlib.sha256(fh.read()).hexdigest()
                print(f"{name}/{fname} {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
