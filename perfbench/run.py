"""sfrac benchmark: drives `sfrac.cli.main` in-process as a closed loop with
one client on a seeded stream of configs, checks every output, and prints
the metrics by name with unit and sample count.  The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload palpha-3d --seed 1 --seconds 30 --trace 0

--trace 0 measures the end-to-end metrics.  --trace 1 spends half the time
untraced and half with the module-boundary tracer installed, and prints the
per-layer metrics and the tracing overhead (traced minus untraced median
latency).  Workloads, metrics and the layer map are described in README.md.
"""

import os

# All parallelism comes from --threads: BLAS is pinned to one thread before
# numpy is first imported, in this process and in the set-up probes.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from checks import CHECKS, CheckFailed  # noqa: E402
from tracer import LAYER_UNITS, Tracer, layer_metrics, peak_alloc_mb  # noqa: E402
from workloads import BLOCK, WORKLOADS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")

MIN_OPS = 2          # the latency quantiles need two samples
SETUP_REPEATS = 5    # set-up probes per run; the median is reported
# verify checks that the fixed t_split = 1 quadrature misses on stiff grids
# (ROADMAP item 2); a session failing only these is a failed op whose
# verify.json is still a correct report
QUADRATURE_CHECKS = {"quadrature_doubling", "closed_form_gap"}

END_TO_END_UNITS = {
    "latency_p50_s": "s", "latency_p90_s": "s", "throughput_ops_s": "1/s",
    "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_share": "share",
    "accuracy_digits": "digits",
}


@dataclass
class Phase:
    """What one measured stretch of the closed loop produced."""

    latencies: dict = field(default_factory=dict)  # op index -> seconds
    failures: dict = field(default_factory=dict)   # op index -> reason
    digits: list = field(default_factory=list)
    wrong: list = field(default_factory=list)       # reasons outputs were wrong


def _read_tree(directory: str) -> dict:
    tree = {}
    for base, _, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                tree[os.path.relpath(path, directory)] = fh.read()
    return tree


def run_op(cli, op, threads: int, work: str, digits: list):
    """Run one op's tasks through the CLI and check every artifact; appends
    the digits the checks found.  Returns (latency, failure reason or None,
    wrong-output reason or None, artifact directory)."""
    paths = op.write_configs(work)
    out_root = os.path.join(work, "out")
    shutil.rmtree(out_root, ignore_errors=True)
    start = time.perf_counter()
    try:
        codes = [cli.main([paths[task], "--out", os.path.join(out_root, task),
                           "--threads", str(threads)]) for task in op.tasks]
    except Exception:  # a crash inside the CLI is a failed op, not the end
        reason = "crash: " + traceback.format_exc(limit=3)
        return time.perf_counter() - start, reason, reason, out_root
    latency = time.perf_counter() - start

    failure = wrong = None
    for task, code in zip(op.tasks, codes):
        try:
            found = CHECKS[task](op, os.path.join(out_root, task))
        except CheckFailed as exc:
            found = exc.digits
            reason = f"{task}: exit {code}, {exc}"
            failure = failure or reason
            known = (code == 4 and exc.verify_failed
                     and set(exc.verify_failed) <= QUADRATURE_CHECKS)
            if not known:
                wrong = wrong or reason
        else:
            if code != 0:
                failure = wrong = failure or f"{task}: exit {code}"
        if found is not None:
            digits.append(found)
    return latency, failure, wrong, out_root


def run_phase(cli, workload, seed: int, seconds: float, work: str,
              reference: dict, tracer=None) -> Phase:
    """Closed loop over the seeded stream: the next op starts when the
    previous one and its checks are done.  When a whole design block of ops
    fits in `seconds`, the loop stops only at block boundaries, so every run
    measures the same mix of configs; otherwise it stops before the op that
    would overrun.  Op 0's artifacts must equal `reference`, those of the
    same config run before the loop."""
    phase = Phase()
    walls = []
    start = time.perf_counter()
    for op in workload.stream(seed):
        if len(walls) >= MIN_OPS:
            wall = statistics.fmean(walls)
            whole_blocks = BLOCK * wall <= seconds
            ahead = (BLOCK if whole_blocks else 1) * wall
            if ((op.index % BLOCK == 0 or not whole_blocks)
                    and time.perf_counter() - start + ahead > seconds):
                break
        if tracer is not None:
            tracer.op = op.index
        t0 = time.perf_counter()
        latency, failure, wrong, out_root = run_op(
            cli, op, workload.threads, work, phase.digits)
        if op.index == 0 and _read_tree(out_root) != reference:
            failure = wrong = failure or "artifacts differ from a rerun"
        phase.latencies[op.index] = latency
        if failure:
            phase.failures[op.index] = failure
        if wrong:
            phase.wrong.append(f"op {op.index}: {wrong}")
        walls.append(time.perf_counter() - t0)
    return phase


def measure_setup(workload: str, seed: int, work: str) -> list:
    """Wall time of fresh interpreters importing sfrac.cli and writing the
    first op's configs; one untimed probe first compiles the bytecode."""
    times = []
    probe = [sys.executable, os.path.join(HERE, "setup_probe.py"),
             workload, str(seed), work]
    for k in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(probe, check=True, env=os.environ.copy(),
                       stdout=subprocess.DEVNULL, timeout=120)
        if k:
            times.append(time.perf_counter() - t0)
    return times


def machine(threads: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version",
                                         "openblas configuration")}
    except (KeyError, TypeError):
        blas = {}
    model = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_build": blas,
        "blas_threads": _blas_threads(),
        "cli_threads": threads,
    }


def _blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return {}
    found = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                found[os.path.basename(path)] = fn()
                break
    return found


def end_to_end(phase: Phase, setup: list) -> dict:
    lat = list(phase.latencies.values())
    n = len(lat)
    return {
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": statistics.quantiles(lat, n=10, method="inclusive")[-1],
        "throughput_ops_s": n / sum(lat),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops_ok_share": (n - len(phase.failures)) / n,
        "accuracy_digits": min(phase.digits, default=0.0),
    }


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sfrac", "cli.py")):
        print(f"error: no sfrac sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workload = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(work)
    try:
        setup = [] if args.trace else measure_setup(args.workload, args.seed,
                                                    work)
        import sfrac.cli as cli

        # warm-up: op 0 once before timing, so lazy imports and caches are
        # done; its artifacts are the reference for the timed op 0.  A
        # traced run also measures frac's allocation peak here, untimed.
        warmup = Phase()
        alloc = Tracer(track_alloc=True)
        with alloc if args.trace else contextlib.nullcontext():
            _, _, wrong, out_root = run_op(
                cli, next(workload.stream(args.seed)), workload.threads, work,
                warmup.digits)
        if wrong:
            warmup.wrong.append(f"warm-up op 0: {wrong}")
        reference = _read_tree(out_root)
        host = machine(workload.threads)

        if args.trace:
            plain = run_phase(cli, workload, args.seed, args.seconds / 2, work,
                              reference)
            tracer = Tracer()
            with tracer:
                traced = run_phase(cli, workload, args.seed, args.seconds / 2,
                                   work, reference, tracer)
            values = layer_metrics(tracer.spans, traced.latencies,
                                   workload.threads)
            values["frac.peak_alloc_mb"] = peak_alloc_mb(alloc.spans)
            values["trace.latency_p50_s"] = statistics.median(
                traced.latencies.values())
            values["trace.overhead_s"] = (values["trace.latency_p50_s"]
                                          - statistics.median(
                                              plain.latencies.values()))
            units = LAYER_UNITS
            phases = (plain, traced)
            tracer.write(os.path.join(
                OUT, f"trace-{args.workload}-seed{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed,
                 "latencies": traced.latencies, "machine": host})
            if tracer.missing:
                print("not traced (absent from sfrac): "
                      + ", ".join(tracer.missing))
        else:
            phase = run_phase(cli, workload, args.seed, args.seconds, work,
                              reference)
            values = end_to_end(phase, setup)
            units = END_TO_END_UNITS
            phases = (phase,)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(len(p.failures) for p in phases)
    wrong = [w for p in (warmup, *phases) for w in p.wrong]
    samples = dict.fromkeys(values, len(phases[-1].latencies))
    if not args.trace:
        samples.update(setup_s=len(setup), peak_rss_mb=1)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} ops, {failed} failed "
          f"(ops_failed_share {failed / attempted:.4f})")
    print("machine " + json.dumps(host, sort_keys=True))
    for p in phases:
        for index, reason in sorted(p.failures.items()):
            print(f"failed op {index}: {reason}")
    for name, value in values.items():
        print(f"{name} {value:.6g} {units[name]} (n={samples[name]})")
    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
