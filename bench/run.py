#!/usr/bin/env python3
"""Benchmark of the topocrit command line.

Run from the root of a checkout:

    python3 bench/run.py --workload pd2d --seed 1 --seconds 35 --trace 0

Workloads (see bench/README.md for why each exists):

    pd2d     phase-diagram --model walk2d --grid 33
    crg512   crg --model walk2d --grid 512
    figures  the README figure recipes, with seed-chosen coin angles

Users run one CLI command per figure, one at a time, each waiting for the
last (a closed loop with one client).  So one iteration is one fresh
interpreter (bench/child.py) that imports ``topocrit.cli`` from ``src/`` and
calls ``topocrit.cli.main([...])`` for each command of the workload, with
BLAS/OpenMP threads pinned to 1 and the interpreter pinned to one CPU.
Iterations repeat until the next one would end past ``--seconds`` (at least
two run).  Import-only interpreters add samples of the set-up time.

Times are wall-clock times net of hypervisor steal: the steal time the
kernel reports for the pinned CPU while the interpreter ran is subtracted.
On a shared virtual machine the host takes the CPU away for seconds at a
time, which no run length averages out; the raw wall time is kept in the
result file.

``--trace 0`` reports the end-to-end metrics: median iteration wall time,
median set-up time, median peak RSS and the share of operations that
succeeded.  ``--trace 1`` alternates untraced and traced iterations and
reports per-layer self times and counts from bench/spans.py, plus the
tracing overhead.  The outputs of the first untraced iteration are checked
by bench/checks.py.  Every metric is printed with its unit; the results, the
environment and the spans go to bench/results/.  The last line of standard
output is one JSON object with the keys correct, attempted, failed, metrics.
``--smoke`` shrinks every problem so that bench/test_smoke.py runs quickly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from child import steal_s

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}
SETUP_PROBES = 5
# the CPU every interpreter is pinned to, whose steal time is subtracted
CPU = max(os.sched_getaffinity(0))
MIN_ITERATIONS = 2
CHILD_TIMEOUT_S = 150.0
# CPU seconds of the child's calibration kernel on an uncontended core of
# the host the benchmark was set up on; times are scaled to this speed
REF_KERNEL_S = 0.0005
# modules a command imports on first use; part of the set-up it pays
LAZY_IMPORTS = {"crg": ("scipy.ndimage",)}


def _pd2d(seed: int, smoke: bool):
    grid = 5 if smoke else 33
    return [["phase-diagram", "--model", "walk2d", "--grid", str(grid),
             "--out", "pd2d"]]


def _crg512(seed: int, smoke: bool):
    grid = 64 if smoke else 512
    return [["crg", "--model", "walk2d", "--grid", str(grid),
             "--out", "crg2d"]]


def _figures(seed: int, smoke: bool):
    rng = random.Random(seed)

    def alpha():
        """A gapped coin angle, |alpha| in [0.1, 0.4], either sign."""
        return repr(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.4))

    def alpha_flag(n=1):
        # "--alpha=-0.3": a separate "-0.3" would parse as a flag
        return "--alpha=" + ",".join(alpha() for _ in range(n))

    n = "64" if smoke else "1024"
    rmax = "10" if smoke else "60"
    pd_grid = "9" if smoke else "65"
    crg_grid = "64" if smoke else "128"
    return [
        ["curvature", "--model", "walk1d", "--beta", "0", alpha_flag(3),
         "--grid", n, "--out", "curv1d"],
        ["curvature", "--model", "walk2d", alpha_flag(), "--grid", n,
         "--out", "curv2d"],
        ["curvature", "--model", "dirac1d", "--grid", n, "--out", "curvd1"],
        ["curvature", "--model", "dirac2d", "--grid", n, "--out", "curvd2"],
        ["exponents", "--model", "walk1d", "--beta", "0", "--kc", "0",
         "--out", "exp1d_k0"],
        ["exponents", "--model", "walk1d", "--beta", "0", "--kc",
         repr(math.pi), "--out", "exp1d_kpi"],
        ["exponents", "--model", "walk2d", "--out", "exp2d"],
        ["correlation", "--model", "walk1d", alpha_flag(), "--beta", "0",
         "--rmax", rmax, "--out", "corr1d"],
        ["correlation", "--model", "walk2d", alpha_flag(), "--rmax",
         rmax, "--out", "corr2d"],
        ["invariant", "--model", "walk1d", alpha_flag(),
         "--out", "inv1d"],
        ["invariant", "--model", "walk2d", alpha_flag(),
         "--out", "inv2d"],
        ["phase-diagram", "--model", "walk1d", "--grid", pd_grid,
         "--out", "pd1d"],
        ["crg", "--model", "walk1d", "--grid", crg_grid, "--out", "crg1d"],
    ]


WORKLOADS = {"pd2d": _pd2d, "crg512": _crg512, "figures": _figures}


def speed_factor(cal) -> float:
    """The factor that turns a time on the child's core into one on the
    reference core: the mean of REF_KERNEL_S / t over the kernel times t,
    each first smoothed as the median of itself and its four neighbours
    (one CAL_PERIOD_S apart)."""
    if not cal:
        return 1.0
    smooth = [statistics.median(cal[max(0, i - 2):i + 3])
              for i in range(len(cal))]
    return statistics.fmean(REF_KERNEL_S / c for c in smooth)


def run_child(commands, lazy, trace: bool, run_id: int, outdir: Path) -> dict:
    """Run one fresh interpreter; return its wall time, peak RSS, set-up time,
    exit codes and (when traced) spans."""
    outdir.mkdir(parents=True)
    result_path = outdir.with_suffix(".json")
    spec = {"commands": commands, "lazy_imports": lazy, "trace": trace,
            "run_id": run_id, "result": str(result_path), "cpu": CPU}
    argv = [sys.executable, "-I", str(BENCH / "child.py"), str(ROOT),
            json.dumps(spec)]
    with open(outdir.with_suffix(".stderr"), "wb") as err:
        steal0 = steal_s(CPU)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=outdir, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
            preexec_fn=lambda: os.sched_setaffinity(0, {CPU}))
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        steal1 = steal_s(CPU)
    proc.returncode = os.waitstatus_to_exitcode(status)
    steal = 0.0 if steal0 is None or steal1 is None else steal1 - steal0
    run = {"traced": trace, "wall_s": None, "raw_wall_s": wall,
           "steal_s": steal, "rss_mb": usage.ru_maxrss / 1024.0,
           "cpu_s": usage.ru_utime + usage.ru_stime,
           "exit": proc.returncode, "codes": None, "setup_s": None}
    if proc.returncode == 0:
        result = json.loads(result_path.read_text())
        cal, ready = result["cal"], result["cal_ready"]
        steal_ready = (0.0 if steal0 is None or result["steal_ready"] is None
                       else result["steal_ready"] - steal0)
        # the kernel's own time is taken out, the rest scaled
        run["speed"] = speed_factor(cal)
        run["wall_s"] = (wall - steal - sum(cal)) * run["speed"]
        run["setup_s"] = ((result["t_ready"] - t0 - steal_ready
                           - sum(cal[:ready])) * speed_factor(cal[:ready]))
        run["calibration_s"] = sum(cal)
        run["kernel_s"] = statistics.median(cal) if cal else None
        # interpreter start-up, result writing and exit: outside any span
        run["interpreter_s"] = wall - (result["t_done"] - result["t_start"])
        run["codes"] = result["codes"]
        run["spans"] = result.get("spans")
        run["work"] = result.get("work")
    else:
        tail = outdir.with_suffix(".stderr").read_text(errors="replace")
        run["stderr"] = tail[-2000:]
    return run


def measure(commands, seconds: float, trace: bool):
    """Set-up probes, then iterations until the next would overrun."""
    lazy = sorted({m for argv in commands
                   for m in LAZY_IMPORTS.get(argv[0], ())})
    t_start = time.perf_counter()
    probes = []
    for i in range(SETUP_PROBES):
        probes.append(run_child([], lazy, False, -1, WORK / ("probe%d" % i)))
        if probes[-1]["exit"] != 0:
            return probes, []
    runs = []
    while True:
        traced = trace and len(runs) % 2 == 1
        run = run_child(commands, lazy, traced, len(runs),
                        WORK / ("iter%d" % len(runs)))
        runs.append(run)
        if run["exit"] != 0:
            break
        if len(runs) > 1:
            shutil.rmtree(WORK / ("iter%d" % (len(runs) - 1)))
        elapsed = time.perf_counter() - t_start
        typical = statistics.median(r["raw_wall_s"] for r in runs)
        if len(runs) >= MIN_ITERATIONS and elapsed + typical > seconds:
            break
    return probes, runs


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": blas, "thread_pins": THREAD_PINS, "pinned_cpu": CPU,
            "ref_kernel_s": REF_KERNEL_S, "seed": seed}


def median_of(runs, key):
    return statistics.median(r[key] for r in runs)


def end_to_end(probes, runs, report) -> dict:
    untraced = [r for r in runs if not r["traced"]]
    setups = [r["setup_s"] for r in probes + runs]
    return {
        "wall_s": (median_of(untraced, "wall_s"), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (median_of(untraced, "rss_mb"), "MB"),
        "ok_frac": ((report.ops - report.failed_ops) / report.ops, "ratio"),
    }


def per_layer(commands, runs, outdir: Path, spec) -> dict:
    import checks
    import spans

    untraced = [r for r in runs if not r["traced"]]
    traced = [r for r in runs if r["traced"]]
    summaries = []
    for r in traced:
        s = spans.summarize(r["spans"], r["work"])
        # spans are raw wall time, so the accounting is too
        s["trace.wall_s"] = r["raw_wall_s"]
        s["trace.steal_s"] = r["steal_s"]
        s["trace.speed"] = r["speed"]
        s["setup.interpreter.s"] = r["interpreter_s"]
        s["trace.unattributed_s"] = (r["raw_wall_s"] - r["interpreter_s"]
                                     - s["trace.self_sum_s"])
        summaries.append(s)
    vertices, gapped = checks.crg_vertices(commands, outdir)
    fixed = {
        "trace.untraced_wall_s": median_of(untraced, "wall_s"),
        "crg.vertices": vertices,
        "crg.vertices_gapped_frac": gapped / vertices if vertices else 0.0,
    }
    fixed["trace.overhead_s"] = (median_of(traced, "wall_s")
                                 - fixed["trace.untraced_wall_s"])
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        if name in fixed:
            value = fixed[name]
        else:
            value = statistics.median(s.get(name, 0) for s in summaries)
        out[name] = (value, m["unit"])
    return out


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="reduced problem sizes, for testing the harness")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "topocrit" / "cli.py").is_file():
        print("error: %s holds no topocrit source tree (src/topocrit)" % ROOT,
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # inherited by every child interpreter
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    try:
        return _run(args)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def _run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commands = WORKLOADS[args.workload](args.seed, args.smoke)
    probes, runs = measure(commands, args.seconds, bool(args.trace))
    crashed = [r for r in probes + runs if r["exit"] != 0]
    if crashed:
        print("error: a benchmark interpreter exited with code %d:\n%s"
              % (crashed[0]["exit"], crashed[0].get("stderr", "")),
              file=sys.stderr)
        return 1

    import checks

    first = WORK / "iter0"
    report = checks.check_outputs(commands, runs[0]["codes"], first, args.seed)
    if args.trace:
        metrics = per_layer(commands, runs, first, spec)
    else:
        metrics = end_to_end(probes, runs, report)
    wanted = [m["name"] for m in spec["per_layer" if args.trace
                                     else "end_to_end"]]
    if sorted(metrics) != sorted(wanted):
        raise RuntimeError("metrics %s do not match BENCHMARK.json %s"
                           % (sorted(metrics), sorted(wanted)))
    attempted = len(commands) * len(runs)
    # later iterations must exit as the checked one did
    failed = report.failed_commands + sum(
        code != want for r in runs[1:]
        for code, want in zip(r["codes"], runs[0]["codes"]))
    correct = not report.problems and failed == 0
    traced = [r for r in runs if r["traced"]]
    metric_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    env = environment(args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = "%s_seed%d_trace%d" % (args.workload, args.seed, args.trace)
    record = {
        "workload": args.workload, "seconds": args.seconds,
        "smoke": args.smoke, "commands": commands, "environment": env,
        "metrics": metric_json, "correct": correct, "attempted": attempted,
        "failed": failed,
        "operations": {"attempted": report.ops, "failed": report.failed_ops},
        "problems": report.problems, "checks": report.info,
        "cpu": CPU,
        "probes": [{k: p[k] for k in ("wall_s", "raw_wall_s", "steal_s",
                                      "calibration_s", "kernel_s", "speed",
                                      "setup_s",
                                      "rss_mb")}
                   for p in probes],
        "runs": [{k: r[k] for k in ("traced", "wall_s", "raw_wall_s",
                                    "steal_s", "calibration_s", "kernel_s",
                                    "speed", "cpu_s", "setup_s",
                                    "rss_mb", "codes")} for r in runs],
    }
    (RESULTS / (stem + ".json")).write_text(json.dumps(record, indent=1))
    if traced:
        (RESULTS / (stem + "_spans.json")).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "run_id", "error"],
             "spans": traced[-1]["spans"]}))

    print("environment %s" % json.dumps(env, sort_keys=True))
    print("iterations %d (%d traced), set-up probes %d, operations %d "
          "(failed %d)" % (len(runs), len(traced), len(probes), report.ops,
                           report.failed_ops))
    print("raw wall time %.6g s, steal %.6g s, calibration %.6g s, speed "
          "factor %.6g (medians over iterations)"
          % tuple(median_of(runs, k) for k in ("raw_wall_s", "steal_s",
                                              "calibration_s", "speed")))
    for problem in report.problems:
        print("check failed: %s" % problem)
    for name, (value, unit) in metrics.items():
        print("metric %-34s %.6g %s" % (name, value, unit))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metric_json}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
