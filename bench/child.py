"""One benchmark iteration in a fresh interpreter.

    python3 -I bench/child.py <checkout root> '<spec JSON>'

The spec holds the CLI commands, the modules the workload imports lazily,
whether to trace, and where to write the result.  The child imports
``topocrit.cli`` from ``<root>/src`` (the set-up a user pays on every CLI
call), then calls ``topocrit.cli.main(argv)`` once per command in its
working directory.  It writes a JSON result with the clock readings, the
exit code of every command and, when tracing, the spans of the run.
``time.perf_counter`` is CLOCK_MONOTONIC on Linux, so the parent can compare
these readings with its own.  Once its imports are done the child also reads
the steal time of the CPU it is pinned to, so that the parent can take the
hypervisor's share out of the set-up time.

Every ``CAL_PERIOD_S`` of wall time a SIGALRM handler runs a fixed
pure-Python kernel and records the CPU time it took.  On a shared host the
core's speed changes from second to second (another tenant on the sibling
hyperthread, frequency changes); the kernel's times let the parent scale the
run to a reference core speed.  CPU time is used because it leaves out the
time the hypervisor steals.
"""

import time

T_START = time.perf_counter()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402

CAL_PERIOD_S = 0.05
CAL = []  # CPU seconds of each run of the calibration kernel
_record = None  # the tracer's span recorder, when tracing


def calibration_kernel():
    """Fixed pure-Python work: float arithmetic, formatting and a join."""
    acc = 0.0
    parts = []
    for i in range(800):
        x = i * 0.618
        acc += x * x % 3.0
        parts.append("%.6g" % x)
    return acc, ",".join(parts)


def _calibrate(signum, frame):
    start = time.perf_counter()
    cpu = time.process_time()
    calibration_kernel()
    CAL.append(time.process_time() - cpu)
    if _record is not None:
        _record("bench.calibrate", start, time.perf_counter())


def steal_s(cpu):
    """Seconds the hypervisor has stolen from ``cpu`` since boot (the steal
    column of /proc/stat), or None where the kernel does not report it."""
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                if line.startswith("cpu%d " % cpu):
                    return int(line.split()[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        pass
    return None


def main() -> int:
    global _record
    signal.signal(signal.SIGALRM, _calibrate)
    signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
    root, spec = sys.argv[1], json.loads(sys.argv[2])
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    cli = importlib.import_module("topocrit.cli")
    for name in spec["lazy_imports"]:
        importlib.import_module(name)
    t_ready = time.perf_counter()
    steal_ready = steal_s(spec["cpu"])
    cal_ready = len(CAL)
    pkg_dir = os.path.dirname(os.path.abspath(cli.__file__))
    if os.path.dirname(pkg_dir) != os.path.abspath(src):
        print("topocrit was imported from %s, not %s" % (pkg_dir, src),
              file=sys.stderr)
        return 3
    result = {"t_start": T_START, "t_ready": t_ready,
              "steal_ready": steal_ready, "cal_ready": cal_ready,
              "codes": []}
    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans
        tracer = spans.install(spec["run_id"])
        tracer.record("setup.import", T_START, t_ready)
        _record = tracer.record
    for argv in spec["commands"]:
        result["codes"].append(cli.main(argv))
    result["t_done"] = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    result["cal"] = CAL
    if tracer is not None:
        result["spans"] = tracer.spans
        result["work"] = dict(tracer.work)
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
