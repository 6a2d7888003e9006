"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 tools/bench_pairs.py --out BENCH_<n>.json --change TEXT
        [--base REV] [--pairs 10] [--seed S] [--seconds 35] [--smoke]

The two sides are fresh `git archive` copies made in a temporary directory:
the parent is the commit --base (default HEAD), and the change is the working
tree, with every file that git does not ignore, staged or not.  For every
workload W of BENCHMARK.json, pair i runs

    python3 bench/run.py --workload W --seed S+i --seconds T --trace 0

in both copies with the same seed, each copy with its own unchanged
bench/run.py.  The parent runs first in even pairs and the change first in
odd pairs.  The summary holds, per workload and end-to-end metric, the median
and the inclusive quartiles of each side and the number of pairs the change
won.  It also holds every pair's values and whether the SHA-256 hashes of the
pair's output files (the `checks.sha256` of each run record) matched.

The exit code is 0 when every run passed its checks and every pair's outputs
matched, and 1 otherwise; the summary is written either way.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def _git(*args, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, check=True).stdout


def working_tree() -> str:
    """A git tree id of the working tree, written through a temporary index
    so that the repository's own index is left as it is."""
    with tempfile.TemporaryDirectory() as tmp:
        env = dict(os.environ, GIT_INDEX_FILE=str(Path(tmp) / "index"))
        _git("read-tree", "HEAD", env=env)
        _git("add", "-A", env=env)
        return _git("write-tree", env=env).decode().strip()


def archive(rev: str, dest: Path) -> None:
    """Extract ``git archive rev`` into ``dest``."""
    data = _git("archive", "--format=tar", rev)
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def run_bench(copy: Path, workload: str, seed: int, seconds: float,
              smoke: bool) -> dict:
    """One bench/run.py run in ``copy``; returns its result record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.run(argv, cwd=copy, capture_output=True, text=True)
    record = copy / "bench" / "results" / ("%s_seed%d_trace0.json"
                                           % (workload, seed))
    if proc.returncode not in (0, 1) or not record.is_file():
        raise RuntimeError("%s exited with code %d:\n%s"
                           % (" ".join(argv), proc.returncode, proc.stderr))
    return json.loads(record.read_text())


def _quartiles(values) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(pairs, spec) -> dict:
    """The BENCH_<n>.json entry of one workload from its pairs.

    ``pairs`` is a list of {"seed", "first", "parent", "change"} with each
    side a run record of bench/run.py; ``spec`` is BENCHMARK.json.
    """
    metrics = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
        change = [p["change"]["metrics"][name]["value"] for p in pairs]
        won = sum((c < b) if lower else (c > b)
                  for b, c in zip(parent, change))
        metrics[name] = {"unit": m["unit"], "better": m["better"],
                         "parent": _quartiles(parent),
                         "change": _quartiles(change),
                         "change_better_pairs": won}
    detail = [{"seed": p["seed"], "first": p["first"],
               "outputs_identical": (p["parent"]["checks"]["sha256"]
                                     == p["change"]["checks"]["sha256"]),
               **{side: {m["name"]: p[side]["metrics"][m["name"]]["value"]
                         for m in spec["end_to_end"]}
                  for side in ("parent", "change")}}
              for p in pairs]
    return {"pairs": len(pairs),
            "all_checks_passed": all(p[side]["correct"] for p in pairs
                                     for side in ("parent", "change")),
            "seed_range": [pairs[0]["seed"], pairs[-1]["seed"]],
            "all_outputs_identical": all(d["outputs_identical"]
                                         for d in detail),
            "metrics": metrics,
            "pair_runs": detail}


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, help="summary JSON path")
    ap.add_argument("--change", required=True,
                    help="one line saying what the change does")
    ap.add_argument("--base", default="HEAD", help="parent commit")
    ap.add_argument("--pairs", type=int, default=MIN_PAIRS)
    ap.add_argument("--seed", type=int, default=1, help="seed of pair 0")
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--smoke", action="store_true",
                    help="bench/run.py --smoke: reduced problem sizes")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    return args


def main(argv=None) -> int:
    args = _parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.pairs < MIN_PAIRS:
        print("note: %d pairs are fewer than the %d a claimed gain needs"
              % (args.pairs, MIN_PAIRS), file=sys.stderr)
    base = _git("rev-parse", "--verify", args.base + "^{commit}").decode().strip()
    change_tree = working_tree()
    summary = {"change": args.change,
               "command": "python3 bench/run.py --workload W --seed S "
                          "--seconds %g --trace 0%s"
                          % (args.seconds, " --smoke" if args.smoke else ""),
               "method": "%d pairs per workload on git archive copies of the "
                         "parent commit %s and of the working tree (tree %s); "
                         "parent first in even pairs, change first in odd "
                         "pairs; one seed per pair; medians and inclusive "
                         "quartiles over the runs of each side; seconds are "
                         "net of steal and scaled to the reference core "
                         "speed (bench/README.md)"
                         % (args.pairs, base[:12], change_tree[:12]),
               "host": None, "workloads": {}}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copies = {"parent": Path(tmp) / "parent", "change": Path(tmp) / "change"}
        archive(base, copies["parent"])
        archive(change_tree, copies["change"])
        for workload in (w["name"] for w in spec["workloads"]):
            pairs = []
            for i in range(args.pairs):
                seed = args.seed + i
                order = ("parent", "change") if i % 2 == 0 else ("change",
                                                                 "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = run_bench(copies[side], workload, seed,
                                           args.seconds, args.smoke)
                pairs.append(pair)
                print("%s pair %d/%d seed %d: wall_s parent %.4g, change "
                      "%.4g; outputs %s" % (
                          workload, i + 1, args.pairs, seed,
                          pair["parent"]["metrics"]["wall_s"]["value"],
                          pair["change"]["metrics"]["wall_s"]["value"],
                          "identical" if pair["parent"]["checks"]["sha256"]
                          == pair["change"]["checks"]["sha256"]
                          else "DIFFER"), flush=True)
            summary["workloads"][workload] = summarize(pairs, spec)
            env = pairs[0]["change"]["environment"]
            summary["host"] = {key: env[key] for key in
                               ("cpu", "nproc", "python", "numpy", "scipy")}
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    print(args.out)
    ok = all(w["all_checks_passed"] and w["all_outputs_identical"]
             for w in summary["workloads"].values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
