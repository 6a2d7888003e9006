import ast
import importlib
import importlib.util
import json
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _record(wall, ok_frac=1.0, hashes=None, correct=True):
    values = {"wall_s": wall, "setup_s": 0.1, "peak_rss_mb": 30.0,
              "ok_frac": ok_frac}
    return {"metrics": {k: {"value": v} for k, v in values.items()},
            "checks": {"sha256": hashes or {"out.csv": "ab"}},
            "correct": correct}


def test_summarize_counts_wins_quartiles_and_hash_matches():
    pairs = [{"seed": 5 + i, "first": ("parent", "change")[i % 2],
              "parent": _record(p), "change": _record(c)}
             for i, (p, c) in enumerate([(0.40, 0.30), (0.42, 0.31),
                                         (0.30, 0.35), (0.41, 0.33)])]
    pairs[2]["change"]["checks"]["sha256"] = {"out.csv": "cd"}
    got = bench_pairs.summarize(pairs, SPEC)
    assert got["pairs"] == 4 and got["seed_range"] == [5, 8]
    assert got["all_checks_passed"]
    assert not got["all_outputs_identical"]
    assert [d["outputs_identical"] for d in got["pair_runs"]] == [
        True, True, False, True]
    assert [d["first"] for d in got["pair_runs"]] == [
        "parent", "change", "parent", "change"]
    wall = got["metrics"]["wall_s"]
    assert wall["change_better_pairs"] == 3
    assert wall["parent"] == {"median": 0.405, "q1": 0.375, "q3": 0.4125}
    assert wall["change"]["median"] == 0.32
    # equal values win no pair, whichever way is better
    assert got["metrics"]["ok_frac"]["change_better_pairs"] == 0
    assert sorted(got["metrics"]) == sorted(m["name"]
                                            for m in SPEC["end_to_end"])


def test_summarize_one_pair_and_failed_check():
    pairs = [{"seed": 1, "first": "parent", "parent": _record(0.4),
              "change": _record(0.3, correct=False)}]
    got = bench_pairs.summarize(pairs, SPEC)
    assert not got["all_checks_passed"]
    assert got["metrics"]["wall_s"]["change"] == {"median": 0.3, "q1": 0.3,
                                                  "q3": 0.3}


# --- the topocrit names the benchmark looks up ---

def test_bench_names_resolve():
    # bench/spans.py wraps its TARGETS by (module, function) string, and
    # bench/checks.py imports from topocrit and reads attributes of the
    # modules it imports; a deleted or renamed name fails here
    spans, checks = (ast.parse((ROOT / "bench" / name).read_text())
                     for name in ("spans.py", "checks.py"))
    targets = next(node.value.elts for node in ast.walk(spans)
                   if isinstance(node, ast.Assign)
                   and [t.id for t in node.targets] == ["TARGETS"])
    pairs = {("topocrit." + t.elts[1].value, t.elts[2].value)
             for t in targets}
    modules = {}  # name -> the topocrit module it was imported from
    for node in ast.walk(checks):
        if isinstance(node, ast.ImportFrom) and node.module.startswith(
                "topocrit"):
            for alias in node.names:
                pairs.add((node.module, alias.name))
                modules[alias.asname or alias.name] = node.module
    pairs |= {(modules[node.value.id] + "." + node.value.id, node.attr)
              for node in ast.walk(checks) if isinstance(node, ast.Attribute)
              and getattr(node.value, "id", None) in modules}
    assert len(pairs) >= len(targets) + 5
    for module, name in sorted(pairs):
        # an attribute, or else a submodule, as ``from module import name``
        mod = importlib.import_module(module)
        sub = hasattr(mod, "__path__") and importlib.util.find_spec(
            module + "." + name)
        assert hasattr(mod, name) or sub, (module, name)


# --- the tests the CI workflow names ---

def test_workflow_names_existing_tests():
    # the tier1-min-deps job's comment names the tests it guards as
    # tests/<file>.py::<test>, and no job runs them by that name; a renamed
    # or deleted test fails here
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    named = re.findall(r"tests/(\w+\.py)::(\w+)", workflow)
    assert len(named) == 7  # "all seven" of that comment
    for file, test in named:
        tree = ast.parse((ROOT / "tests" / file).read_text())
        defs = {node.name for node in tree.body
                if isinstance(node, ast.FunctionDef)}
        assert test in defs, (file, test)
