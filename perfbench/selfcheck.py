"""Self-checks of the benchmark.

    python3 perfbench/selfcheck.py

Checks, from the root of a source checkout:

* every metric named in BENCHMARK.json is emitted, with its unit, by name
  matching [A-Za-z0-9_.-]+, for every workload, traced and untraced;
* every count metric repeats exactly across two traced runs;
* a failing operation is counted in failed_frac, not crashed on;
* a second seed runs and passes the oracle checks;
* BENCHMARK.json gives each workload a one-line reason, and
  predictions.json covers exactly its per-layer metrics and workloads;
* in a directory holding only BENCHMARK.json and perfbench/, the benchmark
  exits non-zero without printing a result.

Takes a few minutes; exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

from run import HERE, ROOT, tally

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def bench(workload: str, trace: int, seed: int = 7, cwd=ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )
    return proc.returncode, proc.stdout


def result_of(workload: str, trace: int, seed: int = 7) -> dict:
    rc, out = bench(workload, trace, seed)
    check(rc == 0, f"{workload} trace={trace} seed={seed} exited {rc}")
    result = json.loads(out.strip().splitlines()[-1])
    check(set(result) == {"correct", "attempted", "failed", "metrics"}, "result keys")
    check(result["correct"] is True, f"{workload} trace={trace} seed={seed} not correct")
    return result


def check(ok: bool, what: str) -> None:
    if not ok:
        print(f"FAIL {what}")
        sys.exit(1)


def check_metrics(result: dict, declared: list[dict], what: str) -> None:
    emitted = result["metrics"]
    check(sorted(emitted) == sorted(m["name"] for m in declared), f"{what}: metric names")
    for m in declared:
        got = emitted[m["name"]]
        check(NAME.fullmatch(m["name"]) is not None, f"{what}: name {m['name']!r}")
        check(got["unit"] == m["unit"], f"{what}: unit of {m['name']}")
        check(isinstance(got["value"], (int, float)), f"{what}: value of {m['name']}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]

    for w in spec["workloads"]:
        check(w["why"].strip() and "\n" not in w["why"], f"{w['name']}: one-line reason")
    predictions = json.loads((HERE / "predictions.json").read_text())["predictions"]
    predicted = {m for p in predictions for m in p["metrics"]}
    check(predicted == {m["name"] for m in spec["per_layer"]}, "predictions cover per_layer")
    ends = {m["name"] for m in spec["end_to_end"]}
    for p in predictions:
        check(set(p["on"] + p["no_change_on"]) <= set(workloads), f"{p['layer']}: workloads")
        check(set(p["should_move"]) <= ends, f"{p['layer']}: end-to-end names")
    print("ok   BENCHMARK.json reasons and predictions")

    for w in workloads:
        check_metrics(result_of(w, 0), spec["end_to_end"], f"{w} untraced")
        first, second = result_of(w, 1), result_of(w, 1)
        check_metrics(first, spec["per_layer"], f"{w} traced")
        for name in counts:
            a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
            check(a == b, f"{w}: count {name} differs between traced runs ({a} != {b})")
        print(f"ok   {w}: metrics emitted, counts repeat")

    # a failing operation is counted, not crashed on
    sys.path.insert(0, str(ROOT / "src"))
    import checks
    import passrun

    op = passrun.run_cli_op("coeffs --alpha 0.5 --n 5", 7)
    fig = {"kind": "figure", "id": "fig2a", "n_values": [3, 5], "error": "ConvergenceError: x"}
    rows = [(o["id"],) + r for o in (op, fig) for r in checks.op_outcomes(o, 7, None)]
    stats = tally([rows])
    check(op["rc"] == 1 and stats["failed"] == 3 and stats["failed_frac"] == 1.0, "failed ops counted")
    print("ok   failing operations are counted in failed_frac")

    result_of("cli-tables", 0, seed=8)
    print("ok   seed 8 runs and passes the oracles")

    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    rc, out = bench("kernel-route", 0, cwd=bare)
    shutil.rmtree(bare)
    check(rc != 0 and not out.strip(), "bare directory must fail without a result")
    print("ok   without the source the benchmark exits non-zero and prints no result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
