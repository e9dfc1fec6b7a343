"""freudquad benchmark: timed cold-process passes and a traced per-layer replay.

    python3 perfbench/run.py --workload {kernel-route,series-route,cli-tables}
                             [--seed 7] [--seconds 40] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
``src/``.  Every pass runs in a fresh interpreter (``passrun.py``) with
``FREUDQ_THREADS`` removed from the environment, so the envelope-constant and
radial-moment caches start cold as they do for every ``freudq`` command.
Passes follow one another (one pass process at a time) until the next one
would end after ``--seconds``.

``--trace 0`` prints the end-to-end metrics:

  setup_s         median seconds from starting a process to the end of
                  ``import freudquad, freudquad.cli`` (every pass process and
                  extra import-only processes, at least SETUP_SAMPLES)
  wall_s          median seconds per workload pass, after set-up
  peak_rss_mb     median peak resident memory of a pass process
  completed_frac  median over passes of completed operations / attempted
  correct_frac    median over passes of outputs passing the checks / completed

An operation is a figure row or a ``freudq`` command; it fails when its row
is listed in ``params["failures"]``, the figure raises, or the command exits
non-zero.  failed_frac (failed / attempted) and wrong_frac (wrong / completed)
over all passes are printed too; the recorded metrics are the complements,
which are never 0.  ``correct`` is false when any operation outside
``workloads.KNOWN_DEFECTS`` fails or is wrong.

``--trace 1`` alternates an untimed-layer pass with a traced replay
(``replay.py``) and prints the per-layer metrics: self seconds and exact
counts per layer, run_figure / cli.main time and the orchestration overhead
they add over the replayed layer time, and the tracing overhead (traced
replay wall minus untraced pass wall).  The trace is rejected (``correct``
false) when the replay disagrees with the untraced outputs beyond
``checks.RTOL`` or a count differs between replays.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A full record of the
run (environment, revision, per-pass figures, non-ok outcomes, spans) is
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import DEFAULT_SEED, KNOWN_DEFECTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src" / "freudquad"
OUT = HERE / "out"

SETUP_SAMPLES = 5
RUN_DEADLINE_S = 170.0

LAYER_TIMES = (
    "orthopoly.build_basis",
    "gaussquad.gauss_rule",
    "kernels.sup_envelope_constant",
    "wce.series_truncation",
    "spaces.lambda_of",
    "mzframe.perturb_nodes",
    "mzframe.build_system",
    "mzframe.generalized_weights",
    "wce.wce_series",
    "wce.wce_me2",
)
REPLAY_COUNTS = (
    "orthopoly.build_basis.calls",
    "orthopoly.coeffs",
    "orthopoly.build_basis.failed",
    "gaussquad.gauss_rule.calls",
    "gaussquad.nodes",
    "kernels.sup_envelope_constant.calls",
    "wce.series_K",
    "spaces.lambda_of.values",
    "mzframe.systems",
    "mzframe.failed",
    "wce.wce_series.calls",
    "wce.series_modes",
    "wce.series_mode_nodes",
    "wce.wce_me2.calls",
    "wce.me2_pairs",
)
# spans that are benchmark glue rather than a layer
GLUE_SPANS = ("op", "row", "experiments.figure_spec")


class BenchError(Exception):
    """The run cannot produce a result."""


class Runner:
    """Starts the pass processes of one run and enforces its deadline."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.env = dict(os.environ)
        self.env.pop("FREUDQ_THREADS", None)
        paths = [str(ROOT / "src")] + [p for p in [self.env.get("PYTHONPATH")] if p]
        self.env["PYTHONPATH"] = os.pathsep.join(paths)

    def spawn(self, mode: str) -> dict:
        cmd = [sys.executable, str(HERE / "passrun.py"), "--mode", mode]
        if mode != "setup":
            cmd += ["--workload", self.workload, "--seed", str(self.seed)]
        remaining = RUN_DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            raise BenchError("run deadline passed")
        t0 = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=remaining,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} process exceeded the run deadline") from exc
        t1 = time.monotonic()
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(
                f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
            )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not Path(result["module"]).resolve().is_relative_to(SOURCE):
            raise BenchError(f"imported freudquad from {result['module']}, not {SOURCE}")
        result["setup_s"] = result["t_ready"] - t0
        result["process_s"] = t1 - t0
        return result

    def rounds(self, modes: tuple[str, ...], seconds: float) -> list[list[dict]]:
        """Repeat ``modes`` until the next round would end after ``seconds``."""
        begin = time.monotonic()
        done = []
        while True:
            done.append([self.spawn(m) for m in modes])
            elapsed = time.monotonic() - begin
            if elapsed + elapsed / len(done) > seconds:
                return done

    def setup_samples(self, samples: list[float]) -> list[float]:
        samples = list(samples)
        while len(samples) < SETUP_SAMPLES:
            samples.append(self.spawn("setup")["setup_s"])
        return samples


# ------------------------------------------------------------ correctness


def load_reference(workload: str, seed: int) -> dict | None:
    if seed != DEFAULT_SEED:
        return None
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["values"]


def pass_outcomes(passes: list[dict], seed: int, reference) -> list[list[tuple]]:
    """Outcomes of every op of every pass; identical outputs are checked once."""
    cache: dict[str, list] = {}
    per_pass = []
    for p in passes:
        rows = []
        for op in p["ops"]:
            key = json.dumps({k: v for k, v in op.items() if k != "s"}, sort_keys=True)
            if key not in cache:
                cache[key] = checks.op_outcomes(op, seed, reference)
            rows.extend((op["id"],) + o for o in cache[key])
        per_pass.append(rows)
    return per_pass


def tally(per_pass: list[list[tuple]]) -> dict:
    """Totals over all passes, and the per-pass fractions' medians."""
    attempted = failed = wrong = 0
    completed_fracs, correct_fracs = [], []
    undeclared = []
    for rows in per_pass:
        n_failed = sum(status == "failed" for _, _, status, _ in rows)
        n_wrong = sum(status == "wrong" for _, _, status, _ in rows)
        completed = len(rows) - n_failed
        completed_fracs.append(completed / len(rows))
        correct_fracs.append((completed - n_wrong) / completed if completed else 0.0)
        attempted += len(rows)
        failed += n_failed
        wrong += n_wrong
        undeclared += [
            (row, status, reason)
            for op_id, row, status, reason in rows
            if status != "ok" and op_id not in KNOWN_DEFECTS
        ]
    return {
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "completed_frac": statistics.median(completed_fracs),
        "correct_frac": statistics.median(correct_fracs),
        "failed_frac": failed / attempted,
        "wrong_frac": wrong / (attempted - failed) if attempted > failed else 0.0,
        "undeclared": undeclared,
    }


# ---------------------------------------------------------------- tracing


def _self_times(spans: list) -> dict[str, float]:
    child = [0.0] * len(spans)
    for sid, _, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = {}
    for sid, name, start, end, _, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start) - child[sid]
    return out


def _layer_time_by_kind(replayed: dict) -> dict[str, float]:
    kinds = {op["id"]: op["kind"] for op in replayed["ops"]}
    out = {"figure": 0.0, "cli": 0.0}
    for _, name, start, end, _, row in replayed["spans"]:
        if name not in GLUE_SPANS:
            out[kinds[row.split("#")[0]]] += end - start
    return out


def replay_disagrees(untraced: dict, replayed: dict) -> list[str]:
    """Ops whose replayed values differ from the untraced pass."""
    bad = []
    for a, b in zip(untraced["ops"], replayed["ops"]):
        got = checks.parse(a)
        if (got is None) != ("error" in b):
            bad.append(a["id"])
        elif got is not None:
            keys = [k for k in b if k not in ("kind", "id", "n_values", "failures")]
            same = checks.values_close({k: got[k] for k in keys}, {k: b[k] for k in keys})
            if a["kind"] == "figure":
                same = same and sorted(a["failures"]) == sorted(b["failures"])
            if not same:
                bad.append(a["id"])
    return bad


def layer_metrics(untraced: dict, replayed: dict) -> dict[str, float]:
    m: dict[str, float] = {}
    self_s = _self_times(replayed["spans"])
    for name in LAYER_TIMES:
        m[name + ".s"] = self_s.get(name, 0.0)
    for name in REPLAY_COUNTS:
        m[name] = replayed["counts"].get(name, 0)
    m["wce.series_mode_nodes_per_s"] = _rate(m["wce.series_mode_nodes"], m["wce.wce_series.s"])
    m["wce.me2_pairs_per_s"] = _rate(m["wce.me2_pairs"], m["wce.wce_me2.s"])

    figures = [op for op in untraced["ops"] if op["kind"] == "figure"]
    commands = [op for op in untraced["ops"] if op["kind"] == "cli"]
    layer_s = _layer_time_by_kind(replayed)
    m["experiments.run_figure.s"] = sum(op["s"] for op in figures)
    m["experiments.overhead_s"] = m["experiments.run_figure.s"] - layer_s["figure"]
    m["experiments.rows"] = sum(len(op["n_values"]) for op in figures)
    m["experiments.failed_rows"] = sum(
        len(op["n_values"]) if "error" in op else len(op["failures"]) for op in figures
    )
    m["cli.main.s"] = sum(op["s"] for op in commands)
    m["cli.overhead_s"] = m["cli.main.s"] - layer_s["cli"]
    m["cli.commands"] = len(commands)
    m["cli.nonzero_exits"] = sum(op["rc"] != 0 for op in commands)
    m["trace.overhead_s"] = replayed["wall_s"] - untraced["wall_s"]
    return m


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


# ------------------------------------------------------------------ output


def revision() -> dict:
    """Git revision when the checkout is a repository, and a source digest."""
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode())
        digest.update(path.read_bytes())
    git = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            git = ref_file.read_text().strip() if ref_file.is_file() else ref[5:]
        else:
            git = ref
    return {"git": git, "source_sha256": digest.hexdigest()[:16]}


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    q = statistics.quantiles(values, n=4)
    return [q[0], statistics.median(values), q[2]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no freudquad source at {SOURCE}", file=sys.stderr)
        return 2
    try:
        record = run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    for key, metric in record["metrics"].items():
        print(f"{key:36s} {metric['value']:<24.10g} {metric['unit']}")
    for key in ("failed_frac", "wrong_frac"):
        print(f"{key:36s} {record['tally'][key]:<24.10g} ratio")
    spread = record.get("wall_quartiles")
    print(f"passes: {record['passes']}" + (f", wall_s quartiles {spread}" if spread else ""))
    env = ", ".join(f"{k}={v}" for k, v in {**record["env"], **record["revision"]}.items())
    print(f"environment: {env}")
    for row, status, reason in record["tally"]["undeclared"][:20]:
        print(f"{status}: {row}: {reason}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run(args) -> dict:
    runner = Runner(args.workload, args.seed)
    runner.spawn("setup")  # compiles bytecode; not a sample
    reference = load_reference(args.workload, args.seed)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "revision": revision(),
    }
    if args.trace:
        rounds = runner.rounds(("pass", "replay"), args.seconds)
        untraced = [r[0] for r in rounds]
        differences = [op for a, b in rounds for op in replay_disagrees(a, b)]
        problems = [f"replay differs: {op}" for op in differences if op not in KNOWN_DEFECTS]
        per_round = [layer_metrics(a, b) for a, b in rounds]
        units = {k: metric_unit(k) for k in per_round[0]}
        counts = [k for k, unit in units.items() if unit == "count"]
        if any(m[k] != per_round[0][k] for m in per_round for k in counts):
            problems.append("a count differs between replays")
        metrics = {
            k: {"value": statistics.median(m[k] for m in per_round), "unit": units[k]}
            for k in per_round[0]
        }
        record["spans"] = [b["spans"] for _, b in rounds]
        record["replay_differences"] = differences
        record["replay_problems"] = problems
    else:
        untraced = [r[0] for r in runner.rounds(("pass",), args.seconds)]
        problems = []
        setups = runner.setup_samples([p["setup_s"] for p in untraced])
        walls = [p["wall_s"] for p in untraced]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {
                "value": statistics.median(p["peak_rss_mb"] for p in untraced),
                "unit": "MB",
            },
        }
        record["setup_quartiles"] = quartiles(setups)
        record["wall_quartiles"] = quartiles(walls)
        record["setup_samples"] = len(setups)

    stats = tally(pass_outcomes(untraced, args.seed, reference))
    if not args.trace:
        metrics["completed_frac"] = {"value": stats["completed_frac"], "unit": "ratio"}
        metrics["correct_frac"] = {"value": stats["correct_frac"], "unit": "ratio"}
    record.update(
        passes=len(untraced),
        env=untraced[0]["env"],
        walls=[p["wall_s"] for p in untraced],
        tally=stats,
        metrics=metrics,
        attempted=stats["attempted"],
        failed=stats["failed"],
        correct=not stats["undeclared"] and not problems,
    )
    return record


if __name__ == "__main__":
    sys.exit(main())
