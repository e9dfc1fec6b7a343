"""Record the reference outputs that later runs at the default seed must match.

    python3 perfbench/record.py

Runs two passes of every workload at the default seed, with the row thread
pool pinned to one thread (``FREUDQ_THREADS=1``; the package documents the
outputs as identical for every thread count, and with one thread they are
deterministic), requires them to agree, and writes
``perfbench/reference/<workload>.json``: the parsed outputs (table rows,
slopes, coefficients, rule weights, reports) of every op that passes the
oracles.  Ops listed in ``workloads.KNOWN_DEFECTS`` are stored with their
observed status instead of values; any other op that does not pass stops the
recording.  Run it only at a commit whose outputs are the intended reference.
"""

from __future__ import annotations

import json
import sys

import checks
from run import HERE, Runner, revision
from workloads import DEFAULT_SEED, KNOWN_DEFECTS, WORKLOADS


def main() -> int:
    for workload in WORKLOADS:
        runner = Runner(workload, DEFAULT_SEED)
        runner.env["FREUDQ_THREADS"] = "1"
        (result,), (again,) = (runner.rounds(("pass",), 0.0)[0] for _ in range(2))
        if json.dumps([checks.parse(op) for op in result["ops"]]) != json.dumps(
            [checks.parse(op) for op in again["ops"]]
        ):
            print(f"error: {workload}: two passes disagree", file=sys.stderr)
            return 1
        values, defects = {}, {}
        for op in result["ops"]:
            outcomes = checks.op_outcomes(op, DEFAULT_SEED, None)
            bad = [o for o in outcomes if o[1] != "ok"]
            if not bad:
                values[op["id"]] = checks.parse(op)
            elif op["id"] in KNOWN_DEFECTS:
                defects[op["id"]] = f"{bad[0][1]}: {bad[0][2]}"
            else:
                print(f"error: {workload}: {bad[0]}", file=sys.stderr)
                return 1
        path = HERE / "reference" / f"{workload}.json"
        path.parent.mkdir(exist_ok=True)
        payload = {
            "seed": DEFAULT_SEED,
            "revision": revision(),
            "env": result["env"],
            "defects": defects,
            "values": values,
        }
        path.write_text(json.dumps(payload) + "\n")
        print(f"{path.relative_to(HERE.parent)}: {len(values)} ops, defects {sorted(defects)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
