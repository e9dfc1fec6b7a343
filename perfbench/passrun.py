"""One fresh-interpreter process of the benchmark.

    python3 perfbench/passrun.py --mode {setup,pass,replay} --workload W --seed N

The process imports ``freudquad`` and ``freudquad.cli`` first and records
the monotonic time at which that set-up ended; ``run.py`` subtracts the time
at which it started the process.  ``setup`` stops there.  ``pass`` runs the
workload's operations through ``run_figure`` and ``freudquad.cli.main``.
``replay`` rebuilds the same outputs through the public layer functions with
spans around every call (see ``replay.py``).  The result is one JSON line on
standard output.
"""

import sys
import time

import freudquad
import freudquad.cli

T_READY = time.monotonic()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402

from workloads import WORKLOADS, cli_argv  # noqa: E402


def run_figure_op(fid: str, seed: int) -> dict:
    spec = freudquad.figure_spec(fid, seed=seed)
    out = {"kind": "figure", "id": fid, "n_values": list(spec.n_values)}
    start = time.perf_counter()
    try:
        table = freudquad.run_figure(spec)
    except Exception as exc:  # a raised error fails every row of the figure
        out["error"] = f"{type(exc).__name__}: {exc}"
    else:
        out.update(
            ns=list(table.ns),
            wce=list(table.wce),
            slope=table.slope,
            failures=table.params.get("failures", {}),
        )
    out["s"] = time.perf_counter() - start
    return out


def run_cli_op(command: str, seed: int) -> dict:
    stdout, stderr = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(stdout), redirect_stderr(stderr):
            rc = freudquad.cli.main(cli_argv(command, seed))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # an escaping error is a failed command
        rc = None
        stderr.write(f"{type(exc).__name__}: {exc}")
    elapsed = time.perf_counter() - start
    return {
        "kind": "cli",
        "id": command,
        "rc": rc,
        "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue()[-2000:],
        "s": elapsed,
    }


def run_workload(workload: str, seed: int) -> list[dict]:
    ops = []
    for kind, ident in WORKLOADS[workload]:
        if kind == "figure":
            ops.append(run_figure_op(ident, seed))
        else:
            ops.append(run_cli_op(ident, seed))
    return ops


def environment() -> dict:
    """What the figures depend on besides the source: recorded with every run."""
    import mpmath
    import numpy
    import scipy

    from freudquad.experiments import worker_count

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # show_config's layout is not a stable interface
        blas = f"unknown ({type(exc).__name__})"
    return {
        "worker_count": worker_count(),
        "cpu_count": os.cpu_count(),
        "blas": blas,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "python": sys.version.split()[0],
        "freudq_threads": os.environ.get("FREUDQ_THREADS"),
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "pass", "replay"), required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int)
    args = parser.parse_args()

    result = {"t_ready": T_READY, "module": freudquad.__file__}
    if args.mode == "pass":
        start = time.perf_counter()
        result["ops"] = run_workload(args.workload, args.seed)
        result["wall_s"] = time.perf_counter() - start
        result["env"] = environment()
    elif args.mode == "replay":
        from replay import replay_workload

        start = time.perf_counter()
        replayed = replay_workload(args.workload, args.seed)
        result["wall_s"] = time.perf_counter() - start
        result.update(replayed)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
