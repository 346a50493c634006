"""The artin-sigma benchmark: one workload, every metric, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src/``
and nothing needs installing.  Workloads: cli-mix, polyhedron-build,
membership-stream, algebra-evidence (see NOTES.md for why each exists and
which layer should move which metric).

Set-up is measured several times, each in a fresh worker process
(``worker.py``), and reported at reference speed as the median; the last of
those workers also runs the timed phase.  Short set-ups are noisier, so the
count follows their cost: at least ``SETUP_RUNS_MIN``, more until the
set-ups have taken ``SETUP_BUDGET_S`` of wall time, at most
``SETUP_RUNS_MAX``.  A traced run sets up once, since it
reports no ``setup_s``.  Children run with ``PYTHONHASHSEED=0``.

A run that overruns ``deadline_s(--seconds)`` (170 s at 15 s) is killed, with
every process it started, and exits with code 1 without a result: a change
that slows a workload several-fold shows as a failed run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line before
it, and ``.bench_out/result-<workload>-seed<N>-trace<T>.json``, hold the
run's details: git SHA (when the checkout is a git repository), a digest
of ``src/``, Python version, core count, seed, and the percentile and
sample count behind ``job_tail_ms``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

import corpus

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(corpus.SRC)
PACKAGE = os.path.join(corpus.SRC, "artin_sigma")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("cli-mix", "polyhedron-build", "membership-stream", "algebra-evidence")
SETUP_RUNS_MIN = 3
SETUP_RUNS_MAX = 9
SETUP_BUDGET_S = 3.0


def deadline_s(seconds: float) -> float:
    """Wall-time limit of a whole run: set-ups, timed phase and checks."""
    return 110 + 4 * seconds


def src_digest() -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read() + b"\0")
    return h.hexdigest()


def git_sha():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                             stderr=subprocess.DEVNULL, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode().strip()


def run_worker(args, started, setup_only):
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    budget = deadline_s(args.seconds) - (time.monotonic() - started)
    t0 = time.monotonic()
    # A session of its own, so a worker that overruns is killed together
    # with any CLI process it has started.
    proc = subprocess.Popen(argv + ["--t0", repr(t0)], env=corpus.child_env(),
                            stdout=subprocess.PIPE, cwd=ROOT, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(budget, 1))
    except BaseException as exc:  # overran the deadline, or interrupted
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"{args.workload} overran its {deadline_s(args.seconds):.0f} s "
                             "deadline; worker killed") from None
        raise
    lines = stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"worker for {args.workload} failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def main():
    started = time.monotonic()
    parser = argparse.ArgumentParser(description="artin-sigma benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(PACKAGE, "__init__.py")):
        print(f"no package source at {os.path.relpath(PACKAGE, os.getcwd())}; "
              "run from the root of an artin-sigma checkout", file=sys.stderr)
        return 2

    setups = []
    while not args.trace and len(setups) + 1 < SETUP_RUNS_MAX and (
            len(setups) + 1 < SETUP_RUNS_MIN
            or sum(s["setup_raw_s"] for s in setups) < SETUP_BUDGET_S):
        setups.append(run_worker(args, started, True))
    result = run_worker(args, started, False)
    setups.append(result["details"].pop("setup"))
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = [statistics.median(s["setup_s"] for s in setups), "s"]

    details = dict(result["details"], workload=args.workload, seed=args.seed,
                   seconds=args.seconds, trace=args.trace, setups=setups,
                   git_sha=git_sha(), src_sha256=src_digest(),
                   python=platform.python_version(), nproc=len(os.sched_getaffinity(0)),
                   pythonhashseed="0")
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(details, fh, indent=1, sort_keys=True)
    print(json.dumps({"details": details}, sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
