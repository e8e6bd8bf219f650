"""Run the repository benchmark.

    python3 perfbench/run.py [--workload suite|fuzz|serve|all] [--seed N]
                             [--seconds S] [--trace 0|1]

``--trace 0`` measures one workload untraced and prints its end-to-end
metrics; ``--workload all`` (the default) does so for every workload,
each in its own process.  ``--trace 1`` makes the separate traced run,
which replays a fixed amount of every workload whatever ``--workload``
names (in-process, and against a server started with ``--metrics-out``)
and prints the per-layer self-time tables and per-layer metrics.  The
last line of standard output is always one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from common import ROOT, SRC, WORKLOADS, BenchmarkError, check_ledger, log


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_metrics(title: str, metrics) -> None:
    log(f"{title}")
    for name, doc in metrics.items():
        log(f"  {name:34s} {doc['value']:>14.6g} {doc['unit']}")


def run_one(args) -> int:
    if args.trace:
        import traced

        result = traced.run(args.seed)
    else:
        module = __import__(f"{args.workload}_wl")
        result = module.run(args.seed, args.seconds)
    # Determinism guard: the same code on the same seed must repeat its
    # counts exactly, within this run and across runs.
    key = f"{'trace' if args.trace else args.workload}:{args.seed}"
    drift = result["drift"] + check_ledger(key, result["counts"])
    for problem in result["problems"][:20]:
        log(f"FAILED: {problem}")
    for message in drift:
        log(f"DETERMINISM DRIFT: {message}")
    print_metrics(
        f"{key}: {result['attempted']} attempted, {result['failed']} failed",
        result["metrics"],
    )
    for name, value in result.get("notes", {}).items():
        log(f"  note {name}: {value}")
    print(json.dumps({
        "correct": not result["problems"] and not drift and result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 1 if drift else 0


def run_all(args) -> int:
    """Every workload untraced, each in its own process so that peak-RSS
    figures stay apart; metrics are prefixed with the workload name."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            stdout=subprocess.PIPE, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if lines:
            # A child that exits 1 on determinism drift still prints its
            # result line; merge it so its verdict reaches this one.
            doc = json.loads(lines[-1])
            combined["correct"] = combined["correct"] and doc["correct"]
            combined["attempted"] += doc["attempted"]
            combined["failed"] += doc["failed"]
            for name, value in doc["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = value
        else:
            # No result at all: the workload counts as one failed op.
            combined["attempted"] += 1
            combined["failed"] += 1
        if proc.returncode != 0 or not lines:
            log(f"{workload}: exit code {proc.returncode}")
            combined["correct"] = False
            status = 1
    print_metrics("all workloads", combined["metrics"])
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        log(f"no repro sources under {SRC}; run from a full checkout")
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    try:
        if args.workload == "all" and not args.trace:
            return run_all(args)
        return run_one(args)
    except BenchmarkError as exc:
        log(f"benchmark error: {exc}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
