"""Benchmark entry point: one workload, one seed, one JSON line of results.

    python3 perfbench/run.py --workload sample --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout. Set-up and the measured operations
each run in a fresh process started with one BLAS/OpenMP thread and a fixed
glibc mmap threshold (see README.md for why). The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; ``--trace 0``
reports the end-to-end metrics and ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
WORKLOADS = ("finetune", "sample", "simulate", "evaluate")
FIXED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    # a fixed threshold also turns off glibc's dynamic threshold adjustment
    "MALLOC_MMAP_THRESHOLD_": "131072",
    "PYTHONHASHSEED": "0",
}
DEADLINE_S = 170.0


def _phase(phase: str, args, root: Path, env: dict, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), phase,
           "--workload", args.workload, "--root", str(root), "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError(f"no time left for {phase}")
    subprocess.run(cmd, env=env, check=True, timeout=left, stdout=sys.stderr)
    return json.loads((root / f"{phase}.json").read_text())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (REPO / "src/artigen/__init__.py").is_file():
        print(f"perfbench: no src/artigen package under {REPO}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **FIXED_ENV)
    root = REPO / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(root, ignore_errors=True)
    root.mkdir(parents=True)
    try:
        set_up = _phase("setup", args, root, env, deadline)
        res = _phase("run", args, root, env, deadline)
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(root, ignore_errors=True)

    errors = set_up["errors"] + res["errors"]
    for err in errors:
        print(f"perfbench: check failed: {err}", file=sys.stderr)
    print(json.dumps({"setup_reps": set_up["reps"], "rounds": res["rounds"],
                      "details": res["details"]}), file=sys.stderr)
    raw = dict(res["metrics"], setup_s=set_up["setup_s"])
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": raw[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": not errors, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
