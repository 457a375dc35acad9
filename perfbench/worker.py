"""One workload process: ``setup`` prepares inputs, ``run`` measures and checks.

Started by ``run.py`` with a fixed thread count and allocator setting;
writes its result as JSON to ``<root>/<phase>.json``.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# workloads whose first operation is repeated after the run to check that a
# repeat gives identical files
REPEAT = {"sample", "simulate"}
MIN_SETUP_REPS, SETUP_FILL_S, MAX_SETUP_REPS = 3, 1.0, 25
OVERHEAD = "trace.overhead_pct"


def _differing(a: Path, b: Path) -> list[str]:
    """Files under ``a`` that are missing under ``b`` or differ from it."""
    out = []
    for p in sorted(a.rglob("*")):
        q = b / p.relative_to(a)
        if p.is_file() and not (q.is_file() and filecmp.cmp(p, q, shallow=False)):
            out.append(str(p.relative_to(a)))
    return out


def setup(workload: str, root: Path, seed: int) -> dict:
    """Set up several times; report the median and check that repeats agree."""
    make_inputs = WORKLOADS[workload][0]
    times, errors = [], []
    while len(times) < MIN_SETUP_REPS or (sum(times) < SETUP_FILL_S
                                          and len(times) < MAX_SETUP_REPS):
        target = root / f"setup_{len(times)}"
        target.mkdir()
        t0 = time.perf_counter()
        make_inputs(target, seed)
        times.append(time.perf_counter() - t0)
        if len(times) > 1:
            first = root / "setup_0"
            errors += [f"set-up repeat differs: {p}" for p in
                       sorted(set(_differing(first, target) + _differing(target, first)))]
            shutil.rmtree(target)
    (root / "setup_0").rename(root / "inputs")
    return {"setup_s": statistics.median(times), "reps": len(times), "errors": errors}


def _run_round(ops, failures: list[str]) -> tuple[float, int]:
    t0 = time.perf_counter()
    failed = 0
    for op in ops:
        try:
            op()
        except Exception:
            failed += 1
            failures.append(traceback.format_exc(limit=3))
    return time.perf_counter() - t0, failed


def run(workload: str, root: Path, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat whole rounds until ``seconds`` have passed, then check the outputs.

    With ``trace`` the rounds alternate untraced and traced, starting
    untraced; the per-layer metrics come from the traced rounds and the
    overhead from comparing the two kinds.
    """
    _, make_round, check = WORKLOADS[workload]
    inputs = root / "inputs"
    tracer = Tracer() if trace else None
    plain, traced, failures = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    k = 0
    while (time.perf_counter() - start < seconds or not plain
           or (trace and not traced)):
        out = root / f"round_{k}"
        out.mkdir()
        ops = make_round(inputs, seed, out)
        use_trace = trace and k % 2 == 1
        if use_trace:
            ops = [_in_op(tracer, op) for op in ops]
            tracer.install()
        try:
            elapsed, bad = _run_round(ops, failures)
        finally:
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else plain).append(elapsed)
        attempted += len(ops)
        failed += bad
        k += 1
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    n_ops = len(ops)

    errors, details = [], {}
    if not failed:
        try:
            errors, details = check(inputs, seed, root / "round_0")
            if workload in REPEAT:
                again = root / "repeat"
                again.mkdir()
                make_round(inputs, seed, again)[0]()
                errors += [f"repeat differs: {p}"
                           for p in _differing(again, root / "round_0")]
        except Exception:
            errors.append(traceback.format_exc(limit=5))
    metrics = {"throughput": n_ops / statistics.median(plain),
               "peak_rss_mb": peak_mb}
    if trace:
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        metrics.update(tracer.per_layer(len(traced) * n_ops,
                                        [m["name"] for m in spec["per_layer"]
                                         if m["name"] != OVERHEAD]))
        metrics[OVERHEAD] = 100.0 * (statistics.median(traced)
                                     / statistics.median(plain) - 1.0)
        (root.parent / f"trace-{workload}-{seed}.json").write_text(
            json.dumps(tracer.dump()))
    return {"attempted": attempted, "failed": failed, "errors": errors + failures,
            "metrics": metrics, "details": details,
            "rounds": {"plain_s": plain, "traced_s": traced}}


def _in_op(tracer: Tracer, op):
    def traced_op():
        tracer.begin_op()
        return op()
    return traced_op


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("phase", choices=["setup", "run"])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.phase == "setup":
        result = setup(args.workload, args.root, args.seed)
    else:
        result = run(args.workload, args.root, args.seed, args.seconds,
                     bool(args.trace))
    (args.root / f"{args.phase}.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
