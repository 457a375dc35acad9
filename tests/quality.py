"""Score the real pipeline on the fixture eyeglasses, or compare two scorings.

Usage: python tests/quality.py SRC_ROOT OUT
       python tests/quality.py --compare OUT_A OUT_B
       python tests/quality.py --ablation SRC_ROOT

Imports ``artigen`` from ``SRC_ROOT/src`` (a checkout of this repository)
and, with one BLAS thread, runs one probe per fixture dataset seed 0-3:

- writes the 5-shot fixture eyeglasses dataset of that seed to
  ``OUT/seed<s>/data`` and fine-tunes it with ``cmd_finetune`` under the
  desk profile, seed 0;
- draws 40 corrected samples around ``glasses_01`` with ``cmd_sample``
  (seed 0), counting the passes of the correction loop through
  ``physics.grad_proj_wrt_z``;
- scores the draws against the 5 references with ``cmd_eval`` (512 points
  per cloud, ``sample_surface`` seeded by index within each set);
- draws the colliding set: 40 more corrected samples (seed 0) from the same
  model around ``glasses_01`` with both legs folded, their ``ref_states`` at
  the closed ends of their ranges (``FOLDED``, written to
  ``OUT/seed<s>/data/glasses_01/object_folded.json``).

Each seed's row holds: the draws wider in x than 1.5 times the widest
reference ("over-wide") and the widest draw; MMD, COV, 1-NNA and JSD; the
mean APD before and after correction; correction passes per draw; per
convex, the final mean Chamfer of its fit, its largest coefficient
magnitude, the smallest entry of its cage weights ``phi`` and the smallest
singular value of ``phi``; the GMM's largest variance; the fit and sample
wall times; and under ``colliding``, the colliding set's over-wide draws,
mean APD before and after correction and passes per draw, with the APD of
``glasses_01`` itself unfolded and folded (``cmd_simulate``). Passes per
draw count gradient passes, the final evaluation included: a draw that
takes all 10 test-time steps makes 11, one whose first step leaves z as it
is makes 1. The rows go to ``OUT/quality.json`` and tables of them to
standard output.

``--compare`` takes the ``OUT`` trees of two such runs, prints every value
that differs between their ``quality.json`` files, and exits 1 when any
value other than a wall time (a key ending in ``_s``) differs, 0 otherwise.

``--ablation`` repeats the paired run of ``test_metrics_and_ablation``
(tests/test_acceptance.py; its config is copied here) on fixture dataset
seeds 0-11: a 3-object dataset fine-tuned at ``lambda_phy`` 0 and 1, then 8
corrected draws around ``glasses_00`` from each model. Each BLAS thread
count (1, then 2) runs in its own subprocess. Per seed it prints lambda=1 /
lambda=0 - 1 of the mean APD after correction, then the share of seeds
where lambda=1 <= lambda=0, the check that test makes on seed 0.
"""

from __future__ import annotations

import contextlib
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# set before numpy is imported: the fitted model depends on the thread count
for _var in BLAS_VARS:
    os.environ[_var] = "1"

SEEDS = (0, 1, 2, 3)
ABLATION_SEEDS = range(12)
ABLATION_THREADS = (1, 2)
N_DRAWS = 40
OVER_WIDE = 1.5      # a draw is over-wide beyond this multiple of the widest reference
# the colliding set's leg ref_states: each leg at the folded end of its range
FOLDED = {"leg_l": [1.5], "leg_r": [-1.5]}


def _sample_counted(*args) -> tuple[dict, float, float]:
    """``cmd_sample(*args)``'s report, gradient passes per draw and wall time."""
    import artigen.physics as physics
    from artigen.pipeline import cmd_sample

    passes = []
    counted = physics.grad_proj_wrt_z

    def grad_proj_wrt_z(*a, **kw):
        passes.append(1)
        return counted(*a, **kw)

    physics.grad_proj_wrt_z = grad_proj_wrt_z
    try:
        t0 = time.perf_counter()
        report = cmd_sample(*args, n=N_DRAWS, seed=0)
        return report, len(passes) / N_DRAWS, time.perf_counter() - t0
    finally:
        physics.grad_proj_wrt_z = counted


def _folded(manifest: Path) -> Path:
    """A copy of ``manifest`` beside it with both legs' ``ref_states`` folded."""
    rec = json.loads(manifest.read_text())
    for part in rec["parts"]:
        if part["name"] in FOLDED:
            part["ref_states"] = FOLDED[part["name"]]
    path = manifest.with_name("object_folded.json")
    path.write_text(json.dumps(rec, indent=2))
    return path


def _probe(seed: int, out: Path) -> dict:
    import numpy as np

    from artigen.mesh import load_obj
    from artigen.pipeline import (PipelineConfig, cmd_eval, cmd_finetune,
                                  cmd_simulate, desk_profile, load_dataset)
    from fixtures import write_eyeglasses_dataset

    cfg = desk_profile(PipelineConfig(seed=0))
    dataset = write_eyeglasses_dataset(out / "data", n=5, seed=seed)
    t0 = time.perf_counter()
    model = cmd_finetune(dataset, out / "model.json", cfg)
    fit_s = time.perf_counter() - t0

    reference = out / "data/glasses_01/object.json"
    report, passes, sample_s = _sample_counted(out / "model.json", reference,
                                               out / "samples", cfg)
    scores = cmd_eval(out / "samples", dataset, cfg)["metrics"]
    folded = _folded(reference)
    report_f, passes_f, _ = _sample_counted(out / "model.json", folded,
                                            out / "samples_folded", cfg)

    def x_width(vertices) -> float:
        return float(np.ptp(vertices[:, 0]))

    def widths(samples: Path, rep: dict) -> list[float]:
        return [x_width(load_obj(samples / s["file"]).vertices)
                for s in rep["samples"] if s["file"] is not None]

    ref_widest = max(x_width(np.concatenate([p.merged().vertices for p in o.parts]))
                     for o in load_dataset(dataset).objects)
    drawn = widths(out / "samples", report)
    drawn_f = widths(out / "samples_folded", report_f)
    phis = [c.cage.phi for c in model.convexes]
    return {
        "draws": N_DRAWS,
        "failed_draws": N_DRAWS - len(drawn),
        "over_wide": sum(w > OVER_WIDE * ref_widest for w in drawn),
        "widest": max(drawn),
        "ref_widest": ref_widest,
        "mmd": scores["mmd"], "cov": scores["cov"],
        "one_nna": scores["one_nna"], "jsd": scores["jsd"],
        "apd_before": report["mean_apd_before"],
        "apd_after": report["mean_apd_after"],
        "passes_per_draw": passes,
        "convexes": [f"({c.part_index}, {c.convex_index})" for c in model.convexes],
        "final_chamfer": [c.loss_history[-1] for c in model.convexes],
        "max_abs_coeff": [float(np.abs(c.coeffs).max()) for c in model.convexes],
        "min_phi": [float(phi.min()) for phi in phis],
        "min_sv_phi": [float(np.linalg.svd(phi, compute_uv=False).min())
                       for phi in phis],
        "gmm_max_variance": float(model.gmm.variances.max()),
        "fit_s": fit_s,
        "sample_s": sample_s,
        "colliding": {
            "failed_draws": N_DRAWS - len(drawn_f),
            "over_wide": sum(w > OVER_WIDE * ref_widest for w in drawn_f),
            "widest": max(drawn_f),
            "apd_before": report_f["mean_apd_before"],
            "apd_after": report_f["mean_apd_after"],
            "passes_per_draw": passes_f,
            "ref_apd": cmd_simulate(reference, cfg)["l_phy"],
            "ref_apd_folded": cmd_simulate(folded, cfg)["l_phy"],
        },
    }


def _table(rows: dict) -> str:
    """One line per seed, in the ROADMAP probe table's units."""
    lines = ["seed  over-wide (widest)  MMDx1e3     COV   1-NNA    JSD  "
             "APD before -> after   passes  final Chamfer x1e3         "
             "max |coeff|               GMM max var   fit s  sample s"]
    for seed, r in rows.items():
        chamfer = " / ".join(f"{c * 1e3:.3g}" for c in r["final_chamfer"])
        coeff = " / ".join(f"{c:.2g}" for c in r["max_abs_coeff"])
        lines.append(
            f"{seed:>4}  {r['over_wide']:>2}/{r['draws']} ({r['widest']:.2f})"
            f"{r['mmd'] * 1e3:>13.2f}  {r['cov']:>5.0%}  {r['one_nna']:>6.1%}"
            f"  {r['jsd']:.3f}  {r['apd_before']:.3e} -> {r['apd_after']:.3e}"
            f"  {r['passes_per_draw']:>6.3f}  {chamfer:<25}  {coeff:<24}"
            f"  {r['gmm_max_variance']:>11.3g}  {r['fit_s']:>6.1f}"
            f"  {r['sample_s']:>8.2f}")
    lines.append("\nseed  min phi                             min singular value of phi"
                 "           colliding over-wide (widest)  APD before -> after"
                 "   passes  glasses_01 APD unfolded -> folded")
    for seed, r in rows.items():
        phi = " / ".join(f"{v:.2g}" for v in r["min_phi"])
        sv = " / ".join(f"{v:.2g}" for v in r["min_sv_phi"])
        c = r["colliding"]
        lines.append(
            f"{seed:>4}  {phi:<34}  {sv:<34}  {c['over_wide']:>12}/{r['draws']}"
            f" ({c['widest']:.2f})  {c['apd_before']:.3e} -> {c['apd_after']:.3e}"
            f"  {c['passes_per_draw']:>6.3f}  {c['ref_apd']:.3e} -> "
            f"{c['ref_apd_folded']:.3e}")
    return "\n".join(lines)


def _leaves(node, at: tuple = ()):
    """(dotted path, value) for every list length and scalar of a JSON tree."""
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _leaves(node[key], at + (key,))
    elif isinstance(node, list):
        yield ".".join(at + ("len",)), len(node)
        for i, item in enumerate(node):
            yield from _leaves(item, at + (str(i),))
    else:
        yield ".".join(at), node


def compare(out_a: Path, out_b: Path) -> int:
    """Print every differing value; 1 if any that is not a wall time differs."""
    a, b = (dict(_leaves(json.loads((o / "quality.json").read_text())))
            for o in (out_a, out_b))
    n_diff = 0
    for key in sorted(a.keys() | b.keys()):
        if a.get(key, "missing") == b.get(key, "missing"):
            continue
        timing = key.endswith("_s")
        n_diff += not timing
        print(f"{key}  {a.get(key, 'missing')!r} vs {b.get(key, 'missing')!r}"
              + ("  (wall time)" if timing else ""))
    print(f"{n_diff} values differ, wall times aside")
    return int(n_diff > 0)


def _ablation_apds(dataset_seed: int, out: Path) -> tuple[float, float]:
    """Mean APD after correction at lambda_phy 0 and 1, as the test runs them."""
    from artigen.basis import FitConfig
    from artigen.physics import SimConfig
    from artigen.pipeline import PipelineConfig, cmd_finetune, cmd_sample
    from fixtures import write_eyeglasses_dataset

    ds = write_eyeglasses_dataset(out / "data", n=3, seed=dataset_seed)
    apds = []
    for lam in (0.0, 1.0):
        cfg = PipelineConfig(k=3, finetune_outer_iters=2, lambda_phy=lam, seed=0,
                             fit=FitConfig(chamfer_samples=128),
                             sim=SimConfig(n_steps=10, n_det=2, seed=0))
        cmd_finetune(ds, out / f"model_{lam}.json", cfg)
        rep = cmd_sample(out / f"model_{lam}.json", out / "data/glasses_00/object.json",
                         out / f"samples_{lam}", cfg, n=8, seed=11)
        apds.append(rep["mean_apd_after"])
    return tuple(apds)


def ablation(src_root: Path) -> int:
    """Print the ablation pairs per seed under each BLAS thread count."""
    for threads in ABLATION_THREADS:
        run = subprocess.run([sys.executable, __file__, "--ablation-worker",
                              str(src_root), str(threads)], capture_output=True,
                             text=True)
        if run.returncode != 0:
            print(run.stderr, file=sys.stderr)
            return run.returncode
        pairs = json.loads(run.stdout)
        print(f"{threads} BLAS thread(s): lambda=1 / lambda=0 - 1 of mean APD after")
        for seed, (apd0, apd1) in pairs.items():
            print(f"  seed {seed:>2}  {apd1 / apd0 - 1:+7.1%}  "
                  f"({apd1:.6e} vs {apd0:.6e})")
        held = sum(apd1 <= apd0 + 1e-12 for apd0, apd1 in pairs.values())
        print(f"  lambda=1 <= lambda=0 on {held}/{len(pairs)} seeds")
    return 0


def _import_artigen(src_root: Path) -> bool:
    """Put ``SRC_ROOT/src`` and this directory first on the path; check it took."""
    sys.path[:0] = [str(src_root / "src"), str(Path(__file__).resolve().parent)]
    import artigen

    if not Path(artigen.__file__).is_relative_to(src_root):
        print(f"artigen imported from {artigen.__file__}, not {src_root}",
              file=sys.stderr)
        return False
    return True


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "--compare":
        return compare(Path(argv[1]), Path(argv[2]))
    if len(argv) == 2 and argv[0] == "--ablation":
        return ablation(Path(argv[1]).resolve())
    if len(argv) == 3 and argv[0] == "--ablation-worker":
        # numpy is not imported yet, so BLAS starts with this thread count
        for var in BLAS_VARS:
            os.environ[var] = argv[2]
        if not _import_artigen(Path(argv[1])):
            return 2
        with contextlib.redirect_stdout(sys.stderr), tempfile.TemporaryDirectory() as tmp:
            pairs = {str(seed): _ablation_apds(seed, Path(tmp) / f"seed{seed}")
                     for seed in ABLATION_SEEDS}
        print(json.dumps(pairs))
        return 0
    if len(argv) != 2:
        print("\n".join(__doc__.strip().splitlines()[2:5]), file=sys.stderr)
        return 2
    src_root, out = (Path(a).resolve() for a in argv)
    if not _import_artigen(src_root):
        return 2
    rows = {}
    with contextlib.redirect_stdout(sys.stderr):
        for seed in SEEDS:
            rows[str(seed)] = _probe(seed, out / f"seed{seed}")
    out.mkdir(parents=True, exist_ok=True)
    (out / "quality.json").write_text(json.dumps(rows, indent=2))
    print(_table(rows))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
