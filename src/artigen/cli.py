"""Command-line entry point."""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np
import scipy

from . import __version__, pipeline
from .mesh import read_json
from .pipeline import PipelineConfig, PipelineError, apply_overrides, desk_profile


def _load_config_file(path) -> dict:
    path = Path(path)
    if path.suffix != ".toml":
        return read_json(path, PipelineError)
    import tomllib

    try:
        return tomllib.loads(path.read_text(encoding="utf-8"))
    except (tomllib.TOMLDecodeError, UnicodeDecodeError) as e:
        raise PipelineError(f"{path}: invalid TOML: {e}") from e


def _build_config(args) -> PipelineConfig:
    cfg = PipelineConfig()
    if args.profile == "desk":
        cfg = desk_profile(cfg)
    rec = _load_config_file(args.config) if args.config else {}
    cfg = apply_overrides(cfg, rec)
    # a seed reaches the simulation too, unless the file seeds it itself
    if "seed" in rec and "seed" not in rec.get("sim", {}):
        cfg.sim.seed = cfg.seed
    if args.seed is not None:
        cfg.seed = cfg.sim.seed = args.seed
    if getattr(args, "lambda_phy", None) is not None:
        cfg.lambda_phy = args.lambda_phy
    if args.jobs is not None:
        cfg.jobs = args.jobs
    return cfg


def _provenance(args, cfg: PipelineConfig) -> dict:
    """The command's arguments, the full resolved config and library versions."""
    return {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "args": vars(args),
        "config": asdict(cfg),
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "artigen": __version__},
        "status": "running",
    }


def _write_run(run_dir, rec: dict) -> None:
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    (run_dir / "run.json").write_text(json.dumps(rec, indent=2))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="artigen",
        description="Few-shot articulated mesh generation via cage deformation",
    )
    parser.add_argument("--config", help="JSON or TOML config override file")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--profile", choices=("paper", "desk"), default="paper")
    parser.add_argument("--jobs", type=int, default=None,
                        help="per-convex fits run in parallel during pretrain")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", help="fit per-convex deformation bases")
    p.add_argument("dataset", help="dataset manifest JSON")
    p.add_argument("out", help="output run directory")

    p = sub.add_parser("finetune", help="adapt bases, synchronize, fit sampler")
    p.add_argument("dataset")
    p.add_argument("out")
    p.add_argument("--pretrained", help="model.json from pretrain (optional)")
    p.add_argument("--lambda-phy", type=float, default=None)

    p = sub.add_parser("sample", help="generate corrected mesh samples")
    p.add_argument("model")
    p.add_argument("reference", help="reference object manifest")
    p.add_argument("out")
    p.add_argument("-n", type=int, default=pipeline.SAMPLES_PER_REFERENCE)
    p.add_argument("--z-zero", action="store_true",
                   help="force zero coefficients (identity deformation)")

    p = sub.add_parser("simulate", help="collision losses for one object")
    p.add_argument("manifest")
    p.add_argument("out")

    p = sub.add_parser("eval", help="distribution metrics for generated meshes")
    p.add_argument("generated", help="directory of .obj samples")
    p.add_argument("reference", help="reference dataset manifest")
    p.add_argument("out")

    p = sub.add_parser("correct", help="run test-time correction on one shape")
    p.add_argument("model")
    p.add_argument("reference")
    p.add_argument("out")
    p.add_argument("--z-file", help="JSON file with a coefficient vector")
    return parser


def main(argv=None) -> int:
    """Run one command; ``OUT/run.json`` is written before it and again after."""
    args = build_parser().parse_args(argv)
    cfg = _build_config(args)
    out = Path(args.out)
    rec = _provenance(args, cfg)
    _write_run(out, rec)
    start = time.perf_counter()
    try:
        _run_command(args, cfg, out)
    except BaseException as e:
        rec.update(status="error", error=f"{type(e).__name__}: {e}")
        raise
    else:
        rec["status"] = "ok"
    finally:
        rec["wall_s"] = time.perf_counter() - start
        _write_run(out, rec)
    return 0


def _run_command(args, cfg: PipelineConfig, out: Path) -> None:
    if args.command == "pretrain":
        model = pipeline.cmd_pretrain(args.dataset, out / "model.json", cfg)
        print(f"pretrained {len(model.convexes)} convex bases -> {out/'model.json'}")

    elif args.command == "finetune":
        model = pipeline.cmd_finetune(args.dataset, out / "model.json", cfg,
                                      pretrained_path=args.pretrained)
        print(f"finetuned model with sync + GMM -> {out/'model.json'}")

    elif args.command == "sample":
        report = pipeline.cmd_sample(args.model, args.reference, out, cfg,
                                     n=args.n, seed=args.seed,
                                     z_zero=args.z_zero)
        failed = sum(s["file"] is None for s in report["samples"])
        print(f"wrote {report['n'] - failed} samples to {out}"
              + (f" ({failed} failed, see samples_report.json)" if failed else "")
              + f"; mean APD {report['mean_apd_before']:.3e} -> "
              f"{report['mean_apd_after']:.3e}")

    elif args.command == "simulate":
        report = pipeline.cmd_simulate(args.manifest, cfg)
        (out / "collision.json").write_text(json.dumps(report, indent=2))
        print(f"L_phy {report['l_phy']:.6e}  L_proj {report['l_proj']:.6e}")

    elif args.command == "eval":
        result = pipeline.cmd_eval(args.generated, args.reference, cfg)
        (out / "metrics.json").write_text(json.dumps(result["metrics"], indent=2))
        print(result["table"])

    elif args.command == "correct":
        result = pipeline.cmd_correct(args.model, args.reference, cfg,
                                      z_path=args.z_file,
                                      out_path=out / "corrected.obj")
        (out / "correct.json").write_text(json.dumps(result, indent=2))
        print(f"L_phy {result['before']['l_phy']:.6e} -> "
              f"{result['after']['l_phy']:.6e}")


if __name__ == "__main__":
    sys.exit(main())
