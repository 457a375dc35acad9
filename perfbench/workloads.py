"""The four workloads: set-up, one round of operations, and output checks.

A round is the fixed list of operations a workload repeats; every round of
a run does the same work on the same inputs. Set-up writes inputs under
``root``; operations write under ``out``; checks read both and return
``(errors, details)``, where details are reference figures for the README.
"""

from __future__ import annotations

import json
import math
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np

import gen
import oracles
from artigen.basis import GaussianMixture, sample_gmm
from artigen.mesh import Part, TriMesh, load_manifest, load_obj, sample_surface
from artigen.physics import SimConfig, physics_losses
from artigen.pipeline import (
    PipelineConfig,
    cmd_eval,
    cmd_finetune,
    cmd_sample,
    cmd_simulate,
    desk_profile,
    load_dataset,
)

N_SHOTS = 5
# ICP round counts, and so fine-tune time, vary by up to 35% from one
# dataset to the next; a round fine-tunes two datasets to average it out
FINETUNE_DATASETS = 2
SAMPLES_PER_REFERENCE = 2     # cmd_sample with n=1 raises; see CHANGES.md
EVAL_SHAPES = 40
EVAL_POINTS = 512             # the desk profile's evaluation sample count
SIM_STEPS, SIM_DETECTIONS = 100, 20
CHECK_POINTS = 1024           # own surface samples per convex in the fit check


def _desk(**fields) -> PipelineConfig:
    cfg = desk_profile(PipelineConfig(seed=0))
    for key, val in fields.items():
        setattr(cfg, key, val)
    return cfg


FINETUNE_CFG = _desk(finetune_outer_iters=1)
SAMPLE_CFG = _desk()
SIM_CFG = PipelineConfig(seed=0, sim=SimConfig(n_steps=SIM_STEPS, n_det=SIM_DETECTIONS))
EVAL_CFG = PipelineConfig(seed=0, eval_points=EVAL_POINTS)


def _refs(root: Path) -> list[Path]:
    return sorted(root.glob("data/glasses_*/object.json"))


def _manifest_geometry(path: Path) -> list[list[tuple[np.ndarray, np.ndarray]]]:
    """Per part, per convex (vertices, faces), read with the benchmark's reader."""
    spec = json.loads(path.read_text())
    return [[gen.read_obj(path.parent / name) for name in part["convex_objs"]]
            for part in spec["parts"]]


# Every set-up ends by reading its inputs back through the program's own
# loaders, so that the program accepts them before any round is timed.


# ---------------------------------------------------------------------------
# finetune: basis fitting, train-time correction, sync and GMM


def setup_finetune(root: Path, seed: int) -> None:
    for d in range(FINETUNE_DATASETS):
        load_dataset(gen.write_eyeglasses_dataset(root / f"data_{d}", seed, N_SHOTS,
                                                  variant=d))


def round_finetune(root: Path, seed: int, out: Path):
    return [lambda d=d: cmd_finetune(root / f"data_{d}/dataset.json",
                                     out / f"model_{d}.json", replace(FINETUNE_CFG))
            for d in range(FINETUNE_DATASETS)]


def check_finetune(root: Path, seed: int, out: Path):
    errors, details = [], []
    for d in range(FINETUNE_DATASETS):
        errs, det = _check_model(out / f"model_{d}.json", root / f"data_{d}", seed)
        errors += [f"dataset {d}: {e}" for e in errs]
        details.append(det)
    return errors, {"datasets": details}


def _check_model(model_path: Path, data: Path, seed: int):
    errors, worst, within_resolution = [], (0.0, 0.0), 0
    model = json.loads(model_path.read_text())
    geoms = [_manifest_geometry(p) for p in sorted(data.glob("glasses_*/object.json"))]
    flat = [[c for part in g for c in part] for g in geoms]
    rng = np.random.default_rng([seed, 4])
    sync = model["sync"]
    z_glob = np.array(sync["global_coeffs"])
    sync_err = 0.0
    n_fit = FINETUNE_CFG.fit.chamfer_samples
    for m, conv in enumerate(model["convexes"]):
        src_v, src_f = flat[0][m]
        phi = np.array(conv["cage_phi"])
        bases = np.array(conv["bases"])
        coeffs = np.array(conv["coeffs"])
        s_m = np.array(sync["s_matrices"][m])
        for i, (tgt_v, tgt_f) in enumerate(f[m] for f in flat[1:]):
            own = np.einsum("k,kna->na", coeffs[i], bases)      # cage offsets
            fitted = src_v + phi @ own
            tgt = oracles.sample_surface(tgt_v, tgt_f, CHECK_POINTS, rng)
            cd_fit, cd_src = (oracles.surface_chamfer(
                oracles.sample_surface(v, src_f, CHECK_POINTS, rng), (v, src_f),
                tgt, (tgt_v, tgt_f)) for v in (fitted, src_v))
            # a fit cannot resolve distances below the Chamfer between two
            # independent samplings of the target at the fit's own sample count
            floor = oracles.chamfer(*(oracles.sample_surface(tgt_v, tgt_f, n_fit, rng)
                                      for _ in range(2)))
            # synced offsets: basis j of the synced set is sum_k S[k, j] b_k
            synced = np.einsum("k,kna->na", s_m @ z_glob[i], bases)
            sync_err = max(sync_err, float(np.abs(synced - own).max()
                                           / max(np.abs(own).max(), 1e-300)))
            if cd_src < floor and cd_fit < floor:
                within_resolution += 1
                continue
            if not cd_fit < cd_src:
                errors.append(f"convex {m} target {i}: fitted CD {cd_fit:.3e} "
                              f">= undeformed {cd_src:.3e}")
            if cd_fit * worst[1] >= worst[0] * cd_src:
                worst = (cd_fit, cd_src)
    if N_SHOTS - 1 <= model["k"] and not sync_err < 1e-6:
        errors.append(f"synchronized offsets deviate by {sync_err:.2e} (relative)")
    return errors, {"fit_pairs": len(model["convexes"]) * (N_SHOTS - 1),
                    "within_resolution": within_resolution,
                    "worst_fit_cd": worst[0], "worst_undeformed_cd": worst[1],
                    "sync_rel_err": sync_err}


# ---------------------------------------------------------------------------
# sample: test-time correction around each reference


def setup_sample(root: Path, seed: int) -> None:
    # one model for every seed: sampling cost follows how wild the model's
    # draws are, so a model fitted per seed would spread the runs by model
    train = gen.write_eyeglasses_dataset(root / "train", 0, N_SHOTS, variant=2)
    cmd_finetune(train, root / "model.json", replace(FINETUNE_CFG))
    load_dataset(gen.write_eyeglasses_dataset(root / "data", seed, N_SHOTS))


def _sample_seed(seed: int, r: int) -> int:
    return 10 * seed + r


def round_sample(root: Path, seed: int, out: Path):
    return [lambda r=r, ref=ref: cmd_sample(
                root / "model.json", ref, out / f"ref_{r}", replace(SAMPLE_CFG),
                n=SAMPLES_PER_REFERENCE, seed=_sample_seed(seed, r))
            for r, ref in enumerate(_refs(root))]


def check_sample(root: Path, seed: int, out: Path):
    errors = []
    rec = json.loads((root / "model.json").read_text())["gmm"]
    gmm = GaussianMixture.from_dict(rec)
    befores, afters, dz = [], [], 0.0
    pool = out / "pool"
    pool.mkdir()
    for r, ref in enumerate(_refs(root)):
        geom = _manifest_geometry(ref)
        want_v, want_f = gen.merge(c for part in geom for c in part)
        manifest = load_manifest(ref)
        report = json.loads((out / f"ref_{r}/samples_report.json").read_text())
        drawn = sample_gmm(gmm, seed=_sample_seed(seed, r), n=SAMPLES_PER_REFERENCE)
        for s, entry in enumerate(report["samples"]):
            path = out / f"ref_{r}" / entry["file"]
            v, f = gen.read_obj(path)
            where = f"ref {r} {entry['file']}"
            if len(v) != len(want_v) or not np.array_equal(f, want_f):
                errors.append(f"{where}: topology differs from the reference")
                continue
            if not np.isfinite(v).all():
                errors.append(f"{where}: non-finite coordinates")
                continue
            parts, start, fstart = [], 0, 0
            for part, convexes in zip(manifest.parts, geom):
                pieces = []
                for cv, cf in convexes:
                    pieces.append((v[start:start + len(cv)], cf))
                    if not oracles.closed(f[fstart:fstart + len(cf)]):
                        errors.append(f"{where}: part {part.name} has an open convex")
                    start, fstart = start + len(cv), fstart + len(cf)
                pv, pf = gen.merge(pieces)
                parts.append(Part(part.name, (TriMesh(pv, pf),), part.joint,
                                  part.ref_states))
            split = replace(manifest, parts=tuple(parts))
            l_phy = physics_losses(split, SAMPLE_CFG.sim).l_phy
            if l_phy != entry["apd_after"]:
                errors.append(f"{where}: apd_after {entry['apd_after']!r} != "
                              f"physics_losses of the written OBJ {l_phy!r}")
            befores.append(entry["apd_before"])
            afters.append(entry["apd_after"])
            dz = max(dz, float(np.abs(np.array(entry["z"]) - drawn[s]).max()))
            shutil.copy(path, pool / f"r{r}_{entry['file']}")
    quality = cmd_eval(pool, root / "data/dataset.json", EVAL_CFG)["metrics"]
    return errors, {"samples": len(afters), "mean_apd_before": float(np.mean(befores)),
                    "mean_apd_after": float(np.mean(afters)), "max_abs_dz": dz,
                    "quality_vs_references": quality}


# ---------------------------------------------------------------------------
# simulate: collision sweeps with every detection process distinct


def setup_simulate(root: Path, seed: int) -> None:
    for obj in gen.write_simulation_objects(root / "objects", seed):
        load_manifest(root / "objects" / obj["manifest"])


def _objects(root: Path) -> list[dict]:
    return json.loads((root / "objects/objects.json").read_text())


def round_simulate(root: Path, seed: int, out: Path):
    def op(obj):
        report = cmd_simulate(root / "objects" / obj["manifest"], replace(SIM_CFG))
        (out / f"{obj['name']}.json").write_text(json.dumps(report))
        return report

    return [lambda obj=obj: op(obj) for obj in _objects(root)]


def check_simulate(root: Path, seed: int, out: Path):
    errors, details = [], {}
    for obj in _objects(root):
        rep = json.loads((out / f"{obj['name']}.json").read_text())
        name = obj["name"]
        depths = [b["pene_d"] for b in rep["breakdown"]]
        if min(depths) < 0:
            errors.append(f"{name}: negative penetration depth {min(depths)}")
        root_d = [b["pene_d"] for b in rep["breakdown"] if b["part"] in obj["fixed"]]
        if any(d != 0.0 for d in root_d):
            errors.append(f"{name}: fixed root has non-zero depth")
        if obj["control"] and any(d != 0.0 for d in depths):
            errors.append(f"{name}: parts out of reach report contact")
        if obj["collides"] and not rep["l_phy"] > 0.0:
            errors.append(f"{name}: built to collide but l_phy = {rep['l_phy']}")
        if not math.isclose(rep["l_phy"], float(np.mean(depths)), rel_tol=1e-12,
                            abs_tol=0.0):
            errors.append(f"{name}: l_phy {rep['l_phy']} != mean of breakdown")
        details[name] = rep["l_phy"]
    return errors, {"l_phy": details}


# ---------------------------------------------------------------------------
# evaluate: set-level metrics of a generated population


def setup_evaluate(root: Path, seed: int) -> None:
    load_dataset(gen.write_eyeglasses_dataset(root / "data", seed, N_SHOTS))
    for path in sorted(gen.write_eval_shapes(root / "shapes", seed, EVAL_SHAPES)
                       .glob("*.obj")):
        load_obj(path)
    # the references themselves as a population, in dataset order
    selfdir = root / "refs_as_shapes"
    selfdir.mkdir()
    for r, ref in enumerate(_refs(root)):
        geom = _manifest_geometry(ref)
        gen.write_obj(selfdir / f"ref_{r:02d}.obj",
                      *gen.merge(c for part in geom for c in part))


def round_evaluate(root: Path, seed: int, out: Path):
    def op():
        res = cmd_eval(root / "shapes", root / "data/dataset.json", replace(EVAL_CFG))
        (out / "eval.json").write_text(json.dumps(res["metrics"]))
        return res

    return [op]


def _clouds(paths: list[Path]) -> list[np.ndarray]:
    # the per-position seeds cmd_eval documents: cfg.seed + index within the set
    return [sample_surface(TriMesh(*gen.read_obj(p)), EVAL_POINTS,
                           seed=EVAL_CFG.seed + i) for i, p in enumerate(paths)]


def check_evaluate(root: Path, seed: int, out: Path):
    errors = []
    got = json.loads((out / "eval.json").read_text())
    gen_clouds = _clouds(sorted((root / "shapes").glob("*.obj")))
    ref_clouds = _clouds(sorted((root / "refs_as_shapes").glob("*.obj")))
    want = oracles.set_metrics(gen_clouds, ref_clouds)
    for key in ("mmd", "cov", "one_nna"):
        if not abs(got[key] - want[key]) <= 1e-9:
            errors.append(f"{key} {got[key]!r} != exhaustive {want[key]!r}")
    if not 0.0 <= got["jsd"] <= 1.0:
        errors.append(f"jsd {got['jsd']} outside [0, 1]")
    same = cmd_eval(root / "refs_as_shapes", root / "data/dataset.json",
                    replace(EVAL_CFG))["metrics"]
    if (same["mmd"], same["cov"], same["jsd"]) != (0.0, 1.0, 0.0):
        errors.append(f"references scored against themselves: {same}")
    return errors, {"metrics": got, "distinct_pairs": want["pairs"]}


WORKLOADS = {
    "finetune": (setup_finetune, round_finetune, check_finetune),
    "sample": (setup_sample, round_sample, check_sample),
    "simulate": (setup_simulate, round_simulate, check_simulate),
    "evaluate": (setup_evaluate, round_evaluate, check_evaluate),
}
