"""End-to-end orchestration: fitting, synchronization, sampling, evaluation."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path

import numpy as np

from .basis import (
    BasisSet,
    FitConfig,
    GaussianMixture,
    fit_bases,
    fit_gmm,
    sample_gmm,
    stalled,
)
from .cage import CAGE_EPSILON, Cage, build_cage, smooth_weights
from .mesh import (ArticulatedObject, TriMesh, load_manifest, load_obj,
                   merge_meshes, read_json, sample_surface, save_obj)
from .metrics import evaluate
from .physics import (
    DeformableObject,
    DeformablePart,
    SimConfig,
    TEST_PROJ,
    TRAIN_PROJ,
    correct_shape,
    grad_phy_wrt_vertices,
    physics_losses,
)
from .sync import SyncState, synced_bases, synchronize


class PipelineError(ValueError):
    pass


@dataclass
class PipelineConfig:
    k: int = 16
    lambda_phy: float = 1.0
    finetune_outer_iters: int = 10
    eval_points: int = 4096
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)
    sim: SimConfig = field(default_factory=SimConfig)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be >= 1")


def desk_profile(cfg: PipelineConfig | None = None) -> PipelineConfig:
    """Reduced-cost settings for interactive runs and CI."""
    cfg = cfg or PipelineConfig()
    cfg.sim = SimConfig(n_steps=20, n_det=10, seed=cfg.sim.seed)
    cfg.fit = replace(cfg.fit, chamfer_samples=512)
    cfg.eval_points = 512
    return cfg


def apply_overrides(cfg, rec: dict, where: str = ""):
    """Return ``cfg`` with the overrides from a config file applied.

    Nested dicts override nested config blocks field by field; those blocks
    are rebuilt with ``replace`` so their own validation runs again. A value
    must have the type of the field's default, except that an int may set a
    float.
    """
    if not isinstance(rec, dict):
        what = f"config key {where[:-1]!r}" if where else "a config file"
        raise PipelineError(f"{what} needs a table, got {type(rec).__name__}")
    defaults = type(cfg)()
    names = {f.name for f in fields(cfg)}
    changes = {}
    for key, val in rec.items():
        if key not in names:
            raise PipelineError(f"unknown config key {where + key!r}")
        default = getattr(defaults, key)
        if is_dataclass(default):
            val = apply_overrides(getattr(cfg, key), val, f"{where}{key}.")
        elif type(val) not in ((int, float) if type(default) is float
                               else (type(default),)):
            raise PipelineError(f"config key {where + key!r} must be of type "
                                f"{type(default).__name__}, got {val!r}")
        changes[key] = val
    return replace(cfg, **changes)


# ---------------------------------------------------------------------------
# Dataset manifests


@dataclass
class Dataset:
    objects: list[ArticulatedObject]
    paths: list[str]


def load_dataset(path) -> Dataset:
    """A dataset manifest is a JSON list of object manifests."""
    path = Path(path)
    rec = read_json(path, PipelineError)
    if not isinstance(rec, dict):
        raise PipelineError(f"{path}: top level must be a JSON object, got {rec!r}")
    entries = rec.get("objects")
    if not entries:
        raise PipelineError(f"{path}: dataset manifest lists no objects")
    if not isinstance(entries, list) or not all(isinstance(e, str) for e in entries):
        raise PipelineError(f"{path}: 'objects' must be a list of manifest file "
                            f"names, got {entries!r}")
    objs, names = [], []
    for entry in entries:
        p = path.parent / entry
        objs.append(load_manifest(p))
        names.append(str(entry))
    ds = Dataset(objects=objs, paths=names)
    check_correspondence(ds)
    return ds


def check_correspondence(ds: Dataset) -> None:
    """All objects must share part count, joint kinds, and convex counts."""
    ref = ds.objects[0]
    for name, obj in zip(ds.paths[1:], ds.objects[1:]):
        if len(obj.parts) != len(ref.parts):
            raise PipelineError(
                f"object {name!r} has {len(obj.parts)} parts, expected {len(ref.parts)}"
            )
        for rp, op in zip(ref.parts, obj.parts):
            if op.joint.kind != rp.joint.kind:
                raise PipelineError(
                    f"object {name!r} part {op.name!r}: joint kind "
                    f"{op.joint.kind!r} != {rp.joint.kind!r}"
                )
            if len(op.convexes) != len(rp.convexes):
                raise PipelineError(
                    f"object {name!r} part {op.name!r}: {len(op.convexes)} "
                    f"convexes, expected {len(rp.convexes)}"
                )


def _flat_convexes(obj: ArticulatedObject) -> list[tuple[int, int, TriMesh]]:
    """(part index, index within part, convex) in manifest order."""
    return [(pi, ci, convex) for pi, part in enumerate(obj.parts)
            for ci, convex in enumerate(part.convexes)]


# ---------------------------------------------------------------------------
# Model file


@dataclass
class ConvexModel:
    part_index: int
    convex_index: int
    cage: Cage
    bases: BasisSet
    coeffs: np.ndarray      # (|A|, K) per-convex coefficients, pre-sync
    loss_history: list[float]
    converged: bool


@dataclass
class Model:
    k: int
    convexes: list[ConvexModel]
    sync: SyncState | None = None
    gmm: GaussianMixture | None = None
    source_manifest: str = ""
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "k": self.k,
            "source_manifest": self.source_manifest,
            "seed": self.seed,
            "convexes": [
                {
                    "part_index": c.part_index,
                    "convex_index": c.convex_index,
                    "cage_vertices": c.cage.mesh.vertices.tolist(),
                    "cage_faces": c.cage.mesh.faces.tolist(),
                    "cage_phi": c.cage.phi.tolist(),
                    "bases": c.bases.bases.tolist(),
                    "coeffs": np.asarray(c.coeffs).tolist(),
                    "loss_history": list(c.loss_history),
                    "converged": c.converged,
                }
                for c in self.convexes
            ],
            "sync": self.sync.to_dict() if self.sync else None,
            "gmm": self.gmm.to_dict() if self.gmm else None,
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "Model":
        convexes = [
            ConvexModel(
                part_index=c["part_index"],
                convex_index=c["convex_index"],
                cage=Cage(
                    mesh=TriMesh(np.array(c["cage_vertices"]),
                                 np.array(c["cage_faces"])),
                    phi=np.array(c["cage_phi"]),
                ),
                bases=BasisSet(np.array(c["bases"])),
                coeffs=np.array(c["coeffs"]),
                loss_history=list(c["loss_history"]),
                converged=bool(c["converged"]),
            )
            for c in rec["convexes"]
        ]
        return cls(
            k=rec["k"], convexes=convexes,
            sync=SyncState.from_dict(rec["sync"]) if rec.get("sync") else None,
            gmm=GaussianMixture.from_dict(rec["gmm"]) if rec.get("gmm") else None,
            source_manifest=rec.get("source_manifest", ""),
            seed=rec.get("seed", 0),
        )


def save_model(model: Model, path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(model.to_dict()))


def load_model(path) -> Model:
    rec = read_json(path, PipelineError)
    if not isinstance(rec, dict):
        raise PipelineError(f"{path}: top level must be a JSON object, got "
                            f"{type(rec).__name__}")
    missing = [key for key in ("k", "convexes") if key not in rec]
    if missing:
        raise PipelineError(f"{path}: model has no {' or '.join(map(repr, missing))}")
    if rec.get("epsilon", CAGE_EPSILON) != CAGE_EPSILON:     # older files record it
        raise PipelineError(f"{path}: cages built with epsilon {rec['epsilon']!r}; "
                            f"this build rebuilds cages only with {CAGE_EPSILON}")
    try:
        return Model.from_dict(rec)
    except (KeyError, TypeError, ValueError) as e:
        raise PipelineError(f"{path}: malformed model: {type(e).__name__}: {e}") from e


# ---------------------------------------------------------------------------
# Deformable synthesis


def _object_blend_radius(obj: ArticulatedObject, rel: float) -> float:
    verts = np.concatenate([m.vertices for p in obj.parts for m in p.convexes])
    return rel * float(np.linalg.norm(verts.max(axis=0) - verts.min(axis=0)))


def build_deformable(model: Model, source: ArticulatedObject,
                     maps: list[np.ndarray], blend_radius_rel: float = 0.05,
                     cages: list[Cage] | None = None) -> DeformableObject:
    """Assemble the affine-in-z object: mapped bases -> cages -> smooth layer.

    ``maps[m]`` is a (K, K_total) matrix that takes the object's coefficient
    (length K_total) to convex m's own K coefficients: the synchronization
    matrices for the global coefficient, or the identity's block rows for
    the stacked per-convex coefficients. Basis offsets index template cage
    vertices, so when ``cages`` is not given they are rebuilt for this
    object's convexes; the model's own cages are only reused when the object
    is the fitting source.
    """
    flat = _flat_convexes(source)
    if len(flat) != len(model.convexes):
        raise PipelineError(
            f"model has {len(model.convexes)} convexes, object has {len(flat)}"
        )
    if cages is None:
        cages = [build_cage(convex) for _, _, convex in flat]
    eff = [synced_bases(c.bases, s) for c, s in zip(model.convexes, maps)]
    k_total = eff[0].shape[0]
    blend_radius = _object_blend_radius(source, blend_radius_rel)

    parts = []
    flat_idx = 0
    for pi, part in enumerate(source.parts):
        convexes = list(part.convexes)
        idxs = list(range(flat_idx, flat_idx + len(convexes)))
        flat_idx += len(convexes)
        weights = smooth_weights([cages[i] for i in idxs], convexes, blend_radius)
        starts = np.cumsum([0] + [c.n_vertices for c in convexes])
        slices = list(zip(starts[:-1], starts[1:]))
        jac = np.zeros((starts[-1], 3, k_total))
        for (a, b), w_row in zip(slices, weights):
            for w, gi in zip(w_row, idxs):                # w: (nv, N_t)
                jac[a:b] += np.einsum("vt,jta->vaj", w, eff[gi])
        merged = merge_meshes(convexes)
        parts.append(DeformablePart(
            name=part.name, v0=np.array(merged.vertices), jac=jac,
            faces=np.array(merged.faces), joint=part.joint,
            ref_states=part.ref_states, convex_slices=slices,
        ))
    return DeformableObject(parts=parts, k=k_total)


def stack_coeffs(model: Model, target_index: int) -> np.ndarray:
    """Concatenate every convex's coefficient for one target into one vector."""
    return np.concatenate([np.asarray(c.coeffs)[target_index]
                           for c in model.convexes])


# ---------------------------------------------------------------------------
# Pretraining


def _convex_seed(cfg: PipelineConfig, pi: int, ci: int) -> int:
    """Fitting seed of convex ``ci`` of part ``pi``, shared by both fitting stages."""
    return cfg.seed + 31 * (pi * 97 + ci)


def cmd_pretrain(dataset_path, out_path, cfg: PipelineConfig) -> Model:
    """Fit per-convex deformation bases on all correspondence pairs.

    Convexes are fitted independently, one after another.
    """
    ds = load_dataset(dataset_path)
    if len(ds.objects) < 2:
        raise PipelineError("pretraining needs at least 2 corresponding objects")
    source, targets = ds.objects[0], ds.objects[1:]

    convexes = []
    for pi, ci, convex in _flat_convexes(source):
        cage = build_cage(convex)
        fit = fit_bases([(convex, t.parts[pi].convexes[ci]) for t in targets],
                        cage, cfg.k, cfg=cfg.fit, seed=_convex_seed(cfg, pi, ci))
        convexes.append(ConvexModel(
            part_index=pi, convex_index=ci, cage=cage, bases=fit.bases,
            coeffs=np.stack(fit.coeffs), loss_history=fit.loss_history,
            converged=fit.converged,
        ))

    model = Model(k=cfg.k, convexes=convexes, source_manifest=ds.paths[0],
                  seed=cfg.seed)
    save_model(model, out_path)
    return model


# ---------------------------------------------------------------------------
# Fine-tuning


def _phy_basis_grads(model: Model, dobj: DeformableObject,
                     n_targets: int, cfg: PipelineConfig) -> list[np.ndarray]:
    """Frozen-mask d(lambda_phy * L_phy)/dB per convex, averaged over targets.

    The penetration loss's rest-frame vertex gradient is computed once per
    target and pulled back through each convex's interpolation weights and
    its per-target coefficient.
    """
    k = model.k
    grads = [np.zeros((k, cm.cage.phi.shape[1], 3)) for cm in model.convexes]
    for i in range(n_targets):
        z = stack_coeffs(model, i)
        _, part_grads = grad_phy_wrt_vertices(dobj, z, cfg.sim)
        for m, cm in enumerate(model.convexes):
            g = part_grads[cm.part_index]
            a, b = dobj.parts[cm.part_index].convex_slices[cm.convex_index]
            pull = cm.cage.phi.T @ g[a:b]      # (N_t, 3)
            grads[m] += np.einsum("j,ta->jta",
                                  np.asarray(cm.coeffs)[i], pull)
    return [cfg.lambda_phy * g / max(n_targets, 1) for g in grads]


def cmd_finetune(dataset_path, out_path, cfg: PipelineConfig,
                 pretrained_path=None) -> Model:
    """Continue basis optimization with collision terms, then synchronize.

    Each outer iteration runs the train-time correction on the stacked
    per-convex coefficients, freezes the collision gradient for the basis
    update, and refits every convex for one alternation round. Ends with
    synchronization and a Gaussian mixture over the global coefficients.
    """
    ds = load_dataset(dataset_path)
    if len(ds.objects) < 2:
        raise PipelineError("finetuning needs at least 2 corresponding objects")
    source, targets = ds.objects[0], ds.objects[1:]
    n_targets = len(targets)

    pre = load_model(pretrained_path) if pretrained_path else None
    flat = _flat_convexes(source)
    if pre is not None and (len(pre.convexes), pre.k) != (len(flat), cfg.k):
        raise PipelineError(
            f"pretrained model {pretrained_path} has {len(pre.convexes)} convexes "
            f"and k={pre.k}; this run has {len(flat)} convexes and k={cfg.k}"
        )

    # pretrained bases index template cage vertices, so they carry over to this
    # source; its cages are built here, as in pretraining
    convexes: list[ConvexModel] = []
    for fi, (pi, ci, convex) in enumerate(flat):
        cage = build_cage(convex)
        if pre is not None:
            bases = pre.convexes[fi].bases
        else:
            bases = BasisSet(np.random.default_rng(cfg.seed + fi).normal(
                scale=0.1 * max(np.ptp(convex.vertices), 1e-6),
                size=(cfg.k, cage.mesh.n_vertices, 3)))
        convexes.append(ConvexModel(
            part_index=pi, convex_index=ci, cage=cage, bases=bases,
            coeffs=np.zeros((n_targets, cfg.k)), loss_history=[],
            converged=False,
        ))
    model = Model(k=cfg.k, convexes=convexes, source_manifest=ds.paths[0],
                  seed=cfg.seed)

    one_round = replace(cfg.fit, outer_iters=1)
    # convex m reads block m of the stacked per-convex coefficients
    blocks = np.split(np.eye(len(flat) * cfg.k), len(flat))
    lc_history: list[float] = []
    for outer in range(cfg.finetune_outer_iters):
        phy_grads = [None] * len(flat)
        if cfg.lambda_phy > 0:
            # train-time correction on the stacked coefficients, per target
            dobj = build_deformable(model, source, blocks, blend_radius_rel=0.0,
                                    cages=[c.cage for c in model.convexes])
            for i in range(n_targets):
                z, _, _ = correct_shape(dobj, stack_coeffs(model, i),
                                        TRAIN_PROJ, cfg.sim)
                for cm, zm in zip(model.convexes, z.reshape(len(flat), cfg.k)):
                    cm.coeffs[i] = zm
            phy_grads = _phy_basis_grads(model, dobj, n_targets, cfg)

        round_losses = []
        for (pi, ci, convex), cm, g in zip(flat, model.convexes, phy_grads):
            pairs = [(convex, t.parts[pi].convexes[ci]) for t in targets]
            fit = fit_bases(pairs, cm.cage, cfg.k, cfg=one_round,
                            init=cm.bases, extra_basis_grad=g,
                            seed=_convex_seed(cfg, pi, ci))
            cm.bases = fit.bases
            cm.coeffs = np.stack(fit.coeffs)
            cm.loss_history.extend(fit.loss_history)
            round_losses.append(fit.loss_history[-1])
        lc_history.append(float(np.mean(round_losses)))
        if stalled(lc_history):
            break

    y = np.stack([np.asarray(c.coeffs) for c in model.convexes])  # (M, |A|, K)
    model.sync = synchronize([c.bases for c in model.convexes], y)
    model.gmm = fit_gmm(model.sync.global_coeffs, seed=cfg.seed)
    save_model(model, out_path)
    return model


# ---------------------------------------------------------------------------
# Sampling and correction

SAMPLES_PER_REFERENCE = 40


def cmd_sample(model_path, reference_path, out_dir, cfg: PipelineConfig,
               n: int = SAMPLES_PER_REFERENCE, seed: int | None = None,
               z_zero: bool = False) -> dict:
    """Draw coefficients, synthesize meshes, apply test-time correction."""
    if n < 1:
        raise PipelineError(f"sample count must be at least 1, got {n}")
    model = load_model(model_path)
    reference = load_manifest(reference_path)
    if model.gmm is None or model.sync is None:
        raise PipelineError("model is not fine-tuned (missing sync/GMM state)")
    seed = seed if seed is not None else cfg.seed
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    dobj = build_deformable(model, reference, model.sync.s_matrices)
    # every --z-zero entry is the same zero vector: correct it once, reuse it
    zs = np.zeros((1, model.k)) if z_zero else sample_gmm(model.gmm, seed=seed, n=n)

    samples = []
    for i in range(n):
        if i < len(zs):
            # a draw that degenerates a face or yields a non-finite gradient
            # fails alone; the report records it and the run goes on
            try:
                z, before, after = correct_shape(dobj, zs[i], TEST_PROJ, cfg.sim)
                mesh = merge_meshes([p.mesh_at(z) for p in dobj.parts])
                error = None
            except (ValueError, FloatingPointError) as exc:
                z, error = zs[i], f"{type(exc).__name__}: {exc}"
        if error is not None:
            samples.append({"file": None, "z": z.tolist(), "error": error})
            continue
        path = out_dir / f"sample_{i:03d}.obj"
        save_obj(mesh, path)
        samples.append({"file": path.name, "z": z.tolist(),
                        "apd_before": before.l_phy, "apd_after": after.l_phy})
    done = [s for s in samples if s["file"] is not None]
    if not done:
        raise PipelineError(f"all {n} samples failed; first: {samples[0]['error']}")
    report = {
        "n": n, "seed": seed, "z_zero": z_zero,
        "mean_apd_before": float(np.mean([s["apd_before"] for s in done])),
        "mean_apd_after": float(np.mean([s["apd_after"] for s in done])),
        "samples": samples,
    }
    (out_dir / "samples_report.json").write_text(json.dumps(report, indent=2))
    return report


def _load_coefficient(path, k: int) -> np.ndarray:
    """A coefficient vector from a JSON file holding a list of K finite numbers."""
    rec = read_json(path, PipelineError)
    if not (isinstance(rec, list) and len(rec) == k
            and all(type(v) in (int, float) for v in rec)
            and np.isfinite(np.array(rec, dtype=np.float64)).all()):
        raise PipelineError(f"{path}: a coefficient must be a list of K={k} "
                            f"finite numbers, got {rec!r:.80}")
    return np.array(rec, dtype=np.float64)


def cmd_correct(model_path, reference_path, cfg: PipelineConfig,
                z_path=None, out_path=None) -> dict:
    """Run the test-time correction on one coefficient and report both losses.

    The coefficient is read from the JSON file ``z_path``; without one it is
    the GMM mean, or zero when the model has no GMM.
    """
    model = load_model(model_path)
    reference = load_manifest(reference_path)
    if model.sync is None:
        raise PipelineError("model is not fine-tuned (missing sync state)")
    dobj = build_deformable(model, reference, model.sync.s_matrices)
    if z_path is not None:
        z = _load_coefficient(z_path, model.k)
    else:
        z = model.gmm.mean() if model.gmm else np.zeros(model.k)
    z_new, before, after = correct_shape(dobj, z, TEST_PROJ, cfg.sim)
    if out_path:
        save_obj(merge_meshes([p.mesh_at(z_new) for p in dobj.parts]), out_path)
    return {"z": z_new.tolist(), "before": before.to_dict(),
            "after": after.to_dict()}


def cmd_simulate(manifest_path, cfg: PipelineConfig) -> dict:
    obj = load_manifest(manifest_path)
    return physics_losses(obj, cfg.sim).to_dict()


# ---------------------------------------------------------------------------
# Evaluation


def _load_generated(gen_dir) -> tuple[list[TriMesh], float | None]:
    gen_dir = Path(gen_dir)
    files = sorted(gen_dir.glob("*.obj"))
    if not files:
        raise PipelineError(f"no .obj files in {gen_dir}")
    meshes = [load_obj(f) for f in files]
    apd = None
    report = gen_dir / "samples_report.json"
    if report.exists():
        rec = read_json(report, PipelineError)
        apd = rec.get("mean_apd_after") if isinstance(rec, dict) else None
        if isinstance(apd, bool) or not isinstance(apd, (int, float)):
            raise PipelineError(f"{report}: 'mean_apd_after' must be a number, "
                                f"got {apd!r}")
        apd = float(apd)
    return meshes, apd


def cmd_eval(generated_dir, reference_dataset_path, cfg: PipelineConfig) -> dict:
    """Point-sample both populations and compute the distribution metrics."""
    gen_meshes, apd = _load_generated(generated_dir)
    ds = load_dataset(reference_dataset_path)
    ref_meshes = [merge_meshes([p.merged() for p in o.parts]) for o in ds.objects]
    # seed by position within each set so identical populations get
    # identical clouds
    gen, ref = ([sample_surface(m, cfg.eval_points, seed=cfg.seed + i)
                 for i, m in enumerate(meshes)]
                for meshes in (gen_meshes, ref_meshes))
    result = evaluate(gen, ref, apd_value=apd)
    return {"metrics": result.to_dict(), "table": result.table()}
