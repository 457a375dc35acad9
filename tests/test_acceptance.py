"""End-of-build acceptance checks; one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the summary lines.
The end-to-end check builds a 5-shot toy eyeglasses dataset, fine-tunes a
model under the desk profile, and generates 40 samples per reference; it is
the slow part of the suite (several minutes).
"""

import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from artigen.basis import (
    BasisSet,
    DeformOperator,
    FitConfig,
    basis_objective_and_grad,
    chamfer_distance,
    fit_bases,
    fit_coefficient,
)
from artigen.cage import build_cage, cage_template, mean_value_coordinates
from artigen.mesh import Joint, TriMesh, load_manifest, load_obj, merge_meshes
from artigen.metrics import cov, jsd, mmd, one_nna
from artigen.physics import (
    DeformableObject,
    DeformablePart,
    ProjConfig,
    SimConfig,
    correct_shape,
    single_simulation,
)
from artigen.pipeline import PipelineConfig, cmd_finetune, cmd_sample, desk_profile
from fixtures import grid_box, hinge_wall_rod, simple_box, write_eyeglasses_dataset
from oracle import apply_cage_deform, frozen_proj_loss, rigid_part
from test_basis import small_cage
from test_metrics import brute_cov, brute_mmd, brute_one_nna
from test_physics import naive_sweep


def _report(name: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}"
    print(line, file=sys.stderr, flush=True)
    assert ok, line


def test_weights_partition_and_linear_precision():
    rng = np.random.default_rng(0)
    template = cage_template()
    worst = 0.0
    for _ in range(5):
        scale = rng.uniform(0.8, 1.3, size=(template.n_vertices, 1))
        cage = TriMesh(template.vertices * scale, template.faces)
        # interior points of the star-shaped cage: scaled face points
        fidx = rng.integers(0, cage.n_faces, size=1000)
        bary = rng.dirichlet(np.ones(3), size=1000)
        surf = np.einsum("nk,nka->na", bary, cage.vertices[cage.faces[fidx]])
        pts = surf * rng.uniform(0.05, 0.95, size=(1000, 1))
        for p in pts:
            w = mean_value_coordinates(p, cage)
            worst = max(worst, abs(w.sum() - 1.0),
                        np.abs(w @ cage.vertices - p).max())
    tetra = TriMesh(
        np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=float),
        np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]))
    w_c = mean_value_coordinates(tetra.vertices.mean(axis=0), tetra)
    tetra_err = np.abs(w_c - 0.25).max()
    ok = worst < 1e-6 and tetra_err < 1e-12
    _report("interpolation weights", ok,
            f"max unity/precision error {worst:.2e} (tol 1e-6), "
            f"tetra centroid dev {tetra_err:.2e}")


def test_cage_deformation_linearity_and_brute_force():
    rng = np.random.default_rng(1)
    box = grid_box(3)
    cage = build_cage(box)
    o1 = rng.normal(scale=0.1, size=(42, 3))
    o2 = rng.normal(scale=0.1, size=(42, 3))
    lin = np.abs(apply_cage_deform(cage, 0.7 * o1 - 1.3 * o2)
                 - 0.7 * apply_cage_deform(cage, o1)
                 + 1.3 * apply_cage_deform(cage, o2)).max()
    brute = np.array([sum(cage.phi[i, j] * o1[j] for j in range(42))
                      for i in range(box.n_vertices)])
    bf = np.abs(apply_cage_deform(cage, o1) - brute).max()
    ok = lin < 1e-12 and bf < 1e-12
    _report("cage deformation", ok,
            f"linearity dev {lin:.2e}, brute-force dev {bf:.2e} (tol 1e-12)")


def test_basis_recovery_and_gradient():
    rng = np.random.default_rng(2)
    box = grid_box(3)
    cage = build_cage(box)
    true_b = BasisSet(rng.normal(scale=0.08, size=(2, 42, 3)))
    zs = [np.array([1.0, 0.3]), np.array([-0.5, 0.8]), np.array([0.2, -0.9])]
    cfg = FitConfig(chamfer_samples=512, outer_iters=30, lambda_orth=0.0,
                    lambda_sp=0.0)
    ops = [DeformOperator(cage, box, cfg.chamfer_samples, seed=i)
           for i in range(len(zs))]
    targets = [op.points(true_b, z) for op, z in zip(ops, zs)]
    fit = fit_bases([(box, t) for t in targets], cage, 2, cfg=cfg, seed=0)
    cd = max(chamfer_distance(op.points(fit.bases, z), t)
             for op, t, z in zip(ops, targets, fit.coeffs))

    scage, src = small_cage()
    gcfg = FitConfig(chamfer_samples=64)
    gops = [DeformOperator(scage, src, 64, seed=i) for i in range(2)]
    gtargets = [op.p0 + rng.normal(scale=0.1, size=op.p0.shape) for op in gops]
    b = rng.normal(scale=0.1, size=(2, 6, 3))
    fits = [fit_coefficient(BasisSet(b), op, t) for op, t in zip(gops, gtargets)]
    coeffs = [f.z for f in fits]
    corrs = [f.correspondences for f in fits]
    _, grad = basis_objective_and_grad(b, gops, gtargets, coeffs, corrs, gcfg)
    h = 1e-5
    fd = np.zeros_like(b)
    for idx in np.ndindex(b.shape):
        bp, bm = b.copy(), b.copy()
        bp[idx] += h
        bm[idx] -= h
        op_, _ = basis_objective_and_grad(bp, gops, gtargets, coeffs, corrs, gcfg)
        om_, _ = basis_objective_and_grad(bm, gops, gtargets, coeffs, corrs, gcfg)
        fd[idx] = (op_ - om_) / (2 * h)
    rel = np.abs(grad - fd).max() / np.abs(fd).max()
    ok = cd < 1e-6 and rel < 1e-4
    _report("basis fitting", ok,
            f"recovery CD {cd:.2e} (tol 1e-6), gradient FD rel err {rel:.2e} "
            f"(tol 1e-4)")


def test_synchronization():
    from artigen.sync import (optimize_global_coeff, optimize_sync_matrices,
                              synchronize)

    rng = np.random.default_rng(3)
    worst_ratio = 0.0
    for m in (2, 5):
        for k in (3, 16):
            for n_targets in (4, 10):
                s_true = [rng.normal(size=(k, k)) for _ in range(m)]
                z = rng.normal(size=(n_targets, k))
                y = np.stack([(s @ z.T).T for s in s_true])
                bases = [BasisSet(rng.normal(size=(k, 6, 3))) for _ in range(m)]
                st = synchronize(bases, y)
                worst_ratio = max(worst_ratio,
                                  st.objective_history[-1] / st.objective_history[0])
    za = rng.normal(size=(7, 5))
    ya = rng.normal(size=(7, 5))
    alg1_dev = np.abs(optimize_sync_matrices(za, ya[None])[0]
                      - ya.T @ np.linalg.pinv(za.T)).max()
    orth_dev = 0.0
    for _ in range(10):
        s = rng.normal(size=(6, 6))
        s[:, 0] = s[:, 1]
        yv = rng.normal(size=6)
        z_hat = optimize_global_coeff([s], yv[None, None])[0]
        orth_dev = max(orth_dev, np.abs(s.T @ (s @ z_hat - yv)).max())
    ok = worst_ratio < 1e-6 and alg1_dev < 1e-10 and orth_dev < 1e-8
    _report("synchronization", ok,
            f"worst final/initial objective {worst_ratio:.2e} (tol 1e-6), "
            f"transform-update dev {alg1_dev:.2e} (tol 1e-10), "
            f"residual orthogonality {orth_dev:.2e} (tol 1e-8)")


def test_collision_losses():
    wall, rod, joint = hinge_wall_rod()
    fixed = single_simulation(rod, wall, Joint("fixed"), 50)
    far_ref = simple_box((0.2, 0.2, 0.2), (5.0, 5.0, 5.0))
    disjoint = single_simulation(rod, far_ref, joint, 200)
    n = 10_000
    res = single_simulation(rod, wall, joint, n)
    pene_oracle, _ = naive_sweep(rod, wall, joint, n)
    rel_pene = abs(res.pene - pene_oracle) / pene_oracle

    grad_res = single_simulation(rod, wall, joint, 30, want_grad=True)
    rng = np.random.default_rng(4)
    direction = rng.normal(size=rod.vertices.shape)
    direction /= np.linalg.norm(direction)
    eps = 1e-6
    fd = (frozen_proj_loss(rod.vertices + eps * direction, wall, joint, 30,
                           grad_res.crossings)
          - frozen_proj_loss(rod.vertices - eps * direction, wall, joint, 30,
                             grad_res.crossings)) / (2 * eps)
    analytic = float(np.sum(grad_res.proj_grad_v * direction))
    rel_fd = abs(fd - analytic) / abs(fd)

    ok = (fixed.pene == 0.0 and fixed.proj == 0.0 and disjoint.pene == 0.0
          and res.pene > 0 and rel_pene < 0.1 and rel_fd < 1e-4)
    _report("collision losses", ok,
            f"fixed ({fixed.pene}, {fixed.proj}), disjoint {disjoint.pene}, "
            f"hinge depth {res.pene:.3e} vs refined oracle rel dev "
            f"{rel_pene:.2e} (tol 0.1), projection gradient FD rel err "
            f"{rel_fd:.2e} (tol 1e-4)")


def _hinge_deformable(k=4, seed=0) -> DeformableObject:
    wall, rod, joint = hinge_wall_rod()
    rng = np.random.default_rng(seed)
    wall_part = rigid_part("wall", wall, Joint("fixed"), k)
    rod_part = DeformablePart(
        name="rod", v0=np.array(rod.vertices),
        jac=0.05 * rng.normal(size=(rod.n_vertices, 3, k)),
        faces=np.array(rod.faces), joint=joint,
        convex_slices=[(0, rod.n_vertices)],
    )
    return DeformableObject(parts=[wall_part, rod_part], k=k)


def test_correction():
    dobj = _hinge_deformable(k=4, seed=0)
    sim = SimConfig(n_steps=20, n_det=3, seed=1)
    proj = ProjConfig(iters=10, eps_proj=1e-5)
    _, before, after = correct_shape(dobj, np.zeros(4), sim_cfg=sim,
                                     proj_cfg=proj)
    single_ok = 0 < after.l_phy < before.l_phy

    rng = np.random.default_rng(5)
    befores, afters = [], []
    for _ in range(40):
        z0 = rng.normal(scale=0.5, size=4)
        _, b, a = correct_shape(dobj, z0, sim_cfg=sim, proj_cfg=proj)
        befores.append(b.l_phy)
        afters.append(a.l_phy)
    mean_b, mean_a = float(np.mean(befores)), float(np.mean(afters))
    ok = single_ok and mean_a < mean_b
    _report("test-time correction", ok,
            f"single run depth {before.l_phy:.12e} -> {after.l_phy:.12e}, "
            f"40-sample batch mean {mean_b:.12e} -> {mean_a:.12e}")


def test_metrics_and_ablation(tmp_path):
    rng = np.random.default_rng(6)
    gen = [rng.normal(size=(30, 3)) for _ in range(5)]
    ref = [rng.normal(size=(30, 3)) for _ in range(4)]
    oracle_dev = max(abs(mmd(gen, ref) - brute_mmd(gen, ref)),
                     abs(cov(gen, ref) - brute_cov(gen, ref)),
                     abs(one_nna(gen, ref) - brute_one_nna(gen, ref)))
    same = [np.array(p) for p in gen[:4]]
    ident_ok = (mmd(same, gen[:4]) == 0.0 and cov(same, gen[:4]) == 1.0
                and jsd(same, gen[:4]) == 0.0)

    ds = write_eyeglasses_dataset(tmp_path / "data", n=3, seed=0)
    apds = {}
    for lam in (0.0, 1.0):
        cfg = PipelineConfig(
            k=3, gmm_components=2, finetune_outer_iters=2,
            lambda_phy=lam, seed=0,
            fit=FitConfig(chamfer_samples=128, outer_iters=2, reg_steps=5),
            sim=SimConfig(n_steps=10, n_det=2, seed=0),
        )
        mp = tmp_path / f"model_{lam}.json"
        cmd_finetune(ds, mp, cfg)
        rep = cmd_sample(mp, tmp_path / "data" / "glasses_00" / "object.json",
                         tmp_path / f"samples_{lam}", cfg, n=8, seed=11)
        apds[lam] = rep["mean_apd_after"]
    ablation_ok = apds[1.0] <= apds[0.0] + 1e-12

    ok = oracle_dev == 0.0 and ident_ok and ablation_ok
    _report("metrics", ok,
            f"oracle dev {oracle_dev}, identical-population checks "
            f"{'ok' if ident_ok else 'failed'}, paired-seed APD "
            f"lambda=1 {apds[1.0]:.6e} vs lambda=0 {apds[0.0]:.6e}")


def _closed_components(mesh: TriMesh) -> bool:
    """Every undirected edge of a union of closed parts appears in 2 faces."""
    edges = np.sort(np.concatenate([mesh.faces[:, [0, 1]], mesh.faces[:, [1, 2]],
                                    mesh.faces[:, [2, 0]]]), axis=1)
    _, counts = np.unique(edges, axis=0, return_counts=True)
    return bool((counts == 2).all())


def test_end_to_end(tmp_path):
    cfg = desk_profile(PipelineConfig(seed=0))
    ds = write_eyeglasses_dataset(tmp_path / "data", n=5, seed=0)
    refs = sorted((tmp_path / "data").glob("glasses_*/object.json"))
    assert len(refs) == 5

    t0 = time.perf_counter()
    model_path = tmp_path / "model.json"
    cmd_finetune(ds, model_path, cfg)
    reports = []
    for i, ref in enumerate(refs):
        reports.append(cmd_sample(model_path, ref, tmp_path / f"gen_{i}", cfg,
                                  seed=cfg.seed))
    elapsed = time.perf_counter() - t0

    n_files = 0
    geometry_ok = True
    for i, ref in enumerate(refs):
        ref_obj = load_manifest(ref)
        want = merge_meshes([p.merged() for p in ref_obj.parts])
        for f in sorted((tmp_path / f"gen_{i}").glob("sample_*.obj")):
            mesh = load_obj(f)
            n_files += 1
            geometry_ok &= mesh.n_vertices == want.n_vertices
            geometry_ok &= np.array_equal(mesh.faces, want.faces)
            geometry_ok &= bool(np.isfinite(mesh.vertices).all())
            geometry_ok &= _closed_components(mesh)

    rerun = cmd_sample(model_path, refs[0], tmp_path / "gen_repeat", cfg,
                       seed=cfg.seed)
    deterministic = all(
        (tmp_path / "gen_0" / s["file"]).read_bytes()
        == (tmp_path / "gen_repeat" / s["file"]).read_bytes()
        for s in rerun["samples"])

    ok = (n_files == 200 and geometry_ok and deterministic and elapsed < 600)
    _report("end to end", ok,
            f"{n_files}/200 valid OBJ samples, watertight parts "
            f"{'ok' if geometry_ok else 'failed'}, deterministic "
            f"{'ok' if deterministic else 'failed'}, {elapsed:.1f}s "
            f"(budget 600s)")
