import json
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from artigen.basis import FitConfig, sample_gmm
from artigen.cage import build_cage
from artigen.mesh import load_manifest, merge_meshes, save_obj
from artigen.physics import ProjConfig, SimConfig
from artigen.pipeline import (
    Model,
    PipelineConfig,
    PipelineError,
    apply_overrides,
    build_deformable,
    check_correspondence,
    cmd_eval,
    cmd_finetune,
    cmd_pretrain,
    cmd_sample,
    cmd_simulate,
    desk_profile,
    load_dataset,
    load_model,
    save_model,
    stack_coeffs,
)
from fixtures import write_eyeglasses_dataset


def tiny_config() -> PipelineConfig:
    cfg = PipelineConfig(
        k=3, finetune_outer_iters=2, eval_points=256, seed=0,
        fit=FitConfig(chamfer_samples=128),
        sim=SimConfig(n_steps=10, n_det=2, seed=0),
    )
    return cfg


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    ds = write_eyeglasses_dataset(root / "data", n=3, seed=0)
    return root, ds


@pytest.fixture(scope="module")
def pretrained(workdir):
    import artigen.pipeline as pipeline

    root, ds = workdir
    path = root / "pre" / "model.json"
    path.parent.mkdir(exist_ok=True)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(pipeline, "PRETRAIN_ROUNDS", 2)
        model = cmd_pretrain(ds, path, tiny_config())
    return model, path


@pytest.fixture(scope="module")
def finetuned(workdir, pretrained):
    root, ds = workdir
    _, pre_path = pretrained
    path = root / "fine" / "model.json"
    path.parent.mkdir(exist_ok=True)
    model = cmd_finetune(ds, path, tiny_config(), pretrained_path=pre_path)
    return model, path


def test_load_dataset(workdir):
    _, ds = workdir
    loaded = load_dataset(ds)
    assert len(loaded.objects) == 3
    assert all(len(o.parts) == 3 for o in loaded.objects)


def test_correspondence_error_names_offender(workdir, tmp_path):
    _, ds = workdir
    loaded = load_dataset(ds)
    broken = replace(loaded)
    broken.objects = list(loaded.objects)
    bad = loaded.objects[1]
    broken.objects[1] = type(bad)(parts=bad.parts[:2])
    with pytest.raises(PipelineError, match=r"glasses_01.*2 parts"):
        check_correspondence(broken)


def test_dataset_missing_objects_key(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"role": "x"}))
    with pytest.raises(PipelineError, match="no objects"):
        load_dataset(p)


@pytest.mark.parametrize("content, what", [
    (b"[]", "top level must be a JSON object"),
    (b'"objects"', "top level must be a JSON object"),
    (b'{"objects": []}', "dataset manifest lists no objects"),
    (b'{"objects": "abc"}', "'objects' must be a list of manifest file names"),
    (b'{"objects": {"a": "b.json"}}', "'objects' must be a list of manifest"),
    (b'{"objects": [3]}', "'objects' must be a list of manifest file names"),
    (b'{"objects": ["a.json", null]}', "'objects' must be a list of manifest"),
    (b"\xff\xfe{}", "invalid JSON"),
    (b'{"objects": [', "invalid JSON"),
], ids=["list", "string", "empty", "objects_string", "objects_dict",
        "entry_number", "entry_null", "not_utf8", "truncated"])
def test_load_dataset_rejects_wrong_types(tmp_path, content, what):
    path = tmp_path / "dataset.json"
    path.write_bytes(content)
    with pytest.raises(PipelineError, match=f"dataset.json: {what}"):
        load_dataset(path)


def test_pretrain_writes_model_and_losses_decrease(pretrained):
    model, path = pretrained
    assert path.exists()
    assert len(model.convexes) == 4  # 2 rims + 2 legs
    for cm in model.convexes:
        hist = cm.loss_history
        assert hist[-1] <= hist[0]
        assert cm.coeffs.shape == (2, 3)  # 2 targets, K=3


def test_model_round_trips(pretrained, tmp_path):
    model, _ = pretrained
    p = tmp_path / "copy.json"
    save_model(model, p)
    back = load_model(p)
    assert back.k == model.k
    for a, b in zip(model.convexes, back.convexes):
        np.testing.assert_array_equal(a.bases.bases, b.bases.bases)
        np.testing.assert_array_equal(a.coeffs, b.coeffs)
        np.testing.assert_array_equal(a.cage.phi, b.cage.phi)


def test_model_file_with_old_epsilon(finetuned, workdir, tmp_path):
    # files from before the cage retraction became a constant record it: the
    # constant's value loads and samples as before, any other is refused
    _, model_path = finetuned
    root, _ = workdir
    ref = root / "data" / "glasses_01" / "object.json"
    rec = json.loads(model_path.read_text())
    assert "epsilon" not in rec
    old = tmp_path / "old.json"
    old.write_text(json.dumps({**rec, "epsilon": 0.05}))
    for name, path in (("new", model_path), ("old", old)):
        cmd_sample(path, ref, tmp_path / name, tiny_config(), n=2, seed=7)
    new_files = sorted(p.name for p in (tmp_path / "new").iterdir())
    assert new_files == sorted(p.name for p in (tmp_path / "old").iterdir())
    for name in new_files:
        assert ((tmp_path / "old" / name).read_bytes()
                == (tmp_path / "new" / name).read_bytes())
    old.write_text(json.dumps({**rec, "epsilon": 0.1}))
    with pytest.raises(PipelineError, match=re.escape(str(old)) + ".*epsilon 0.1"):
        load_model(old)
    old.write_text(model_path.read_text()[:-1])
    with pytest.raises(PipelineError, match=re.escape(str(old)) + ": invalid JSON"):
        load_model(old)


@pytest.mark.parametrize("content, what", [
    (b"[1, 2]", "top level must be a JSON object, got list"),
    (b"3", "top level must be a JSON object, got int"),
    (b'{"convexes": []}', "model has no 'k'"),
    (b'{"k": 3}', "model has no 'convexes'"),
    (b"{}", "model has no 'k' or 'convexes'"),
    (b'{"k": 3, "convexes": [{}]}', "malformed model: KeyError: 'part_index'"),
    (b'{"k": 3, "convexes": 3}',
     "malformed model: TypeError: 'int' object is not iterable"),
    (b'{"k": 3, "convexes": [], "gmm": {"means": 1}}',
     "malformed model: KeyError: 'variances'"),
], ids=["list", "number", "no_k", "no_convexes", "empty", "convex_no_keys",
        "convexes_number", "gmm_no_variances"])
def test_load_model_rejects_wrong_shapes(tmp_path, content, what):
    path = tmp_path / "model.json"
    path.write_bytes(content)
    with pytest.raises(PipelineError, match=re.escape(f"{path}: {what}")):
        load_model(path)


@pytest.mark.parametrize("text", ["[0.5, 1.0]", '["a"]', '["a", 1, 2]',
                                  "[NaN, 0, 0]", "[0, -Infinity, 0]",
                                  "[true, 0, 0]", '{"z": [0, 0, 0]}'])
def test_cli_correct_rejects_bad_z_file(finetuned, workdir, tmp_path, text):
    from artigen.cli import main

    _, model_path = finetuned
    root, _ = workdir
    ref = root / "data" / "glasses_01" / "object.json"
    z = tmp_path / "z.json"
    z.write_text(text)
    argv = ["--profile", "desk", "correct", str(model_path), str(ref),
            str(tmp_path / "out"), "--z-file", str(z)]
    with pytest.raises(PipelineError, match=re.escape(str(z)) + ".*K=3"):
        main(argv)
    z.write_text("[0.5, 0.0, -0.25]")
    assert main(argv) == 0
    rec = json.loads((tmp_path / "out" / "correct.json").read_text())
    assert len(rec["z"]) == 3


def test_finetune_adds_sync_and_gmm(finetuned):
    model, path = finetuned
    assert model.sync is not None
    assert len(model.sync.s_matrices) == 4
    assert model.sync.global_coeffs.shape == (2, 3)
    assert model.gmm is not None
    back = load_model(path)
    assert back.sync is not None and back.gmm is not None
    np.testing.assert_array_equal(back.sync.global_coeffs,
                                  model.sync.global_coeffs)


def test_finetune_builds_fitting_inputs_once(workdir, tmp_path, monkeypatch):
    # operators and target samples depend on no round's bases, so each source
    # convex gets them once per target however many rounds run
    import sys

    import artigen.basis as basis
    import artigen.mesh as mesh

    _, ds = workdir
    built, sampled = [], []
    init, sample = basis.DeformOperator.__init__, mesh.sample_surface

    def counted_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counted_sample(*args, **kwargs):
        sampled.append(1)
        return sample(*args, **kwargs)

    monkeypatch.setattr(basis.DeformOperator, "__init__", counted_init)
    for name, module in list(sys.modules.items()):
        if name.startswith("artigen") and getattr(module, "sample_surface", None) is sample:
            monkeypatch.setattr(module, "sample_surface", counted_sample)
    model = cmd_finetune(ds, tmp_path / "model.json",
                         replace(tiny_config(), finetune_outer_iters=3))
    # every round ran: one alternation round plus the final fit's entry each
    assert all(len(c.loss_history) == 6 for c in model.convexes)
    n_pairs = len(model.convexes) * len(model.sync.global_coeffs)
    assert (len(built), len(sampled)) == (n_pairs, n_pairs)


def test_finetune_records_whether_it_converged(workdir, tmp_path, monkeypatch):
    import artigen.pipeline as pipeline

    _, ds = workdir
    path = tmp_path / "model.json"
    assert not any(c.converged for c in cmd_finetune(ds, path, tiny_config()).convexes)
    monkeypatch.setattr(pipeline, "stalled", lambda history: True)
    model = cmd_finetune(ds, path, tiny_config())
    assert all(len(c.loss_history) == 2 for c in model.convexes)
    assert all(c.converged for c in model.convexes)
    assert all(c["converged"] for c in json.loads(path.read_text())["convexes"])


def test_finetune_sync_matches_alternation_oracle(finetuned):
    from artigen.sync import sync_objective
    from oracle import synchronize_per_target

    model, _ = finetuned
    bases = [c.bases for c in model.convexes]
    y = np.stack([c.coeffs for c in model.convexes])
    s_oracle, z_oracle, history = synchronize_per_target(bases, y)
    sync = model.sync
    assert len(sync.objective_history) == 2
    objective = sync_objective(bases, sync.s_matrices, sync.global_coeffs, y)
    assert objective <= history[-1] + 1e-12 * history[0]
    # Every (S_m G^-1, G z) with G invertible fits y as well as (S_m, z), so
    # the alternation leaves z free along that orbit, and rounding walks it
    # there by up to 4e-12 relative per step on these S matrices (their
    # nonzero singular values span up to 1e5). The closed form is compared
    # with one oracle step, and with the 100-step oracle through S_m z.
    _, z_step, _ = synchronize_per_target(bases, y, iters=1)
    rel = np.abs(sync.global_coeffs - z_step).max() / np.abs(z_step).max()
    assert rel < 1e-10
    for s, s_o, y_m in zip(sync.s_matrices, s_oracle, y):
        fitted = sync.global_coeffs @ s.T
        rel = np.abs(fitted - z_oracle @ s_o.T).max() / np.abs(y_m).max()
        assert rel < 1e-10


def test_zero_coefficient_reproduces_reference(finetuned, workdir):
    model, _ = finetuned
    root, ds = workdir
    ref = load_dataset(ds).objects[0]
    dobj = build_deformable(model, ref, model.sync.s_matrices,
                            cages=[c.cage for c in model.convexes])
    for got, want in zip(dobj.parts, ref.parts):
        g = got.mesh_at(np.zeros(model.k))
        assert np.abs(g.vertices - want.merged().vertices).max() < 1e-6
        np.testing.assert_array_equal(g.faces, want.merged().faces)


def test_build_deformable_block_layout(pretrained, workdir):
    # the identity's block rows give convex m block m of the stacked
    # coefficients: v_m + phi_m @ (y_m^i . B_m) on the model's own cages;
    # a pretrained model has no sync state and needs none here
    model, _ = pretrained
    _, ds = workdir
    source = load_dataset(ds).objects[0]
    m_count = len(model.convexes)
    blocks = np.split(np.eye(m_count * model.k), m_count)
    dobj = build_deformable(model, source, blocks, blend_radius_rel=0.0,
                            cages=[c.cage for c in model.convexes])
    assert dobj.k == m_count * model.k
    for i in range(len(model.convexes[0].coeffs)):
        z = stack_coeffs(model, i)
        for cm in model.convexes:
            part = dobj.parts[cm.part_index]
            a, b = part.convex_slices[cm.convex_index]
            convex = source.parts[cm.part_index].convexes[cm.convex_index]
            y = cm.coeffs[i]
            want = convex.vertices + cm.cage.phi @ cm.bases.cage_offsets(y)
            # rounding of two summation orders: ulps of the largest term
            scale = np.abs(y).sum() * np.abs(cm.bases.bases).max()
            np.testing.assert_allclose(part.mesh_at(z).vertices[a:b], want,
                                       rtol=0, atol=1e-14 * max(scale, 1.0))


def test_stack_unstack_round_trip(pretrained):
    model, _ = pretrained
    z = stack_coeffs(model, 0)
    assert z.shape == (4 * model.k,)
    for m, b in enumerate(z.reshape(4, model.k)):
        np.testing.assert_array_equal(b, model.convexes[m].coeffs[0])


def test_sample_is_deterministic(finetuned, workdir):
    _, model_path = finetuned
    root, ds = workdir
    ref_path = root / "data" / "glasses_01" / "object.json"
    cfg = tiny_config()
    rep1 = cmd_sample(model_path, ref_path, root / "s1", cfg, n=2, seed=7)
    rep2 = cmd_sample(model_path, ref_path, root / "s2", cfg, n=2, seed=7)
    assert rep1["n"] == 2
    for s in rep1["samples"]:
        assert s["apd_after"] <= s["apd_before"] + 1e-15
    for i in range(2):
        a = (root / "s1" / f"sample_{i:03d}.obj").read_bytes()
        b = (root / "s2" / f"sample_{i:03d}.obj").read_bytes()
        assert a == b
    r1 = json.loads((root / "s1" / "samples_report.json").read_text())
    r2 = json.loads((root / "s2" / "samples_report.json").read_text())
    assert r1 == r2


def test_sample_z_zero_matches_reference_geometry(finetuned, workdir, tmp_path,
                                                  monkeypatch):
    import artigen.pipeline as pipeline

    _, model_path = finetuned
    root, ds = workdir
    ref_path = root / "data" / "glasses_00" / "object.json"
    monkeypatch.setattr(pipeline, "TEST_PROJ", ProjConfig(iters=0))
    cmd_sample(model_path, ref_path, tmp_path, tiny_config(), n=1, z_zero=True)
    from artigen.mesh import load_obj

    got = load_obj(tmp_path / "sample_000.obj")
    ref = load_manifest(ref_path)
    want = merge_meshes([p.merged() for p in ref.parts])
    assert np.abs(got.vertices - want.vertices).max() < 1e-6


def test_sample_z_zero_corrects_once(finetuned, workdir, tmp_path, monkeypatch):
    import artigen.pipeline as pipeline

    _, model_path = finetuned
    root, _ = workdir
    original, calls = pipeline.correct_shape, []

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "correct_shape", counted)
    rep = cmd_sample(model_path, root / "data" / "glasses_01" / "object.json",
                     tmp_path, tiny_config(), n=3, z_zero=True)
    assert len(calls) == 1
    first, *rest = rep["samples"]
    assert [dict(s, file=first["file"]) for s in rest] == [first, first]
    objs = [(tmp_path / s["file"]).read_bytes() for s in rep["samples"]]
    assert len(objs) == 3 and objs[1:] == [objs[0], objs[0]]


def test_sample_isolates_failed_draws(finetuned, workdir, tmp_path, monkeypatch):
    import artigen.pipeline as pipeline

    model, model_path = finetuned
    root, _ = workdir
    ref_path = root / "data" / "glasses_01" / "object.json"
    full = cmd_sample(model_path, ref_path, tmp_path / "full", tiny_config(), n=3, seed=7)
    original, calls = pipeline.correct_shape, []

    def second_draw_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 2:
            raise ValueError("degenerate face 3: zero area")
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "correct_shape", second_draw_fails)
    rep = cmd_sample(model_path, ref_path, tmp_path / "part", tiny_config(), n=3, seed=7)
    drawn = sample_gmm(model.gmm, seed=7, n=3)
    assert rep["samples"][1] == {"file": None, "z": drawn[1].tolist(),
                                 "error": "ValueError: degenerate face 3: zero area"}
    assert not (tmp_path / "part" / "sample_001.obj").exists()
    for i in (0, 2):
        assert rep["samples"][i] == full["samples"][i]
        name = full["samples"][i]["file"]
        assert ((tmp_path / "part" / name).read_bytes()
                == (tmp_path / "full" / name).read_bytes())
    for key in ("apd_before", "apd_after"):
        assert rep[f"mean_{key}"] == float(np.mean(
            [full["samples"][i][key] for i in (0, 2)]))
    assert json.loads((tmp_path / "part" / "samples_report.json").read_text()) == rep

    def always_fails(*args, **kwargs):
        raise FloatingPointError("non-finite projection gradient")

    monkeypatch.setattr(pipeline, "correct_shape", always_fails)
    with pytest.raises(PipelineError, match="all 3 samples failed"):
        cmd_sample(model_path, ref_path, tmp_path / "none", tiny_config(), n=3, seed=7)


def test_sample_one(finetuned, workdir, tmp_path):
    model, model_path = finetuned
    root, _ = workdir
    assert sample_gmm(model.gmm, seed=7, n=1).shape == (1, model.k)
    rep = cmd_sample(model_path, root / "data" / "glasses_01" / "object.json",
                     tmp_path, tiny_config(), n=1, seed=7)
    assert rep["n"] == 1 and len(rep["samples"]) == 1
    assert len(rep["samples"][0]["z"]) == model.k
    assert (tmp_path / "sample_000.obj").exists()


def test_sample_rejects_count_below_one(finetuned, workdir, tmp_path):
    from artigen.cli import main

    _, model_path = finetuned
    root, _ = workdir
    ref = root / "data" / "glasses_01" / "object.json"
    # the count is checked before the model is read
    for n in (0, -1):
        with pytest.raises(PipelineError, match="at least 1, got"):
            cmd_sample(tmp_path / "missing.json", ref, tmp_path / "lib",
                       tiny_config(), n=n)
    assert not (tmp_path / "lib").exists()
    with pytest.raises(PipelineError, match="at least 1, got 0"):
        main(["sample", str(model_path), str(ref), str(tmp_path / "cli"), "-n", "0"])
    run = json.loads((tmp_path / "cli" / "run.json").read_text())
    assert run["status"] == "error" and run["error"].startswith("PipelineError: ")


def test_save_model_creates_missing_directories(pretrained, tmp_path):
    model, path = pretrained
    out = tmp_path / "x" / "y" / "model.json"
    save_model(model, out)
    assert out.read_bytes() == path.read_bytes()


def test_finetune_more_targets_than_bases(tmp_path):
    from artigen.sync import sync_objective
    from oracle import synchronize_per_target

    # 5 shots at K = 3: the 4 targets outnumber the bases, so synchronization
    # first projects the coefficients onto the best rank-3 fit of the stacked
    # cage offsets
    ds = write_eyeglasses_dataset(tmp_path / "data", n=5, seed=0)
    cfg = replace(tiny_config(), finetune_outer_iters=1)
    path = tmp_path / "k3" / "model.json"  # its directory does not exist yet
    model = cmd_finetune(ds, path, cfg)
    bases = [c.bases for c in model.convexes]
    y = np.stack([c.coeffs for c in model.convexes])
    assert y.shape[1:] == (4, 3)
    h = model.sync.objective_history
    assert len(h) == 2 and h[1] < h[0]
    assert h[1] == sync_objective(bases, model.sync.s_matrices,
                                  model.sync.global_coeffs, y)
    _, _, oracle_history = synchronize_per_target(bases, y)
    assert h[1] <= min(oracle_history[1:])
    assert load_model(path).sync.objective_history == h
    rep = cmd_sample(path, tmp_path / "data" / "glasses_01" / "object.json",
                     tmp_path / "samples", cfg, n=3, seed=1)
    assert [s["file"] for s in rep["samples"]] == [
        f"sample_{i:03d}.obj" for i in range(3)]
    assert all(len(s["z"]) == 3 for s in rep["samples"])


def test_sample_one_part_reference(finetuned, workdir, tmp_path):
    # every convex in one fixed part: nothing can collide, so correction
    # keeps the draw and both APDs are zero
    model, model_path = finetuned
    root, _ = workdir
    src = root / "data" / "glasses_01" / "object.json"
    objs = [str(src.parent / f) for part in json.loads(src.read_text())["parts"]
            for f in part["convex_objs"]]
    ref = tmp_path / "one_part.json"
    ref.write_text(json.dumps({"parts": [{"name": "whole", "convex_objs": objs,
                                          "joint": {"kind": "fixed"}}]}))
    rep = cmd_sample(model_path, ref, tmp_path / "out", tiny_config(), n=2, seed=7)
    drawn = sample_gmm(model.gmm, seed=7, n=2)
    for i, s in enumerate(rep["samples"]):
        assert s["apd_before"] == s["apd_after"] == 0.0
        assert s["z"] == drawn[i].tolist()
        assert (tmp_path / "out" / s["file"]).exists()


def test_cmd_simulate(workdir):
    root, ds = workdir
    rep = cmd_simulate(root / "data" / "glasses_00" / "object.json",
                       tiny_config())
    assert set(rep) == {"l_phy", "l_proj", "breakdown"}
    assert rep["l_phy"] >= 0.0


def test_eval_identical_populations(workdir, tmp_path):
    root, ds = workdir
    loaded = load_dataset(ds)
    gen_dir = tmp_path / "gen"
    gen_dir.mkdir()
    for i, obj in enumerate(loaded.objects):
        save_obj(merge_meshes([p.merged() for p in obj.parts]),
                 gen_dir / f"sample_{i:03d}.obj")
    rep = cmd_eval(gen_dir, ds, tiny_config())
    assert rep["metrics"]["mmd"] == 0.0
    assert rep["metrics"]["cov"] == 1.0
    assert "MMD (x1e3)" in rep["table"]


@pytest.mark.parametrize("text", ["{not json", '{"n": 2}', '{"mean_apd_after": null}',
                                  '{"mean_apd_after": "0.1"}', "[0.1]"])
def test_eval_rejects_corrupt_samples_report(workdir, tmp_path, text):
    root, ds = workdir
    loaded = load_dataset(ds)
    save_obj(merge_meshes([p.merged() for p in loaded.objects[0].parts]),
             tmp_path / "sample_000.obj")
    report = tmp_path / "samples_report.json"
    report.write_text(text)
    with pytest.raises(PipelineError, match=re.escape(str(report))):
        cmd_eval(tmp_path, ds, tiny_config())


def test_eval_requires_obj_files(workdir, tmp_path):
    _, ds = workdir
    with pytest.raises(PipelineError, match="no .obj files"):
        cmd_eval(tmp_path, ds, tiny_config())


def test_apply_overrides():
    cfg = apply_overrides(PipelineConfig(), {"k": 8, "sim": {"n_steps": 5}})
    assert cfg.k == 8 and cfg.sim.n_steps == 5
    with pytest.raises(PipelineError, match="bogus"):
        apply_overrides(PipelineConfig(), {"bogus": 1})
    with pytest.raises(PipelineError, match="sim.bogus"):
        apply_overrides(PipelineConfig(), {"sim": {"bogus": 1}})
    with pytest.raises(PipelineError, match="sim"):
        apply_overrides(PipelineConfig(), {"sim": 5})
    # the alternation count and the basis step sizes are no longer settings
    with pytest.raises(PipelineError, match="sync_iters"):
        apply_overrides(PipelineConfig(), {"sync_iters": 100})
    with pytest.raises(PipelineError, match="fit.reg_steps"):
        apply_overrides(PipelineConfig(), {"fit": {"reg_steps": 25}})
    with pytest.raises(PipelineError, match="fit.reg_lr"):
        apply_overrides(PipelineConfig(), {"fit": {"reg_lr": 0.05}})
    # nested blocks are rebuilt, so their own validation still runs
    with pytest.raises(ValueError, match="n_steps"):
        apply_overrides(PipelineConfig(), {"sim": {"n_steps": 0}})


@pytest.mark.parametrize("rec, match", [
    ({"k": 0}, "k must be >= 1"),
    ({"k": -2}, "k must be >= 1"),
    ({"fit": {"chamfer_samples": 0}}, "chamfer_samples must be >= 1"),
])
def test_out_of_range_sizes_are_config_errors(tmp_path, rec, match):
    from artigen.cli import main

    with pytest.raises(ValueError, match=match):
        apply_overrides(PipelineConfig(), rec)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(rec))
    with pytest.raises(ValueError, match=match):
        main(["--config", str(path), "simulate", "m", str(tmp_path / "out")])


@pytest.mark.parametrize("key", ["epsilon", "blend_radius_rel", "gmm_components",
                                 "n_samples_per_reference", "proj_train",
                                 "proj_test", "jobs", "fit.lambda_orth",
                                 "fit.lambda_sp", "fit.outer_iters"])
def test_apply_overrides_rejects_removed_settings(key):
    # these are module constants now: CAGE_EPSILON, build_deformable's and
    # fit_gmm's defaults, SAMPLES_PER_REFERENCE, TRAIN_PROJ and TEST_PROJ,
    # basis._LAMBDA_ORTH and _LAMBDA_SP, and PRETRAIN_ROUNDS (fine-tuning
    # asks fit_bases for one round); pretraining fits its convexes one after
    # another, so no worker count
    block, _, name = key.rpartition(".")
    rec = {block: {name: {}}} if block else {key: {}}
    with pytest.raises(PipelineError, match=f"unknown config key '{key}'"):
        apply_overrides(PipelineConfig(), rec)


@pytest.mark.parametrize("rec, match", [
    ([], "a config file needs a table, got list"),
    ({"k": "16"}, r"'k' must be of type int, got '16'"),
    ({"k": 16.0}, r"'k' must be of type int, got 16.0"),
    ({"k": True}, r"'k' must be of type int, got True"),
    ({"lambda_phy": False}, r"'lambda_phy' must be of type float, got False"),
    ({"lambda_phy": None}, r"'lambda_phy' must be of type float, got None"),
    ({"fit": {"chamfer_samples": [512]}}, r"'fit.chamfer_samples' must be of type int"),
    ({"sim": {"seed": "0"}}, r"'sim.seed' must be of type int"),
])
def test_apply_overrides_rejects_wrong_types(rec, match):
    with pytest.raises(PipelineError, match=match):
        apply_overrides(PipelineConfig(), rec)


def test_apply_overrides_accepts_int_for_float():
    cfg = apply_overrides(PipelineConfig(), {"lambda_phy": 0})
    assert cfg.lambda_phy == 0


@pytest.mark.parametrize("name, text", [("cfg.json", "{not json"),
                                        ("cfg.toml", "k = = 3"),
                                        ("cfg.json", "[1, 2]")])
def test_cli_config_file_errors(tmp_path, name, text):
    from artigen.cli import _build_config, build_parser

    path = tmp_path / name
    path.write_text(text)
    args = build_parser().parse_args(["--config", str(path), "simulate", "m", "o"])
    match = "needs a table" if text.startswith("[") else re.escape(str(path))
    with pytest.raises(PipelineError, match=match):
        _build_config(args)


@pytest.mark.parametrize("name", ["cfg.json", "cfg.toml"])
def test_cli_config_file_not_utf8(tmp_path, name):
    from artigen.cli import _build_config, build_parser

    path = tmp_path / name
    path.write_bytes(b"k = 3 \xff\xfe")
    args = build_parser().parse_args(["--config", str(path), "simulate", "m", "o"])
    with pytest.raises(PipelineError, match=re.escape(str(path))):
        _build_config(args)


def test_desk_profile_shrinks_costs():
    cfg = desk_profile()
    assert cfg.sim.n_steps == 20 and cfg.sim.n_det == 10
    assert cfg.fit.chamfer_samples == 512
    assert cfg.eval_points == 512


def test_cli_simulate_smoke(workdir, tmp_path, capsys):
    from artigen.cli import _build_config, build_parser, main

    root, _ = workdir
    manifest = root / "data" / "glasses_00" / "object.json"
    rc = main(["--profile", "desk", "simulate", str(manifest), str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "collision.json").exists()
    run = json.loads((tmp_path / "run.json").read_text())
    assert run["args"]["command"] == "simulate"
    assert run["args"]["manifest"] == str(manifest)
    # run.json holds the whole resolved config: feeding it back reproduces it
    assert apply_overrides(PipelineConfig(), run["config"]) == desk_profile()
    args = build_parser().parse_args(["finetune", "ds", "out", "--lambda-phy", "0.5"])
    assert _build_config(args).lambda_phy == 0.5


def test_cli_run_json_records_outcome(workdir, tmp_path):
    import platform

    import scipy

    from artigen import __version__
    from artigen.cli import main
    from artigen.mesh import ManifestError

    root, _ = workdir
    manifest = root / "data" / "glasses_00" / "object.json"
    assert main(["--profile", "desk", "simulate", str(manifest),
                 str(tmp_path / "ok")]) == 0
    ok = json.loads((tmp_path / "ok" / "run.json").read_text())
    assert ok["status"] == "ok" and "error" not in ok
    assert ok["versions"] == {"python": platform.python_version(),
                              "numpy": np.__version__, "scipy": scipy.__version__,
                              "artigen": __version__}
    assert ok["wall_s"] > 0
    assert ok["args"]["manifest"] == str(manifest)
    assert apply_overrides(PipelineConfig(), ok["config"]) == desk_profile()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"parts": "abc"}))
    with pytest.raises(ManifestError, match="'parts' must be a list"):
        main(["--profile", "desk", "simulate", str(bad), str(tmp_path / "err")])
    err = json.loads((tmp_path / "err" / "run.json").read_text())
    assert err["status"] == "error"
    assert err["error"].startswith("ManifestError: ")
    assert "'parts' must be a list" in err["error"]
    assert err["versions"] == ok["versions"] and err["wall_s"] >= 0
    assert err.keys() >= {"timestamp", "args", "config"}


def test_cli_config_file_and_seed(tmp_path):
    from artigen.cli import _build_config, build_parser

    def build(*flags):
        return _build_config(build_parser().parse_args([*flags, "simulate", "m", "o"]))

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3}))
    cfg = build("--config", str(path))
    assert (cfg.seed, cfg.sim.seed) == (3, 3)
    cfg = build("--config", str(path), "--seed", "5")
    assert (cfg.seed, cfg.sim.seed) == (5, 5)
    path.write_text(json.dumps({"seed": 3, "sim": {"seed": 9}}))
    cfg = build("--config", str(path))
    assert (cfg.seed, cfg.sim.seed) == (3, 9)
    with pytest.raises(SystemExit):
        build("--jobs", "2")


def test_cli_rejects_unknown_command():
    from artigen.cli import build_parser

    with pytest.raises(SystemExit):
        build_parser().parse_args(["frobnicate"])


def test_finetune_restart_from_pretrained_deterministic(workdir, pretrained):
    root, ds = workdir
    _, pre_path = pretrained
    p1 = root / "re1.json"
    p2 = root / "re2.json"
    cfg = tiny_config()
    cfg.finetune_outer_iters = 1
    cmd_finetune(ds, p1, cfg, pretrained_path=pre_path)
    cmd_finetune(ds, p2, cfg, pretrained_path=pre_path)
    assert json.loads(p1.read_text()) == json.loads(p2.read_text())


def test_finetune_rejects_pretrained_model_with_other_k(workdir, pretrained, tmp_path):
    _, ds = workdir
    _, pre_path = pretrained
    cfg = tiny_config()
    cfg.k = 4
    with pytest.raises(PipelineError,
                       match=rf"{re.escape(str(pre_path))} .*k=3; .*k=4"):
        cmd_finetune(ds, tmp_path / "fine.json", cfg, pretrained_path=pre_path)


def test_finetune_pretrained_on_other_dataset_builds_own_cages(pretrained, tmp_path):
    # bases transfer across datasets; cages and their weights belong to the
    # fine-tune source, so its convexes are reproduced by phi @ cage vertices
    pre_model, pre_path = pretrained
    ds = write_eyeglasses_dataset(tmp_path / "data", n=3, seed=5)
    cfg = tiny_config()
    cfg.finetune_outer_iters = 1
    model = cmd_finetune(ds, tmp_path / "model.json", cfg, pretrained_path=pre_path)
    source = load_dataset(ds).objects[0]
    for cm in model.convexes:
        convex = source.parts[cm.part_index].convexes[cm.convex_index]
        want = build_cage(convex)
        np.testing.assert_array_equal(cm.cage.mesh.vertices, want.mesh.vertices)
        np.testing.assert_array_equal(cm.cage.mesh.faces, want.mesh.faces)
        np.testing.assert_array_equal(cm.cage.phi, want.phi)
        assert np.abs(cm.cage.phi @ cm.cage.mesh.vertices
                      - convex.vertices).max() < 1e-12
    # the other dataset does move the cages: the pretraining source's would not fit
    assert any(np.abs(a.cage.mesh.vertices - b.cage.mesh.vertices).max() > 1e-3
               for a, b in zip(model.convexes, pre_model.convexes))
