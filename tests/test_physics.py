import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artigen import physics
from artigen.mesh import (
    ArticulatedObject,
    Joint,
    Part,
    TriMesh,
    articulate,
    load_manifest,
    merge_meshes,
    rotation_about_axis,
)
from artigen.physics import (
    CollisionReport,
    DeformableObject,
    DeformablePart,
    ProjConfig,
    SimConfig,
    correct_shape,
    face_normals,
    physics_losses,
    single_simulation,
)
from fixtures import grid_box, hinge_wall_rod, hull_mesh, simple_box, write_eyeglasses
from oracle import (
    articulated_ref_mesh,
    correct_shape_every_step,
    dense_sweep_crossings,
    frozen_proj_loss,
    rigid_part,
    run_losses_every_detection,
    vertex_face_distance,
    vertices_in_faces,
)


def naive_sweep(mov: TriMesh, ref: TriMesh, joint: Joint, n_steps: int):
    """Step-by-step loop oracle for the stepped penetration sweep."""
    normals = face_normals(ref)
    lo, hi = joint.range
    nv, nf = mov.n_vertices, ref.n_faces
    prev_d = vertex_face_distance(mov.vertices, ref, normals)
    prev_s = np.sign(prev_d)
    pene = 0.0
    proj = 0.0
    prev_v = np.array(mov.vertices)
    for t in range(1, n_steps + 1):
        state = lo + (hi - lo) * t / n_steps
        v = articulate(mov, joint, state).vertices
        d = vertex_face_distance(v, ref, normals)
        s = np.sign(d)
        inside = vertices_in_faces(v, ref)
        crossing = inside & (s != prev_s)
        pene += np.clip(crossing * d * s, 0.0, None).sum() / (nv * nf)
        dv_n = (v - prev_v) @ normals.T
        proj += (crossing * dv_n * d).sum() / (nv * nf)
        prev_s, prev_v = s, v
    return pene / n_steps, proj / n_steps


def test_fixed_joint_is_exactly_zero():
    wall, rod, _ = hinge_wall_rod()
    res = single_simulation(rod, wall, Joint("fixed"), 50)
    assert res.group_pene[0] == 0.0 and res.group_proj[0] == 0.0


def test_disjoint_sweep_is_zero():
    ref = simple_box((0.2, 0.2, 0.2), (5.0, 5.0, 5.0))
    mov = simple_box((0.2, 0.2, 0.2), (0.5, 0.0, 0.0))
    joint = Joint("revolute", axis=np.array([0.0, 0.0, 1.0]),
                  pivot=np.zeros(3), range=(0.0, np.pi / 2))
    res = single_simulation(mov, ref, joint, 200)
    assert res.group_pene[0] == 0.0 and res.group_proj[0] == 0.0


def test_vertex_face_distance_oracle(rng):
    ref = simple_box((1.0, 0.8, 0.6))
    normals = face_normals(ref)
    pts = rng.normal(size=(20, 3))
    d = vertex_face_distance(pts, ref, normals)
    for i, p in enumerate(pts):
        for f in range(ref.n_faces):
            a = ref.vertices[ref.faces[f, 0]]
            assert d[i, f] == pytest.approx(np.dot(p - a, normals[f]), abs=1e-12)


def test_vertices_in_faces_barycentric_oracle(rng):
    ref = simple_box((1.0, 0.8, 0.6))
    pts = rng.uniform(-1.2, 1.2, size=(50, 3))
    got = vertices_in_faces(pts, ref)
    for i, p in enumerate(pts):
        for f in range(ref.n_faces):
            a, b, c = ref.vertices[ref.faces[f]]
            m = np.stack([b - a, c - a], axis=1)
            uv, *_ = np.linalg.lstsq(m, p - a, rcond=None)
            inside = (uv[0] >= -1e-9) and (uv[1] >= -1e-9) and (uv.sum() <= 1 + 1e-9)
            assert bool(got[i, f]) == inside


def test_hinge_penetration_matches_loop_oracle():
    wall, rod, joint = hinge_wall_rod()
    n = 10_000
    res = single_simulation(rod, wall, joint, n)
    assert res.group_pene[0] > 0.0
    pene_o, proj_o = naive_sweep(rod, wall, joint, n)
    assert abs(res.group_pene[0] - pene_o) <= 0.1 * pene_o
    assert res.group_proj[0] == pytest.approx(proj_o, rel=1e-9)


def test_penetration_depth_scales_inverse_square():
    wall, rod, joint = hinge_wall_rod()
    p100 = single_simulation(rod, wall, joint, 100).group_pene[0]
    p1000 = single_simulation(rod, wall, joint, 1000).group_pene[0]
    assert p1000 == pytest.approx(p100 / 100, rel=0.2)


def test_frozen_mask_evaluator_matches_simulation():
    wall, rod, joint = hinge_wall_rod()
    res = single_simulation(rod, wall, joint, 50, want_grad=True)
    frozen = frozen_proj_loss(rod.vertices, wall, joint, 50, res.crossings)
    assert frozen == pytest.approx(res.group_proj[0], abs=1e-15)


def test_projection_gradient_finite_difference():
    wall, rod, joint = hinge_wall_rod()
    res = single_simulation(rod, wall, joint, 30, want_grad=True)
    rng = np.random.default_rng(3)
    direction = rng.normal(size=rod.vertices.shape)
    direction /= np.linalg.norm(direction)
    eps = 1e-6
    f_plus = frozen_proj_loss(rod.vertices + eps * direction, wall, joint, 30,
                              res.crossings)
    f_minus = frozen_proj_loss(rod.vertices - eps * direction, wall, joint, 30,
                               res.crossings)
    fd = (f_plus - f_minus) / (2 * eps)
    analytic = float(np.sum(res.proj_grad_v * direction))
    assert abs(fd - analytic) / max(abs(fd), 1e-30) < 1e-4


def test_projection_gradient_z_finite_difference():
    from artigen.physics import grad_proj_wrt_z

    dobj = _hinge_deformable(k=4, seed=5)
    cfg = SimConfig(n_steps=20, n_det=3, seed=1)
    z = np.zeros(4)
    _, grad = grad_proj_wrt_z(dobj, z, cfg)
    # frozen objective in z: rebuild probe with masks from the reference run
    wall_p, rod_p = dobj.parts
    res_refs = []
    rngs = [np.random.default_rng([cfg.seed, 1, det]) for det in range(cfg.n_det)]
    del rngs  # states are deterministic per (seed, part, det); reuse the driver

    def frozen_total(zz):
        total = 0.0
        count = 0
        for i, part in enumerate(dobj.parts):
            if part.joint.is_fixed:
                count += cfg.n_det
                continue
            for det in range(cfg.n_det):
                rng = np.random.default_rng([cfg.seed, i, det])
                states = {j: (0.0 if dobj.parts[j].joint.is_fixed
                              else float(rng.choice(np.asarray(dobj.parts[j].ref_states))
                                         if dobj.parts[j].ref_states else
                                         rng.uniform(*dobj.parts[j].joint.range)))
                          for j in range(len(dobj.parts)) if j != i}
                ref = _merge_at(dobj, i, states, np.zeros(4))
                key = (i, det)
                if key not in _mask_cache:
                    base = single_simulation(part.mesh_at(np.zeros(4)), ref,
                                             part.joint, cfg.n_steps,
                                             want_grad=True)
                    _mask_cache[key] = base.crossings
                v = part.v0 + part.jac @ zz
                total += frozen_proj_loss(v, ref, part.joint, cfg.n_steps,
                                          _mask_cache[key])
                count += 1
        return total / count

    _mask_cache: dict = {}
    eps = 1e-6
    rng = np.random.default_rng(9)
    direction = rng.normal(size=4)
    direction /= np.linalg.norm(direction)
    fd = (frozen_total(z + eps * direction) - frozen_total(z - eps * direction)) / (2 * eps)
    analytic = float(grad @ direction)
    assert abs(fd - analytic) / max(abs(fd), 1e-30) < 1e-4


def _merge_at(dobj, mover_idx, states, z):
    from artigen.mesh import merge_meshes

    pieces = []
    for j, p in enumerate(dobj.parts):
        if j == mover_idx:
            continue
        pieces.append(articulate(p.mesh_at(z), p.joint, states[j]))
    return merge_meshes(pieces)


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


def test_correct_shape_strictly_decreases_penetration():
    dobj = _hinge_deformable(k=4, seed=0)
    cfg = SimConfig(n_steps=20, n_det=3, seed=1)
    z0 = np.zeros(4)
    z1, before, after = correct_shape(dobj, z0, ProjConfig(iters=10, eps_proj=1e-5),
                                      cfg)
    assert before.l_phy > 0
    assert after.l_phy < before.l_phy
    assert not np.array_equal(z0, z1)


def _count_passes(monkeypatch):
    """Record each gradient pass as "grad" and each loss-only sweep as "loss"."""
    calls = []
    grad_pass, run_losses = physics.grad_proj_wrt_z, physics._run_losses

    def counted_grad(*args, **kwargs):
        calls.append("grad")
        return grad_pass(*args, **kwargs)

    def counted_losses(*args, **kwargs):
        if not kwargs.get("want_grad", False):
            calls.append("loss")
        return run_losses(*args, **kwargs)

    monkeypatch.setattr(physics, "grad_proj_wrt_z", counted_grad)
    monkeypatch.setattr(physics, "_run_losses", counted_losses)
    return calls


def test_correct_shape_matches_every_step_oracle_when_z_moves(monkeypatch):
    dobj = _hinge_deformable(k=4, seed=0)
    cfg = SimConfig(n_steps=20, n_det=3, seed=1)
    proj = ProjConfig(iters=10, eps_proj=1e-5)
    calls = _count_passes(monkeypatch)
    z, before, after = correct_shape(dobj, np.zeros(4), proj, cfg)
    # z moves at every step; the pass after the last step reports and steps no more
    assert calls == ["grad"] * (proj.iters + 1)
    zo, before_o, after_o = correct_shape_every_step(dobj, np.zeros(4), proj, cfg)
    assert z.tobytes() == zo.tobytes()
    assert before == before_o and after == after_o
    assert after.l_phy < before.l_phy


def test_correct_shape_stops_at_its_fixed_point(monkeypatch):
    dobj = _hinge_deformable(k=4, seed=0)
    cfg = SimConfig(n_steps=20, n_det=3, seed=1)
    # a nonzero step far below one ulp of every entry of z leaves z as it is
    proj = ProjConfig(iters=10, eps_proj=1e-30)
    z0 = np.random.default_rng(3).normal(scale=0.5, size=4)
    _, grad = physics.grad_proj_wrt_z(dobj, z0, cfg)
    step = proj.eps_proj * grad
    assert (step != 0).all() and (np.abs(step) < np.abs(np.spacing(z0)) / 2).all()
    calls = _count_passes(monkeypatch)
    z, before, after = correct_shape(dobj, z0, proj, cfg)
    assert calls == ["grad"]
    calls.clear()
    zo, before_o, after_o = correct_shape_every_step(dobj, z0, proj, cfg)
    assert calls == ["grad"] * proj.iters + ["loss"]
    assert z.tobytes() == zo.tobytes() == z0.tobytes()
    assert before.l_phy > 0
    assert before == before_o and after == after_o
    # with no step to take, the one pass reports before and after
    calls.clear()
    z, before, after = correct_shape(dobj, z0, ProjConfig(iters=0), cfg)
    assert calls == ["grad"]
    assert before is after and before == before_o
    assert z.tobytes() == z0.tobytes()


def test_correct_shape_counts_a_sign_flip_of_zero_as_a_move(monkeypatch):
    dobj = _hinge_deformable(k=4, seed=0)
    cfg = SimConfig(n_steps=20, n_det=3, seed=1)
    real = physics.grad_proj_wrt_z

    def negative_zero_grad(dobj, z, cfg):
        return real(dobj, z, cfg)[0], np.full(dobj.k, -0.0)

    monkeypatch.setattr(physics, "grad_proj_wrt_z", negative_zero_grad)
    # -0.0 - 1e-5 * -0.0 is +0.0: equal as numbers, but the step moved z
    proj = ProjConfig(iters=3, eps_proj=1e-5)
    calls = _count_passes(monkeypatch)
    z, _, _ = correct_shape(dobj, np.full(4, -0.0), proj, cfg)
    # the second pass finds +0.0 a fixed point
    assert calls == ["grad", "grad"]
    zo, _, _ = correct_shape_every_step(dobj, np.full(4, -0.0), proj, cfg)
    assert z.tobytes() == zo.tobytes() == np.zeros(4).tobytes()


def test_physics_losses_hinge_object():
    wall, rod, joint = hinge_wall_rod()
    obj = ArticulatedObject(parts=(
        Part(name="wall", convexes=(wall,), joint=Joint("fixed")),
        Part(name="rod", convexes=(rod,), joint=joint),
    ))
    cfg = SimConfig(n_steps=50, n_det=4, seed=0)
    rep = physics_losses(obj, cfg)
    assert rep.l_phy > 0
    assert len(rep.breakdown) == 2 * 4
    # same seed reproduces bit-identically
    rep2 = physics_losses(obj, cfg)
    assert rep.l_phy == rep2.l_phy and rep.l_proj == rep2.l_proj


def test_single_part_object_has_zero_losses():
    wall, _, _ = hinge_wall_rod()
    obj = ArticulatedObject(parts=(
        Part(name="wall", convexes=(wall,), joint=Joint("fixed")),))
    rep = physics_losses(obj, SimConfig(n_steps=10, n_det=2))
    assert rep.l_phy == 0.0 and rep.l_proj == 0.0


def test_ref_states_are_honored():
    from artigen.physics import _sample_ref_states

    wall, rod, joint = hinge_wall_rod()
    k = 2
    parts = [
        rigid_part("fixed", wall, Joint("fixed"), k),
        rigid_part("pinned", rod, joint, k, ref_states=(0.25, 0.75)),
        rigid_part("free", rod, joint, k),
    ]
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(50):
        states = _sample_ref_states(parts, 0, rng)
        assert states[1] in (0.25, 0.75)
        seen.add(states[1])
        assert 0.0 <= states[2] <= np.pi / 2
    assert seen == {0.25, 0.75}
    states = _sample_ref_states(parts, 1, rng)
    assert states[0] == 0.0  # fixed joints are posed at 0


def test_prismatic_sweep_detects_crossing():
    ref = simple_box((0.1, 1.0, 1.0), (1.0, 0.0, 0.0))
    mov = simple_box((0.2, 0.2, 0.2), (0.0, 0.0, 0.0))
    joint = Joint("prismatic", axis=np.array([1.0, 0.0, 0.0]),
                  pivot=np.zeros(3), range=(0.0, 2.0))
    res = single_simulation(mov, ref, joint, 500)
    assert res.group_pene[0] > 0


def test_report_round_trips_through_json():
    wall, rod, joint = hinge_wall_rod()
    obj = ArticulatedObject(parts=(
        Part(name="wall", convexes=(wall,), joint=Joint("fixed")),
        Part(name="rod", convexes=(rod,), joint=joint),
    ))
    rep = physics_losses(obj, SimConfig(n_steps=10, n_det=2))
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["l_phy"] == rep.l_phy
    assert len(back["breakdown"]) == len(rep.breakdown)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n_steps=0)
    with pytest.raises(ValueError):
        ProjConfig(iters=-1)
    with pytest.raises(ValueError):
        ProjConfig(eps_proj=0.0)


def test_rest_pose_is_sweep_origin():
    # initial signs come from the rest pose, not the lower-range pose
    wall, rod, _ = hinge_wall_rod()
    joint = Joint("revolute", axis=np.array([0.0, 0.0, 1.0]),
                  pivot=np.zeros(3), range=(np.pi / 4, np.pi / 2))
    res = single_simulation(rod, wall, joint, 2000)
    # the rod starts on the near side of the wall, so it still crosses
    assert res.group_pene[0] > 0


def _eyeglasses_parts(tmp_path, ref_states: bool):
    path = write_eyeglasses(tmp_path, 0, np.random.default_rng(4))
    parts = load_manifest(path).parts
    if not ref_states:
        parts = tuple(Part(p.name, p.convexes, p.joint) for p in parts)
    return parts


def _pinned_post_parts():
    # the rod's far end sweeps through the wall and through a post pinned at
    # one of three tilts; the post tilts against the rod at continuous draws
    wall, rod, joint = hinge_wall_rod()
    post = simple_box((0.06, 0.06, 0.8), (0.92, 0.39, 0.0))
    post_joint = Joint("revolute", axis=np.array([1.0, 0.0, 0.0]),
                       pivot=np.array([0.92, 0.39, 0.0]), range=(-1.0, 1.0))
    return (Part("wall", (wall,), Joint("fixed")),
            Part("rod", (rod,), joint),
            Part("post", (post,), post_joint, ref_states=(-0.6, 0.0, 0.7)))


def _two_post_parts():
    # two posts that overlap where the rod's far end passes, each posed at
    # one of three tilts, about x and about y: in one step a rod vertex
    # crosses faces of both
    wall, rod, joint = hinge_wall_rod()
    posts = [Part(name, (simple_box((0.2, 0.2, 0.8), center),),
                  Joint("revolute", axis=np.array(axis), pivot=np.array(center),
                        range=(-1.0, 1.0)), ref_states=states)
             for name, center, axis, states in (
                 ("post_x", [0.92, 0.39, 0.0], [1.0, 0.0, 0.0], (-0.6, 0.0, 0.7)),
                 ("post_y", [0.94, 0.41, 0.0], [0.0, 1.0, 0.0], (-0.5, 0.2, 0.6)))]
    return (Part("wall", (wall,), Joint("fixed")), Part("rod", (rod,), joint),
            *posts)


def _state_counts(parts, mover, cfg):
    from artigen.physics import _sample_ref_states

    keys = [tuple(_sample_ref_states(parts, mover, np.random.default_rng(
        [cfg.seed, mover, det])).values()) for det in range(cfg.n_det)]
    return sorted(keys.count(k) for k in set(keys))


@pytest.mark.parametrize("case", ["one_state", "mixed", "all_distinct", "two_posts"])
def test_dedup_matches_every_detection_oracle(case, tmp_path):
    from artigen.physics import _run_losses, _sample_ref_states

    cfg = SimConfig(n_steps=40, n_det=10, seed=2)
    if case == "mixed":
        parts = _pinned_post_parts()
        counts = _state_counts(parts, 1, cfg)
        assert len(counts) > 1 and counts[-1] > 1        # repeated and distinct
        assert _state_counts(parts, 2, cfg) == [1] * cfg.n_det
    elif case == "two_posts":
        parts = _two_post_parts()
        counts = _state_counts(parts, 1, cfg)
        assert len(counts) > 1 and counts[-1] > 1
        # a rod vertex crosses faces of both posts in one step
        meshes = [p.merged() for p in parts]
        states = _sample_ref_states(parts, 1, np.random.default_rng([cfg.seed, 1, 0]))
        own = articulated_ref_mesh(meshes, parts, 1, states)
        ti, vi, fi = single_simulation(meshes[1], own, parts[1].joint,
                                       cfg.n_steps).crossings
        # 0 for the wall, 1 and 2 for the posts
        post = np.searchsorted(np.cumsum([meshes[j].n_faces for j in (0, 2, 3)]),
                               fi, side="right")
        tv = ti * meshes[1].n_vertices + vi
        assert np.intersect1d(tv[post == 1], tv[post == 2]).size > 0
    else:
        parts = _eyeglasses_parts(tmp_path, ref_states=case == "one_state")
        want = [cfg.n_det] if case == "one_state" else [1] * cfg.n_det
        assert _state_counts(parts, 1, cfg) == want
    meshes = [p.merged() for p in parts]
    calls = []
    sim = physics.single_simulation

    def spy(*args, **kwargs):
        calls.append((kwargs["groups"], sim(*args, **kwargs)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(physics, "single_simulation", spy)
        got, got_proj, got_phy = _run_losses(parts, meshes, cfg, want_grad=True)
    ref, ref_proj, ref_phy = run_losses_every_detection(parts, meshes, cfg,
                                                        want_grad=True)
    # each group's crossings, its faces numbered within the group, are those
    # of its first detection's own reference
    movers = [i for i, p in enumerate(parts) if not p.joint.is_fixed]
    assert len(calls) == len(movers)
    for i, (groups, res) in zip(movers, calls):
        firsts = {}
        for det in range(cfg.n_det):
            states = _sample_ref_states(parts, i, np.random.default_rng(
                [cfg.seed, i, det]))
            firsts.setdefault(tuple(states.values()), states)
        assert len(firsts) == len(groups)
        for g, states in enumerate(firsts.values()):
            own = articulated_ref_mesh(meshes, parts, i, states)
            want = sim(meshes[i], own, parts[i].joint, cfg.n_steps).crossings
            assert _bytes(_group_view(res, groups, g)[2:]) == _bytes(want)

    def close(a, b):
        a, b = np.asarray(a), np.asarray(b)
        return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    # each detection's losses are summed in the same order as the oracle's
    assert ref.l_phy > 0 and ref.l_proj != 0
    assert _bytes([got.l_phy, got.l_proj]) == _bytes([ref.l_phy, ref.l_proj])
    assert [r[:2] for r in got.breakdown] == [r[:2] for r in ref.breakdown]
    assert (_bytes([r[2:] for r in got.breakdown])
            == _bytes([r[2:] for r in ref.breakdown]))
    # shared crossings are weighted once by their summed count
    for g, r in zip(got_proj + got_phy, ref_proj + ref_phy):
        assert g.shape == r.shape
        assert (g == 0).all() if not r.any() else close(g, r)
    assert any(r.any() for r in ref_proj) and any(r.any() for r in ref_phy)


def test_non_finite_vertices_raise():
    wall, rod, joint = hinge_wall_rod()
    for bad in (np.nan, np.inf):
        broken = np.array(rod.vertices)
        broken[3, 1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            single_simulation(TriMesh(broken, rod.faces), wall, joint, 10)
        broken = np.array(wall.vertices)
        broken[0, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            single_simulation(rod, TriMesh(broken, wall.faces), joint, 10)


# ---------------------------------------------------------------------------
# Blocked sweep: results must not depend on the byte budget


def _budget_cases():
    """Movers, the posed meshes their references hold, and the groups.

    Each case is ``(mov, posed, held, joint, n_steps, counts)``; group ``g``
    holds the meshes ``posed[k]`` for ``k`` in ``held[g]``, in that order.
    """
    wall, rod, hinge = hinge_wall_rod()
    slabs = [simple_box((0.1, 2.4, 1.2), (x, 0.0, 0.0)) for x in (0.3, 0.6, 0.85)]
    slide = Joint("prismatic", axis=np.array([1.0, 0.0, 0.0]),
                  pivot=np.zeros(3), range=(0.0, 0.6))
    posts = [simple_box((0.06, 0.06, 0.8), (0.3 * np.cos(a), 0.3 * np.sin(a), 0.0))
             for a in (0.3, 0.7, 1.1)]
    mover = grid_box(3, (0.4, 0.3, 0.3))
    return {
        "revolute": (rod, [wall], [[0]], hinge, 60, None),
        "revolute_groups": (rod, slabs, [[0], [1], [2]], hinge, 45,
                            np.array([2, 1, 3])),
        "prismatic_groups": (mover, slabs, [[0], [1], [2]], slide, 37,
                             np.array([1, 4, 1])),
        # a wall every group holds and a post the rod hits at three angles;
        # a slab every group holds and a second slab at two offsets, of
        # which the last group repeats the first
        "revolute_shared": (rod, [wall, *posts], [[0, 1], [0, 2], [0, 3]],
                            hinge, 45, np.array([2, 1, 3])),
        "prismatic_shared": (mover, slabs, [[0, 1], [0, 2], [0, 1]], slide, 37,
                             np.array([1, 4, 1])),
    }


def _stack(posed, held, whole=False):
    """The reference and group mask of a case of ``_budget_cases``.

    The reference holds each posed mesh once, or with ``whole`` each group's
    own merged reference under a block-diagonal mask.
    """
    if whole:
        refs = [merge_meshes([posed[k] for k in ks]) for ks in held]
        return merge_meshes(refs), np.repeat(np.eye(len(held), dtype=bool),
                                             refs[0].n_faces, axis=1)
    marks = np.zeros((len(held), len(posed)), dtype=bool)
    for g, ks in enumerate(held):
        marks[g, ks] = True
    return merge_meshes(posed), np.repeat(marks, [m.n_faces for m in posed], axis=1)


def _group_view(res, groups, g):
    """Group ``g``'s losses and crossings, its faces numbered within the group."""
    ti, vi, fi = res.crossings
    own = groups[g, fi]
    local = np.cumsum(groups[g]) - 1
    return [res.group_pene[g], res.group_proj[g], ti[own], vi[own], local[fi[own]]]


def _bytes(arrays):
    return [(a.dtype.str, a.shape, a.tobytes()) for a in map(np.asarray, arrays)]


def _result_bytes(res):
    fields = [*res.crossings, res.group_pene, res.group_proj]
    return _bytes(fields + [g for g in (res.proj_grad_v, res.phy_grad_v)
                            if g is not None])


@pytest.mark.parametrize("want_grad", [False, True])
@pytest.mark.parametrize("case", list(_budget_cases()))
def test_sweep_is_bit_identical_across_budgets(case, want_grad, monkeypatch):
    mov, posed, held, joint, n_steps, counts = _budget_cases()[case]
    layouts = [_stack(posed, held), _stack(posed, held, whole=True)]
    if case.endswith("_shared"):
        assert layouts[0][0].n_faces < layouts[1][0].n_faces
    runs = [[], []]
    # one step per block, a few steps per block, the whole sweep in one block;
    # each with the shared faces held once and with every group held whole
    for n_block in (1, 7, n_steps + 1):
        for (ref, groups), got in zip(layouts, runs):
            monkeypatch.setattr(physics, "_SWEEP_BYTES",
                                n_block * mov.n_vertices * ref.n_faces * 8)
            res = single_simulation(mov, ref, joint, n_steps, want_grad=want_grad,
                                    group_counts=counts, groups=groups)
            assert (res.proj_grad_v is not None) == want_grad
            assert res.crossings[0].size > 0
            got.append(res)
    for got in runs:
        assert all(_result_bytes(r) == _result_bytes(got[0]) for r in got[1:])
    (shared, whole), groups = (got[0] for got in runs), [g for _, g in layouts]
    for g in range(len(held)):
        assert (_bytes(_group_view(shared, groups[0], g))
                == _bytes(_group_view(whole, groups[1], g)))
    # a shared crossing is weighted once by its summed count, so the
    # gradients agree to rounding
    if want_grad:
        for got, want in ((shared.proj_grad_v, whole.proj_grad_v),
                          (shared.phy_grad_v, whole.phy_grad_v)):
            assert np.abs(want).max() > 0
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("case", ["revolute_shared", "prismatic_shared"])
def test_shared_faces_are_swept_once(case, monkeypatch):
    mov, posed, held, joint, n_steps, counts = _budget_cases()[case]
    ref, groups = _stack(posed, held)
    swept = []
    sweep = physics._sweep_crossings

    def spy(v_all, swept_ref, normals):
        swept.append(swept_ref.vertices[swept_ref.faces])
        return sweep(v_all, swept_ref, normals)

    monkeypatch.setattr(physics, "_sweep_crossings", spy)
    res = single_simulation(mov, ref, joint, n_steps, group_counts=counts,
                            groups=groups)
    # one sweep, of each distinct posed face once
    assert len(swept) == 1
    assert np.array_equal(swept[0], np.concatenate([m.vertices[m.faces]
                                                    for m in posed]))
    _, v_all = physics._swept_vertices(mov.vertices, joint, n_steps)
    for g, ks in enumerate(held):
        own = merge_meshes([posed[k] for k in ks])
        want = dense_sweep_crossings(v_all, own, face_normals(own))
        for got, w in zip(_group_view(res, groups, g)[2:], want[:3]):
            assert got.dtype == w.dtype and np.array_equal(got, w)
    # crossings of faces that several groups hold
    assert (groups[:, res.crossings[2]].sum(axis=0) > 1).any()


def _with_face(mesh, corners):
    """``mesh`` plus one face on three new vertices."""
    n = mesh.n_vertices
    return TriMesh(np.vstack([mesh.vertices, corners]),
                   np.vstack([mesh.faces, [[n, n + 1, n + 2]]]))


@pytest.mark.parametrize("bad_group", [0, 1])
def test_degenerate_face_keeps_its_index_when_shared(bad_group):
    # a zero-area face in the wall every group holds, or in group 1's post only
    wall, rod, hinge = hinge_wall_rod()
    line = [[0.6, 0.0, 0.0], [0.6, 0.1, 0.0], [0.6, 0.2, 0.0]]
    tri = [[0.6, 0.0, 0.0], [0.6, 0.1, 0.0], [0.6, 0.0, 0.1]]
    posed = [_with_face(wall, line if bad_group == 0 else tri)]
    for g, a in enumerate((0.3, 0.7, 1.1)):
        post = simple_box((0.06, 0.06, 0.8), (0.3 * np.cos(a), 0.3 * np.sin(a), 0.0))
        posed.append(_with_face(post, line if bad_group == g == 1 else tri))
    held = [[0, 1], [0, 2], [0, 3]]
    # the first zero-area face of the reference passed: the wall's 13th face,
    # or group 1's post's 13th face, which follows the wall and group 0's post
    # once the wall is shared, and group 0's reference and the wall otherwise
    for whole, before in ((False, 1), (True, 2)):
        ref, groups = _stack(posed, held, whole)
        want = 12 if bad_group == 0 else before * posed[0].n_faces + 13 + 12
        with pytest.raises(ValueError, match=f"^degenerate face {want}: "):
            single_simulation(rod, ref, hinge, 10, groups=groups)


def test_groups_mask_is_validated():
    wall, rod, hinge = hinge_wall_rod()
    ref, groups = _stack([wall, wall, wall], [[0, 1], [0, 2]])
    res = single_simulation(rod, ref, hinge, 10, groups=groups)
    assert (res.group_pene > 0).all()
    for bad, counts in ((groups[:, 1:], None), (groups, [1, 1, 1]), (None, [1, 1])):
        with pytest.raises(ValueError, match="^groups must be "):
            single_simulation(rod, ref, hinge, 10, group_counts=counts,
                              groups=bad)
    uneven = groups.copy()
    uneven[1, :wall.n_faces] = False
    with pytest.raises(ValueError, match="^groups mark different face counts"):
        single_simulation(rod, ref, hinge, 10, groups=uneven)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), prismatic=st.booleans(),
       n_steps=st.integers(4, 24), blocks=st.integers(1, 3))
def test_sweep_matches_loop_oracle_on_random_meshes(seed, prismatic, n_steps,
                                                   blocks):
    rng = np.random.default_rng(seed)
    ref = hull_mesh(rng.normal(size=(int(rng.integers(5, 14)), 3)))
    mov = hull_mesh(0.3 * rng.normal(size=(int(rng.integers(5, 10)), 3))
                    + rng.uniform(-1.0, 1.0, size=3))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    lo = float(rng.uniform(-1.0, 0.0))
    joint = Joint("prismatic" if prismatic else "revolute", axis=axis,
                  pivot=rng.uniform(-0.5, 0.5, size=3),
                  range=(lo, lo + float(rng.uniform(0.5, 2.5))))
    # a few steps per block, so that every sweep runs several blocks
    budget = blocks * mov.n_vertices * ref.n_faces * 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(physics, "_SWEEP_BYTES", budget)
        res = single_simulation(mov, ref, joint, n_steps)
    pene_o, proj_o = naive_sweep(mov, ref, joint, n_steps)
    assert res.group_pene[0] == pytest.approx(pene_o, rel=1e-9, abs=1e-15)
    assert res.group_proj[0] == pytest.approx(proj_o, rel=1e-9, abs=1e-15)


def test_sweep_memory_stays_within_budget():
    # a dense (N_s+1) * nv * nf float64 depth array would take over 2 GiB
    rod = grid_box(6, (1.0, 0.1, 0.1), (0.5, 0.0, 0.0))
    slabs = merge_meshes([grid_box(6, (2.0, 2.0, 0.02), (0.5, 0.0, 0.04 * k - 0.6))
                          for k in range(30)])
    # the first step jumps from the rest pose to -45 degrees, so the rod's
    # vertices cross many slab planes at once and the in-face test has
    # hundreds of thousands of flips to test in one block
    joint = Joint("revolute", axis=np.array([0.0, 1.0, 0.0]),
                  pivot=np.zeros(3), range=(-np.pi / 4, np.pi / 4))
    n_steps = 100
    step = rod.n_vertices * slabs.n_faces * 8
    assert (n_steps + 1) * step > 2 * 2**30
    # a block holds at least one step, so one step may set the budget
    budget = max(physics._SWEEP_BYTES, step)
    tracemalloc.start()
    try:
        res = single_simulation(rod, slabs, joint, n_steps, want_grad=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.crossings[0].size > 0
    # one block's depths, signs and flip indices plus one slice of the in-face
    # test: the peak is held to 2.5x the block budget (measured: 1.8x; 3.0x
    # when the in-face test runs on all of a block's flips at once)
    assert peak < 2.5 * budget


# ---------------------------------------------------------------------------
# Broadphase: the culled sweep must find exactly the dense sweep's crossings


def _oracle_case(kind, rng):
    """A reference, a mover that reaches it, and the joint's axis and pivot."""
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    pivot = rng.uniform(-0.5, 0.5, size=3)
    mov = hull_mesh(0.3 * rng.normal(size=(int(rng.integers(5, 10)), 3))
                    + rng.uniform(-0.6, 0.6, size=3))
    if kind == "hull":
        ref = hull_mesh(rng.normal(size=(int(rng.integers(5, 14)), 3)))
    elif kind == "skinny":
        # a thin plate or needle, turned at random: its faces are slivers
        # whose barycentric solve is ill-conditioned
        thin = 10.0 ** -rng.uniform(1.0, 4.0, size=2)
        if rng.random() < 0.7:
            thin[0] = 1.5
        plate = grid_box(int(rng.integers(1, 4)), (1.5, thin[0], thin[1]))
        turn = rotation_about_axis(axis, float(rng.uniform(0.0, np.pi)))
        ref = TriMesh(plate.vertices @ turn.T, plate.faces)
    else:
        # grid boxes whose faces touch, at dyadic sizes and offsets and with a
        # joint along a coordinate axis: depths of exactly 0 stay exact, so
        # signs change from and to 0; a nudge of a few 1e-10 puts vertices
        # just outside a face but within the in-face tolerance of some
        ref = grid_box(int(rng.integers(1, 4)))
        size = rng.integers(1, 8, size=3) / 8
        center = np.array([0.5 + size[0] / 2, *rng.integers(-3, 4, size=2) / 8])
        center[1:] += rng.choice([0.0, 4e-10, -4e-10], size=2)
        mov = grid_box(int(rng.integers(1, 4)), size, center)
        axis = np.eye(3)[rng.integers(3)] * rng.choice([-1.0, 1.0])
        pivot = np.array([0.5, *rng.integers(-3, 4, size=2) / 8])
    return mov, ref, axis, pivot


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(["hull", "skinny", "contact"]),
       prismatic=st.booleans(), rest_outside=st.booleans(),
       n_steps=st.integers(1, 24),
       budget=st.sampled_from([256, 4 << 10, 64 << 10, 2 << 20]))
def test_sweep_matches_dense_oracle(seed, kind, prismatic, rest_outside, n_steps,
                                   budget):
    rng = np.random.default_rng(seed)
    mov, ref, axis, pivot = _oracle_case(kind, rng)
    # a range that starts far from the rest pose makes transition 0 a jump
    lo = float(rng.uniform(1.0, 3.0) if rest_outside else rng.uniform(-1.0, 0.0))
    joint = Joint("prismatic" if prismatic else "revolute", axis=axis,
                  pivot=pivot, range=(lo, lo + float(rng.uniform(0.3, 2.5))))
    _, v_all = physics._swept_vertices(mov.vertices, joint, n_steps)
    normals = face_normals(ref)
    want = dense_sweep_crossings(v_all, ref, normals)
    # small budgets split the pair test, the pair batches, the step blocks
    # and the in-face slices
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(physics, "_SWEEP_BYTES", budget)
        got = physics._sweep_crossings(v_all, ref, normals)
    for g, w in zip(got[:3], want[:3]):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert np.abs(got[3] - want[3]).max(initial=0.0) <= (
        1e-12 * np.abs(want[3]).max(initial=0.0))


def test_sweep_keeps_crossings_within_the_in_face_tolerance():
    # the mover's -x face lies in the plane of the reference's +x face, with
    # its near edge 4e-10 beyond that face's edge, inside the in-face
    # tolerance; turning about an axis 1e-9 from that edge moves its vertices
    # by about 1e-10 a step, less than the gap, so only the cull's tolerance
    # margin keeps their crossings
    ref = simple_box((1.0, 1.0, 1.0))
    mov = simple_box((0.25, 0.25, 0.25), (0.625, 0.625 + 4e-10, 0.0))
    joint = Joint("revolute", axis=np.array([0.0, 0.0, 1.0]),
                  pivot=np.array([0.5, 0.5 - 6e-10, 0.0]), range=(0.1, 0.5))
    _, v_all = physics._swept_vertices(mov.vertices, joint, 8)
    normals = face_normals(ref)
    got = physics._sweep_crossings(v_all, ref, normals)
    want = dense_sweep_crossings(v_all, ref, normals)
    near_edge = np.flatnonzero(mov.vertices[:, 1] < 0.5 + 1e-9)
    assert np.isin(want[1], near_edge).any()
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
