"""Tests of the benchmark's own oracles, generators and tracer.

Run with ``PYTHONPATH=src python3 -m pytest perfbench``.
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracles  # noqa: E402
from spans import Tracer  # noqa: E402
from worker import _differing  # noqa: E402


def test_chamfer_hand_computed():
    p = np.array([[0.0, 0.0, 0.0]])
    q = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    # p -> q: nearest squared distance 1; q -> p: (1 + 4) / 2
    assert oracles.chamfer(p, q) == pytest.approx(3.5, abs=1e-12)
    assert oracles.chamfer(q, p) == pytest.approx(3.5, abs=1e-12)
    assert oracles.chamfer(q, q) == 0.0


def test_chamfer_matches_loops_across_chunks():
    rng = np.random.default_rng(0)
    p, q = rng.normal(size=(1500, 3)), rng.normal(size=(40, 3))
    fwd = np.mean([min(((a - b) ** 2).sum() for b in q) for a in p])
    back = np.mean([min(((a - b) ** 2).sum() for a in p) for b in q])
    assert oracles.chamfer(p, q) == pytest.approx(fwd + back, rel=1e-10)


def _segment_sq(p, a, b):
    t = np.clip((p - a) @ (b - a) / ((b - a) @ (b - a)), 0.0, 1.0)
    d = p - (a + t * (b - a))
    return d @ d


def _triangle_sq(p, a, b, c):
    """Nearest of the three edges and, if it falls inside, the plane projection."""
    n = np.cross(b - a, c - a)
    n /= np.linalg.norm(n)
    h = (p - a) @ n
    coords = np.linalg.lstsq(np.stack([b - a, c - a], axis=1), p - h * n - a,
                             rcond=None)[0]
    best = min(_segment_sq(p, a, b), _segment_sq(p, b, c), _segment_sq(p, c, a))
    if coords.min() >= 0 and coords.sum() <= 1:
        best = min(best, h * h)
    return best


def test_point_mesh_distance_matches_loops():
    rng = np.random.default_rng(3)
    for _ in range(10):
        tri = rng.normal(size=(3, 3))
        pts = rng.normal(size=(100, 3)) * 1.5
        got = oracles.point_mesh_sq(pts, tri, np.array([[0, 1, 2]]))
        want = [_triangle_sq(p, *tri) for p in pts]
        assert np.allclose(got, want, rtol=0, atol=1e-12)


def test_point_mesh_distance_to_box():
    v, f = gen.grid_box((1.0, 2.0, 3.0), (0.0, 0.0, 0.0))
    pts = np.random.default_rng(0).normal(size=(500, 3)) * 2
    half = np.array([0.5, 1.0, 1.5])
    want = (np.maximum(np.abs(pts) - half, 0.0) ** 2).sum(axis=1)
    inside = (np.abs(pts) <= half).all(axis=1)
    want[inside] = (half - np.abs(pts[inside])).min(axis=1) ** 2
    assert np.allclose(oracles.point_mesh_sq(pts, v, f), want, rtol=0, atol=1e-12)


def test_set_metrics_hand_computed():
    a, b, c = (np.array([[x, 0.0, 0.0]]) for x in (0.0, 1.0, 3.0))
    # one-point clouds: Chamfer counts the squared distance both ways, so
    # CD(a, b) = 2, CD(a, c) = 18, CD(b, c) = 8
    got = oracles.set_metrics([a], [b, c])
    assert got["mmd"] == pytest.approx(10.0)
    assert got["cov"] == 0.5
    # pooled nearest neighbours: a->b (wrong), b->a (wrong), c->b (right)
    assert got["one_nna"] == pytest.approx(1 / 3)
    assert got["pairs"] == 3


def test_grid_box_is_closed_and_outward():
    v, f = gen.grid_box((1.0, 2.0, 3.0), (0.5, 0.0, 0.0))
    assert (len(v), len(f)) == (56, 108)
    assert oracles.closed(f)
    assert not oracles.closed(f[1:])
    tri = v[f]
    volume = np.einsum("fa,fa->f", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6
    assert volume == pytest.approx(6.0)


def test_obj_round_trip(tmp_path):
    v, f = gen.grid_box((0.3, 0.7, 1.1), (0.1, 0.2, 0.3))
    gen.write_obj(tmp_path / "box.obj", v, f)
    v2, f2 = gen.read_obj(tmp_path / "box.obj")
    assert np.array_equal(v, v2) and np.array_equal(f, f2)


@pytest.mark.parametrize("write", [
    lambda root, seed: gen.write_eyeglasses_dataset(root, seed),
    gen.write_simulation_objects,
    gen.write_eval_shapes,
])
def test_generators_reproducible_per_seed(tmp_path, write):
    write(tmp_path / "a", 3)
    write(tmp_path / "b", 3)
    write(tmp_path / "c", 4)
    assert _differing(tmp_path / "a", tmp_path / "b") == []
    assert _differing(tmp_path / "b", tmp_path / "a") == []
    assert _differing(tmp_path / "a", tmp_path / "c") != []


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_simulation_objects_collide_as_built(tmp_path, seed):
    from artigen.mesh import load_manifest
    from artigen.physics import SimConfig, physics_losses

    for obj in gen.write_simulation_objects(tmp_path, seed):
        if not (obj["control"] or obj["collides"]):
            continue
        rep = physics_losses(load_manifest(tmp_path / obj["manifest"]),
                             SimConfig(n_steps=40, n_det=3, seed=seed))
        if obj["control"]:
            assert all(d == 0.0 for _, _, d, _ in rep.breakdown), obj["name"]
            assert rep.l_phy == 0.0 and rep.l_proj == 0.0
        else:
            assert rep.l_phy > 0.0, obj["name"]


def test_control_parts_out_of_reach(tmp_path):
    """Swept bounding spheres of the control object's parts never meet."""
    _, _, parts = next(o for o in gen.simulation_objects(5) if o[0] == "control")
    reach = []
    for part in parts:
        v = np.concatenate([c[0] for c in part["convexes"]])
        joint = part["joint"]
        if joint["kind"] == "revolute":
            center = np.array(joint["pivot"])
            radius = np.linalg.norm(v - center, axis=1).max()
        else:
            lo, hi = joint.get("range", (0.0, 0.0))
            axis = np.array(joint.get("axis", [0, 0, 1]), dtype=float)
            center = v.mean(axis=0) + 0.5 * (lo + hi) * axis
            radius = np.linalg.norm(v - v.mean(axis=0), axis=1).max() + 0.5 * (hi - lo)
        reach.append((center, radius))
    for i in range(len(reach)):
        for j in range(i + 1, len(reach)):
            (ci, ri), (cj, rj) = reach[i], reach[j]
            assert np.linalg.norm(ci - cj) > ri + rj


def test_tracer_wraps_every_lookup_and_restores():
    import artigen.basis as basis
    import artigen.metrics as metrics

    original = basis.chamfer_distance
    tracer = Tracer()
    tracer.install()
    try:
        assert metrics.chamfer_distance is basis.chamfer_distance
        assert basis.chamfer_distance is not original
        rng = np.random.default_rng(1)
        clouds = [rng.normal(size=(20, 3)) for _ in range(3)]
        tracer.begin_op()
        metrics.pairwise_chamfer(clouds[:2], clouds)
    finally:
        tracer.uninstall()
    assert basis.chamfer_distance is original and metrics.chamfer_distance is original
    got = tracer.per_layer(1, ["basis.chamfer_distance.calls",
                               "metrics.pairwise_chamfer.pairs",
                               "metrics.pairwise_chamfer.total_s",
                               "metrics.pairwise_chamfer.self_s"])
    assert got["basis.chamfer_distance.calls"] == 6
    assert got["metrics.pairwise_chamfer.pairs"] == 6
    parent = next(s for s in tracer.spans if s.name == "metrics.pairwise_chamfer")
    children = [s for s in tracer.spans if s.parent == parent.span]
    assert len(children) == 6 and all(s.op == parent.op == 1 for s in children)
    assert 0.0 <= got["metrics.pairwise_chamfer.self_s"] <= got[
        "metrics.pairwise_chamfer.total_s"]

