import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artigen import cage as cage_mod
from artigen.cage import (
    Cage,
    build_cage,
    cage_template,
    mean_value_coordinates,
    smooth_weights,
    weight_matrix,
)
from artigen.mesh import TriMesh, load_manifest
from fixtures import grid_box, hull_mesh, simple_box, write_eyeglasses_dataset
from oracle import apply_cage_deform, mvc_per_point, weight_matrix_per_point


def naive_mvc(x, mesh, eps=1e-10):
    """Independent per-face loop implementation used as an oracle."""
    V, F = mesh.vertices, mesh.faces
    d = np.linalg.norm(V - x, axis=1)
    if d.min() < eps:
        w = np.zeros(len(V))
        w[int(d.argmin())] = 1.0
        return w
    u = (V - x) / d[:, None]
    w = np.zeros(len(V))
    for tri in F:
        l = [np.linalg.norm(u[tri[(i + 1) % 3]] - u[tri[(i + 2) % 3]])
             for i in range(3)]
        th = 2 * np.arcsin(np.clip(np.array(l) / 2, 0, 1))
        h = th.sum() / 2
        if np.pi - h < 1e-8:
            wf = np.array([np.sin(th[i]) * d[tri[(i + 2) % 3]] * d[tri[(i + 1) % 3]]
                           for i in range(3)])
            w = np.zeros(len(V))
            w[tri] = wf / wf.sum()
            return w
        c = np.array([
            2 * np.sin(h) * np.sin(h - th[i])
            / (np.sin(th[(i + 1) % 3]) * np.sin(th[(i + 2) % 3])) - 1
            for i in range(3)
        ])
        s = np.sign(np.linalg.det(u[tri])) * np.sqrt(np.clip(1 - c * c, 0, None))
        if np.any(np.abs(s) <= eps):
            continue
        for i in range(3):
            ip, im = (i + 1) % 3, (i + 2) % 3
            w[tri[i]] += (th[i] - c[ip] * th[im] - c[im] * th[ip]) / (
                d[tri[i]] * np.sin(th[ip]) * s[im])
    return w / w.sum()


TETRA = TriMesh(
    np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=np.float64),
    np.array([[0, 2, 1], [0, 1, 3], [0, 3, 2], [1, 2, 3]]),
)


def _random_cage(rng):
    t = cage_template()
    radii = 1.0 + 0.4 * rng.random((t.n_vertices, 1))
    return TriMesh(t.vertices * radii, t.faces)


def _interior_points(rng, n, radius=0.45):
    p = rng.normal(size=(n, 3))
    p /= np.linalg.norm(p, axis=1, keepdims=True)
    return p * radius * rng.random((n, 1))


def test_template_icosphere():
    t = cage_template()
    assert t.n_vertices == 42 and t.n_faces == 80
    np.testing.assert_allclose(np.linalg.norm(t.vertices, axis=1), 1.0,
                               atol=1e-12)


def test_mvc_partition_of_unity_and_linear_precision():
    rng = np.random.default_rng(11)
    for _ in range(5):
        cage = _random_cage(rng)
        pts = _interior_points(rng, 1000)
        w = weight_matrix(pts, cage)
        assert np.abs(w.sum(axis=1) - 1).max() < 1e-6
        assert np.abs(w @ cage.vertices - pts).max() < 1e-6


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(6, 40),
       scale=st.tuples(*[st.floats(0.05, 20.0)] * 3))
def test_mvc_properties_in_random_convex_cages(seed, n_points, scale):
    rng = np.random.default_rng(seed)
    cage = hull_mesh(rng.normal(size=(n_points, 3)) * np.array(scale))
    # strictly interior: convex combinations of the cage vertices pulled a
    # little towards their centroid
    mix = rng.dirichlet(np.ones(cage.n_vertices), size=20)
    centre = cage.vertices.mean(axis=0)
    pts = centre + 0.95 * (mix @ cage.vertices - centre)
    w = weight_matrix(pts, cage)
    assert np.abs(w.sum(axis=1) - 1.0).max() < 1e-10
    size = np.ptp(cage.vertices, axis=0).max()
    assert np.abs(w @ cage.vertices - pts).max() < 1e-9 * size


def test_mvc_tetra_centroid():
    w = mean_value_coordinates(TETRA.vertices.mean(axis=0), TETRA)
    np.testing.assert_allclose(w, 0.25, atol=1e-12)


def test_mvc_vertex_indicator():
    for i in range(4):
        w = mean_value_coordinates(TETRA.vertices[i], TETRA)
        expect = np.zeros(4)
        expect[i] = 1.0
        np.testing.assert_array_equal(w, expect)


def test_mvc_on_face_barycentric():
    w = mean_value_coordinates([0.2, 0.3, 0.0], TETRA)
    np.testing.assert_allclose(w, [0.5, 0.2, 0.3, 0.0], atol=1e-9)


def test_mvc_matches_naive_oracle():
    rng = np.random.default_rng(5)
    cage = _random_cage(rng)
    for p in _interior_points(rng, 25):
        np.testing.assert_allclose(mean_value_coordinates(p, cage),
                                   naive_mvc(p, cage), atol=1e-10)


def test_scipy_optimize_imported_only_by_cage_building():
    # a fresh interpreter: importing the pipeline leaves scipy.optimize (about
    # 11 MiB) unloaded; building a cage loads it
    code = ("import sys, artigen.pipeline\n"
            "print('scipy.optimize' in sys.modules)\n"
            "from artigen.cage import build_cage, cage_template\n"
            "build_cage(cage_template())\n"
            "print('scipy.optimize' in sys.modules)\n")
    src = str(Path(cage_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.split() == ["False", "True"]


def test_build_cage_template_fit_and_retraction():
    box = grid_box(3)
    cage = build_cage(box)
    assert cage.mesh.n_vertices == 42
    t = cage_template()
    centroid = box.vertices.mean(axis=0)
    radius = np.linalg.norm(box.vertices - centroid, axis=1).max()
    prefit = t.vertices * (1.05 * radius) + centroid
    # each cage vertex sits at 95% of the way from its prefit position to
    # some distinct convex vertex
    moved = cage.mesh.vertices - prefit
    matched = prefit + moved / 0.95
    d = np.linalg.norm(matched[:, None] - box.vertices[None], axis=2)
    picks = d.argmin(axis=1)
    assert d.min(axis=1).max() < 1e-9
    assert len(set(picks.tolist())) == 42  # assignment is injective


def test_build_cage_pads_small_convex():
    tiny = simple_box()
    with pytest.warns(UserWarning, match="padding"):
        cage = build_cage(tiny)
    assert cage.mesh.n_vertices == 42
    assert cage.phi.shape == (8, 42)


def test_apply_cage_deform_linearity():
    rng = np.random.default_rng(2)
    box = grid_box(3)
    cage = build_cage(box)
    o1 = rng.normal(scale=0.1, size=(42, 3))
    o2 = rng.normal(scale=0.1, size=(42, 3))
    a, b = 0.7, -1.3
    lhs = apply_cage_deform(cage, a * o1 + b * o2)
    rhs = a * apply_cage_deform(cage, o1) + b * apply_cage_deform(cage, o2)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_apply_cage_deform_brute_force():
    rng = np.random.default_rng(3)
    box = grid_box(3)
    cage = build_cage(box)
    offs = rng.normal(scale=0.1, size=(42, 3))
    out = apply_cage_deform(cage, offs)
    brute = np.array([
        sum(cage.phi[i, j] * offs[j] for j in range(42))
        for i in range(box.n_vertices)
    ])
    assert np.abs(out - brute).max() < 1e-12


def test_apply_cage_deform_shape_check():
    cage = build_cage(grid_box(3))
    with pytest.raises(ValueError):
        apply_cage_deform(cage, np.zeros((41, 3)))


def test_smooth_weights_partition_of_unity():
    a = grid_box(3, (1, 1, 1), (0, 0, 0))
    b = grid_box(3, (1, 1, 1), (1.0, 0, 0))  # shares the x=0.5 plane
    cages = [build_cage(a), build_cage(b)]
    w = smooth_weights(cages, [a, b], blend_radius=0.4)
    for m in range(2):
        total = sum(w[m][k].sum(axis=1) for k in range(2))
        np.testing.assert_allclose(total, 1.0, atol=1e-9)


def test_smooth_weights_far_rows_unchanged():
    a = grid_box(3)
    b = grid_box(3, center=(10.0, 0, 0))
    cages = [build_cage(a), build_cage(b)]
    w = smooth_weights(cages, [a, b], blend_radius=0.4)
    np.testing.assert_array_equal(w[0][0], cages[0].phi)
    assert np.abs(w[0][1]).max() == 0.0


def test_smooth_weights_reduce_seam_gap():
    # two touching convexes, one cage displaced: blending pulls the motion of
    # seam vertices of the two convexes together
    a = grid_box(3, (1, 1, 1), (0, 0, 0))
    b = grid_box(3, (1, 1, 1), (1.0, 0, 0))
    cages = [build_cage(a), build_cage(b)]
    rng = np.random.default_rng(4)
    offs = [rng.normal(scale=0.2, size=(42, 3)), np.zeros((42, 3))]

    def seam_gap(weights):
        da = sum(weights[0][k] @ offs[k] for k in range(2))
        db = sum(weights[1][k] @ offs[k] for k in range(2))
        va = a.vertices + da
        vb = b.vertices + db
        ia, ib = np.nonzero(
            np.linalg.norm(a.vertices[:, None] - b.vertices[None], axis=2) < 1e-9
        )
        return np.linalg.norm(va[ia] - vb[ib], axis=1).max()

    hard = smooth_weights(cages, [a, b], blend_radius=0.0)
    soft = smooth_weights(cages, [a, b], blend_radius=0.5)
    assert seam_gap(soft) < seam_gap(hard)



# ---------------------------------------------------------------------------
# Batched weights: byte for byte the per-point oracle


def _special_points(cage, rng):
    """Cage vertices, points on cage faces and edges, and points on a face
    plane outside the face."""
    tri = cage.vertices[cage.faces]
    centroid = tri.mean(axis=1)
    bary = rng.dirichlet(np.ones(3), size=len(tri))
    on_face = np.einsum("fk,fka->fa", bary, tri)
    # on an edge, so on the two faces that share it
    on_edge = tri[:, 0] + rng.uniform(0.2, 0.8, size=(len(tri), 1)) * (tri[:, 1] - tri[:, 0])
    # past a corner, in the face's plane: outside the face itself
    outside = centroid + 1.5 * (tri[:, 0] - centroid)
    return np.vstack([cage.vertices, centroid, on_face, on_edge, outside])


def _assert_matches_oracle(points, cage):
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    w = weight_matrix(points, cage)
    expect = weight_matrix_per_point(points, cage)
    assert w.shape == expect.shape == (len(points), cage.n_vertices)
    assert w.tobytes() == expect.tobytes()


def test_weight_matrix_matches_oracle_on_test_cages():
    rng = np.random.default_rng(8)
    box = grid_box(3)
    with pytest.warns(UserWarning, match="padding"):
        small = build_cage(simple_box())
    # an unreferenced copy of vertex 1: a point there hits two cage vertices
    twin = TriMesh(np.vstack([TETRA.vertices, TETRA.vertices[1]]), TETRA.faces)
    cases = [(TETRA, TETRA.vertices.mean(axis=0)[None]),
             (twin, TETRA.vertices.mean(axis=0)[None]),
             (_random_cage(rng), _interior_points(rng, 200)),
             (build_cage(box).mesh, box.vertices),
             (small.mesh, simple_box().vertices),
             (simple_box(), _interior_points(rng, 50)),
             (grid_box(3), _interior_points(rng, 50))]
    for cage, inner in cases:
        _assert_matches_oracle(np.vstack([inner, _special_points(cage, rng)]), cage)


def test_weight_matrix_matches_oracle_on_fixture_eyeglasses(tmp_path):
    ds = write_eyeglasses_dataset(tmp_path, n=5, seed=0)
    rng = np.random.default_rng(9)
    n_convexes = 0
    for entry in json.loads(ds.read_text())["objects"]:
        for part in load_manifest(tmp_path / entry).parts:
            for convex in part.convexes:
                cage = build_cage(convex)
                np.testing.assert_array_equal(
                    cage.phi, weight_matrix_per_point(convex.vertices, cage.mesh))
                _assert_matches_oracle(_special_points(cage.mesh, rng), cage.mesh)
                n_convexes += 1
    assert n_convexes == 20


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_points=st.integers(6, 40),
       scale=st.tuples(*[st.floats(0.05, 20.0)] * 3))
def test_weight_matrix_matches_oracle_in_random_convex_cages(seed, n_points, scale):
    rng = np.random.default_rng(seed)
    cage = hull_mesh(rng.normal(size=(n_points, 3)) * np.array(scale))
    mix = rng.dirichlet(np.ones(cage.n_vertices), size=20)
    centre = cage.vertices.mean(axis=0)
    pts = centre + rng.uniform(0.5, 1.3, size=(20, 1)) * (mix @ cage.vertices - centre)
    _assert_matches_oracle(np.vstack([pts, _special_points(cage, rng)]), cage)


def test_weight_matrix_takes_the_lu_sign_only_near_zero(monkeypatch):
    rng = np.random.default_rng(14)
    cage = _random_cage(rng)
    tri = cage.vertices[cage.faces]
    # on the line through an edge, inside and outside the edge: both faces of
    # the edge see collinear corner directions
    along = rng.choice([-0.5, 0.5, 1.5], size=(len(tri), 1))
    on_line = tri[:, 0] + along * (tri[:, 1] - tri[:, 0])
    pts = np.vstack([_interior_points(rng, 30), _special_points(cage, rng), on_line])
    expect = weight_matrix_per_point(pts, cage)

    # the unit corner directions of each face, for points on no cage vertex
    diff = cage.vertices - pts[:, None]
    diff = diff[(np.linalg.norm(diff, axis=2) >= cage_mod._TOL).all(axis=1)]
    tu = (diff / np.linalg.norm(diff, axis=2, keepdims=True))[:, cage.faces]
    t = np.einsum("pfi,pfi->pf", tu[:, :, 0], np.cross(tu[:, :, 1], tu[:, :, 2]))
    close = np.abs(t) <= 1e-12
    near = tu[close]
    assert 0 < len(near) < t.size
    # there the triple product's sign is not always LU's
    assert (np.sign(t[close]) != np.sign(np.linalg.det(near))).any()

    seen = []
    det = np.linalg.det

    def spy(a):
        seen.append(np.array(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", spy)
    w = weight_matrix(pts, cage)
    assert w.tobytes() == expect.tobytes()
    assert sorted(m.tobytes() for m in np.concatenate(seen)) == sorted(
        m.tobytes() for m in near)


def test_weight_matrix_degenerate_point_raises_like_oracle():
    # a flat two-sided cage: a point in its plane but off the triangle lies in
    # the plane of every face, so no face contributes and the weights sum to 0
    flat = TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=np.float64),
                   np.array([[0, 1, 2], [0, 2, 1]]))
    p = np.array([2.0, 2.0, 0.0])
    with pytest.raises(ValueError, match="degenerate") as expect:
        mvc_per_point(p, flat)
    for points in (p[None], np.array([[0.2, 0.2, 0.5], p, [0.1, 0.1, 0.0]])):
        with pytest.raises(ValueError) as got:
            weight_matrix(points, flat)
        assert str(got.value) == str(expect.value)


def test_weight_matrix_of_no_points_has_one_column_per_cage_vertex():
    cage = cage_template()
    w = weight_matrix(np.zeros((0, 3)), cage)
    assert w.shape == (0, cage.n_vertices)


def test_weight_matrix_is_bit_identical_across_block_sizes(monkeypatch):
    rng = np.random.default_rng(10)
    cage = _random_cage(rng)
    pts = np.vstack([_interior_points(rng, 300), _special_points(cage, rng)])
    whole = weight_matrix(pts, cage)
    # one row per block, then a few rows per block
    for budget in (1, 7 * cage_mod._MVC_FACE_BYTES * cage.n_faces):
        monkeypatch.setattr(cage_mod, "_MVC_BYTES", budget)
        assert weight_matrix(pts, cage).tobytes() == whole.tobytes()


def test_weight_matrix_memory_stays_within_budget():
    rng = np.random.default_rng(12)
    cage = _random_cage(rng)
    pts = _interior_points(rng, 20000)
    out_bytes = len(pts) * cage.n_vertices * 8
    tracemalloc.start()
    try:
        w = weight_matrix(pts, cage)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert w.shape == (20000, cage.n_vertices)
    # the output plus one block's temporaries; all 20k rows at once would
    # take about 460 MB (measured: output + 1.1x the budget)
    assert peak < out_bytes + 2 * cage_mod._MVC_BYTES


def test_cage_template_is_built_once():
    assert cage_template() is cage_template()
    assert not cage_template().vertices.flags.writeable
