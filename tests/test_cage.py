import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from artigen.cage import (
    Cage,
    build_cage,
    cage_template,
    mean_value_coordinates,
    smooth_weights,
    weight_matrix,
)
from artigen.mesh import TriMesh
from fixtures import grid_box, hull_mesh, simple_box
from oracle import apply_cage_deform


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

