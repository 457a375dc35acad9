"""Shared synthetic geometry for the test suite."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.spatial import ConvexHull

from artigen.mesh import TriMesh, save_obj

_BOX_FACES = np.array([
    [0, 1, 3], [0, 3, 2], [4, 6, 7], [4, 7, 5], [0, 4, 5], [0, 5, 1],
    [2, 3, 7], [2, 7, 6], [0, 2, 6], [0, 6, 4], [1, 5, 7], [1, 7, 3],
])


def simple_box(scale=(1, 1, 1), center=(0, 0, 0)) -> TriMesh:
    """Axis-aligned 8-vertex box."""
    v = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)],
                 dtype=np.float64)
    v = (v - 0.5) * np.asarray(scale, dtype=np.float64) + np.asarray(center)
    return TriMesh(v, _BOX_FACES)


def grid_box(n=3, scale=(1, 1, 1), center=(0, 0, 0)) -> TriMesh:
    """Box with each face split into an n x n quad grid (n=3: 56 vertices)."""
    verts, faces, vid = [], [], {}

    def gv(p):
        key = tuple(np.round(p, 9))
        if key not in vid:
            vid[key] = len(verts)
            verts.append(p)
        return vid[key]

    for axis in range(3):
        for side in (0.0, 1.0):
            for i in range(n):
                for j in range(n):
                    def pt(a, b):
                        p = [0.0, 0.0, 0.0]
                        p[axis] = side
                        p[(axis + 1) % 3] = a / n
                        p[(axis + 2) % 3] = b / n
                        return np.array(p)

                    c00 = gv(pt(i, j))
                    c10 = gv(pt(i + 1, j))
                    c01 = gv(pt(i, j + 1))
                    c11 = gv(pt(i + 1, j + 1))
                    if side == 1.0:
                        faces += [[c00, c10, c11], [c00, c11, c01]]
                    else:
                        faces += [[c00, c11, c10], [c00, c01, c11]]
    v = (np.array(verts) - 0.5) * np.asarray(scale, dtype=np.float64)
    return TriMesh(v + np.asarray(center, dtype=np.float64), np.array(faces))


def hull_mesh(points: np.ndarray) -> TriMesh:
    """Convex hull of the points as a closed mesh with outward-facing faces."""
    hull = ConvexHull(points)
    faces = hull.simplices.copy()
    tri = points[faces]
    normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
    inward = np.einsum("fa,fa->f", normal, hull.equations[:, :3]) < 0
    faces[inward] = faces[inward][:, [0, 2, 1]]
    used, faces = np.unique(faces, return_inverse=True)
    return TriMesh(points[used], faces.reshape(-1, 3))


def hinge_wall_rod():
    """A fixed wall and a revolute rod that sweeps through it."""
    from artigen.mesh import Joint

    wall = simple_box((0.1, 2.4, 1.2), (0.6, 0.0, 0.0))
    rod = simple_box((1.0, 0.05, 0.05), (0.5, 0.0, 0.0))
    joint = Joint("revolute", axis=np.array([0.0, 0.0, 1.0]),
                  pivot=np.zeros(3), range=(0.0, np.pi / 2))
    return wall, rod, joint


def write_eyeglasses(root: Path, index: int, rng: np.random.Generator) -> Path:
    """One toy eyeglasses object: fixed 2-convex frame + two revolute legs.

    Dimensions are jittered per object so a family of manifests forms a
    deformation dataset with aligned convex correspondence.
    """
    root = Path(root)
    obj_dir = root / f"glasses_{index:02d}"
    obj_dir.mkdir(parents=True, exist_ok=True)
    s = 1.0 + 0.25 * rng.uniform(-1, 1)           # overall size
    w = 1.0 + 0.3 * rng.uniform(-1, 1)            # frame width factor
    leg = 1.0 + 0.3 * rng.uniform(-1, 1)          # leg length factor

    rim_l = grid_box(3, (0.9 * w * s, 0.12 * s, 0.45 * s), (-0.5 * w * s, 0, 0))
    rim_r = grid_box(3, (0.9 * w * s, 0.12 * s, 0.45 * s), (0.5 * w * s, 0, 0))
    leg_l = grid_box(3, (0.08 * s, 1.0 * leg * s, 0.08 * s),
                     (-w * s, -0.5 * leg * s, 0))
    leg_r = grid_box(3, (0.08 * s, 1.0 * leg * s, 0.08 * s),
                     (w * s, -0.5 * leg * s, 0))
    names = {"rim_l": rim_l, "rim_r": rim_r, "leg_l": leg_l, "leg_r": leg_r}
    for name, mesh in names.items():
        save_obj(mesh, obj_dir / f"{name}.obj")

    manifest = {
        "parts": [
            {
                "name": "frame",
                "convex_objs": ["rim_l.obj", "rim_r.obj"],
                "joint": {"kind": "fixed"},
            },
            {
                "name": "leg_l",
                "convex_objs": ["leg_l.obj"],
                "joint": {"kind": "revolute", "axis": [0, 0, 1],
                          "pivot": [-w * s, 0, 0], "range": [0.0, 1.5]},
                "ref_states": [0.0],
            },
            {
                "name": "leg_r",
                "convex_objs": ["leg_r.obj"],
                "joint": {"kind": "revolute", "axis": [0, 0, 1],
                          "pivot": [w * s, 0, 0], "range": [-1.5, 0.0]},
                "ref_states": [0.0],
            },
        ],
    }
    path = obj_dir / "object.json"
    path.write_text(json.dumps(manifest, indent=2))
    return path


def write_eyeglasses_dataset(root: Path, n: int = 5, seed: int = 0) -> Path:
    root = Path(root)
    rng = np.random.default_rng(seed)
    entries = []
    for i in range(n):
        path = write_eyeglasses(root, i, rng)
        entries.append(str(path.relative_to(root)))
    ds = root / "dataset.json"
    ds.write_text(json.dumps({"objects": entries}, indent=2))
    return ds
